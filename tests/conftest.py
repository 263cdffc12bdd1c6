"""Shared scenes: an absorbing Lorentz cube and a Drude sphere at ka = 1.

All quantities are in natural units (c = eps0 = hbar = 1).  The sphere
voxelization (radius 1, edge 0.2497) gives exactly 257 voxels with a
center voxel at the origin; the cube tiles exactly into 4^3 voxels.
"""

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same few examples on every run, whatever the machine's speed
settings.register_profile("greenvox", derandomize=True, deadline=None, max_examples=12,
                          database=None)
settings.load_profile("greenvox")

from greenvox import (Box, LorentzPole, MediumSolver, PermittivityModel, Sphere,
                      build_grid, g0_closed)
from greenvox.green_free import self_term

OMEGA = 1.0

CUBE_EDGE = 0.8
CUBE_VOXEL = 0.2
SPHERE_RADIUS = 1.0
SPHERE_VOXEL = 0.2497  # 257 voxels, volume defect -4.5%

LORENTZ = PermittivityModel(poles=(LorentzPole(omega0=1.5, omegap=1.0, gamma=0.4),))
DRUDE = PermittivityModel(poles=(LorentzPole(omega0=0.0, omegap=1.5, gamma=0.3),))
VACUUM = PermittivityModel()


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def pairwise_kernel(grid, omega):
    """K_ij = dV G0(z_i, z_j) from the center differences, the self term on the diagonal."""
    n = grid.n
    K = np.empty((n, n, 3, 3), dtype=complex)
    for i in range(n):
        others = np.arange(n) != i
        K[i, others] = grid.voxel_volume * g0_closed(grid.centers[i], grid.centers[others],
                                                     omega)
        K[i, i] = self_term(grid.voxel_volume, omega)
    return K.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


@pytest.fixture(scope="session")
def cube_grid():
    h = CUBE_EDGE / 2
    return build_grid(Box(min_corner=(-h, -h, -h), max_corner=(h, h, h), region_id=1),
                      CUBE_VOXEL)


@pytest.fixture(scope="session")
def sphere_grid():
    return build_grid(Sphere(center=(0.0, 0.0, 0.0), radius=SPHERE_RADIUS, region_id=1),
                      SPHERE_VOXEL)


@pytest.fixture(scope="session")
def cube_materials():
    return {1: LORENTZ}


@pytest.fixture(scope="session")
def drude_materials():
    return {1: DRUDE}


@pytest.fixture(scope="session")
def vacuum_materials():
    return {1: VACUUM}


@pytest.fixture(scope="session")
def cube_solver(cube_grid, cube_materials):
    return MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10)


@pytest.fixture(scope="session")
def vacuum_solver(cube_grid, vacuum_materials):
    return MediumSolver(cube_grid, vacuum_materials, OMEGA, tol=1e-10)


@pytest.fixture(scope="session")
def sphere_solver(sphere_grid, drude_materials):
    return MediumSolver(sphere_grid, drude_materials, OMEGA, tol=1e-10)
