"""Purcell factors against Mie theory: the one check of an answer against an
independent solution, which the identity suite cannot give (Dyson, reciprocity
and the LDOS identity hold for any symmetric kernel, a wrong self term too)."""

import numpy as np
import pytest

from greenvox import EmitterSpec, MediumSolver, Sphere, build_grid, eval_eps, purcell
from mie import purcell_mie

from conftest import DRUDE, LORENTZ, OMEGA

R_EMITTER = 1.45  # 0.45 outside the unit sphere


def test_mie_oracle_reduces_to_the_quasi_static_image_dipole():
    """The n = 1 term of a small sphere near the emitter is the image dipole of
    polarizability 4 pi a^3 (eps - 1)/(eps + 2): 0.4% radial, 1.4% tangential."""
    eps = eval_eps(DRUDE, OMEGA)
    a, r = 0.05, 0.1
    image = a**3 * ((eps - 1) / (eps + 2)).imag / (OMEGA**3 * r**6)
    radial, tangential = purcell_mie(eps, a, r, OMEGA, n_max=1)
    assert radial == pytest.approx(1 + 6 * image, rel=0.01)
    assert tangential == pytest.approx(1 + 1.5 * image, rel=0.02)


@pytest.fixture(scope="module")
def sphere_840():
    grid = build_grid(Sphere(center=(0.0, 0.0, 0.0), radius=1.0, region_id=1), 0.17)
    assert grid.n == 840
    return grid


@pytest.mark.parametrize("model, radial_bound, tangential_bound", [
    (DRUDE, 0.04, 0.10),  # measured 3.1% and 8.6%; without the delta term 74% and 57%
    (LORENTZ, 0.04, 0.02),  # measured 3.1% and 0.5%; without it 18% and 2.9%
], ids=["drude", "lorentz"])
def test_purcell_matches_mie_outside_the_sphere(sphere_840, model, radial_bound,
                                                 tangential_bound):
    """A dipole 0.45 outside the 840-voxel unit sphere, against Mie theory for the
    sphere of equal voxel volume; the residue is staircase error."""
    grid = sphere_840
    radius = (3.0 * grid.n * grid.voxel_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
    mie = purcell_mie(eval_eps(model, OMEGA), radius, R_EMITTER, OMEGA)
    solver = MediumSolver(grid, {1: model}, OMEGA)
    for dipole, reference, bound in zip(((1, 0, 0), (0, 0, 1)), mie,
                                        (radial_bound, tangential_bound)):
        emitter = EmitterSpec(position=(R_EMITTER, 0.0, 0.0), omega=OMEGA, dipole=dipole)
        assert abs(purcell(solver, None, emitter) / reference - 1.0) <= bound, dipole
