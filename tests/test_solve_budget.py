"""Solve budget: how many assemblies, factorizations and solve columns runs take.

The counts follow from the engine's design (one solver per frequency,
shell e-fields from the Green columns by reciprocity), so a change that
adds solves shows up here before it shows up in wall time.
"""

import numpy as np
import pytest

import greenvox.vie as vie
from greenvox import PlaneWaveMode, e_coefficient, make_shell_quadrature, purcell_sweep
from greenvox.ldos import _e_fields_on_shell
from greenvox.report import run_validation
from greenvox.scene import scene_from_dict

TOL = 1e-10
R_OUT = np.array([0.95, 0.15, 0.25])

CUBE = {
    "schema_version": 1,
    "materials": [{"region_id": 1, "poles": [{"omega0": 1.5, "omegap": 1.0, "gamma": 0.4}]}],
    "geometry": {"voxel_edge": 0.2, "shapes": [
        {"kind": "box", "min_corner": [-0.4, -0.4, -0.4], "max_corner": [0.4, 0.4, 0.4],
         "region_id": 1}]},
    "quadrature": {"n_theta": 4, "n_phi": 8},
    "runs": {"validate": {"omega": 1.0}},
}


@pytest.fixture
def budget(monkeypatch):
    """Counts assemble and lu_factor calls and the columns of every solve_system call."""
    counts = {"assemble": 0, "lu_factor": 0, "solve_columns": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name == "solve_system":
                rhs = np.asarray(args[1])
                counts["solve_columns"].append(rhs.shape[1] if rhs.ndim == 2 else 1)
            else:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("assemble", "lu_factor", "solve_system"):
        monkeypatch.setattr(vie, name, counting(name, getattr(vie, name)))
    return counts


def test_validate_uses_one_medium_and_one_vacuum_solver(budget):
    report = run_validation(scene_from_dict(CUBE))
    assert report.passed
    assert budget["assemble"] == 2
    assert budget["lu_factor"] == 1  # the vacuum operator is the identity
    assert max(budget["solve_columns"]) <= 3


def test_sweep_solves_one_green_column_set_per_frequency(cube_grid, cube_materials, budget):
    omegas = [0.8, 1.0, 1.2]
    rows = purcell_sweep(cube_grid, cube_materials, R_OUT, (0.0, 0.0, 1.0), omegas,
                         TOL, n_theta=4, n_phi=8)
    assert all("error" not in r for r in rows)
    assert budget["assemble"] == budget["lu_factor"] == len(omegas)
    assert len(budget["solve_columns"]) == len(omegas)
    assert max(budget["solve_columns"]) <= 3


def test_shell_e_fields_match_direct_solve_per_submode(cube_solver):
    """Column 4q + s of the shell e-fields is the direct e for node q, submode s."""
    quad = make_shell_quadrature(cube_solver.omega, 2, 3)
    points = [R_OUT, cube_solver.grid.centers[21]]
    columns = [cube_solver.grid_fields(p) for p in points]
    e_shell, weights = _e_fields_on_shell(cube_solver, quad, points, columns)
    assert e_shell.shape == (2, 3, 4 * len(quad))
    np.testing.assert_array_equal(weights, np.repeat(quad.weights, 4))
    submodes = [(+1, "c"), (+1, "s"), (-1, "c"), (-1, "s")]
    for q, node in enumerate(quad.nodes):
        for s, (sigma, zeta) in enumerate(submodes):
            mode = PlaneWaveMode(k=tuple(cube_solver.omega * node), sigma=sigma, zeta=zeta)
            direct = e_coefficient(cube_solver, None, mode, points, TOL)
            got = e_shell[:, :, 4 * q + s]
            for p in range(len(points)):
                assert (np.linalg.norm(got[p] - direct[p])
                        <= 1e-12 * np.linalg.norm(direct[p])), (q, s, p)
