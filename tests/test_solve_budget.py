"""Solve budget: how many assemblies, factorizations and solve columns runs take.

The counts follow from the engine's design (one solver per frequency,
shell e-fields from the Green columns by reciprocity), so a change that
adds solves shows up here before it shows up in wall time.
"""

import json
import tracemalloc

import numpy as np
import pytest

import greenvox.ldos as ldos
import greenvox.report as report_module
import greenvox.scene as scene_module
import greenvox.vie as vie
from greenvox import PlaneWaveMode, e_coefficient, make_shell_quadrature, purcell_sweep
from greenvox.cli import main as cli_main
from greenvox.ldos import _e_fields_on_shell
from greenvox.report import run_validation
from greenvox.scene import scene_from_dict

from conftest import pairwise_kernel

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

SPHERE = dict(CUBE, materials=[{"region_id": 1,
                                "poles": [{"omega0": 0.0, "omegap": 1.5, "gamma": 0.3}]}],
              geometry={"voxel_edge": 0.2497, "shapes": [
                  {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0, "region_id": 1}]})


@pytest.fixture
def budget(monkeypatch):
    """Counts assemble and lu_factor calls and the columns of every solve_system call,
    and keeps every assembled operator."""
    counts = {"assemble": 0, "lu_factor": 0, "solve_columns": [], "operators": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name == "solve_system":
                rhs = np.asarray(args[1])
                counts["solve_columns"].append(rhs.shape[1] if rhs.ndim == 2 else 1)
            else:
                counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "assemble":
                counts["operators"].append(result)
            return result
        return wrapper

    for name in ("assemble", "lu_factor", "solve_system"):
        monkeypatch.setattr(vie, name, counting(name, getattr(vie, name)))
    return counts


def test_validate_uses_one_medium_and_one_vacuum_solver(budget, monkeypatch):
    identities = []
    original = ldos.ldos_identity_residual

    def counting(*args, **kwargs):
        identities.append(args[1])
        return original(*args, **kwargs)

    for module in (ldos, report_module):
        monkeypatch.setattr(module, "ldos_identity_residual", counting)
    report = run_validation(scene_from_dict(CUBE))
    assert report.passed
    assert budget["assemble"] == 2
    # one complex64 factorization of the medium operator, one LAPACK call per parity
    # sector; the vacuum operator is the identity
    medium, vacuum = budget["operators"]
    assert [medium.factored, vacuum.factored] == [[np.complex64], []]
    assert budget["lu_factor"] == len(medium.sectors) == 8
    # one block of the five Green sources (15 columns), the two direct-route solves
    # (1 column each) and the vacuum identity (3 columns); the total also catches a
    # shell e-field solve (512 columns) coming back
    assert len(budget["solve_columns"]) <= 4
    assert sum(budget["solve_columns"]) <= 20
    assert all(steps <= 3 for op in budget["operators"] for steps in op.refinements)
    assert len(identities) == 2


def test_ldos_check_for_a_separated_pair_solves_once(budget, tmp_path, capsys):
    scene = tmp_path / "cube.yaml"
    scene.write_text(json.dumps(CUBE))
    rc = cli_main(["ldos-check", "--scene", str(scene), "--omega", "1.0",
                   "--point", "0.95,0.15,0.25", "--point2=-0.2,0.95,0.4"])
    capsys.readouterr()
    assert rc == 0
    assert budget["solve_columns"] == [6]


def test_dyson_residual_solves_both_sources_at_once(budget):
    solver = scene_from_dict(CUBE).solver(1.0)
    vie.dyson_residual(solver, R_OUT, np.array([-0.2, 0.95, 0.4]))
    assert budget["solve_columns"] == [6]


def test_dyson_residual_keeps_its_sources_in_a_full_memo(budget):
    """y is the oldest of eight memoised sources: solving x must not drop it, since
    dyson_residual evaluates G(x, y) from the memo."""
    solver = scene_from_dict(CUBE).solver(1.0)
    y = np.array([-0.2, 0.95, 0.4])
    solver.grid_fields(y + np.arange(vie._FIELDS_KEPT)[:, None])
    vie.dyson_residual(solver, R_OUT, y)
    assert budget["solve_columns"] == [3 * vie._FIELDS_KEPT, 3]


def test_sweep_solves_one_green_column_set_per_frequency(budget, monkeypatch):
    grids = []
    build_grid = scene_module.build_grid

    def counting(*args):
        grids.append(build_grid(*args))
        return grids[-1]

    monkeypatch.setattr(scene_module, "build_grid", counting)
    omegas = [0.8, 1.0, 1.2]
    rows = purcell_sweep(scene_from_dict(CUBE).solver, R_OUT, (0.0, 0.0, 1.0), omegas)
    assert all("error" not in r for r in rows)
    assert len(grids) == 1  # the scene's grid serves every frequency
    assert budget["assemble"] == len(omegas)
    assert budget["lu_factor"] == sum(len(op.sectors) for op in budget["operators"])
    assert len(budget["solve_columns"]) == len(omegas)
    assert max(budget["solve_columns"]) <= 3
    # one complex64 factorization per frequency, never refactored in complex128,
    # and a few complex128 refinement steps per solve
    for op in budget["operators"]:
        assert op.factored == [np.complex64]
        assert len(op.refinements) == 1 and op.refinements[0] <= 3


def test_a_symmetric_sweep_stores_only_the_sector_blocks(budget, monkeypatch):
    """17 frequencies on the 257-voxel Drude sphere: every operator stores its eight
    sector blocks, 16 sum d_s^2 bytes, 7.9 times fewer than a 3N x 3N complex128
    kernel, and no assembly or kernel product holds that much memory at once."""
    peaks = {"assemble": [], "kernel_product": []}

    def peaked(name, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peaks[name].append(tracemalloc.get_traced_memory()[1] - start)
            return result
        return wrapper

    monkeypatch.setattr(vie, "assemble", peaked("assemble", vie.assemble))
    monkeypatch.setattr(vie.InteractionOperator, "kernel_product",
                        peaked("kernel_product", vie.InteractionOperator.kernel_product))
    omegas = np.linspace(0.7, 1.1, 17)
    tracemalloc.start()
    try:
        rows = purcell_sweep(scene_from_dict(SPHERE).solver, (0.82, -1.12, 0.84),
                             (0.0, 0.6, 0.8), omegas)
    finally:
        tracemalloc.stop()
    assert all("error" not in r for r in rows)
    assert budget["assemble"] == len(peaks["assemble"]) == 17
    assert budget["lu_factor"] == 17 * 8
    assert budget["solve_columns"] == [3] * 17
    full = 16 * (3 * 257) ** 2
    for op in budget["operators"]:
        assert op.grid.n == 257 and len(op.sectors) == 8
        assert op.kernel.nbytes == 16 * sum(d * d for d in op.sectors) < full / 7.8
    assert len(peaks["kernel_product"]) >= 17 * 2  # a refinement residual and a shell product
    assert max(peaks["assemble"] + peaks["kernel_product"]) < full


def test_a_sweep_row_is_one_solve_and_one_kernel_product(budget, monkeypatch):
    """Gamma_e is the exact shell integral: a purcell_sweep row builds no shell
    quadrature and no plane-wave table, solves 3 columns once and applies the kernel
    once beyond the solve's own operator applications."""
    import greenvox.quadrature as quadrature

    calls = {"plane_wave_table": 0, "make_shell_quadrature": 0, "apply": 0,
             "kernel_product": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner in (ldos, quadrature):
        counting(owner, "make_shell_quadrature")
    counting(ldos, "plane_wave_table")
    counting(vie.InteractionOperator, "apply")
    counting(vie.InteractionOperator, "kernel_product")
    rows = purcell_sweep(scene_from_dict(CUBE).solver, R_OUT, (0.0, 0.0, 1.0), [1.0])
    assert "error" not in rows[0]
    assert calls["plane_wave_table"] == calls["make_shell_quadrature"] == 0
    assert budget["solve_columns"] == [3]
    assert calls["kernel_product"] - calls["apply"] == 1


def test_a_sweep_row_evaluates_g0_twice(monkeypatch):
    """Per frequency, G0 is evaluated once for the kernel table and once at the
    emitter: its source columns, its evaluation row and the discrete shell integral
    share the blocks, and the rows do not depend on the sharing."""
    omegas = [0.8, 1.0, 1.2]
    fresh = vie.MediumSolver.g0_blocks_at

    def unshared(solver, point):
        solver._blocks = (None, None)
        return fresh(solver, point)

    with monkeypatch.context() as patch:
        patch.setattr(vie.MediumSolver, "g0_blocks_at", unshared)
        reference = purcell_sweep(scene_from_dict(CUBE).solver, R_OUT, (0.0, 0.0, 1.0), omegas)
    calls = []
    g0 = vie.g0_from_displacements
    monkeypatch.setattr(vie, "g0_from_displacements",
                        lambda *args: calls.append(args) or g0(*args))
    rows = purcell_sweep(scene_from_dict(CUBE).solver, R_OUT, (0.0, 0.0, 1.0), omegas)
    assert rows == reference
    assert len(calls) == 2 * len(omegas)


def test_shell_e_fields_match_direct_solve_per_submode(cube_solver):
    """Column 4q + s of the shell e-fields is the direct e for node q, submode s."""
    quad = make_shell_quadrature(cube_solver.omega, 2, 3)
    points = [R_OUT, cube_solver.grid.centers[21]]
    columns = [cube_solver.grid_fields(p) for p in points]
    e_shell = _e_fields_on_shell(cube_solver, quad.nodes, points, columns)
    assert e_shell.shape == (2, 3, 4 * len(quad))
    submodes = [(+1, "c"), (+1, "s"), (-1, "c"), (-1, "s")]
    for q, node in enumerate(quad.nodes):
        for s, (sigma, zeta) in enumerate(submodes):
            mode = PlaneWaveMode(k=tuple(cube_solver.omega * node), sigma=sigma, zeta=zeta)
            direct = e_coefficient(cube_solver, mode, points)
            got = e_shell[:, :, 4 * q + s]
            for p in range(len(points)):
                assert (np.linalg.norm(got[p] - direct[p])
                        <= 1e-12 * np.linalg.norm(direct[p])), (q, s, p)


def test_lattice_green_columns_take_at_most_60_matvecs(budget):
    """The 8^3 Lorentz cube solves its three Green columns by FFT-GMRES in 45
    operator applications (the final residual check included), each within tol."""
    cube = dict(CUBE, geometry={"voxel_edge": 0.2, "shapes": [
        {"kind": "box", "min_corner": [-0.8] * 3, "max_corner": [0.8] * 3, "region_id": 1}]})
    cfg = scene_from_dict(cube)
    grid = cfg.build_grid()
    assert grid.n == 512
    solver = vie.MediumSolver(grid, cfg.materials, 1.0, TOL, method="gmres")
    solver.grid_fields(np.array([0.1, -0.2, 1.3]))
    op, = budget["operators"]
    assert op.kernel is None and budget["lu_factor"] == 0
    assert len(op.iterations) == 3
    assert sum(matvecs for matvecs, _ in op.iterations) <= 60
    assert all(residual <= TOL for _, residual in op.iterations)


def test_gmres_records_the_true_residual_of_every_column(budget):
    """The residual GMRES reports is ||b - A x|| / ||b|| of the x it returns, recomputed
    here with the pairwise kernel, so the final check needs no extra operator
    application: the 8^3 Lorentz cube's three Green columns take at most 51
    applications."""
    cube = dict(CUBE, geometry={"voxel_edge": 0.2, "shapes": [
        {"kind": "box", "min_corner": [-0.8] * 3, "max_corner": [0.8] * 3, "region_id": 1}]})
    cfg = scene_from_dict(cube)
    solver = vie.MediumSolver(cfg.grid, cfg.materials, 1.0, TOL, method="gmres")
    b = solver.source_columns(np.array([0.1, -0.2, 1.3]))
    x = solver.solve(b)
    lattice, K = budget["operators"][0], pairwise_kernel(cfg.grid, 1.0)
    assert lattice.kernel is None
    assert sum(applications for applications, _ in lattice.iterations) <= 51
    for j, (_, achieved) in enumerate(lattice.iterations):
        applied = x[:, j] - K @ (lattice.beta_rep * x[:, j])
        recomputed = np.linalg.norm(b[:, j] - applied) / np.linalg.norm(b[:, j])
        assert achieved <= TOL
        assert abs(achieved - recomputed) <= 1e-5 * recomputed, j
