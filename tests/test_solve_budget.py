"""Solve budget: how many assemblies, factorizations and solve columns runs take.

The counts follow from the engine's design (one solver per frequency,
shell e-fields from the Green columns by reciprocity), so a change that
adds solves shows up here before it shows up in wall time.
"""

import json
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

import greenvox.ldos as ldos
import greenvox.report as report_module
import greenvox.scene as scene_module
import greenvox.vie as vie
from greenvox import (PlaneWaveMode, VoxelGrid, e_coefficient, make_shell_quadrature,
                      purcell_sweep)
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


@pytest.fixture
def inverses(monkeypatch):
    """Counts numpy.linalg.inv calls."""
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    return calls


def test_validate_uses_one_medium_and_one_vacuum_solver(budget, inverses, monkeypatch):
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
    # one factorization of the medium operator, in complex128 since its blocks are
    # small, one LAPACK call per stored block (the eight parity sectors fall into four
    # classes under the axis permutations, split into ten irreps of their
    # stabilizers); the vacuum operator is the identity
    medium, vacuum = budget["operators"]
    assert [medium.factored, vacuum.factored] == [[np.complex128], []]
    assert budget["lu_factor"] == len(medium.blocks) == 10
    # one block of the five Green sources (15 columns) and the two direct-route fields
    # (1 column each), then the vacuum identity (3 columns): the medium operator is
    # solved once, so no small block is inverted
    assert budget["solve_columns"] == [17, 3]
    assert len(medium.refinements) == 1 and medium.refinements[0] <= 3
    assert inverses == []
    assert len(identities) == 2


CLI_ARGS = {
    "greens": ["--omega", "1.0", "--src", "0.95,0.15,0.25", "--eval", "-0.2,0.95,0.4"],
    "modes": ["--omega", "1.0", "--kdir", "0,0.6,0.8", "--eval", "{points}"],
    "purcell": ["--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1",
                "--omega-range", "0.8:1.2:3"],
    "ldos-check": ["--omega", "1.0", "--point", "0.95,0.15,0.25",
                   "--point2=-0.2,0.95,0.4"],
    "validate": [],
}


@pytest.mark.parametrize("command", CLI_ARGS)
def test_every_command_solves_each_medium_operator_once(command, budget, inverses,
                                                        monkeypatch, tmp_path, capsys):
    """On the 64-voxel cube, each CLI command solves every medium operator it assembles
    exactly once, so no small block is ever inverted."""
    solved = []
    solve_system = vie.solve_system
    monkeypatch.setattr(vie, "solve_system",
                        lambda op, *args: solved.append(op) or solve_system(op, *args))
    scene, points = tmp_path / "cube.yaml", tmp_path / "points.csv"
    scene.write_text(json.dumps(CUBE))
    points.write_text("x,y,z\n0.95,0.15,0.25\n0.1,0.1,0.1\n")
    argv = [arg.format(points=points) for arg in CLI_ARGS[command]]
    rc = cli_main([command, "--scene", str(scene), "--out-dir", str(tmp_path / "out"), *argv])
    capsys.readouterr()
    assert rc == 0
    media = [op for op in budget["operators"] if not op.is_identity]
    assert len(media) == (3 if command == "purcell" else 1)
    assert [sum(s is op for s in solved) for op in media] == [1] * len(media)
    assert all(op.factored == [np.complex128] for op in media)
    assert inverses == []


def test_direct_route_columns_of_the_validate_block_match_separate_solves(budget):
    """The e and m direct-route columns solved in validate's 17-column block equal
    separate solves of the same right-hand sides to 1e-13, and the direct routes read
    them back from the memo: a second m_coefficient call solves nothing."""
    from greenvox.modes import (MedModeIndex, e_direct_rhs, e_grid_solution, m_coefficient,
                                m_direct_rhs)

    cfg = scene_from_dict(CUBE)
    solver, reference = cfg.solver(1.0), cfg.solver(1.0)
    grid = solver.grid
    mode = PlaneWaveMode(k=(0.48, 0.36, 0.8), sigma=+1, zeta="c")
    mu = MedModeIndex(x=tuple(grid.centers[grid.n // 2]), nu=1.0, j=3)
    sources = [R_OUT, np.array([-0.2, 0.95, 0.4]), grid.centers[0], mu.x_point, R_OUT + 0.3]
    solver.solved({**solver.sources(sources), mode: lambda: e_direct_rhs(solver, mode),
                   mu: lambda: m_direct_rhs(solver, mu)})
    assert budget["solve_columns"] == [17]
    pairs = [(e_grid_solution(solver, mode), e_direct_rhs(solver, mode)),
             (solver.solved({mu: lambda: pytest.fail("solved again")})[0],
              m_direct_rhs(solver, mu))]
    for got, rhs in pairs:
        single = reference.solve(rhs.reshape(-1)).reshape(got.shape)
        assert np.linalg.norm(got - single) <= 1e-13 * np.linalg.norm(single)
    pts = np.vstack([R_OUT, grid.centers[0]])
    first = m_coefficient(solver, mu, pts, route="direct")
    second = m_coefficient(solver, mu, pts, route="direct")
    np.testing.assert_array_equal(first, second)
    assert budget["solve_columns"] == [17, 1, 1]  # the two reference solves only


def test_validate_evaluates_g0_once_per_point(monkeypatch):
    """validate's checks revisit five points (x, y, the first voxel center, the m-mode
    point and the emitter): G0 is evaluated once at each, once for the medium's kernel
    table and once at the vacuum solver's emitter."""
    calls = []
    g0 = vie.g0_from_displacements
    monkeypatch.setattr(vie, "g0_from_displacements",
                        lambda *args: calls.append(args) or g0(*args))
    assert run_validation(scene_from_dict(CUBE)).passed
    assert len(calls) == 7


@pytest.fixture
def dense_products(monkeypatch):
    """Counts SymmetryBasis.blockwise calls, the block solves and kernel products of the
    dense path, and keeps (a copy of q, K q) of every kernel_product call."""
    from greenvox.symmetry import SymmetryBasis

    counts = {"blockwise": 0, "products": []}
    blockwise, kernel_product = SymmetryBasis.blockwise, vie.InteractionOperator.kernel_product

    def counting(*args):
        counts["blockwise"] += 1
        return blockwise(*args)

    def keeping(op, q):
        counts["products"].append((np.array(q), kernel_product(op, q)))
        return counts["products"][-1][1]

    monkeypatch.setattr(SymmetryBasis, "blockwise", counting)
    monkeypatch.setattr(vie.InteractionOperator, "kernel_product", keeping)
    return counts


def assert_fresh_shell_product(op, products):
    """The shell integral's K q, the last kernel product, equals a fresh one bit for bit."""
    q, product = products[-1]
    assert np.array_equal(product, op.symmetry.blockwise(q, [b.__matmul__ for b in op.blocks]))


def test_ldos_check_for_a_separated_pair_solves_once(budget, dense_products, tmp_path, capsys):
    """The six Green columns of x and y are solved together, and the shell integral's
    kernel product is the one the solve's last residual formed: the shell integral
    makes no dense block pass of its own."""
    scene = tmp_path / "cube.yaml"
    scene.write_text(json.dumps(CUBE))
    rc = cli_main(["ldos-check", "--scene", str(scene), "--omega", "1.0",
                   "--point", "0.95,0.15,0.25", "--point2=-0.2,0.95,0.4"])
    capsys.readouterr()
    assert rc == 0
    assert budget["solve_columns"] == [6]
    op, = budget["operators"]
    # a block solve and a residual product per refinement step (the cube takes one
    # step), and none for the shell integral
    assert dense_products["blockwise"] == 2 * (op.refinements[0] + 1)
    assert dense_products["products"][-1][0].shape == (op.n3, 6)
    assert_fresh_shell_product(op, dense_products["products"])


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
    assert budget["lu_factor"] == sum(len(op.blocks) for op in budget["operators"])
    assert len(budget["solve_columns"]) == len(omegas)
    assert max(budget["solve_columns"]) <= 3
    # one complex128 factorization per frequency (the cube's blocks are small), never
    # refactored, and a few complex128 refinement steps per solve
    for op in budget["operators"]:
        assert op.factored == [np.complex128]
        assert len(op.refinements) == 1 and op.refinements[0] <= 3


def test_small_blocks_are_solved_in_one_step(budget, monkeypatch):
    """The 257-voxel sphere's ten blocks (9 to 58 wide) are factored in complex128,
    and each solve meets the backward-error bound on its first residual:
    one operator application per solve, in validate's medium operator and in every
    operator of a 17-frequency sweep."""
    applied = []
    apply = vie.InteractionOperator.apply
    monkeypatch.setattr(vie.InteractionOperator, "apply",
                        lambda op, p: applied.append(op) or apply(op, p))
    report = run_validation(scene_from_dict(dict(SPHERE, quadrature={"n_theta": 8,
                                                                    "n_phi": 16})))
    assert report.passed
    rows = purcell_sweep(scene_from_dict(SPHERE).solver, (0.82, -1.12, 0.84),
                         (0.0, 0.6, 0.8), np.linspace(0.7, 1.1, 17))
    assert all("error" not in r for r in rows)
    medium, vacuum, *sweep = budget["operators"]
    assert vacuum.is_identity and len(sweep) == 17
    for op in [medium, *sweep]:
        assert [len(block) for block in op.blocks] == [23, 14, 37, 58, 46, 48, 43, 16, 9, 25]
        assert op.factored == [np.complex128]
        assert op.refinements == [0] * len(op.refinements) != []
        assert sum(a is op for a in applied) == len(op.refinements)
    assert len(medium.refinements) == 1 and all(len(op.refinements) == 1 for op in sweep)


def test_a_symmetric_sweep_stores_only_the_sector_blocks(budget, monkeypatch):
    """17 frequencies on the 257-voxel Drude sphere: every operator stores one block
    per irrep of the stabilizer of each class of its eight parity sectors, ten blocks
    of 16 sum d_c^2 bytes, 46.9 times fewer than a 3N x 3N complex128 kernel, no
    assembly or kernel product holds that much memory at once, and the axis
    permutations are found once for the grid."""
    peaks = {"assemble": [], "kernel_product": []}
    found = []
    permutations = cached_property(lambda grid: found.append(grid) or find(grid))
    find = VoxelGrid.permutations.func
    permutations.__set_name__(VoxelGrid, "permutations")
    monkeypatch.setattr(VoxelGrid, "permutations", permutations)

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
    assert budget["lu_factor"] == 17 * 10
    assert budget["solve_columns"] == [3] * 17
    assert len(found) == 1 and all(op.grid is found[0] for op in budget["operators"])
    full = 16 * (3 * 257) ** 2
    for op in budget["operators"]:
        assert op.grid.n == 257 and len(op.sectors) == 8 and len(op.blocks) == 10
        assert op.kernel.nbytes == 16 * sum(block.size for block in op.blocks) < full / 45
    assert len(peaks["kernel_product"]) >= 17 * 2  # a refinement residual and a shell product
    assert max(peaks["assemble"] + peaks["kernel_product"]) < full


def test_a_sweep_gathers_its_kernel_rows_into_one_held_scratch(monkeypatch):
    """17 frequencies on the 257-voxel Drude sphere, each assembled in one chunk: every
    assembly gathers its kernel rows into the one buffer its thread keeps, at most
    _ROWS_CHUNK_BYTES, so after the first none allocates an array of those rows, and
    each peaks below one chunk of rows and their adapted images (an assembly that
    allocates its rows peaks above it); an assembly in another thread gathers its
    rows into a buffer of its own and leaves this thread's in place."""
    import threading

    import greenvox.symmetry as symmetry

    peaks, buffers, ops = [], [], []

    def peaked(*args, **kwargs):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        op = assemble(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        buffers.append(symmetry._held.rows)
        ops.append(op)
        return op

    assemble = vie.assemble
    monkeypatch.setattr(vie, "assemble", peaked)
    monkeypatch.delattr(symmetry._held, "rows", raising=False)  # as in a new thread
    tracemalloc.start()
    try:
        rows = purcell_sweep(scene_from_dict(SPHERE).solver, (0.82, -1.12, 0.84),
                             (0.0, 0.6, 0.8), np.linspace(0.7, 1.1, 17))
    finally:
        tracemalloc.stop()
    assert all("error" not in r for r in rows) and len(peaks) == 17
    basis = ops[0].symmetry
    order, reps = basis.members.shape
    gathered, images = (16 * 9 * len(basis.rows) * n for n in (order * reps, 257))
    assert all(op.symmetry is basis for op in ops)
    assert all(buffer is buffers[0] for buffer in buffers)
    assert buffers[0].nbytes == gathered <= vie._ROWS_CHUNK_BYTES
    assert max(peaks[1:]) < gathered + images
    worker = []

    def in_a_worker():
        op = assemble(ops[0].grid, ops[0].beta, ops[0].omega)
        worker.append((op.kernel.tobytes(), symmetry._held.rows))

    thread = threading.Thread(target=in_a_worker)
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    kernel, rows = worker[0]
    assert kernel == ops[0].kernel.tobytes()
    assert not np.shares_memory(rows, buffers[0]) and symmetry._held.rows is buffers[0]


def test_purcell_factors_from_four_threads_equal_the_sequential_ones():
    """Solvers of 17 frequencies built from four threads at once on one scene, whose
    grid and SymmetryBasis they share, give Purcell factors bitwise equal to solvers
    built in turn, ten rounds over, with the interpreter switching threads often."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from greenvox import EmitterSpec, purcell

    cfg = scene_from_dict(SPHERE)
    emitters = [EmitterSpec(position=(0.82, -1.12, 0.84), omega=float(w), dipole=(0.0, 0.6, 0.8))
                for w in np.linspace(0.7, 1.1, 17)]

    def factor(emitter):
        return purcell(cfg.solver(emitter.omega), None, emitter)

    expected = [factor(emitter) for emitter in emitters]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            rounds = [list(pool.map(factor, emitters, timeout=120)) for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    assert [sum(a != b for a, b in zip(got, expected)) for got in rounds] == [0] * 10


def test_a_sweep_row_is_one_solve_and_one_kernel_product(budget, dense_products,
                                                          monkeypatch):
    """Gamma_e is the exact shell integral: a purcell_sweep row builds no shell
    quadrature and no plane-wave table, solves 3 columns once and asks for the kernel
    once beyond the solve's own operator applications, and that product is the one
    the solve's last residual formed, so no dense block pass of its own."""
    import greenvox.quadrature as quadrature

    calls = {"plane_wave_table": 0, "make_shell_quadrature": 0, "apply": 0,
             "kernel_product": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(quadrature, "make_shell_quadrature")
    counting(ldos, "plane_wave_table")
    counting(vie.InteractionOperator, "apply")
    counting(vie.InteractionOperator, "kernel_product")
    rows = purcell_sweep(scene_from_dict(CUBE).solver, R_OUT, (0.0, 0.0, 1.0), [1.0])
    assert "error" not in rows[0]
    assert calls["plane_wave_table"] == calls["make_shell_quadrature"] == 0
    assert budget["solve_columns"] == [3]
    assert calls["kernel_product"] - calls["apply"] == 1
    op, = budget["operators"]
    # a block solve and a residual product per refinement step (the cube takes one
    # step), and none for the shell integral
    assert dense_products["blockwise"] == 2 * (op.refinements[0] + 1)
    assert_fresh_shell_product(op, dense_products["products"])


def test_a_sweep_row_evaluates_g0_twice(monkeypatch):
    """Per frequency, G0 is evaluated once for the kernel table and once at the
    emitter: its source columns, its evaluation row and the discrete shell integral
    share the blocks, and the rows do not depend on the sharing."""
    omegas = [0.8, 1.0, 1.2]
    fresh = vie.MediumSolver.g0_blocks_at

    def unshared(solver, point):
        solver._rows.clear()
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
    quad = make_shell_quadrature(2, 3)
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
