import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greenvox import (Box, EmitterSpec, LorentzPole, MaskShape, MediumSolver,
                      PermittivityModel, PlaneWaveMode, Sphere, SolverError, VoxelGrid,
                      assemble, build_grid, dyson_residual, eval_eps,
                      g0_closed, gamma_decomposed, im_green_at, ldos_identity_residual,
                      purcell, purcell_sweep, scaled_contrast, solve_system)
from greenvox.geometry import eps_on_grid, write_mask
from greenvox.modes import (MedModeIndex, e_coefficient, e_coefficient_via_green,
                            m_coefficient, noise_current_amplitude, u_numerator_e,
                            u_numerator_m, v_component_m)
from greenvox.green_free import self_term, self_term_scalar

from conftest import DRUDE, LORENTZ, OMEGA, loglog_slope, pairwise_kernel

X_OUT = np.array([1.1, 0.25, -0.15])
Y_OUT = np.array([-0.2, 0.95, 0.4])


def single_voxel_grid(edge=0.2):
    h = edge / 2
    return build_grid(Box(min_corner=(-h, -h, -h), max_corner=(h, h, h)), edge)


def test_vacuum_operator_is_identity(cube_grid):
    op = assemble(cube_grid, np.zeros(cube_grid.n), OMEGA)
    rng = np.random.default_rng(0)
    p = rng.normal(size=op.n3) + 1j * rng.normal(size=op.n3)
    assert np.array_equal(op.apply(p), p)
    assert np.array_equal(solve_system(op, p), p)


def test_kernel_blockwise_symmetric(cube_grid, cube_materials):
    """The kernel the stored blocks apply, materialized column by column, is the
    symmetric pairwise kernel, and every stored block of every sector scene is
    exactly symmetric."""
    op = MediumSolver(cube_grid, cube_materials, OMEGA).op
    K = op.kernel_product(np.eye(op.n3, dtype=complex))
    assert np.max(np.abs(K - K.T)) < 1e-15 * np.max(np.abs(K))
    reference = pairwise_kernel(cube_grid, OMEGA)
    assert np.max(np.abs(K - reference)) <= 1e-13 * np.max(np.abs(reference))
    for name, (grid, materials, _) in sector_scenes().items():
        blocks = MediumSolver(grid, materials, OMEGA, method="dense").op.blocks
        assert all(np.array_equal(block, block.T) for block in blocks), name


def test_single_voxel_closed_forms(cube_materials):
    grid = single_voxel_grid()
    beta = complex(OMEGA**2 * (eval_eps(LORENTZ, OMEGA) - 1.0))
    M = self_term_scalar(grid.voxel_volume, OMEGA)
    op = assemble(grid, [beta], OMEGA)
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=3) + 1j * rng.normal(size=3)
    x = solve_system(op, rhs)
    assert np.allclose(x, rhs / (1.0 - beta * M), rtol=1e-12)

    # G(x,y) = G0(x,y) + dV G0(x,z1) beta (1 - beta M)^-1 G0(z1,y)
    z1 = grid.centers[0]
    G = MediumSolver(grid, cube_materials, OMEGA).green(X_OUT, Y_OUT)
    expected = (g0_closed(X_OUT, Y_OUT, OMEGA)
                + grid.voxel_volume * g0_closed(X_OUT, z1, OMEGA) @ (
                    beta / (1.0 - beta * M) * g0_closed(z1, Y_OUT, OMEGA)))
    assert np.allclose(G, expected, rtol=1e-11)


def test_iterative_matches_dense():
    grid = build_grid(Sphere(center=(0, 0, 0), radius=0.5, region_id=1), 0.152)
    assert grid.n == 147  # ~N=125-scale absorbing sphere
    mats = {1: LORENTZ}
    tol = 1e-10
    dense = MediumSolver(grid, mats, OMEGA, tol, method="dense")
    iterative = MediumSolver(grid, mats, OMEGA, tol, method="gmres")
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=dense.op.n3) + 1j * rng.normal(size=dense.op.n3)
    xd = dense.solve(rhs)
    xi = iterative.solve(rhs)
    assert np.linalg.norm(xi - xd) <= 10 * tol * np.linalg.norm(xd)
    assert iterative.op.kernel is None  # matvec-only representation


def test_plasmonic_two_box_body_stays_within_its_gmres_budget():
    """Two touching Drude boxes of different plasma frequencies, N = 64: the hard case
    of the iterative path.  The three Green columns of one source took 868, 1494 and
    1454 operator applications when this test was written; each may take at most 1.3
    times its count, so a regression like the fourfold one the self-term delta term
    brought shows here, and the columns still match the dense solve."""
    mats = {1: DRUDE, 2: PermittivityModel(poles=(LorentzPole(omega0=0.0, omegap=3.0,
                                                              gamma=0.1),), region_id=2)}
    grid = build_grid([Box(min_corner=(-0.4, -0.4, -0.4), max_corner=(0.0, 0.4, 0.4),
                           region_id=1),
                       Box(min_corner=(0.0, -0.4, -0.4), max_corner=(0.4, 0.4, 0.4),
                           region_id=2)], 0.2)
    assert grid.n == 64
    source, tol = np.array([1.2, 0.1, -0.1]), 1e-10
    iterative = MediumSolver(grid, mats, OMEGA, tol, method="gmres")
    X = iterative.grid_fields(source)
    counts, residuals = zip(*iterative.op.iterations)
    assert len(counts) == 3 and max(residuals) <= tol
    assert all(count <= 1.3 * measured for count, measured in zip(counts, [868, 1494, 1454]))
    expected = MediumSolver(grid, mats, OMEGA, tol, method="dense").grid_fields(source)
    assert np.max(np.abs(X - expected)) <= 10 * tol * np.max(np.abs(expected))


def sector_scenes():
    """(grid, materials, parity sectors): the cube and the sphere keep all three
    mirrors; two touching boxes of different materials split at x = 0 lose the x
    mirror; a Drude sphere with a Lorentz box off its center keeps none.  The flat
    box and the cube with a second material where |x| <= 0.2 keep every mirror.  The
    chiral body, the 3 x 3 x 3 lattice without the orbit of (0, 1, 2) under the cyclic
    permutations of the axes, keeps no mirror and no axis swap, only the two 3-cycles;
    the same lattice without its corner (0, 0, 0) keeps no mirror but all six axis
    permutations, so its one sector splits into A1, A2 and E."""
    tilted = PermittivityModel(poles=(LorentzPole(omega0=1.5, omegap=1.0, gamma=0.4),),
                               region_id=2)
    halves = [Box(min_corner=(-0.4, -0.3, -0.2), max_corner=(0.0, 0.3, 0.2), region_id=1),
              Box(min_corner=(0.0, -0.3, -0.2), max_corner=(0.4, 0.3, 0.2), region_id=2)]
    lopsided = [Sphere(center=(0, 0, 0), radius=1.0, region_id=1),
                Box(min_corner=(0.3, 0.1, -0.2), max_corner=(0.8, 0.6, 0.3), region_id=2)]
    slab = [Box(min_corner=(-0.4,) * 3, max_corner=(0.4,) * 3, region_id=1),
            Box(min_corner=(-0.2, -0.4, -0.4), max_corner=(0.2, 0.4, 0.4), region_id=2)]
    site = np.argwhere(np.ones((3, 3, 3)))
    corner = site[1:]  # without (0, 0, 0)
    site = site[~np.isin(site @ [9, 3, 1], [5, 19, 15])]  # (0, 1, 2), (2, 0, 1), (1, 2, 0)
    return {
        "cube": (build_grid(Box(min_corner=(-0.4,) * 3, max_corner=(0.4,) * 3), 0.2),
                 {1: LORENTZ}, 8),
        "sphere": (build_grid(Sphere(center=(0, 0, 0), radius=1.0), 0.2497), {1: DRUDE}, 8),
        "two materials": (build_grid(halves, 0.1), {1: DRUDE, 2: tilted}, 4),
        "asymmetric": (build_grid(lopsided, 0.2497), {1: DRUDE, 2: tilted}, 1),
        "flat box": (build_grid(Box(min_corner=(-0.4, -0.4, -0.2), max_corner=(0.4, 0.4, 0.2)),
                                0.2), {1: LORENTZ}, 8),
        "cube with a slab": (build_grid(slab, 0.2), {1: DRUDE, 2: tilted}, 8),
        "chiral": (VoxelGrid((site - 1.0) * 0.2, 0.2, np.ones(len(site), dtype=int)),
                   {1: DRUDE}, 1),
        "corner": (VoxelGrid((corner - 1.0) * 0.2, 0.2, np.ones(len(corner), dtype=int)),
                   {1: DRUDE}, 1),
    }


SECTOR_SCENES = ["cube", "sphere", "two materials", "asymmetric", "flat box", "cube with a slab",
                 "chiral", "corner"]


@pytest.mark.parametrize("name", SECTOR_SCENES)
def test_parity_sectors_solve_the_materialized_operator(name):
    """The dense operator is factored in the blocks of the basis adapted to the mirrors
    and axis permutations that keep the voxels and beta, split at least into its
    parity sectors; the refined solve is the complex128 solve of
    A = I - K diag(beta) to 1e-13.  Blocks of at most 400 are factored in complex128,
    the asymmetric body's one block of 771 in complex64."""
    grid, materials, count = sector_scenes()[name]
    solver = MediumSolver(grid, materials, OMEGA, method="dense")
    op = solver.op
    assert len(op.sectors) == count and sum(op.sectors) == op.n3
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=(op.n3, 2)) + 1j * rng.normal(size=(op.n3, 2))
    reference = np.linalg.solve(np.eye(op.n3) - pairwise_kernel(grid, OMEGA) * op.beta_rep, rhs)
    assert np.linalg.norm(solver.solve(rhs) - reference) <= 1e-13 * np.linalg.norm(reference)
    assert op.factored == [np.complex64 if name == "asymmetric" else np.complex128]


@pytest.mark.parametrize("name, widest_inverse", [("asymmetric", 400), ("sphere", 30)])
def test_a_stalled_complex64_solve_refactors_in_complex128(monkeypatch, name, widest_inverse):
    """With no refinement step allowed, complex64 factors miss the backward-error bound,
    so the operator is refactored once in complex128, and the same solve meets the
    bound there.  In complex128 a block of at most _DOUBLE_LU_MAX rows is inverted and
    a wider one keeps LAPACK's LU, factored in place: the asymmetric body's one block
    of 771, and on the sphere, with _DOUBLE_LU_MAX lowered to 30 so that it is
    factored in complex64 first, both forms serve one operator."""
    import greenvox.vie as vie_mod

    monkeypatch.setattr(vie_mod, "_REFINE_STEPS", 0)
    monkeypatch.setattr(vie_mod, "_DOUBLE_LU_MAX", widest_inverse)
    grid, materials, _ = sector_scenes()[name]
    solver = MediumSolver(grid, materials, OMEGA, method="dense")
    op = solver.op
    rhs = np.random.default_rng(7).normal(size=(op.n3, 2)) + 0j
    x = solver.solve(rhs)
    assert op.factored == [np.complex64, np.complex128] and op.refinements == [0]
    widths = [len(cls.voxels) for cls in op.symmetry.classes]
    assert any(d > widest_inverse for d in widths)
    for d, solve in zip(widths, op.lu()):
        if d <= widest_inverse:  # numpy's LU-solve of the block, then its inverse
            assert isinstance(solve, vie_mod._SolvedThenInverted)
            assert solve.block.shape == (d, d) and solve.block.dtype == np.complex128
        else:  # getrs on getrf's (lu, piv) of the transposed block
            _, lu, piv = solve.args
            assert lu.dtype == np.complex128 and lu.shape == (d, d) and lu.flags.f_contiguous
            assert piv.shape == (d,)
    reference = np.linalg.solve(np.eye(op.n3) - pairwise_kernel(grid, OMEGA) * op.beta_rep, rhs)
    assert np.linalg.norm(x - reference) <= 1e-13 * np.linalg.norm(reference)


@pytest.mark.parametrize("dtype, d, form", [(np.complex128, 3, "numpy"),
                                            (np.complex128, 401, "getrf"),
                                            (np.complex64, 3, "getrf"),
                                            (np.complex64, 401, "getrf")],
                         ids=["complex128-3", "complex128-401", "complex64-3", "complex64-401"])
def test_a_singular_block_is_refused_in_either_factor_form(dtype, d, form):
    """An all-zero block raises SolverError before its solve returns anything, whether
    numpy solves it (the "numpy" form plan gives a complex128 block of at most
    _DOUBLE_LU_MAX rows: gesv at each call, the inverse when the operator is solved
    again) or LAPACK's LU does (the "getrf" form of every other block), where getrf
    reports the zero pivot in its info at factor time."""
    import greenvox.vie as vie_mod

    coords, solved = np.ones((d, 2), dtype=dtype), []
    with pytest.raises(SolverError, match="singular block"):
        solve = vie_mod.lu_factor(np.zeros((d, d), dtype=dtype), form)
        solved.append(solve(coords))
    if form == "numpy":
        with pytest.raises(SolverError, match="singular block"):
            solve.invert()
        assert solve.inverse is None
    assert solved == []


def test_a_small_block_is_inverted_at_its_second_solve(monkeypatch):
    """The sphere's ten complex128 blocks are LU-solved by numpy at the operator's first
    solve, inverted once each at its second, and solved by the inverse alone at its
    third, all three within 1e-13 of a solve of the materialized operator; a
    purcell_sweep row, whose operator is solved once, inverts nothing, and neither does
    a row of the Lorentz cube whose solve takes a refinement step: each step LU-solves
    every block again."""
    calls = {"solve": 0, "inv": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)

    grid, materials, _ = sector_scenes()["sphere"]
    solver = MediumSolver(grid, materials, OMEGA, method="dense")
    op, rng = solver.op, np.random.default_rng(8)
    A = np.eye(op.n3) - pairwise_kernel(grid, OMEGA) * op.beta_rep
    for name in calls:
        counting(name)
    counted = []
    for _ in range(3):
        rhs = rng.normal(size=(op.n3, 3)) + 1j * rng.normal(size=(op.n3, 3))
        calls.update(solve=0, inv=0)
        x = solver.solve(rhs)
        counted.append(dict(calls))
        reference = np.linalg.solve(A, rhs)
        assert np.linalg.norm(x - reference) <= 1e-13 * np.linalg.norm(reference)
    assert len(op.blocks) == 10 and op.refinements == [0, 0, 0]
    assert counted == [{"solve": 10, "inv": 0}, {"solve": 0, "inv": 10},
                       {"solve": 0, "inv": 0}]
    calls.update(solve=0, inv=0)
    rows = purcell_sweep(lambda w: MediumSolver(grid, materials, w), (0.82, -1.12, 0.84),
                         (0.0, 0.6, 0.8), [OMEGA])
    assert "error" not in rows[0] and calls["inv"] == 0
    grid, materials, _ = sector_scenes()["cube"]
    solvers = []
    calls.update(solve=0, inv=0)

    def cube_solver(w):
        solvers.append(MediumSolver(grid, materials, w))
        return solvers[-1]
    rows = purcell_sweep(cube_solver, (0.95, 0.15, 0.25), (0.0, 0.0, 1.0), [0.7, 0.8])
    assert [solver.op.refinements for solver in solvers] == [[1], [0]]
    assert all("error" not in row for row in rows) and calls["inv"] == 0
    steps = sum(len(solver.op.blocks) * (solver.op.refinements[0] + 1) for solver in solvers)
    assert calls["solve"] == steps == 30


@pytest.mark.parametrize("name", SECTOR_SCENES)
def test_dense_kernel_stores_the_sector_blocks(name):
    """The dense kernel is the block of K in every symmetry class, sum_c d_c^2
    complex128 entries in one buffer; its block products are K q, and the norm read
    from the row representatives' rows is ||I - K diag(beta)||_inf."""
    grid, materials, _ = sector_scenes()[name]
    op = MediumSolver(grid, materials, OMEGA, method="dense").op
    assert op.kernel.dtype == np.complex128 and op.kernel.flags.c_contiguous
    assert op.kernel.nbytes == 16 * sum(len(cls.voxels) ** 2 for cls in op.symmetry.classes)
    assert all(np.shares_memory(block, op.kernel) for block in op.blocks)
    K = pairwise_kernel(grid, OMEGA)
    norm = np.abs(np.eye(op.n3) - K * op.beta_rep).sum(axis=1).max()
    assert abs(op.norm - norm) <= 1e-13 * norm
    rng = np.random.default_rng(6)
    for m in (1, 3):
        q = rng.normal(size=(op.n3, m)) + 1j * rng.normal(size=(op.n3, m))
        expected = K @ q
        assert np.linalg.norm(op.kernel_product(q) - expected) <= 1e-13 * np.linalg.norm(expected)


def test_sectors_of_the_sphere():
    """The 257-voxel sphere splits into eight sectors in four classes, {0}, {1, 2, 4},
    {3, 5, 6} and {7}, and each class by the irreps of its stabilizer: A1, A2 and E
    (stored once for its two partners) for sectors 0 and 7, even and odd under the
    swap for the others, ten blocks in all; the vacuum operator has none."""
    grid, materials, _ = sector_scenes()["sphere"]
    op = MediumSolver(grid, materials, OMEGA).op
    assert op.sectors == (111, 104, 104, 91, 104, 91, 91, 75)
    assert [len(block) for block in op.blocks] == [23, 14, 37, 58, 46, 48, 43, 16, 9, 25]
    assert [cls.copies for cls in op.symmetry.classes] == [1, 1, 2, 3, 3, 3, 3, 1, 1, 2]
    assert op.kernel.size == 12689
    assert assemble(grid, np.zeros(grid.n), OMEGA).sectors == ()


@pytest.mark.parametrize("name, classes", [
    ("cube", [({0}, 3), ({1, 2, 4}, 2), ({3, 5, 6}, 2), ({7}, 3)]),
    ("sphere", [({0}, 3), ({1, 2, 4}, 2), ({3, 5, 6}, 2), ({7}, 3)]),
    # x <-> y alone
    ("flat box", [({0}, 2), ({1, 2}, 1), ({3}, 2), ({4}, 2), ({5, 6}, 1), ({7}, 2)]),
    ("cube with a slab", [({0}, 2), ({1}, 2), ({2, 4}, 1), ({3, 5}, 1), ({6}, 2), ({7}, 2)]),
    ("asymmetric", [({0}, 1)]),
    ("chiral", [({0}, 1)]),  # the 3-cycles map the one sector onto itself and split nothing
    ("corner", [({0}, 3)]),  # no mirror: all of S3 keeps the one sector
])
def test_permuted_sectors_share_one_block(name, classes):
    """Parity sectors that an axis permutation of the voxels and beta maps onto each
    other share their blocks (sector chi's bit k flips axis k), one block per irrep of
    the permutations that keep the class's first sector: three (A1, A2, E) under all
    of S3, two (even, odd) under one swap, one without a swap.  The solves and kernel
    products of these scenes are checked against the pairwise kernel above."""
    grid, materials, _ = sector_scenes()[name]
    op = MediumSolver(grid, materials, OMEGA, method="dense").op
    stored = [set(cls.sectors) for cls in op.symmetry.classes]
    assert [(c, stored.count(c)) for c in dict.fromkeys(map(frozenset, stored))] == classes
    assert len(op.blocks) == len(op.lu()) == sum(count for _, count in classes)
    assert sum(block.shape[0] * cls.copies
               for cls, block in zip(op.symmetry.classes, op.blocks)) == op.n3


@pytest.mark.parametrize("name", SECTOR_SCENES)
def test_adapted_basis_block_diagonalizes_the_pairwise_kernel(name):
    """The symmetry-adapted basis U, materialized by unfolding the identity, is
    orthogonal, fold is its transpose, and U^T K U of the pairwise kernel is block
    diagonal with every stored block once per copy, to 1e-13."""
    grid, materials, _ = sector_scenes()[name]
    op = MediumSolver(grid, materials, OMEGA, method="dense").op
    basis, identity = op.symmetry, np.eye(op.n3, dtype=complex)
    U = basis.unfold(identity).real
    assert np.max(np.abs(U.T @ U - np.eye(op.n3))) <= 1e-14
    assert np.max(np.abs(basis.fold(identity) - U.T)) <= 1e-15
    K = pairwise_kernel(grid, OMEGA)
    expected = np.zeros_like(K)
    for cls, block in zip(basis.classes, op.blocks):
        part = slice(cls.start, cls.start + len(block) * cls.copies)
        expected[part, part] = np.kron(block, np.eye(cls.copies))
    assert np.max(np.abs(U.T @ K @ U - expected)) <= 1e-13 * np.max(np.abs(K))


F32_MAX = float(np.finfo(np.float32).max)


SPHERE_257 = [23, 14, 37, 58, 46, 48, 43, 16, 9, 25]
SPHERE_1904 = [135, 103, 238, 373, 341, 373, 341, 135, 103, 238]
SPHERE_4224 = [292, 236, 528, 820, 764, 820, 764, 292, 236, 528]


def planned_bodies():
    """(grid, materials) of the bodies whose plans the tests read: the Drude sphere of
    radius 1 at three voxel edges, and the asymmetric body of sector_scenes."""
    sphere = Sphere(center=(0, 0, 0), radius=1.0)
    return {**{f"sphere {n}": (build_grid(sphere, edge), {1: DRUDE})
               for n, edge in ((257, 0.2497), (1904, 0.13), (4224, 0.1))},
            "asymmetric": sector_scenes()["asymmetric"][:2]}


@pytest.mark.parametrize("body, sizes, norm, dtype", [
    ("sphere 257", SPHERE_257, 3.0, np.complex128),
    ("sphere 1904", SPHERE_1904, 3.0, np.complex128),
    ("sphere 4224", SPHERE_4224, 3.0, np.complex64),
    ("asymmetric", [771], 3.0, np.complex64),
    ("sphere 4224", SPHERE_4224, 1e38, np.complex64),
    ("sphere 257", SPHERE_257, F32_MAX, np.complex128),
    ("sphere 4224", SPHERE_4224, F32_MAX - 2.0, np.complex128),
    ("asymmetric", [771], 1e48, np.complex128),
    ("asymmetric", [771], np.inf, np.complex128),
], ids=["sphere 257", "sphere 1904", "sphere 4224", "one sector 771", "large norm 4224",
        "float32 max 257", "float32 max 4224", "1e48 771", "inf 771"])
def test_lu_precision_follows_the_block_sizes_and_the_norm(body, sizes, norm, dtype):
    """The planned LU precision is a function of the stored blocks' sizes alone, read
    before anything is assembled: complex128 for the ten blocks of the 257- and the
    1904-voxel sphere (at most 373 wide), complex64 for the 4224-voxel sphere's (up to
    820) and for one block of 771.  lu() keeps it, and factors in complex128 whatever
    the plan once ||A||_inf + 2 reaches the float32 range, where a complex64 block
    could overflow: on an assembled operator planned in the same precision (the
    257-voxel sphere in complex128, the asymmetric body in complex64) given that
    ||A||_inf, lu() factors in dtype."""
    import greenvox.vie as vie_mod

    grid, materials = planned_bodies()[body]
    planned = vie_mod.plan(grid, eps_on_grid(grid, materials, OMEGA)[1], "dense")
    assert list(planned.sizes) == sizes
    if norm == 3.0:
        assert planned.dtype == dtype
    like = "sphere" if planned.dtype == np.complex128 else "asymmetric"
    op = MediumSolver(*sector_scenes()[like][:2], OMEGA, method="dense").op
    assert op.plan.dtype == planned.dtype
    op.norm = norm
    op.lu()
    assert op.factored == [dtype]


def test_plans_are_read_before_anything_is_assembled(monkeypatch):
    """plan reads every size decision with no G0 evaluated: the 257-voxel sphere is
    dense, ten complex128 blocks in numpy form filled in one chunk; the 4224-voxel
    sphere above dense_cap 1000 is the circulant lattice of 40 sites per axis, and
    under method "dense" ten complex64 blocks up to 820 wide in getrf form, filled in
    several chunks, refactored in complex128 in numpy form up to 400 rows; the
    asymmetric body is one complex64 block of 771; vacuum is the identity."""
    import greenvox.vie as vie_mod

    evaluated = []
    build = vie_mod._kernel_blocks
    monkeypatch.setattr(vie_mod, "_kernel_blocks",
                        lambda *args: evaluated.append(args) or build(*args))
    bodies = planned_bodies()

    def planned(body, *args):
        grid, materials = bodies[body]
        beta = eps_on_grid(grid, materials, OMEGA)[1]
        return vie_mod.plan(grid, beta, *args), grid.symmetry_basis(beta)

    small, basis = planned("sphere 257", "auto", 1000)
    assert small.representation == "dense" and list(small.sizes) == SPHERE_257
    assert small.dtype == np.complex128 and small.forms == ("numpy",) * 10
    assert small.double_forms == small.forms and small.fill_rows == len(basis.rows)
    lattice, _ = planned("sphere 4224", "auto", 1000)
    assert lattice.representation == "lattice" and lattice.circulant == (40, 40, 40)
    assert lattice.sizes == () and lattice.dtype is None
    large, basis = planned("sphere 4224", "dense", 1000)
    assert large.representation == "dense" and list(large.sizes) == SPHERE_4224
    assert large.dtype == np.complex64 and max(large.sizes) == 820
    assert large.forms == ("getrf",) * 10
    assert large.double_forms == tuple("numpy" if d <= 400 else "getrf" for d in large.sizes)
    assert 1 <= large.fill_rows and math.ceil(len(basis.rows) / large.fill_rows) > 1
    one, _ = planned("asymmetric", "dense", 1000)
    assert one.sizes == (771,) and one.dtype == np.complex64 and one.forms == ("getrf",)
    grid = bodies["sphere 257"][0]
    assert vie_mod.plan(grid, np.zeros(grid.n), "dense", 1000) == vie_mod.Plan("identity")
    assert evaluated == []


def test_a_circulant_axis_is_padded_to_an_fft_friendly_length():
    """An axis of 13 sites takes a circulant of 27 (26 = 2 x 13 is not 11-smooth), one of
    2 keeps 4, and the lattice product on that extent equals the pairwise kernel's to
    1e-13."""
    import greenvox.vie as vie_mod

    grid = build_grid(Box(min_corner=(-0.65, -0.1, -0.1), max_corner=(0.65, 0.1, 0.1)), 0.1)
    assert grid.lattice_shape == (13, 2, 2)
    beta = lorentz_beta(grid)
    op = assemble(grid, beta, OMEGA, plan=vie_mod.plan(grid, beta, "gmres"))
    assert op.plan.circulant == (27, 4, 4) and op.lattice.shape == (3, 3, 27, 4, 4)
    q = np.random.default_rng(9).normal(size=(op.n3, 2)) * (1 + 0.5j)
    expected = pairwise_kernel(grid, OMEGA) @ q
    assert np.linalg.norm(op.kernel_product(q) - expected) <= 1e-13 * np.linalg.norm(expected)


@st.composite
def lattice_bodies(draw):
    """Region ids on a lattice box of at most 4 x 4 x 4 sites: 0 is a hole, and one
    to three materials fill the rest, at least one voxel of them."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    materials = draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(0, materials), min_size=int(np.prod(shape)),
                        max_size=int(np.prod(shape))).filter(any))
    return np.reshape(ids, shape)


@given(ids=lattice_bodies())
def test_fft_gmres_matches_dense_lu_on_random_bodies(ids):
    """On any small lattice body, holes and material mix included, the FFT-GMRES
    Green columns are the dense-LU columns to 10 tol, and so is the Purcell factor
    of an emitter at their source."""
    tol, edge = 1e-10, 0.15
    site = np.argwhere(ids)
    grid = VoxelGrid((site + 0.5) * edge, edge, ids[tuple(site.T)])
    mats = {1: LORENTZ, 2: DRUDE, 3: PermittivityModel(
        poles=(LorentzPole(omega0=2.0, omegap=2.0, gamma=0.5),), region_id=3)}
    y = np.array([-0.3, 0.25, 0.9])
    emitter = EmitterSpec(position=tuple(y), omega=OMEGA, dipole=(0.6, -0.48, 0.64))
    dense = MediumSolver(grid, mats, OMEGA, tol, method="dense")
    lattice = MediumSolver(grid, mats, OMEGA, tol, method="gmres")
    assert lattice.op.kernel is None
    X = dense.grid_fields(y)
    assert np.linalg.norm(lattice.grid_fields(y) - X) <= 10 * tol * np.linalg.norm(X)
    reference = purcell(dense, None, emitter)
    assert abs(purcell(lattice, None, emitter) - reference) <= 10 * tol * reference


def lattice_grids(tmp_path):
    """A sphere, a two-box union with n_x != n_y != n_z, a mask with holes, two
    4^3 boxes ten edges apart on the diagonal, a slab one voxel thick and a single
    voxel (lattice axes of one site, padded to two)."""
    ids = np.ones((5, 4, 6), dtype=int)
    ids[2, 1:3, 2:4] = 0  # interior hole
    ids[:, :, 0] = 0  # the body starts one voxel past the mask origin
    ids[4, 3, 5] = 0
    write_mask(tmp_path / "holes.mask", ids.shape, 0.15, (0.3, -0.7, 1.1), ids)
    return {
        "sphere": build_grid(Sphere(center=(0, 0, 0), radius=0.5, region_id=1), 0.152),
        "two boxes": build_grid([Box(min_corner=(-0.4, -0.3, -0.2), max_corner=(0.4, 0.3, 0.2)),
                                 Box(min_corner=(0.2, 0.2, 0.0), max_corner=(0.6, 0.9, 0.5))],
                                0.1),
        "mask": build_grid(MaskShape(str(tmp_path / "holes.mask"))),
        "separated boxes": build_grid([Box(min_corner=(-0.2, -0.2, -0.2),
                                           max_corner=(0.2, 0.2, 0.2)),
                                       Box(min_corner=(0.8, 0.8, 0.8),
                                           max_corner=(1.2, 1.2, 1.2))], 0.1),
        "slab": build_grid(Box(min_corner=(-0.3, -0.2, 0.0), max_corner=(0.3, 0.2, 0.1)), 0.1),
        "single voxel": build_grid(Box(min_corner=(0.2, 0.1, -0.3), max_corner=(0.3, 0.2, -0.2)),
                                   0.1),
    }


def lorentz_beta(grid):
    """beta of the Lorentz material at OMEGA in every voxel of the grid."""
    return np.full(grid.n, OMEGA**2 * (eval_eps(LORENTZ, OMEGA) - 1.0))


def test_kernel_matches_pairwise_reference(tmp_path, monkeypatch):
    """The kernel the sector blocks gathered from the kernel table apply is the
    pairwise kernel, each stored block is exactly symmetric, and G0 is evaluated at
    no more offsets than there are voxel pairs."""
    import greenvox.vie as vie_mod

    tables = []
    build = vie_mod._kernel_blocks
    monkeypatch.setattr(vie_mod, "_kernel_blocks",
                        lambda *args: tables.append(build(*args)) or tables[-1])
    for name, grid in lattice_grids(tmp_path).items():
        op = assemble(grid, lorentz_beta(grid), OMEGA)
        K = op.kernel_product(np.eye(op.n3, dtype=complex))
        ref = pairwise_kernel(grid, OMEGA)
        assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref)), name
        assert all(np.array_equal(block, block.T) for block in op.blocks), name
        assert np.prod(tables[-1].shape[:-2]) <= grid.n**2, name


def test_reflected_table_is_g0_at_every_signed_offset(tmp_path):
    """The table is evaluated at the |offsets| and reflected to the signed ones; on the
    signed per-axis offsets of the voxel pairs, on the circulant and on the offsets the
    dense plan reads it equals G0 evaluated at every offset directly, entry for entry
    (an exact zero may differ in sign: -x is exact, but (-0) * y + 0 is not -(0 * y + 0))."""
    import greenvox.vie as vie_mod
    from greenvox.geometry import reflect, reflection
    from greenvox.green_free import g0_from_displacements

    def direct(grid, offsets):
        at = np.array(offsets, dtype=float)
        zero = ~at.any(axis=-1)
        at[zero] = 1.0
        blocks = grid.voxel_volume * g0_from_displacements(grid.voxel_edge * at, OMEGA)
        blocks[zero] = self_term(grid.voxel_volume, OMEGA)
        return blocks

    for name, grid in lattice_grids(tmp_path).items():
        signed = [np.unique(sites[:, None] - sites)
                  for sites in map(np.unique, grid.lattice_index.T)]
        circulant = [np.fft.ifftshift(np.arange(-n, n)) for n in grid.lattice_shape]
        for axes in (signed, circulant):
            offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
            distinct, entries = reflection(offsets)
            table = reflect(vie_mod._kernel_blocks(grid, OMEGA, distinct), entries)
            assert np.array_equal(table, direct(grid, offsets)), name
        basis = grid.symmetry_basis(np.ones(grid.n))
        index, distinct, entries = basis.kernel_offsets
        coord = grid.lattice_index
        offsets = coord[basis.reps[basis.rows]][None, None] - coord[basis.members][:, :, None]
        table = reflect(vie_mod._kernel_blocks(grid, OMEGA, distinct), entries)
        assert np.array_equal(table.reshape(-1, 3, 3)[index // 3], direct(grid, offsets)), name


def _modules_loaded_by(code):
    """The modules among greenvox.symmetry, scipy.linalg, scipy.sparse and numpy.ma that
    a fresh process running code (which has numpy as np and the greenvox names it uses)
    loads."""
    import greenvox

    code = ("import sys, numpy as np\n"
            "from greenvox import (Box, LorentzPole, MediumSolver, PermittivityModel, Sphere,\n"
            "                      build_grid)\n"
            + code +
            "print(sorted({'greenvox.symmetry', 'scipy.linalg', 'scipy.sparse', 'numpy.ma'}\n"
            "             & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(greenvox.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_a_matrix_free_solve_builds_no_symmetry_basis():
    """The circulant table is planned without the symmetry module, and GMRES solves its
    small triangle with numpy: a GMRES-only run imports neither greenvox.symmetry nor
    scipy.linalg, scipy.sparse or numpy.ma, in a fresh process."""
    assert _modules_loaded_by(
        "grid = build_grid(Box(min_corner=(-0.4,) * 3, max_corner=(0.4,) * 3), 0.2)\n"
        "pole = LorentzPole(omega0=1.5, omegap=1.0, gamma=0.4)\n"
        "solver = MediumSolver(grid, {1: PermittivityModel(poles=(pole,), region_id=1)},\n"
        "                      1.0, 1e-8, method='gmres')\n"
        "solver.green(np.array([1.2, 0.1, -0.1]), np.array([-0.3, 1.1, 0.2]))\n") == "[]"


@pytest.mark.parametrize("body, loaded", [
    ("Sphere(center=(0, 0, 0), radius=1.0)", "['greenvox.symmetry']"),
    ("[Sphere(center=(0, 0, 0), radius=1.0, region_id=1),\n"
     " Box(min_corner=(0.3, 0.1, -0.2), max_corner=(0.8, 0.6, 0.3), region_id=2)]",
     "['greenvox.symmetry', 'numpy.ma', 'scipy.linalg']")], ids=["sphere", "sphere and box"])
def test_scipy_serves_only_the_complex64_factors(body, loaded):
    """A dense solve whose blocks are at most _DOUBLE_LU_MAX wide (the 257-voxel Drude
    sphere's ten) factors them with numpy, and its process loads none of scipy.linalg,
    scipy.sparse and numpy.ma; the same sphere with a Lorentz box off its center keeps
    one block of 771, factored in complex64 by scipy.linalg, which its process loads
    then (with the numpy.ma that scipy.linalg imports), and not scipy.sparse.  Both
    solves meet the backward-error bound."""
    assert _modules_loaded_by(
        f"grid = build_grid({body}, 0.2497)\n"
        "drude = PermittivityModel(poles=(LorentzPole(omega0=0.0, omegap=1.5, gamma=0.3),),\n"
        "                          region_id=1)\n"
        "box = PermittivityModel(poles=(LorentzPole(omega0=1.5, omegap=1.0, gamma=0.4),),\n"
        "                        region_id=2)\n"
        "solver = MediumSolver(grid, {1: drude, 2: box}, 1.0, method='dense')\n"
        "assert grid.n == 257 and len(solver.op.blocks) == (10 if len(set(grid.material_ids))\n"
        "                                                   == 1 else 1)\n"
        "b = solver.source_columns(np.array([1.2, 0.1, -0.1]))\n"
        "x = solver.solve(b)\n"
        "error = np.max(np.abs(b - solver.op.apply(x)), axis=0)\n"
        "assert np.all(error <= np.max(np.abs(x), axis=0) * solver.op.norm\n"
        "              * np.finfo(float).eps), error\n"
        "assert solver.op.factored == [np.complex128 if len(solver.op.blocks) == 10\n"
        "                              else np.complex64]\n") == loaded


def test_first_dense_assembly_holds_little_beside_the_blocks():
    """The first assemble on a cold 840-voxel Drude sphere, its SymmetryBasis index
    and classes included, peaks below the blocks it stores plus two chunks of
    kernel rows (the rows are gathered and folded a few MiB at a time), and leaves no
    N x N array on the grid, and no array an assembly could write to: the grid and
    its bases are shared by the solvers of every frequency."""
    import greenvox.vie as vie_mod

    warm = build_grid(Sphere(center=(0, 0, 0), radius=1.0), 0.5)
    assemble(warm, np.ones(warm.n), OMEGA)  # imports and one-time caches, outside the count
    grid = build_grid(Sphere(center=(0, 0, 0), radius=1.0), 0.17)
    beta = np.full(grid.n, OMEGA**2 * (eval_eps(DRUDE, OMEGA) - 1.0))
    tracemalloc.start()
    try:
        op = assemble(grid, beta, OMEGA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.n == 840 and op.sectors == (315,) * 8 and len(op.blocks) == 10
    assert peak < op.kernel.nbytes + 2 * vie_mod._ROWS_CHUNK_BYTES

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from arrays(item)

    kept = [a for obj in (grid, *grid._symmetry_bases.values()) for a in arrays(vars(obj))]
    assert kept and max(a.size for a in kept) < grid.n**2
    assert not [a.shape for a in kept if a.flags.writeable]


@pytest.mark.parametrize("name", [*SECTOR_SCENES, "sphere 840"])
def test_assembly_in_chunks_equals_the_one_chunk_assembly(name, monkeypatch):
    """Kernel rows gathered and folded a few row representatives at a time give the
    stored blocks and the ||A||_inf of the assembly in one chunk, bit for bit (a row's
    absolute sum is added entry by entry, with no BLAS call, whatever the chunk): with chunks
    of one row representative, and of about a third of them (the last chunk short
    where they do not divide), every body assembles in at least three chunks, each
    into the front of the rows buffer the one-chunk assembly left in this thread."""
    import greenvox.symmetry as symmetry
    import greenvox.vie as vie_mod

    if name == "sphere 840":
        grid, materials = build_grid(Sphere(center=(0, 0, 0), radius=1.0), 0.17), {1: DRUDE}
    else:
        grid, materials, _ = sector_scenes()[name]
    beta = MediumSolver(grid, materials, OMEGA, method="dense").beta
    monkeypatch.setattr(vie_mod, "_ROWS_CHUNK_BYTES", 1 << 40)
    whole = assemble(grid, beta, OMEGA)
    basis, buffer = whole.symmetry, symmetry._held.rows
    order, reps = basis.members.shape
    per_row = 48 * (order * 3 * reps + 3 * grid.n)  # rows and images, as plan counts them
    chunks = []
    transform = symmetry.SymmetryBasis.transform
    monkeypatch.setattr(symmetry.SymmetryBasis, "transform",
                        lambda self, x: chunks.append(x.shape[-1]) or transform(self, x))
    for step in sorted({1, max(1, (len(basis.rows) - 1) // 3)}):
        monkeypatch.setattr(vie_mod, "_ROWS_CHUNK_BYTES", step * per_row)
        chunks.clear()
        op = assemble(grid, beta, OMEGA)
        assert op.plan.fill_rows == step, (name, step)
        assert len(chunks) >= 3 and sum(chunks) == 3 * len(basis.rows), (name, step)
        assert op.kernel.tobytes() == whole.kernel.tobytes(), (name, step)
        assert op.norm == whole.norm, (name, step)
        assert op.symmetry is basis and symmetry._held.rows is buffer, (name, step)


def test_assemblies_from_two_threads_on_one_grid_equal_the_sequential_ones(monkeypatch):
    """Thread A's assembly waits at its first Walsh-Hadamard transform, after it has
    gathered its kernel rows, until thread B has assembled the same grid at another
    frequency on the same SymmetryBasis: both kernels and norms equal the ones
    assembled in turn, bit for bit (rows gathered into memory the two assemblies
    shared would carry B's rows into A's blocks)."""
    import threading

    import greenvox.symmetry as symmetry

    grid = build_grid(Sphere(center=(0, 0, 0), radius=1.0), 0.25)
    betas = {w: np.full(grid.n, w**2 * (eval_eps(DRUDE, w) - 1.0)) for w in (0.8, 1.1)}
    expected = {w: assemble(grid, beta, w) for w, beta in betas.items()}
    assert expected[0.8].symmetry is expected[1.1].symmetry
    gathered, assembled, got = threading.Event(), threading.Event(), {}
    transform = symmetry.SymmetryBasis.transform

    def held(self, x):
        if threading.current_thread().name == "A" and not gathered.is_set():
            gathered.set()
            assembled.wait(60)
        return transform(self, x)

    def run(w):
        op = assemble(grid, betas[w], w)
        got[w] = (op.kernel.tobytes(), op.norm)

    monkeypatch.setattr(symmetry.SymmetryBasis, "transform", held)
    a = threading.Thread(target=run, args=(0.8,), name="A")
    a.start()
    try:
        assert gathered.wait(60)
        b = threading.Thread(target=run, args=(1.1,), name="B")
        b.start()
        b.join(60)
    finally:
        assembled.set()
        a.join(60)
    assert not a.is_alive() and not b.is_alive()
    for w, op in expected.items():
        assert got.get(w) == (op.kernel.tobytes(), op.norm), w


def test_fft_product_matches_dense_kernel(tmp_path):
    """The lattice convolution reproduces K q on every kind of lattice grid, from a
    C-contiguous spectrum, and m columns at once, convolved _LATTICE_COLUMNS at a time,
    are m single columns bit for bit."""
    import greenvox.vie as vie_mod

    rng = np.random.default_rng(5)
    for name, grid in lattice_grids(tmp_path).items():
        dense = assemble(grid, lorentz_beta(grid), OMEGA)
        fft = assemble(grid, lorentz_beta(grid), OMEGA,
                       plan=vie_mod.plan(grid, lorentz_beta(grid), "gmres"))
        assert fft.kernel is None
        assert fft.lattice.flags.c_contiguous, name
        if name == "two boxes":
            assert len(set(fft.lattice.shape[2:])) == 3  # n_x, n_y, n_z all differ
        p = rng.normal(size=(dense.n3, 2)) + 1j * rng.normal(size=(dense.n3, 2))
        q = dense.beta_rep[:, None] * p
        expected = pairwise_kernel(grid, OMEGA) @ q
        got = fft.kernel_product(q)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected), name
        q7 = np.hstack([q, q * 1j, q[:, :1] * (1 - 2j), q * 3.0])
        assert q7.shape[1] > 2 * vie_mod._LATTICE_COLUMNS
        single = np.hstack([fft.kernel_product(q7[:, [j]]) for j in range(7)])
        assert np.array_equal(fft.kernel_product(q7), single), name
        for v in (p, p[:, 0]):
            assert fft.apply(v).shape == v.shape
            assert np.linalg.norm(fft.apply(v) - dense.apply(v)) <= 1e-13 * np.linalg.norm(v)


def test_dense_method_stores_the_kernel_above_dense_cap(cube_grid, cube_materials):
    """dense_cap steers only method="auto": "dense" stores the kernel at any size."""
    assert cube_grid.n > 10
    assert MediumSolver(cube_grid, cube_materials, OMEGA, method="dense",
                        dense_cap=10).op.kernel is not None
    assert MediumSolver(cube_grid, cube_materials, OMEGA, dense_cap=10).op.kernel is None


def test_solve_follows_the_representation(cube_grid, cube_materials, monkeypatch):
    """A stored kernel is factorized once and never run through GMRES; a lattice
    operator is never factorized."""
    import greenvox.vie as vie_mod

    calls = {"lu_factor": 0, "_gmres": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(vie_mod, name, counting(name, getattr(vie_mod, name)))
    rng = np.random.default_rng(4)
    rhs = rng.normal(size=(3 * cube_grid.n, 2)) + 0j
    dense = MediumSolver(cube_grid, cube_materials, OMEGA, method="dense")
    for _ in range(3):
        dense.solve(rhs)
    # one factorization, in complex128 (every block is at most 400 wide), one LAPACK
    # call per stored block: four classes of sectors, split into ten irreps
    assert dense.op.factored == [np.complex128]
    sectors = len(dense.op.blocks)
    assert sectors == 10
    assert calls == {"lu_factor": sectors, "_gmres": 0}
    lattice = MediumSolver(cube_grid, cube_materials, OMEGA, method="gmres")
    lattice.solve(rhs)
    assert calls == {"lu_factor": sectors, "_gmres": 2}  # one GMRES run per column
    with pytest.raises(SolverError, match="matrix-free"):
        lattice.op.lu()
    with pytest.raises(ValueError, match="unknown solve method"):
        MediumSolver(cube_grid, cube_materials, OMEGA, method="lu")


def counted_solves(monkeypatch):
    """Columns of every solve_system call from here on."""
    import greenvox.vie as vie_mod

    columns = []
    solve = vie_mod.solve_system
    monkeypatch.setattr(vie_mod, "solve_system",
                        lambda op, rhs, tol: columns.append(rhs.shape[1]) or solve(op, rhs, tol))
    return columns


def test_grid_fields_solved_once_per_source(cube_grid, cube_materials, monkeypatch):
    import greenvox.vie as vie_mod

    solver = MediumSolver(cube_grid, cube_materials, OMEGA)
    columns = counted_solves(monkeypatch)
    X = solver.grid_fields(Y_OUT)
    assert solver.grid_fields(Y_OUT.copy()) is X
    solver.green(X_OUT, Y_OUT)
    assert columns == [3]
    with pytest.raises(ValueError):
        X[0, 0, 0] = 1.0
    G = solver.green(cube_grid.centers[5], Y_OUT)
    G[0, 0] = 0.0  # an on-grid value is the caller's own copy
    assert X[5, 0, 0] != 0.0
    for k in range(vie_mod._FIELDS_KEPT):  # the memo is bounded, oldest out first
        solver.grid_fields(Y_OUT + k + 1.0)
    assert solver.grid_fields(Y_OUT) is not X
    assert len(columns) == vie_mod._FIELDS_KEPT + 2


def test_g0_rows_are_memoised_like_green_columns(cube_grid, cube_materials, monkeypatch):
    """A revisited point returns its held read-only G0 row, and after _FIELDS_KEPT + 1
    distinct points the least recently used is evaluated again."""
    import greenvox.vie as vie_mod

    solver = MediumSolver(cube_grid, cube_materials, OMEGA)
    calls = []
    g0 = vie_mod.g0_from_displacements
    monkeypatch.setattr(vie_mod, "g0_from_displacements",
                        lambda *args: calls.append(args) or g0(*args))
    points = Y_OUT + 0.1 * np.arange(vie_mod._FIELDS_KEPT + 1)[:, None]
    rows = [solver.g0_blocks_at(p) for p in points[:-1]]
    assert all(solver.g0_blocks_at(p.copy()) is row for p, row in zip(points, rows))
    assert len(calls) == vie_mod._FIELDS_KEPT and not rows[0].flags.writeable
    solver.g0_blocks_at(points[-1])
    again = solver.g0_blocks_at(points[0])
    assert again is not rows[0] and len(calls) == vie_mod._FIELDS_KEPT + 2
    np.testing.assert_array_equal(again, rows[0])


@pytest.mark.parametrize("method, rel", [("dense", 1e-13), ("gmres", 1e-10)])
def test_batched_grid_fields_match_single_sources(cube_grid, cube_materials, method, rel,
                                                  monkeypatch):
    """A (P, 3) call solves its new sources, a duplicate once, in one block and returns
    what P single-source solves return (to 1e-13 on LU, to tol on GMRES)."""
    points = np.array([Y_OUT, X_OUT, cube_grid.centers[7], Y_OUT, X_OUT + 0.3])
    reference = MediumSolver(cube_grid, cube_materials, OMEGA, method=method)
    singles = [reference.solve(reference.source_columns(p)).reshape(cube_grid.n, 3, 3)
               for p in points]
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, method=method)
    columns = counted_solves(monkeypatch)
    X = solver.grid_fields(points)
    assert columns == [12]  # four distinct sources
    assert X.shape == (len(points), cube_grid.n, 3, 3) and not X.flags.writeable
    for Xp, single in zip(X, singles):
        assert np.linalg.norm(Xp - single) <= rel * np.linalg.norm(single)
    # memoised sources stay out of the block
    again = solver.grid_fields(np.stack([X_OUT, Y_OUT - 0.3, cube_grid.centers[7]]))
    assert columns == [12, 3]
    np.testing.assert_array_equal(again[0], X[1])
    np.testing.assert_array_equal(solver.grid_fields(Y_OUT), X[0])
    assert columns == [12, 3]
    with pytest.raises(ValueError, match="sources must be"):
        solver.grid_fields(np.zeros(6))


def test_grid_fields_batch_larger_than_the_memo(cube_grid, cube_materials, monkeypatch):
    import greenvox.vie as vie_mod

    points = Y_OUT + 0.1 * np.arange(vie_mod._FIELDS_KEPT + 2)[:, None]
    reference = MediumSolver(cube_grid, cube_materials, OMEGA)
    singles = [reference.solve(reference.source_columns(p)).reshape(cube_grid.n, 3, 3)
               for p in points]
    solver = MediumSolver(cube_grid, cube_materials, OMEGA)
    columns = counted_solves(monkeypatch)
    X = solver.grid_fields(points)
    assert columns == [3 * len(points)]
    for Xp, single in zip(X, singles):
        assert np.linalg.norm(Xp - single) <= 1e-13 * np.linalg.norm(single)
    solver.grid_fields(points[2:])  # the memo keeps the last eight
    assert columns == [3 * len(points)]
    solver.grid_fields(points[0])
    assert columns == [3 * len(points), 3]


def test_fft_gmres_above_dense_cap_keeps_identities():
    """N > dense_cap: the auto policy goes matrix-free and FFT-GMRES keeps the identities."""
    grid = build_grid(Sphere(center=(0, 0, 0), radius=1.0, region_id=1), 0.1)
    assert grid.n == 4224
    mats = {1: LORENTZ}
    tol = 1e-10
    assert MediumSolver(grid, mats, OMEGA, tol).op.kernel is None
    solver = MediumSolver(grid, mats, OMEGA, tol, method="gmres")
    x = np.array([1.3, 0.2, -0.1])
    y = np.array([-0.3, 1.25, 0.2])
    Gxy = solver.green(x, y)
    Gyx = solver.green(y, x)
    gnorm = np.linalg.norm(Gxy)
    assert np.linalg.norm(Gxy - Gyx.T) <= tol * gnorm
    assert dyson_residual(solver, x, y) <= tol * gnorm


def test_ill_conditioned_operator_refactors_in_complex128(cube_grid, cube_materials,
                                                         monkeypatch):
    """An eigenvalue of K diag(beta) within 1e-7 of 1 defeats refinement on complex64
    factors: the solve refactors once in complex128 and still meets tol.  The cube's
    blocks are small enough to be factored in complex128 outright, so the crossover is
    set to 0 here and they are factored in complex64 first."""
    import greenvox.vie as vie_mod

    monkeypatch.setattr(vie_mod, "_DOUBLE_LU_MAX", 0)
    op = MediumSolver(cube_grid, cube_materials, OMEGA).op
    mu = np.linalg.eigvals(pairwise_kernel(cube_grid, OMEGA) * op.beta_rep)
    beta = op.beta * (1.0 - 1e-7) / mu[np.argmin(np.abs(mu))]
    tol = 1e-6
    scaled = assemble(cube_grid, beta, OMEGA)
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=(scaled.n3, 2)) + 1j * rng.normal(size=(scaled.n3, 2))
    x = solve_system(scaled, rhs, tol)
    assert scaled.factored == [np.complex64, np.complex128]
    assert np.linalg.norm(scaled.apply(x) - rhs) <= tol * np.linalg.norm(rhs)
    solve_system(scaled, rhs, tol)  # the complex128 factors are kept
    assert scaled.factored == [np.complex64, np.complex128]


def test_loose_tolerance_still_solves_to_double_precision(sphere_grid, drude_materials,
                                                         monkeypatch):
    """The dense solve stops at a backward error of one float64 epsilon, not at tol,
    also on complex64 factors, whose first solve is only about float32-accurate (the
    crossover is set to 0 here, so the sphere's blocks are factored in complex64)."""
    import greenvox.vie as vie_mod

    monkeypatch.setattr(vie_mod, "_DOUBLE_LU_MAX", 0)
    solver = MediumSolver(sphere_grid, drude_materials, OMEGA, tol=1e-6)
    rng = np.random.default_rng(8)
    rhs = rng.normal(size=(solver.op.n3, 3)) + 1j * rng.normal(size=(solver.op.n3, 3))
    x = solver.solve(rhs)
    assert np.linalg.norm(solver.op.apply(x) - rhs) <= 1e-13 * np.linalg.norm(rhs)
    Gxy = solver.green(X_OUT, Y_OUT)
    Gyx = solver.green(Y_OUT, X_OUT)
    assert np.linalg.norm(Gxy - Gyx.T) <= 1e-12 * np.linalg.norm(Gxy)
    # a one-column solve and a column of a three-column solve agree to double precision
    mu = MedModeIndex(x=tuple(sphere_grid.centers[sphere_grid.n // 2]), nu=OMEGA, j=3)
    pts = np.vstack([X_OUT, sphere_grid.centers[0]])
    green_route = m_coefficient(solver, mu, pts, route="green")
    direct_route = m_coefficient(solver, mu, pts, route="direct")
    assert np.linalg.norm(green_route - direct_route) <= 1e-14 * np.linalg.norm(green_route)
    assert solver.op.factored == [np.complex64]


def test_point_inside_a_voxel_sees_it_through_the_self_term(sphere_solver):
    """Off a voxel center inside the body G stays finite and tends to the center value
    (G0 to the center alone gave |G| ~ 1e22 at 1e-8 edges on this sphere)."""
    grid = sphere_solver.grid
    center = grid.centers[100]
    step = grid.voxel_edge * np.array([1.0, 0.3, -0.2])
    G_center = sphere_solver.green(center, Y_OUT)
    for s in (1e-8, 1e-4):
        inside = center + s * step
        G = sphere_solver.green(inside, Y_OUT)
        assert np.linalg.norm(G - G_center) <= 10 * s * np.linalg.norm(G_center)
        Gyx = sphere_solver.green(Y_OUT, inside)
        assert np.linalg.norm(G - Gyx.T) <= 1e-12 * np.linalg.norm(G)
    # e and m go through the same evaluation, so they are continuous there too;
    # the m mode sits at another voxel, whose G0 is smooth near this one
    mode = PlaneWaveMode(k=(0.48 * OMEGA, 0.36 * OMEGA, 0.8 * OMEGA), sigma=+1, zeta="c")
    mu = MedModeIndex(x=tuple(grid.centers[grid.n // 2]), nu=OMEGA, j=3)
    assert grid.n // 2 != 100
    fields = {"e": lambda r: e_coefficient(sphere_solver, mode, r)[0],
              "m green": lambda r: m_coefficient(sphere_solver, mu, r, route="green")[0],
              "m direct": lambda r: m_coefficient(sphere_solver, mu, r, route="direct")[0]}
    for name, field in fields.items():
        F_center = field(center)
        for s in (1e-8, 1e-4):
            F = field(center + s * step)
            assert np.linalg.norm(F - F_center) <= 10 * s * np.linalg.norm(F_center), (name, s)


def test_green_vacuum_reduces_to_free(vacuum_solver):
    G = vacuum_solver.green(X_OUT, Y_OUT)
    assert np.array_equal(G, g0_closed(X_OUT, Y_OUT, OMEGA))


def test_reciprocity(cube_solver):
    Gxy = cube_solver.green(X_OUT, Y_OUT)
    Gyx = cube_solver.green(Y_OUT, X_OUT)
    assert np.linalg.norm(Gxy - Gyx.T) <= 1e-10 * np.linalg.norm(Gxy)


def test_reciprocity_with_on_grid_source(cube_solver):
    zp = cube_solver.grid.centers[10]
    Gxz = cube_solver.green(X_OUT, zp)
    Gzx = cube_solver.green(zp, X_OUT)
    assert np.linalg.norm(Gxz - Gzx.T) <= 1e-10 * np.linalg.norm(Gxz)


def test_coincident_green_rejected(cube_solver):
    with pytest.raises(ValueError, match="im_green_at"):
        cube_solver.green(X_OUT, X_OUT)


def test_dyson_identity_vacuum(vacuum_solver):
    assert dyson_residual(vacuum_solver, X_OUT, Y_OUT) == 0.0


def test_dyson_identity_absorbing_cube(cube_grid, cube_materials):
    res = dyson_residual(MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10), X_OUT, Y_OUT)
    assert res <= 1e-8


@pytest.mark.parametrize("method", ["dense", "gmres"])
def test_dyson_identity_with_the_source_inside_the_body(cube_grid, cube_materials, method):
    """The second route sums G(x, z) against the blocks the solve for y used,
    M/dV in the voxel holding y, so the identity closes for y at a voxel
    center or off it as it does outside (it read 2.5 off-center and raised
    at a center when it evaluated G0 at every voxel)."""
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10, method=method)
    center = cube_grid.centers[21]
    off = center + cube_grid.voxel_edge * np.array([0.15, -0.25, 0.1])
    for y in (Y_OUT, center, off):
        gnorm = np.linalg.norm(solver.green(X_OUT, y))
        assert dyson_residual(solver, X_OUT, y) <= 1e-8 * gnorm, y


def test_dyson_identity_survives_self_term_surgery(cube_grid, cube_materials, monkeypatch):
    """The permutation identity is algebraic in the discrete operator: zeroing
    the self-term diagonal changes the answer but not the identity."""
    import greenvox.vie as vie_mod

    reference = MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10).green(X_OUT, Y_OUT)
    monkeypatch.setattr(vie_mod, "self_term_scalar", lambda vol, w: 0.0 + 0.0j)  # test double
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10)
    Xy = solver.grid_fields(Y_OUT)
    Xx = solver.grid_fields(X_OUT)
    G = solver.green(X_OUT, Y_OUT)
    assert np.linalg.norm(G - reference) > 1e-3 * np.linalg.norm(reference)
    diff = G - g0_closed(X_OUT, Y_OUT, OMEGA)
    i1 = solver.scattered_at(X_OUT, Xy)
    from greenvox.green_free import g0_from_displacements
    g0_zy = g0_from_displacements(cube_grid.centers - Y_OUT, OMEGA)
    i2 = cube_grid.voxel_volume * np.einsum("j,jba,jbc->ac", solver.beta, Xx, g0_zy)
    assert np.linalg.norm(diff - i1) <= 1e-8
    assert np.linalg.norm(diff - i2) <= 1e-8


def test_uncoupling_limit_slope(cube_grid):
    scales = [0.5, 0.25, 0.125]
    norms = []
    for s in scales:
        mats = {1: scaled_contrast(LORENTZ, s)}
        G = MediumSolver(cube_grid, mats, OMEGA).green(X_OUT, Y_OUT)
        norms.append(np.linalg.norm(G - g0_closed(X_OUT, Y_OUT, OMEGA)))
    slope = loglog_slope(scales, norms)
    assert abs(slope - 1.0) <= 0.1


def test_gmres_nonconvergence_reports_residual(cube_grid, cube_materials, monkeypatch):
    """A GMRES budget of one Krylov vector in one cycle cannot reach tol: the
    SolverError names the achieved residual, which is recorded too."""
    import greenvox.vie as vie_mod

    solver = MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10, method="gmres")
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=solver.op.n3)
    monkeypatch.setattr(vie_mod, "_RESTART", 1)
    monkeypatch.setattr(vie_mod, "_CYCLES", 1)
    with pytest.raises(SolverError, match=r"achieved residual \d\.\d{3}e-\d\d"):
        solver.solve(rhs)
    (applications, achieved), = solver.op.iterations
    assert applications == 3 and achieved > 1e-10


def test_solver_rejects_bad_inputs(cube_solver):
    with pytest.raises(ValueError, match="tolerance"):
        solve_system(cube_solver.op, np.ones(cube_solver.op.n3), tol=0.0)
    bad = np.ones(cube_solver.op.n3)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_system(cube_solver.op, bad)


def test_identities_on_randomized_scenes():
    """Reciprocity, Dyson and route equivalence across random scenes.

    The discrete identities are algebraic in the operator, so they must
    hold for any geometry, material and frequency, not just the
    acceptance scenes.
    """
    from greenvox import LorentzPole, PermittivityModel, PlaneWaveMode
    from greenvox.modes import e_coefficient, e_coefficient_via_green

    rng = np.random.default_rng(2024)
    for trial in range(4):
        kind = ["sphere", "box"][trial % 2]
        if kind == "sphere":
            shape = Sphere(center=tuple(rng.uniform(-0.2, 0.2, 3)),
                           radius=rng.uniform(0.35, 0.55), region_id=1)
        else:
            lo = rng.uniform(-0.5, -0.2, 3)
            shape = Box(min_corner=tuple(lo),
                        max_corner=tuple(lo + rng.uniform(0.4, 0.8, 3)), region_id=1)
        grid = build_grid(shape, rng.uniform(0.14, 0.2))
        mats = {1: PermittivityModel(poles=(
            LorentzPole(omega0=rng.uniform(0.0, 2.0), omegap=rng.uniform(0.5, 1.8),
                        gamma=rng.uniform(0.05, 0.5)),), region_id=1)}
        w = rng.uniform(0.6, 1.8)
        solver = MediumSolver(grid, mats, w, tol=1e-10)
        x = rng.uniform(0.9, 1.4, 3)
        y = -rng.uniform(0.9, 1.4, 3)

        Gxy = solver.green(x, y)
        assert np.linalg.norm(Gxy - solver.green(y, x).T) <= 1e-9 * np.linalg.norm(Gxy)
        assert dyson_residual(solver, x, y) <= 1e-8

        kdir = rng.normal(size=3)
        kdir[2] = abs(kdir[2])
        kdir /= np.linalg.norm(kdir)
        mode = PlaneWaveMode(k=tuple(w * kdir), sigma=+1, zeta="c")
        e_a = e_coefficient(solver, mode, x)
        e_b = e_coefficient_via_green(solver, mode, x)
        assert np.linalg.norm(e_a - e_b) <= 1e-8 * max(np.linalg.norm(e_a), 1e-30)


# ----------------------------------------------------------------------
# solver-first API: one medium argument, at the solver's frequency
# ----------------------------------------------------------------------

OTHER_OMEGA = 1.3  # a mode or emitter away from the fixtures' OMEGA
EMITTER_OFF = EmitterSpec(position=(0.95, 0.15, 0.25), omega=OTHER_OMEGA, dipole=(0, 0, 1))
MODE_OFF = PlaneWaveMode(k=(0.0, 0.0, OTHER_OMEGA), sigma=+1, zeta="c")
PROBE = PlaneWaveMode(k=(0.0, 0.6, 0.8), sigma=-1, zeta="c")


def mu_off(solver):
    return MedModeIndex(x=tuple(solver.grid.centers[30]), nu=OTHER_OMEGA, j=3)


@pytest.mark.parametrize("call", [
    pytest.param(lambda s: gamma_decomposed(s, EMITTER_OFF), id="gamma_decomposed"),
    pytest.param(lambda s: purcell(s, None, EMITTER_OFF), id="purcell"),
    pytest.param(lambda s: e_coefficient_via_green(s, MODE_OFF, X_OUT),
                 id="e_coefficient_via_green"),
    pytest.param(lambda s: m_coefficient(s, mu_off(s), X_OUT, route="green"),
                 id="m_coefficient-green"),
    pytest.param(lambda s: m_coefficient(s, mu_off(s), X_OUT, route="direct"),
                 id="m_coefficient-direct"),
    pytest.param(lambda s: v_component_m(s, mu_off(s), s.grid.centers[5], 2.0),
                 id="v_component_m"),
    pytest.param(lambda s: u_numerator_m(s, mu_off(s), PROBE), id="u_numerator_m"),
])
def test_mode_or_emitter_off_the_solver_frequency_is_rejected(cube_solver, call):
    """A solver at omega = 1 with a mode or emitter at 1.3 raises instead of answering
    with the operator of the wrong frequency (gamma_decomposed gave Purcell 0.770)."""
    with pytest.raises(ValueError, match="frequency"):
        call(cube_solver)


def test_sweep_records_a_solver_at_the_wrong_frequency_as_a_row_error(cube_solver):
    rows = purcell_sweep(lambda w: cube_solver, (0.95, 0.15, 0.25), (0, 0, 1),
                         [OMEGA, OTHER_OMEGA])
    assert "purcell" in rows[0]
    assert "frequency" in rows[1]["error"]


def test_grid_forms_are_gone():
    """vie defines and exports only solver-first functions: no grid-form wrapper is left."""
    import inspect

    import greenvox
    import greenvox.vie as vie

    def vie_functions(names, lookup):
        return {name for name in names if inspect.isfunction(lookup(name))
                and lookup(name).__module__ == vie.__name__ and not name.startswith("_")}

    expected = {"assemble", "dyson_residual", "solve_system"}
    # lu_factor: the one block factorization, public so that a budget or a trace can count
    # it by name; plan: an operator's size decisions, read before assembly; neither exported
    assert vie_functions(vars(vie), vars(vie).get) == expected | {"lu_factor", "plan"}
    assert vie_functions(greenvox.__all__, lambda name: getattr(greenvox, name)) == expected


def test_old_call_shapes_raise_type_error(cube_solver):
    """solver, None, ..., omega, tol: the grid form's call shape cannot come back silently."""
    mode = PlaneWaveMode(k=(0.0, 0.0, OMEGA), sigma=+1, zeta="c")
    emitter = EmitterSpec(position=tuple(X_OUT), omega=OMEGA, dipole=(0, 0, 1))
    mu = MedModeIndex(x=tuple(cube_solver.grid.centers[30]), nu=OMEGA, j=3)
    tol = 1e-10
    old_shapes = [
        lambda: im_green_at(cube_solver, None, X_OUT, OMEGA, tol),
        lambda: dyson_residual(cube_solver, None, OMEGA, X_OUT, Y_OUT, tol),
        lambda: ldos_identity_residual(cube_solver, None, X_OUT, X_OUT, OMEGA, None, tol),
        lambda: gamma_decomposed(cube_solver, None, emitter, None, tol),
        lambda: e_coefficient(cube_solver, None, mode, X_OUT, tol),
        lambda: m_coefficient(cube_solver, None, mu, X_OUT, tol),
        lambda: u_numerator_e(cube_solver, None, mode, mode, tol),
        lambda: noise_current_amplitude(cube_solver, None, mu.x_point, OMEGA, tol),
        lambda: cube_solver.green(X_OUT, Y_OUT, cube_solver.grid_fields(Y_OUT)),
    ]
    for call in old_shapes:
        with pytest.raises(TypeError):
            call()
