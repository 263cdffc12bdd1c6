import numpy as np
import pytest

from greenvox import (Box, DenseCapError, MaskShape, MediumSolver, Sphere, SolverError,
                      VoxelGrid, assemble, build_grid, dyson_residual, eval_eps, g0_closed,
                      green_medium, scaled_contrast, solve_system)
from greenvox.geometry import write_mask
from greenvox.green_free import self_term_scalar

from conftest import LORENTZ, OMEGA, loglog_slope

X_OUT = np.array([1.1, 0.25, -0.15])
Y_OUT = np.array([-0.2, 0.95, 0.4])


def single_voxel_grid(edge=0.2):
    h = edge / 2
    return build_grid(Box(min_corner=(-h, -h, -h), max_corner=(h, h, h)), edge)


def test_vacuum_operator_is_identity(cube_grid, vacuum_materials):
    op = assemble(cube_grid, vacuum_materials, OMEGA)
    rng = np.random.default_rng(0)
    p = rng.normal(size=op.n3) + 1j * rng.normal(size=op.n3)
    assert np.array_equal(op.apply(p), p)
    assert np.array_equal(solve_system(op, p), p)


def test_kernel_blockwise_symmetric(cube_grid, cube_materials):
    op = assemble(cube_grid, cube_materials, OMEGA)
    K = op.kernel
    assert np.max(np.abs(K - K.T)) < 1e-15 * np.max(np.abs(K))


def test_single_voxel_closed_forms(cube_materials):
    grid = single_voxel_grid()
    beta = complex(OMEGA**2 * (eval_eps(LORENTZ, OMEGA) - 1.0))
    M = self_term_scalar(grid.voxel_volume, OMEGA)
    op = assemble(grid, cube_materials, OMEGA)
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=3) + 1j * rng.normal(size=3)
    x = solve_system(op, rhs)
    assert np.allclose(x, rhs / (1.0 - beta * M), rtol=1e-12)

    # G(x,y) = G0(x,y) + dV G0(x,z1) beta (1 - beta M)^-1 G0(z1,y)
    z1 = grid.centers[0]
    G = green_medium(grid, cube_materials, OMEGA, X_OUT, Y_OUT)
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


def test_fft_product_matches_dense_kernel(tmp_path):
    """The lattice convolution reproduces K q on every kind of lattice grid."""
    ids = np.ones((5, 4, 6), dtype=int)
    ids[2, 1:3, 2:4] = 0  # interior hole
    ids[:, :, 0] = 0  # the body starts one voxel past the mask origin
    ids[4, 3, 5] = 0
    write_mask(tmp_path / "holes.mask", ids.shape, 0.15, (0.3, -0.7, 1.1), ids)
    grids = {
        "sphere": build_grid(Sphere(center=(0, 0, 0), radius=0.5, region_id=1), 0.152),
        "two boxes": build_grid([Box(min_corner=(-0.4, -0.3, -0.2), max_corner=(0.4, 0.3, 0.2)),
                                 Box(min_corner=(0.2, 0.2, 0.0), max_corner=(0.6, 0.9, 0.5))],
                                0.1),
        "mask": build_grid(MaskShape(str(tmp_path / "holes.mask"))),
    }
    rng = np.random.default_rng(5)
    for name, grid in grids.items():
        dense = assemble(grid, {1: LORENTZ}, OMEGA)
        fft = assemble(grid, {1: LORENTZ}, OMEGA, dense=False)
        assert fft.kernel is None
        if name == "two boxes":
            assert len(set(fft.lattice[1].shape[2:])) == 3  # n_x, n_y, n_z all differ
        p = rng.normal(size=(dense.n3, 2)) + 1j * rng.normal(size=(dense.n3, 2))
        q = dense.beta_rep[:, None] * p
        expected = dense.kernel @ q
        got = fft.kernel_product(q)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected), name
        for v in (p, p[:, 0]):
            assert fft.apply(v).shape == v.shape
            assert np.linalg.norm(fft.apply(v) - dense.apply(v)) <= 1e-13 * np.linalg.norm(v)


def test_off_lattice_grid_rejected_by_matrix_free_path(cube_materials):
    grid = VoxelGrid([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.33, 0.1, 0.0]], 0.2, [1, 1, 1])
    assert assemble(grid, cube_materials, OMEGA).kernel is not None
    with pytest.raises(SolverError, match="lattice"):
        assemble(grid, cube_materials, OMEGA, dense=False)
    with pytest.raises(SolverError, match="lattice"):
        MediumSolver(grid, cube_materials, OMEGA, method="gmres")


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
    assert dyson_residual(solver, None, OMEGA, x, y, tol) <= tol * gnorm


def test_green_vacuum_reduces_to_free(cube_grid, vacuum_materials):
    G = green_medium(cube_grid, vacuum_materials, OMEGA, X_OUT, Y_OUT)
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


def test_dyson_identity_vacuum(cube_grid, vacuum_materials):
    assert dyson_residual(cube_grid, vacuum_materials, OMEGA, X_OUT, Y_OUT) == 0.0


def test_dyson_identity_absorbing_cube(cube_grid, cube_materials):
    res = dyson_residual(cube_grid, cube_materials, OMEGA, X_OUT, Y_OUT, tol=1e-10)
    assert res <= 1e-8


def test_dyson_identity_survives_self_term_surgery(cube_grid, cube_materials):
    """The permutation identity is algebraic in the discrete operator: zeroing
    the self-term diagonal changes the answer but not the identity."""
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10)
    K = solver.op.kernel.copy()
    for i in range(cube_grid.n):
        K[3 * i:3 * i + 3, 3 * i:3 * i + 3] = 0.0
    solver.op.kernel = K
    solver.op._lu = None

    import greenvox.green_free as gf
    M_backup = gf.self_term_scalar
    try:
        gf.self_term_scalar = lambda vol, w: 0.0 + 0.0j  # test double
        Xy = solver.grid_fields(Y_OUT)
        Xx = solver.grid_fields(X_OUT)
        G = solver.green(X_OUT, Y_OUT, Xy)
        diff = G - g0_closed(X_OUT, Y_OUT, OMEGA)
        i1 = solver.scattered_at(X_OUT, Xy)
        from greenvox.green_free import g0_from_displacements
        g0_zy = g0_from_displacements(cube_grid.centers - Y_OUT, OMEGA)
        i2 = cube_grid.voxel_volume * np.einsum("j,jba,jbc->ac", solver.beta, Xx, g0_zy)
        assert np.linalg.norm(diff - i1) <= 1e-8
        assert np.linalg.norm(diff - i2) <= 1e-8
    finally:
        gf.self_term_scalar = M_backup


def test_uncoupling_limit_slope(cube_grid):
    scales = [0.5, 0.25, 0.125]
    norms = []
    for s in scales:
        mats = {1: scaled_contrast(LORENTZ, s)}
        G = green_medium(cube_grid, mats, OMEGA, X_OUT, Y_OUT)
        norms.append(np.linalg.norm(G - g0_closed(X_OUT, Y_OUT, OMEGA)))
    slope = loglog_slope(scales, norms)
    assert abs(slope - 1.0) <= 0.1


def test_dense_cap_guard(cube_grid, cube_materials):
    with pytest.raises(DenseCapError):
        assemble(cube_grid, cube_materials, OMEGA, dense_cap=10)


def test_gmres_nonconvergence_reports_residual(cube_grid, cube_materials):
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, tol=1e-10, method="gmres")
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=solver.op.n3)
    import greenvox.vie as vie_mod
    import scipy.sparse.linalg as spla
    orig = vie_mod.gmres
    try:
        vie_mod.gmres = lambda *a, **k: spla.gmres(*a, **{**k, "maxiter": 1, "restart": 1})
        with pytest.raises(SolverError, match="residual"):
            solver.solve(rhs)
    finally:
        vie_mod.gmres = orig


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
        assert dyson_residual(grid, mats, w, x, y, 1e-10) <= 1e-8

        kdir = rng.normal(size=3)
        kdir[2] = abs(kdir[2])
        kdir /= np.linalg.norm(kdir)
        mode = PlaneWaveMode(k=tuple(w * kdir), sigma=+1, zeta="c")
        e_a = e_coefficient(solver, None, mode, x, 1e-10)
        e_b = e_coefficient_via_green(solver, None, mode, x, 1e-10)
        assert np.linalg.norm(e_a - e_b) <= 1e-8 * max(np.linalg.norm(e_a), 1e-30)
