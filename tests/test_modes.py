import numpy as np
import pytest

from greenvox import (MedModeIndex, MediumSolver, NearSingularError, PlaneWaveMode,
                      coupling_alpha_tilde, e_coefficient, e_coefficient_via_green, eval_eps,
                      fd_curl_curl, m_coefficient, noise_current_amplitude, phi_plane_wave,
                      scaled_contrast, u_numerator_e, u_numerator_m, v_component_e,
                      v_component_m)
from greenvox.permittivity import principal_value_integral, _model_breakpoints
from conftest import LORENTZ, OMEGA, loglog_slope

KDIR = np.array([0.48, 0.36, 0.8])  # exactly unit norm
MODE = PlaneWaveMode(k=tuple(OMEGA * KDIR), sigma=+1, zeta="c")
X_OUT = np.array([1.2, 0.3, -0.2])
TOL = 1e-10


def med_mode(grid, nu=OMEGA, j=3, which=0):
    return MedModeIndex(x=tuple(grid.centers[which]), nu=nu, j=j)


# ----------------------------------------------------------------------
# e coefficients
# ----------------------------------------------------------------------

def test_e_vacuum_is_free_mode(cube_grid, vacuum_solver):
    pts = np.vstack([X_OUT, cube_grid.centers[5], [0.05, -0.3, 0.6]])
    vals = e_coefficient(vacuum_solver, MODE, pts)
    expected = OMEGA * phi_plane_wave(MODE, pts)
    assert np.allclose(vals, expected, atol=1e-14)
    # transversality is exact in the uncoupled case
    assert np.max(np.abs(vals @ MODE.k_vector)) < 1e-14


def test_e_route_equivalence(cube_solver):
    """Every (sigma, zeta) submode, off the grid and at a voxel center: the Green
    route reads the shell column of the mode's own submode."""
    pts = np.vstack([X_OUT, cube_solver.grid.centers[17]])
    for sigma in (+1, -1):
        for zeta in ("c", "s"):
            mode = PlaneWaveMode(k=MODE.k, sigma=sigma, zeta=zeta)
            direct = e_coefficient(cube_solver, mode, pts)
            via_green = e_coefficient_via_green(cube_solver, mode, pts)
            for p in range(len(pts)):
                assert (np.linalg.norm(direct[p] - via_green[p])
                        <= 10 * TOL * np.linalg.norm(direct[p])), (sigma, zeta, p)


def test_e_exterior_helmholtz_residual(cube_solver):
    from greenvox.modes import e_grid_solution

    eg = e_grid_solution(cube_solver, MODE)
    field = lambda rr: cube_solver.evaluate(
        rr, eg, lambda p: OMEGA * phi_plane_wave(MODE, p))[0]
    h = 1e-3 / OMEGA
    resid = fd_curl_curl(field, X_OUT, h) - OMEGA**2 * field(X_OUT)
    assert np.linalg.norm(resid) < 1e-3 * OMEGA**2 * np.linalg.norm(field(X_OUT))


def test_e_absorbed_power_positive(cube_solver):
    """Im eps > 0 forces Im e inside V and positive absorbed power."""
    eg = e_coefficient(cube_solver, MODE, cube_solver.grid.centers)
    assert np.max(np.abs(eg.imag)) > 0.0
    power = np.sum(cube_solver.beta.imag * np.sum(np.abs(eg) ** 2, axis=1))
    assert power > 0.0


def test_e_rejects_off_shell_solver(cube_solver):
    bad = PlaneWaveMode(k=(0, 0, 2.0 * OMEGA), sigma=+1, zeta="c")
    with pytest.raises(ValueError, match="shell frequency"):
        e_coefficient(cube_solver, bad, X_OUT)


# ----------------------------------------------------------------------
# m coefficients
# ----------------------------------------------------------------------

def test_m_uncoupled_vanishes(cube_grid, vacuum_solver):
    mu = med_mode(cube_grid)
    vals = m_coefficient(vacuum_solver, mu, X_OUT)
    assert np.array_equal(vals, np.zeros((1, 3)))


def test_m_route_equivalence(cube_solver):
    mu = med_mode(cube_solver.grid, which=30)
    pts = np.vstack([X_OUT, cube_solver.grid.centers[3]])
    via_green = m_coefficient(cube_solver, mu, pts, route="green")
    direct = m_coefficient(cube_solver, mu, pts, route="direct")
    assert np.linalg.norm(via_green - direct) <= 10 * TOL * np.linalg.norm(via_green)


def test_m_exterior_differential_residual(cube_solver):
    mu = med_mode(cube_solver.grid, which=30)
    field = lambda rr: m_coefficient(cube_solver, mu, rr).reshape(3, 1)
    h = 1e-3 / OMEGA
    resid = fd_curl_curl(field, X_OUT, h) - OMEGA**2 * field(X_OUT)  # eps = 1 outside
    assert np.linalg.norm(resid) < 1e-3 * OMEGA**2 * np.linalg.norm(field(X_OUT))


def test_m_requires_voxel_center(cube_solver):
    mu = MedModeIndex(x=(10.0, 0.0, 0.0), nu=OMEGA, j=1)
    with pytest.raises(ValueError, match="voxel center"):
        m_coefficient(cube_solver, mu, X_OUT)


def test_m_norm_scales_as_sqrt_contrast(cube_grid):
    """alpha_tilde ~ sqrt(s) under (eps-1) -> s(eps-1), and G -> G0 = O(1),
    so the m magnitude itself scales as sqrt(s)."""
    scales = [0.5, 0.25, 0.125]
    norms = []
    for s in scales:
        mats = {1: scaled_contrast(LORENTZ, s)}
        mu = med_mode(cube_grid)
        solver = MediumSolver(cube_grid, mats, OMEGA, TOL)
        norms.append(np.linalg.norm(m_coefficient(solver, mu, X_OUT)))
    assert abs(loglog_slope(scales, norms) - 0.5) <= 0.05


# ----------------------------------------------------------------------
# eigenfunction components
# ----------------------------------------------------------------------

def test_v_e_vacuum_zero(cube_grid, vacuum_solver):
    xp = cube_grid.centers[0]
    v = v_component_e(vacuum_solver, MODE, xp, 1.7)
    assert np.array_equal(v, np.zeros(3))


def test_v_e_matches_closed_formula(cube_solver):
    xp = cube_solver.grid.centers[12]
    e_here = e_coefficient(cube_solver, MODE, xp)[0]
    for nup in (0.4, 1.9, 3.2):
        v = v_component_e(cube_solver, MODE, xp, nup)
        alpha = coupling_alpha_tilde(LORENTZ, nup)
        assert np.allclose(v, -alpha * e_here / (nup**2 - OMEGA**2), rtol=1e-12)


def test_v_e_sweep_over_nu_solves_once(cube_grid, cube_materials, monkeypatch):
    """v^e at one x' reads e(x') from the memoised Green columns of x': three nu'
    values cost one solve, not one each."""
    import greenvox.vie as vie

    calls = []
    solve = vie.solve_system
    monkeypatch.setattr(vie, "solve_system",
                        lambda op, rhs, tol=1e-10: calls.append(1) or solve(op, rhs, tol))
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, TOL)
    for nup in (0.4, 1.9, 3.2):
        v_component_e(solver, MODE, cube_grid.centers[12], nup)
    assert len(calls) == 1


def test_u_e_probes_against_one_mode_solve_once(cube_grid, cube_materials, monkeypatch):
    """The on-grid e of a mode is memoised on the solver: three probes cost one solve."""
    import greenvox.vie as vie

    calls = []
    solve = vie.solve_system
    monkeypatch.setattr(vie, "solve_system",
                        lambda op, rhs, tol=1e-10: calls.append(1) or solve(op, rhs, tol))
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, TOL)
    values = [u_numerator_e(solver, MODE, PlaneWaveMode(k=k, sigma=-1, zeta="c"))
              for k in ((0.0, 0.6, 0.8), (0.6, 0.0, 0.8), (0.0, 0.0, 1.3))]
    assert len(calls) == 1
    fresh = MediumSolver(cube_grid, cube_materials, OMEGA, TOL)
    assert values[2] == u_numerator_e(fresh, MODE, PlaneWaveMode(k=(0.0, 0.0, 1.3),
                                                                 sigma=-1, zeta="c"))


def test_v_e_high_frequency_decay(cube_solver):
    xp = cube_solver.grid.centers[12]
    e_norm = np.linalg.norm(e_coefficient(cube_solver, MODE, xp)[0])
    for nup in (20.0, 60.0):
        v = v_component_e(cube_solver, MODE, xp, nup)
        alpha = coupling_alpha_tilde(LORENTZ, nup)
        assert np.linalg.norm(v) <= 1.01 * alpha * e_norm / (nup**2 - OMEGA**2)


def test_v_e_near_singular_floor(cube_solver):
    xp = cube_solver.grid.centers[12]
    with pytest.raises(NearSingularError):
        v_component_e(cube_solver, MODE, xp, OMEGA * (1.0 + 1e-9))


def test_v_e_frequency_integral_reproduces_ev(cube_solver):
    """PV + half-residue integral of alpha*v^e over nu' equals -(eps-1) e."""
    xp = cube_solver.grid.centers[12]
    e_here = e_coefficient(cube_solver, MODE, xp)[0]
    nu_max = 1e3 * 3.0
    breaks = _model_breakpoints(LORENTZ, nu_max)

    def integrand(nu):
        a2 = coupling_alpha_tilde(LORENTZ, nu) ** 2
        return -a2 / (nu**2 - OMEGA**2)

    pv = principal_value_integral(integrand, OMEGA, breaks, n_nodes=48,
                                  delta=0.1 * OMEGA)
    alpha_w2 = coupling_alpha_tilde(LORENTZ, OMEGA) ** 2
    total = (pv - 1j * np.pi * alpha_w2 / (2 * OMEGA)) * e_here
    expected = -(eval_eps(LORENTZ, OMEGA) - 1.0) * e_here
    assert np.linalg.norm(total - expected) < 1e-6 * np.linalg.norm(expected)
    # and the pointwise sampler agrees with the integrand at a probe frequency
    probe = 2.31
    v = v_component_e(cube_solver, MODE, xp, probe)
    assert np.allclose(coupling_alpha_tilde(LORENTZ, probe) * v,
                       integrand(probe) * e_here, rtol=1e-12)


def test_u_e_vacuum_zero(vacuum_solver):
    probe = PlaneWaveMode(k=(0.0, 0.6, 0.8), sigma=-1, zeta="s")
    assert u_numerator_e(vacuum_solver, MODE, probe) == 0.0


def test_u_e_born_linearity(cube_grid):
    # cosine probe: even parity, so the overlap does not vanish on the
    # symmetric cube
    probe = PlaneWaveMode(k=(0.0, 0.6 * OMEGA, 0.8 * OMEGA), sigma=-1, zeta="c")
    scales = [0.25, 0.125, 0.0625]
    vals = []
    for s in scales:
        mats = {1: scaled_contrast(LORENTZ, s)}
        vals.append(abs(u_numerator_e(MediumSolver(cube_grid, mats, OMEGA, TOL), MODE, probe)))
    assert abs(loglog_slope(scales, vals) - 1.0) <= 0.05


def test_u_e_reimplementation_oracle(cube_solver):
    probe = PlaneWaveMode(k=(0.0, 0.6 * OMEGA, 0.8 * OMEGA), sigma=-1, zeta="c")
    got = u_numerator_e(cube_solver, MODE, probe)
    # independent route: reconstruct e on the grid by applying the integral
    # equation once to the solved values, then a plain python sum
    from greenvox.modes import e_grid_solution

    grid = cube_solver.grid
    eg = e_grid_solution(cube_solver, MODE)
    acc = 0.0 + 0.0j
    for i in range(grid.n):
        e_i = (OMEGA * phi_plane_wave(MODE, grid.centers[i])
               + cube_solver.scattered_at(grid.centers[i], eg[:, :, None])[:, 0])
        eps_i = cube_solver.eps[i]
        phi_i = phi_plane_wave(probe, grid.centers[i])
        acc += probe.omega * grid.voxel_volume * (phi_i @ (-(eps_i - 1.0) * e_i))
    assert abs(got - acc) <= 1e-8 * abs(got)


def test_v_m_uncoupled_pure_delta(cube_grid, vacuum_materials):
    mu = med_mode(cube_grid, nu=1.3)
    solver = MediumSolver(cube_grid, vacuum_materials, mu.nu, TOL)
    same = v_component_m(solver, mu, mu.x_point, 1.3)
    assert same.delta_present and same.smooth is None
    other = v_component_m(solver, mu, cube_grid.centers[5], 2.0)
    assert not other.delta_present
    assert np.array_equal(np.asarray(other.smooth), np.zeros(3))


def test_m_v_frequency_integral_consistency(cube_solver):
    """nu'-integral of alpha * v^m smooth part equals -(eps-1) m at x'."""
    grid = cube_solver.grid
    mu = med_mode(grid, which=30)
    xp = grid.centers[12]
    m_here = m_coefficient(cube_solver, mu, xp)[0]

    breaks = _model_breakpoints(LORENTZ, 3e3)

    def integrand(nu):
        a2 = coupling_alpha_tilde(LORENTZ, nu) ** 2
        return -a2 / (nu**2 - mu.nu**2)

    pv = principal_value_integral(integrand, mu.nu, breaks, n_nodes=48,
                                  delta=0.1 * mu.nu)
    alpha_nu2 = coupling_alpha_tilde(LORENTZ, mu.nu) ** 2
    total = (pv - 1j * np.pi * alpha_nu2 / (2 * mu.nu)) * m_here
    expected = -(eval_eps(LORENTZ, mu.nu) - 1.0) * m_here
    assert np.linalg.norm(total - expected) < 1e-6 * np.linalg.norm(expected)
    # pointwise sampler agrees with the integrand away from the shell
    probe_nu = 2.31
    vm = v_component_m(cube_solver, mu, xp, probe_nu)
    assert not vm.delta_present
    assert np.allclose(coupling_alpha_tilde(LORENTZ, probe_nu) * np.asarray(vm.smooth),
                       integrand(probe_nu) * m_here, rtol=1e-12)


def test_u_m_uncoupled_zero(cube_grid, vacuum_solver):
    mu = med_mode(cube_grid)
    probe = PlaneWaveMode(k=(0.0, 0.6, 0.8), sigma=+1, zeta="c")
    assert u_numerator_m(vacuum_solver, mu, probe) == 0.0


def test_u_m_linear_in_coupling(cube_grid):
    # sigma=-1 polarization overlaps n_j of the mode, keeping the
    # alpha_tilde-linear point term alive
    probe = PlaneWaveMode(k=(0.0, 0.6, 0.8), sigma=-1, zeta="c")
    couplings = [0.25, 0.125, 0.0625]
    vals = []
    for s in couplings:
        mats = {1: scaled_contrast(LORENTZ, s**2)}  # alpha_tilde -> s alpha_tilde
        mu = med_mode(cube_grid)
        vals.append(abs(u_numerator_m(MediumSolver(cube_grid, mats, OMEGA, TOL), mu, probe)))
    assert abs(loglog_slope(couplings, vals) - 1.0) <= 0.05


# ----------------------------------------------------------------------
# noise current
# ----------------------------------------------------------------------

def test_noise_amplitude_vacuum_zero(cube_grid, vacuum_materials):
    nc = noise_current_amplitude(MediumSolver(cube_grid, vacuum_materials, 1.1, TOL),
                                 cube_grid.centers[0])
    assert nc.amplitude == 0.0


def test_noise_amplitude_scaling(cube_grid, cube_materials):
    x = cube_grid.centers[0]
    for nu in (0.5, 1.0, 2.5):
        nc = noise_current_amplitude(MediumSolver(cube_grid, cube_materials, nu, TOL), x)
        expected = nu**2 * eval_eps(LORENTZ, nu).imag / np.pi
        assert abs(nc.amplitude) ** 2 == pytest.approx(expected, rel=1e-12)


def test_noise_current_route_matches_m_route(cube_solver):
    """-sqrt(1/(2 nu)) m = i nu G_m (amplitude) n_j per (x, nu, j)."""
    grid = cube_solver.grid
    nu = OMEGA
    for which, j in ((0, 1), (30, 3)):
        mu = MedModeIndex(x=tuple(grid.centers[which]), nu=nu, j=j)
        m_vals = m_coefficient(cube_solver, mu, X_OUT)[0]
        lhs = -np.sqrt(1.0 / (2 * nu)) * m_vals
        nc = noise_current_amplitude(cube_solver, mu.x_point)
        G = cube_solver.green(X_OUT, mu.x_point)
        rhs = 1j * nu * (G @ mu.direction) * nc.amplitude
        assert np.allclose(lhs, rhs, rtol=1e-12)
    assert "G_m" in nc.pairing

