import numpy as np
import pytest

import functools

from greenvox import (EmitterSpec, MediumSolver, PermittivityModel, Sphere, build_grid,
                      gamma_decomposed, im_green_at, ldos_identity_residual,
                      make_shell_quadrature, purcell, purcell_sweep,
                      scaled_contrast, vacuum_decay_rate)
from conftest import LORENTZ, OMEGA, loglog_slope
from shell_quadrature import kappa_by_quadrature, relative_residuals

TOL = 1e-10
R_OUT = np.array([0.95, 0.15, 0.25])
DIPOLE = np.array([0.3, -0.5, 0.8])


def emitter_at(r, omega=OMEGA, d=DIPOLE):
    return EmitterSpec(position=tuple(r), omega=omega, dipole=tuple(d))


def test_emitter_invariants():
    with pytest.raises(ValueError):
        EmitterSpec(position=(0, 0, 0), omega=0.0, dipole=(1, 0, 0))
    with pytest.raises(ValueError):
        EmitterSpec(position=(0, 0, 0), omega=1.0, dipole=(0, 0, 0))


def test_im_green_vacuum_coincidence(vacuum_solver):
    img = im_green_at(vacuum_solver, R_OUT)
    assert np.array_equal(img, OMEGA / (6 * np.pi) * np.eye(3))


def test_im_green_symmetric_and_psd(cube_solver):
    for x in (R_OUT, cube_solver.grid.centers[21]):
        img = im_green_at(cube_solver, x)
        assert np.linalg.norm(img - img.T) <= 1e-12 * np.linalg.norm(img)
        assert np.linalg.eigvalsh(img).min() >= -1e-10 * np.linalg.norm(img)


def test_im_green_psd_random_scenes():
    rng = np.random.default_rng(9)
    for trial in range(3):
        grid = build_grid(Sphere(center=tuple(rng.uniform(-0.1, 0.1, 3)),
                                 radius=0.45, region_id=1), 0.18)
        mats = {1: scaled_contrast(LORENTZ, rng.uniform(0.3, 1.5))}
        x = rng.uniform(-0.3, 0.3, 3)
        w = rng.uniform(0.6, 1.6)
        img = im_green_at(MediumSolver(grid, mats, w, TOL), x)
        assert np.linalg.eigvalsh(img).min() >= -1e-10 * np.linalg.norm(img)


def test_ldos_identity_vacuum_is_quadrature_floor(vacuum_solver):
    ident = ldos_identity_residual(vacuum_solver, R_OUT, R_OUT)
    kappa = kappa_by_quadrature(vacuum_solver, R_OUT, R_OUT, make_shell_quadrature(8, 16))
    assert np.array_equal(ident.absorption_term, np.zeros((3, 3)))
    # kappa term reduces to the free spectral sum; coincidence is exact for
    # the polynomial integrand, so only roundoff remains
    assert relative_residuals(ident, kappa)[0] < 1e-12


def test_ldos_identity_cube(cube_solver):
    ident = ldos_identity_residual(cube_solver, R_OUT, R_OUT)
    assert ident.relative_absorption < 1e-2
    assert ident.relative_m < 1e-2
    assert ident.forms_gap <= 1e-8 * ident.scale


def test_ldos_identity_separated_pair(cube_solver):
    y = np.array([-0.3, 1.05, 0.2])
    ident = ldos_identity_residual(cube_solver, R_OUT, y)
    assert ident.relative_absorption < 1e-2
    assert ident.forms_gap <= 1e-8 * ident.scale


@pytest.mark.parametrize("body", ["cube", "sphere"])
@pytest.mark.parametrize("method", ["dense", "gmres"])
def test_closed_form_kappa_matches_the_shell_quadrature(body, method, cube_grid, cube_materials,
                                                        sphere_grid, drude_materials):
    """kappa as the exact shell integral equals the 16x32 quadrature of the shell
    e-fields to 1e-12, and the kernel's own kappa closes the identity to the solve."""
    grid, mats = (cube_grid, cube_materials) if body == "cube" else (sphere_grid, drude_materials)
    reach = 1.25 if body == "sphere" else 0.95
    outside = np.array([reach, 0.07, 0.11])
    center = grid.centers[grid.n // 3]
    off = center + grid.voxel_edge * np.array([0.3, -0.2, 0.15])  # inside the voxel
    cases = [("outside", outside, outside), ("center", center, center), ("off-center", off, off),
             ("pair", np.array([reach, 0.1, 0.2]), np.array([-0.3, reach + 0.1, 0.1]))]
    solver = MediumSolver(grid, mats, OMEGA, TOL, method=method)
    solver.grid_fields(np.stack([p for _, x, y in cases for p in (x, y)]))  # one block solve
    quad = make_shell_quadrature(16, 32)
    for name, x, y in cases:
        closed = ldos_identity_residual(solver, x, y)
        reference = kappa_by_quadrature(solver, x, y, quad)
        gap = np.linalg.norm(closed.kappa_term - reference)
        assert gap <= 1e-12 * np.linalg.norm(reference), name
        assert closed.relative_discrete <= (1e-12 if method == "dense" else 10 * TOL), name


def test_closed_form_kappa_in_vacuum_is_im_g0(vacuum_solver):
    x, y = R_OUT, np.array([-0.3, 1.05, 0.2])
    coincident = ldos_identity_residual(vacuum_solver, x, x)
    assert np.array_equal(coincident.kappa_term, coincident.im_green)
    assert coincident.residual_absorption == 0.0 and coincident.residual_discrete == 0.0
    pair = ldos_identity_residual(vacuum_solver, x, y)
    assert np.linalg.norm(pair.kappa_term - pair.im_green) <= 1e-15 * pair.scale


def test_ldos_identity_refinement_decreases(cube_solver):
    ident = ldos_identity_residual(cube_solver, R_OUT, R_OUT)
    res_abs, res_m = [], []
    for nt, nphi in ((2, 4), (4, 8), (8, 16)):
        quad = make_shell_quadrature(nt, nphi)
        absorption, m = relative_residuals(ident, kappa_by_quadrature(cube_solver, R_OUT,
                                                                      R_OUT, quad))
        res_abs.append(absorption)
        res_m.append(m)
    floor = 1e-6  # self-term diagonal saturation
    for res in (res_abs, res_m):
        # observable convergence order >= 2 before the floor is reached
        assert res[1] < res[0] / 4 or res[1] < floor
        assert res[2] < res[1] / 4 or res[2] < floor or res[1] < floor


def test_gamma_vacuum_closure(vacuum_solver):
    em = emitter_at(R_OUT)
    rates = gamma_decomposed(vacuum_solver, em)
    g0 = vacuum_decay_rate(OMEGA, DIPOLE)
    assert rates.gamma_via_im_green == pytest.approx(g0, rel=1e-14)
    assert rates.gamma_e == pytest.approx(g0, rel=1e-3)
    assert abs(rates.gamma_m) <= 1e-12 * g0
    assert rates.purcell == pytest.approx(1.0, abs=1e-10)


def test_gamma_compensation_bounds(cube_solver):
    for r in (R_OUT, cube_solver.grid.centers[21]):
        rates = gamma_decomposed(cube_solver, emitter_at(r))
        exact_gap = abs(rates.gamma_total - rates.gamma_via_im_green)
        assert exact_gap <= 1e-12 * rates.gamma_via_im_green
        mu_gap = (abs(rates.gamma_e + rates.gamma_m_mu_route - rates.gamma_via_im_green)
                  / rates.gamma_via_im_green)
        assert mu_gap <= 2.0 * rates.contracted_residual + 1e-14


def test_gamma_rotation_covariance(cube_grid, cube_materials):
    """90-degree z rotation maps the cube scene onto itself; rotating the
    emitter and dipole along leaves every rate invariant."""
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    solver = MediumSolver(cube_grid, cube_materials, OMEGA, TOL)
    base = gamma_decomposed(solver, emitter_at(R_OUT))
    rot = gamma_decomposed(solver, emitter_at(Rz @ R_OUT, d=Rz @ DIPOLE))
    for name in ("gamma_e", "gamma_m", "gamma_total", "gamma_via_im_green", "purcell"):
        a, b = getattr(base, name), getattr(rot, name)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_purcell_vacuum_exact(cube_grid, vacuum_materials):
    assert purcell(cube_grid, vacuum_materials, emitter_at(R_OUT), TOL) \
        == pytest.approx(1.0, abs=1e-10)


def test_purcell_weak_coupling_linear(cube_grid):
    scales = [0.25, 0.125, 0.0625]
    vals = []
    for s in scales:
        mats = {1: scaled_contrast(LORENTZ, s)}
        vals.append(abs(purcell(cube_grid, mats, emitter_at(R_OUT), TOL) - 1.0))
    assert abs(loglog_slope(scales, vals) - 1.0) <= 0.1


def test_purcell_far_emitter(cube_solver):
    far = emitter_at(np.array([25.0, 3.0, -2.0]))
    assert purcell(cube_solver, None, far, TOL) == pytest.approx(1.0, abs=1e-2)


def test_purcell_sweep_vacuum_and_cardinality(cube_grid, vacuum_materials):
    omegas = [0.6, 0.8, 1.0, 1.2]
    rows = purcell_sweep(lambda w: MediumSolver(cube_grid, vacuum_materials, w, TOL),
                         tuple(R_OUT), tuple(DIPOLE), omegas)
    assert len(rows) == len(omegas)
    for row in rows:
        assert row["purcell"] == pytest.approx(1.0, abs=1e-10)
        assert row["gamma_m"] == pytest.approx(0.0, abs=1e-12)


def test_purcell_sweep_records_row_failures(cube_grid, cube_materials):
    rows = purcell_sweep(lambda w: MediumSolver(cube_grid, cube_materials, w, TOL),
                         tuple(R_OUT), tuple(DIPOLE), [-0.5, 1.0])
    assert "error" in rows[0] and "positive" in rows[0]["error"]
    assert "purcell" in rows[1]


def test_purcell_sweep_takes_frequencies_in_any_order(cube_grid, cube_materials):
    """Each row builds its own solver, so a reversed list gives the same rows reversed,
    bit for bit."""
    def sweep(omegas):
        return purcell_sweep(lambda w: MediumSolver(cube_grid, cube_materials, w, TOL),
                             tuple(R_OUT), tuple(DIPOLE), omegas)

    rows = sweep([0.7, 1.0, 1.3])
    assert all("purcell" in row for row in rows)
    assert sweep([1.3, 1.0, 0.7]) == rows[::-1]


def test_drude_sphere_resonance_position_stable():
    """Sweep peak sits at the discrete dipole resonance of the voxelized
    Drude sphere (red-shifted from the continuum Re eps = -2 frequency
    0.866 by the coarse voxelization) and is internally consistent: within
    one omega-grid spacing under voxel refinement."""
    from greenvox import LorentzPole

    mats = {1: PermittivityModel(poles=(LorentzPole(0.0, 1.5, 0.02),))}
    emitter, dipole = (1.8, 0.0, 0.0), (1.0, 0.0, 0.0)
    omegas = [round(0.67 + 0.05 * i, 3) for i in range(7)]
    spacing = 0.05
    w_quasistatic = np.sqrt(1.5**2 / 3 - 0.02**2)

    grid_at = functools.cache(
        lambda h: build_grid(Sphere(center=(0, 0, 0), radius=1.0, region_id=1), h))

    def peak(h):
        rows = purcell_sweep(lambda w: MediumSolver(grid_at(h), mats, w, TOL),
                             emitter, dipole, omegas)
        ps = [r["purcell"] for r in rows]
        assert max(ps) > 1.0
        return omegas[int(np.argmax(ps))]

    coarse = peak(0.2497)
    fine = peak(0.19)                              # voxel refinement
    assert abs(fine - coarse) <= spacing + 1e-12
    assert abs(coarse - w_quasistatic) <= 4 * spacing
