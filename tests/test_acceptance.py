"""Acceptance criteria, one test per criterion, one printed line each.

Scenes: an absorbing Lorentz cube of 4^3 voxels and a Drude sphere of
257 voxels at ka = 1 (radius 1, omega 1).  Every tolerance is asserted
at the stated value together with the stated runtime budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from greenvox import (EmitterSpec, MediumSolver, dyson_residual, g0_closed,
                      gamma_decomposed, im_g0_spectral, kk_residual,
                      ldos_identity_residual, make_shell_quadrature, phi_plane_wave,
                      purcell, scaled_contrast, sommerfeld_residual,
                      vacuum_decay_rate)
from greenvox import LorentzPole, PermittivityModel, PlaneWaveMode, eval_eps
from greenvox.modes import e_coefficient, e_coefficient_via_green, m_coefficient, MedModeIndex
from greenvox.report import run_validation
from greenvox.scene import scene_from_dict

from conftest import LORENTZ, OMEGA, loglog_slope
from shell_quadrature import kappa_by_quadrature, relative_residuals

TOL = 1e-10
X_OUT = np.array([1.1, 0.25, -0.15])
Y_OUT = np.array([-0.2, 0.95, 0.4])


@contextmanager
def criterion(num, title, budget_s):
    t0 = time.perf_counter()
    failed = None
    try:
        yield
    except AssertionError as exc:
        failed = exc
    elapsed = time.perf_counter() - t0
    status = "FAIL" if failed else "PASS"
    print(f"[ACCEPTANCE {num:>2}] {status} ({elapsed:6.2f} s / budget {budget_s} s) {title}")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"
    if failed:
        raise failed


def test_criterion_1_free_space_spectral_identity():
    with criterion(1, "free-space spectral identity + quadrature halving", 1.0):
        w = 1.0
        x = np.array([0.3, -0.2, 0.5])
        target = w / (6 * np.pi) * np.eye(3)
        errs_coinc, errs_pair = [], []
        y = x + np.array([3.2, 1.1, -2.0])  # separated pair: visible error
        exact_pair = g0_closed(x, y, w).imag
        for nt, nphi in ((4, 8), (8, 16), (16, 32)):
            q = make_shell_quadrature(w, nt, nphi)
            errs_coinc.append(np.linalg.norm(im_g0_spectral(x, x, w, q) - target))
            errs_pair.append(np.linalg.norm(im_g0_spectral(x, y, w, q) - exact_pair))
        # default order meets 1e-3 at coincidence
        assert errs_coinc[1] < 1e-3 * np.linalg.norm(target)
        # error at least halves per doubling (floor guard at roundoff)
        for seq in (errs_coinc, errs_pair):
            for coarse, fine in zip(seq[:-1], seq[1:]):
                assert fine <= max(coarse / 2, 5e-15)


def test_criterion_2_kramers_kronig():
    with criterion(2, "Kramers-Kronig residual, 2-pole model, 5 frequencies", 5.0):
        model = PermittivityModel(poles=(LorentzPole(1.2, 0.9, 0.15),
                                         LorentzPole(3.0, 1.6, 0.4)))
        for lam in (0.35, 0.9, 1.7, 2.6, 4.1):
            rel = kk_residual(model, lam) / abs(eval_eps(model, lam) - 1.0)
            assert rel < 1e-6, f"lam={lam}: {rel}"


def test_criterion_3_dyson_and_reciprocity(cube_grid, cube_materials, cube_solver):
    with criterion(3, "discrete Dyson permutation identity + reciprocity", 10.0):
        res = dyson_residual(MediumSolver(cube_grid, cube_materials, OMEGA, TOL), X_OUT, Y_OUT)
        assert res <= 1e-8
        Gxy = cube_solver.green(X_OUT, Y_OUT)
        Gyx = cube_solver.green(Y_OUT, X_OUT)
        assert np.linalg.norm(Gxy - Gyx.T) <= 1e-8


def test_criterion_4_route_equivalence(cube_solver):
    with criterion(4, "route equivalence for e and m coefficients", 20.0):
        kdir = np.array([0.48, 0.36, 0.8])
        mode = PlaneWaveMode(k=tuple(OMEGA * kdir), sigma=+1, zeta="c")
        pts = np.vstack([X_OUT, cube_solver.grid.centers[17]])
        e_a = e_coefficient(cube_solver, mode, pts)
        e_b = e_coefficient_via_green(cube_solver, mode, pts)
        assert np.linalg.norm(e_a - e_b) <= 1e-8
        mu = MedModeIndex(x=tuple(cube_solver.grid.centers[30]), nu=OMEGA, j=3)
        m_a = m_coefficient(cube_solver, mu, pts, route="green")
        m_b = m_coefficient(cube_solver, mu, pts, route="direct")
        assert np.linalg.norm(m_a - m_b) <= 1e-8


def test_criterion_5_ldos_identity_drude_sphere(sphere_grid, sphere_solver):
    with criterion(5, "LDOS identity on the 257-voxel Drude sphere (ka=1)", 300.0):
        assert sphere_grid.n == 257
        x = np.array([1.25, 0.0, 0.0])
        ident = ldos_identity_residual(sphere_solver, x, x)
        residuals = []
        for nt, nphi in ((2, 4), (4, 8), (8, 16)):
            kappa = kappa_by_quadrature(sphere_solver, x, x,
                                        make_shell_quadrature(OMEGA, nt, nphi))
            residuals.append(relative_residuals(ident, kappa)[0])
        # default quadrature meets the bound; refinement decreases the residual
        assert residuals[2] < 1e-2
        assert residuals[1] < residuals[0]
        assert residuals[2] <= residuals[1] * 1.05  # saturation at the self-term floor
        assert ident.relative_absorption < 1e-2
        assert ident.relative_m < 1e-2
        assert ident.forms_gap <= 1e-8 * ident.scale


def test_criterion_6_compensation(sphere_grid, sphere_solver):
    with criterion(6, "decay-rate compensation, emitters outside and inside", 300.0):
        inside = sphere_grid.centers[sphere_grid.index_of(np.zeros(3))]
        for r in (np.array([1.25, 0.0, 0.0]), inside):
            rates = gamma_decomposed(sphere_solver,
                                     EmitterSpec(position=tuple(r), omega=OMEGA,
                                                 dipole=(0.3, -0.5, 0.8)))
            exact_rel = abs(rates.gamma_total - rates.gamma_via_im_green) \
                / rates.gamma_via_im_green
            mu_rel = abs(rates.gamma_e + rates.gamma_m_mu_route
                         - rates.gamma_via_im_green) / rates.gamma_via_im_green
            assert exact_rel <= 2.0 * rates.contracted_residual + 1e-14
            assert mu_rel <= 2.0 * rates.contracted_residual + 1e-14


def test_criterion_7_vacuum_closure(cube_grid, vacuum_materials, vacuum_solver):
    with criterion(7, "vacuum closure: Purcell 1 exactly, gamma_e -> Gamma_0", 10.0):
        em = EmitterSpec(position=(0.9, 0.1, 0.3), omega=OMEGA, dipole=(0.2, 0.5, -0.8))
        assert abs(purcell(cube_grid, vacuum_materials, em, TOL) - 1.0) <= 1e-10
        rates = gamma_decomposed(vacuum_solver, em)
        g0 = vacuum_decay_rate(OMEGA, em.d)
        assert abs(rates.gamma_e - g0) <= 1e-3 * g0
        assert abs(rates.gamma_m) <= 1e-12 * g0


def test_criterion_8_uncoupling_limit(cube_grid):
    with criterion(8, "uncoupling limit: contrast-scaling slopes", 120.0):
        scales = [0.5, 0.25, 0.125]
        kdir = np.array([0.48, 0.36, 0.8])
        mode = PlaneWaveMode(k=tuple(OMEGA * kdir), sigma=+1, zeta="c")
        g_norm, e_norm, m_sq = [], [], []
        for s in scales:
            mats = {1: scaled_contrast(LORENTZ, s)}
            solver = MediumSolver(cube_grid, mats, OMEGA, TOL)
            G = solver.green(X_OUT, Y_OUT)
            g_norm.append(np.linalg.norm(G - g0_closed(X_OUT, Y_OUT, OMEGA)))
            e_vals = e_coefficient(solver, mode, cube_grid.centers)
            free = OMEGA * phi_plane_wave(mode, cube_grid.centers)
            e_norm.append(np.linalg.norm(e_vals - free))
            mu = MedModeIndex(x=tuple(cube_grid.centers[30]), nu=OMEGA, j=3)
            m_val = m_coefficient(solver, mu, X_OUT)
            # the medium sector enters every observable quadratically; its
            # weight |m|^2 is the contrast-linear quantity (|m| itself
            # scales as sqrt(s))
            m_sq.append(np.linalg.norm(m_val) ** 2)
        assert abs(loglog_slope(scales, g_norm) - 1.0) <= 0.1
        assert abs(loglog_slope(scales, e_norm) - 1.0) <= 0.1
        assert abs(loglog_slope(scales, m_sq) - 1.0) <= 0.1


def test_criterion_9_sommerfeld_for_medium_green(sphere_solver):
    with criterion(9, "Sommerfeld residual decay of the medium Green tensor", 60.0):
        src = np.array([1.1, 0.2, 0.1])
        green_fn = lambda r, s, w: sphere_solver.green(r, src)
        direction = np.array([1.0, 0.3, 0.2])
        direction /= np.linalg.norm(direction)
        near = sommerfeld_residual(10.0 / OMEGA * direction, src, OMEGA,
                                   green_fn=green_fn)
        far = sommerfeld_residual(40.0 / OMEGA * direction, src, OMEGA,
                                  green_fn=green_fn)
        assert far <= near / 3.0


def test_criterion_10_determinism():
    with criterion(10, "byte-identical validate reports", 60.0):
        scene = {
            "schema_version": 1,
            "materials": [{"region_id": 1,
                           "poles": [{"omega0": 1.5, "omegap": 1.0, "gamma": 0.4}]}],
            "geometry": {"voxel_edge": 0.2,
                         "shapes": [{"kind": "box",
                                     "min_corner": [-0.4, -0.4, -0.4],
                                     "max_corner": [0.4, 0.4, 0.4],
                                     "region_id": 1}]},
            "runs": {"validate": {"omega": 1.0}},
        }
        reports = [run_validation(scene_from_dict(json.loads(json.dumps(scene))))
                   for _ in range(2)]
        payloads = [r.to_json() for r in reports]
        assert payloads[0] == payloads[1]
        assert json.loads(payloads[0])["passed"] is True
