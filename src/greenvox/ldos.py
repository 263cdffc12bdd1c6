"""Shell integrals, the Green-tensor LDOS identity, decay rates, Purcell factor.

The imaginary part of the medium Green tensor at coincident points sets
the local density of states.  It satisfies the identity (natural units)

    Im G(x, y) = (pi/(2 w)) sum_shell w_q sum_{sigma,zeta} e(x) (x) e*(y)
               + w^2 int_V d^3z Im[eps](z) G(x, z) G*(z, y)

where the first term is the electromagnetic-continuum shell integral
(radial delta collapsed, Jacobian w^2) and the second the absorption
integral; replacing the absorption term by the medium-continuum sum of
m-coefficient dyadics gives an algebraically identical second form.

A two-level emitter with dipole d and transition frequency w decays at

    Gamma_e = pi w sum_shell w_q sum_{sigma,zeta} |d . e(r_a)|^2
    Gamma_m = 2 w^2 d . Im G(r_a, r_a) . d - Gamma_e          (identity route)
            = (pi / w) sum_V dV sum_j |d . m_{z,w,j}(r_a)|^2  (mu route)

and the e-continuum part of Gamma_m cancels Gamma_e exactly, leaving
Gamma = 2 w^2 d . Im G . d; the Purcell factor is Gamma / Gamma_0 with
Gamma_0 = w^3 |d|^2 / (3 pi), so vacuum gives exactly 1.

The shell e coefficients need no solve: by reciprocity G(x, z_j) = X_j^T
for the Green columns X already solved at x, and the Green route of e
contracts them with every shell plane wave at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import VoxelGrid
from .green_free import plane_wave_table
from .quadrature import SphereQuadrature, make_shell_quadrature  # noqa: F401 (re-export)
from .vie import MediumSolver, SolverError, as_solver


@dataclass(frozen=True)
class EmitterSpec:
    """Two-level emitter: position, transition frequency, real dipole vector."""

    position: tuple[float, float, float]
    omega: float
    dipole: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "dipole", tuple(float(v) for v in self.dipole))
        if not self.omega > 0.0:
            raise ValueError("transition frequency must be positive")
        if not np.linalg.norm(self.dipole) > 0.0:
            raise ValueError("dipole vector must be nonzero")

    @property
    def r(self):
        return np.asarray(self.position, dtype=float)

    @property
    def d(self):
        return np.asarray(self.dipole, dtype=float)


def vacuum_decay_rate(omega: float, dipole) -> float:
    """Gamma_0 = omega^3 |d|^2 / (3 pi) in natural units."""
    d = np.asarray(dipole, dtype=float)
    return omega**3 * float(d @ d) / (3.0 * np.pi)


def im_green_at(grid, materials, x, omega: float, tol: float = 1e-10, green_columns=None):
    """Im G(x, x, omega): analytic free coincidence limit plus scattered part.

    Im G(x, x) = (omega / 6 pi) I + Im sum_j dV G0(x, z_j) beta_j X_j(x)
    with X the solved columns for source x (green_columns when the
    caller already holds them); real symmetric, PSD up to solver
    tolerance.  At a voxel center the self block of the evaluation row
    uses the equivalent-sphere value M/dV.
    """
    solver = as_solver(grid, materials, omega, tol)
    x = np.asarray(x, dtype=float)
    X = solver.grid_fields(x) if green_columns is None else green_columns
    scattered = solver.scattered_at(x, X)
    out = (solver.omega / (6.0 * np.pi)) * np.eye(3) + scattered.imag
    return 0.5 * (out + out.T)


# ----------------------------------------------------------------------
# e-fields over a shell quadrature, by reciprocity
# ----------------------------------------------------------------------

def _e_fields_on_shell(solver: MediumSolver, quad: SphereQuadrature, points, green_columns):
    """e for every (node, sigma, zeta) submode at each point, without a solve.

    green_columns[p] holds X_j = G(z_j, points[p]), (N, 3, 3); with
    G(x, z_j) = X_j^T the Green route e(x) = w Phi(x) + dV sum_j beta_j
    X_j^T w Phi(z_j) is one contraction, on or off the grid.  Returns
    (e_pts (P, 3, 4Q) complex, mode_weights (4Q,)), submodes ordered
    (+,c), (+,s), (-,c), (-,s) per node, matching plane_wave_table.
    """
    grid = solver.grid
    w = solver.omega
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    X = np.asarray(green_columns).reshape(len(pts), grid.n, 3, 3)
    phi_grid = w * plane_wave_table(quad.nodes, w, grid.centers).reshape(-1, grid.n, 3)
    phi_pts = w * plane_wave_table(quad.nodes, w, pts).reshape(-1, len(pts), 3)
    scattered = grid.voxel_volume * np.einsum(
        "j,pjba,mjb->pam", solver.beta, X, phi_grid, optimize=True)
    return phi_pts.transpose(1, 2, 0) + scattered, np.repeat(quad.weights, 4)


# ----------------------------------------------------------------------
# LDOS identity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LdosIdentityResult:
    """Both forms of the LDOS identity at one point pair."""

    im_green: np.ndarray          # LHS
    kappa_term: np.ndarray        # shell sum of e dyadics
    absorption_term: np.ndarray   # volume integral of Im eps G G*
    m_term: np.ndarray            # medium-continuum sum of m dyadics
    residual_absorption: float    # ||LHS - kappa - absorption||_F
    residual_m: float             # ||LHS - kappa - m||_F
    forms_gap: float              # ||absorption - m||_F

    @property
    def scale(self) -> float:
        return float(np.linalg.norm(self.im_green))

    @property
    def relative_absorption(self) -> float:
        return self.residual_absorption / self.scale

    @property
    def relative_m(self) -> float:
        return self.residual_m / self.scale

    def contracted(self, dipole) -> float:
        """|d . (LHS - kappa - absorption) . d| / |d|^2."""
        d = np.asarray(dipole, dtype=float)
        defect = self.im_green - self.kappa_term - self.absorption_term
        return float(abs(d @ defect @ d)) / float(d @ d)


def ldos_identity_residual(grid, materials, x, y, omega: float,
                           quad: SphereQuadrature | None = None,
                           tol: float = 1e-10) -> LdosIdentityResult:
    """Residuals of the Green-tensor LDOS identity at the pair (x, y).

    The kappa term is quadrature-limited; the absorption and m forms are
    algebraically identical (they agree to solver tolerance) because the
    on-shell medium sum collapses to the absorption integral through
    alpha_tilde^2 = 2 w Im eps / pi.
    """
    solver = as_solver(grid, materials, omega, tol)
    quad = quad or make_shell_quadrature(solver.omega)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = solver.omega
    grid_ = solver.grid
    coincident = np.array_equal(x, y)

    Xx = solver.grid_fields(x)
    Xy = Xx if coincident else solver.grid_fields(y)

    if coincident:
        lhs = im_green_at(solver, None, x, w, tol, Xx)
    else:
        lhs = solver.green(x, y, Xy).imag

    points, columns = ([x], [Xx]) if coincident else ([x, y], [Xx, Xy])
    e_xy, mode_w = _e_fields_on_shell(solver, quad, points, columns)
    # (pi c^2 / 2 w^3) with the shell Jacobian w^2/c^3 gives pi/(2 w) at c = 1
    kappa = (0.5 * np.pi / w) * np.einsum("m,am,bm->ab", mode_w, e_xy[0], e_xy[-1].conj())

    # absorption form: w^2 sum dV Im(eps) G(x,z) G*(z,y); G(x,z_i) = Xx_i^T
    dV = grid_.voxel_volume
    absorb = w**2 * dV * np.einsum(
        "j,jba,jbc->ac", solver.eps.imag, Xx, Xy.conj())

    # medium-continuum form from the m dyadics, alpha^2 = 2 w Im eps / pi
    alpha2 = np.clip(2.0 * w / np.pi * solver.eps.imag, 0.0, None)
    m_term = (0.5 * np.pi / w**3) * w**4 * dV * np.einsum(
        "j,jba,jbc->ac", alpha2, Xx, Xy.conj())

    res_a = float(np.linalg.norm(lhs - kappa - absorb))
    res_m = float(np.linalg.norm(lhs - kappa - m_term))
    return LdosIdentityResult(
        im_green=lhs, kappa_term=kappa, absorption_term=absorb, m_term=m_term,
        residual_absorption=res_a, residual_m=res_m,
        forms_gap=float(np.linalg.norm(absorb - m_term)))


# ----------------------------------------------------------------------
# decay rates and Purcell factor
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayRates:
    """Decomposed spontaneous decay rates of one emitter (natural units)."""

    gamma_e: float            # electromagnetic-continuum shell integral
    gamma_m: float            # identity route: 2 w^2 d.ImG.d - gamma_e
    gamma_m_mu_route: float   # independent medium-continuum voxel sum
    gamma_total: float        # gamma_e + gamma_m
    gamma_via_im_green: float # 2 w^2 d.ImG.d
    purcell: float
    contracted_residual: float      # |d.(identity defect).d| / (d.ImG.d)
    identity_relative_residual: float  # Frobenius residual / ||Im G||


def gamma_decomposed(grid, materials, emitter: EmitterSpec,
                     quad: SphereQuadrature | None = None,
                     tol: float = 1e-10) -> DecayRates:
    """Decay-rate decomposition Gamma_e + Gamma_m with its compensation data.

    gamma_m follows the identity route (Im G minus the e-continuum term),
    which makes gamma_total equal gamma_via_im_green by construction; the
    mu route recomputes Gamma_m as the on-shell voxel sum of m dyadics,
    so |gamma_e + gamma_m_mu_route - gamma_via_im_green| is bounded by
    the contracted LDOS identity residual.
    """
    solver = as_solver(grid, materials, emitter.omega, tol)
    quad = quad or make_shell_quadrature(solver.omega)
    w = solver.omega
    d = emitter.d
    r = emitter.r

    ident = ldos_identity_residual(solver, None, r, r, w, quad, tol)
    d_im_d = float(d @ ident.im_green @ d)
    gamma_via = 2.0 * w**2 * d_im_d
    gamma_e = 2.0 * w**2 * float(np.real(d @ ident.kappa_term @ d))
    gamma_m = gamma_via - gamma_e
    gamma_m_mu = 2.0 * w**2 * float(np.real(d @ ident.m_term @ d))
    g0 = vacuum_decay_rate(w, d)
    contracted = (ident.contracted(d) * float(d @ d) / d_im_d
                  if d_im_d != 0.0 else float("nan"))
    return DecayRates(
        gamma_e=gamma_e,
        gamma_m=gamma_m,
        gamma_m_mu_route=gamma_m_mu,
        gamma_total=gamma_e + gamma_m,
        gamma_via_im_green=gamma_via,
        purcell=gamma_via / g0,
        contracted_residual=contracted,
        identity_relative_residual=ident.relative_absorption,
    )


def purcell(grid, materials, emitter: EmitterSpec, tol: float = 1e-10) -> float:
    """Purcell factor Gamma / Gamma_0 from the coincidence Im G; 1 in vacuum."""
    img = im_green_at(grid, materials, emitter.r, emitter.omega, tol)
    d = emitter.d
    gamma = 2.0 * emitter.omega**2 * float(d @ img @ d)
    return gamma / vacuum_decay_rate(emitter.omega, d)


def purcell_sweep(grid: VoxelGrid, materials, emitter_position, dipole, omegas,
                  tol: float = 1e-10, n_theta: int = 8, n_phi: int = 16):
    """Purcell/decay table over frequencies; per-row failures are recorded.

    Returns one dict per frequency with keys omega, purcell, gamma_e,
    gamma_m, identity_residual (relative), or an error message for rows
    whose solve failed.  Rows are independent.
    """
    omegas = list(omegas)
    if any(b < a for a, b in zip(omegas[:-1], omegas[1:])):
        raise ValueError("frequencies must be sorted ascending")
    rows = []
    for w in omegas:
        try:
            emitter = EmitterSpec(position=tuple(emitter_position), omega=float(w),
                                  dipole=tuple(dipole))
            quad = make_shell_quadrature(float(w), n_theta, n_phi)
            solver = MediumSolver(grid, materials, float(w), tol)
            rates = gamma_decomposed(solver, None, emitter, quad, tol)
            rows.append({
                "omega": float(w),
                "purcell": rates.purcell,
                "gamma_e": rates.gamma_e,
                "gamma_m": rates.gamma_m,
                "identity_residual": rates.identity_relative_residual,
            })
        except (SolverError, ValueError) as exc:
            rows.append({"omega": float(w), "error": str(exc)})
    return rows
