"""Shell integrals, the Green-tensor LDOS identity, decay rates, Purcell factor.

The imaginary part of the medium Green tensor at coincident points sets
the local density of states.  It satisfies the identity (natural units)

    Im G(x, y) = (pi/(2 w)) sum_shell w_q sum_{sigma,zeta} e(x) (x) e*(y)
               + w^2 int_V d^3z Im[eps](z) G(x, z) G*(z, y)

where the first term kappa is the electromagnetic-continuum shell
integral (radial delta collapsed, Jacobian w^2) and the second the
absorption integral; replacing the absorption term by the
medium-continuum sum of m-coefficient dyadics gives an algebraically
identical second form.

A two-level emitter with dipole d and transition frequency w decays at

    Gamma_e = pi w sum_shell w_q sum_{sigma,zeta} |d . e(r_a)|^2
    Gamma_m = 2 w^2 d . Im G(r_a, r_a) . d - Gamma_e          (identity route)
            = (pi / w) sum_V dV sum_j |d . m_{z,w,j}(r_a)|^2  (mu route)

and the e-continuum part of Gamma_m cancels Gamma_e exactly, leaving
Gamma = 2 w^2 d . Im G . d; the Purcell factor is Gamma / Gamma_0 with
Gamma_0 = w^3 |d|^2 / (3 pi), so vacuum gives exactly 1.

kappa and Gamma_e are the exact shell integral, with no quadrature: the
Green route writes e(x) = w sum_a c_a Phi(p_a) over the points
{x, z_1 .. z_N}, and the shell integral of Phi(a) Phi(b)^T is
(2/(pi w)) Im G0(a, b), so kappa = sum_{a,b} c_a Im G0(p_a, p_b) c_b^H
(_shell_integral), one kernel product for the voxel pairs.  The same sum
with the kernel's own values in place of Im G0 closes the identity to
solver tolerance (the discrete optical theorem), which validate checks
as ldos_identity_discrete.

Every function takes the MediumSolver of its frequency first (purcell
also a grid); an emitter at another frequency raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .green_free import im_g0_from_displacements, plane_wave_table, self_term_scalar
from .vie import MediumSolver, SolverError


@dataclass(frozen=True)
class EmitterSpec:
    """Two-level emitter: position, transition frequency, real dipole vector.

    Rates are computed on the unit dipole d / |d| and scaled by |d|^2 after, so a
    dipole whose square underflows (a molecular one in C m is about 1e-30) keeps its
    Purcell factor and the relative checks of validate.
    """

    position: tuple[float, float, float]
    omega: float
    dipole: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "dipole", tuple(float(v) for v in self.dipole))
        if not self.omega > 0.0:
            raise ValueError("transition frequency must be positive")
        if not self.size > 0.0:
            raise ValueError("dipole vector must be nonzero")

    @property
    def r(self):
        return np.asarray(self.position, dtype=float)

    @property
    def d(self):
        return np.asarray(self.dipole, dtype=float)

    @property
    def size(self) -> float:
        """|d|, by math.hypot, which underflows and overflows only where |d| does."""
        return math.hypot(*self.dipole)

    @property
    def unit(self) -> "EmitterSpec":
        """This emitter with the dipole d / |d|."""
        return replace(self, dipole=tuple(self.d / self.size))


def vacuum_decay_rate(omega: float, dipole) -> float:
    """Gamma_0 = omega^3 |d|^2 / (3 pi) in natural units."""
    d = np.asarray(dipole, dtype=float)
    return omega**3 * float(d @ d) / (3.0 * np.pi)


def im_green_at(solver: MediumSolver, x):
    """Im G(x, x) at solver.omega: analytic free coincidence limit plus scattered part.

    Im G(x, x) = (omega / 6 pi) I + Im sum_j dV G0(x, z_j) beta_j X_j(x)
    with X the solved columns for source x; real symmetric, PSD up to
    solver tolerance.  At a voxel center the self block of the
    evaluation row uses the equivalent-sphere value M/dV.
    """
    x = np.asarray(x, dtype=float)
    scattered = solver.scattered_at(x, solver.grid_fields(x))
    out = (solver.omega / (6.0 * np.pi)) * np.eye(3) + scattered.imag
    return 0.5 * (out + out.T)


# ----------------------------------------------------------------------
# e-fields of shell plane waves, by reciprocity
# ----------------------------------------------------------------------

def _e_fields_on_shell(solver: MediumSolver, nodes, points, green_columns):
    """e for every (node, sigma, zeta) submode at each point, without a solve, (P, 3, 4Q).

    nodes are Q unit directions; green_columns[p] holds X_j = G(z_j,
    points[p]), (N, 3, 3).  With G(x, z_j) = X_j^T the Green route
    e(x) = w Phi(x) + dV sum_j beta_j X_j^T w Phi(z_j) is one matrix
    product, on or off the grid: the (4Q, 3N) plane-wave table times
    dV w beta_j X_j as a (3N, 3P) complex matrix viewed as (3N, 6P)
    reals.  Column 4q + s is node q, submode s of plane_wave_table,
    ordered (+,c), (+,s), (-,c), (-,s).  This is the one Green route of
    e, which modes.e_coefficient_via_green uses.
    """
    grid = solver.grid
    w = solver.omega
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    P = len(pts)
    X = np.asarray(green_columns).reshape(P, grid.n, 3, 3)
    coupled = np.ascontiguousarray(
        (grid.voxel_volume * w * solver.beta[:, None, None, None]
         * X.transpose(1, 2, 0, 3)).reshape(3 * grid.n, 3 * P))
    phi_grid = plane_wave_table(nodes, w, grid.centers).reshape(-1, 3 * grid.n)
    scattered = (phi_grid @ coupled.view(float)).view(complex)       # (4Q, 3P)
    phi_pts = w * plane_wave_table(nodes, w, pts).reshape(-1, 3 * P)
    return (phi_pts + scattered).T.reshape(P, 3, -1)


# ----------------------------------------------------------------------
# the shell integral in closed form
# ----------------------------------------------------------------------

def _shell_integral(solver: MediumSolver, x, y, Xx, Xy):
    """kappa(x, y) in closed form, and the same sum with the kernel's own values, two (3, 3).

    With U_j = beta_j X_j (rows of a (3N, 3) array, X the Green columns
    of x or y) the points {x, z_1 .. z_N} carry c_x = I, c_j = dV U_j^T:

        kappa = Im G0(x, y) + dV sum_j Im G0(x, z_j) conj(U^y_j)
              + dV sum_j U^x_j^T Im G0(z_j, y)
              + dV^2 sum_ij U^x_i^T Im G0(z_i, z_j) conj(U^y_j).

    dV Im G0(z_i, z_j) is Im K_ij off the diagonal; on it, where K holds
    Im M, it is dV w/(6 pi).  K is complex symmetric, so
    u^T Im(K) conj(v) = [(K u)^T conj(v) - conj(conj(u)^T K v)] / 2i
    takes one kernel product of U^x, and of U^y when y differs.  K U is a
    true product of the kernel with beta X (the one the solve's last
    residual formed, kept by the operator), never X - b, which would
    make the identity hold by construction; a row whose x and y were
    solved together forms no other.  The discrete partner keeps the
    kernel's own values, Im M on the diagonal and g0_blocks_at (M/dV in
    the voxel holding a point) for Im G0(x, z_j); it closes the LDOS
    identity to solver tolerance.  The vacuum operator gives Im G0(x, y)
    for both, with no product.
    """
    w, dV, op = solver.omega, solver.grid.voxel_volume, solver.op
    lead = im_g0_from_displacements(x - y, w)
    if op.is_identity:
        return lead, lead
    coincident = np.array_equal(x, y)
    Ux = op.beta_rep[:, None] * Xx.reshape(op.n3, 3)
    Uy = Ux if coincident else op.beta_rep[:, None] * Xy.reshape(op.n3, 3)
    KU = op.kernel_product(Ux if coincident else np.hstack([Ux, Uy]))
    im_k = dV * (KU[:, :3].T @ Uy.conj() - (Ux.conj().T @ KU[:, -3:]).conj()) / 2j

    def edges(im_g0_at):  # im_g0_at(p): (N, 3, 3) blocks of Im G0(z_j, p)
        at_x = im_g0_at(x).reshape(op.n3, 3)
        at_y = at_x if coincident else im_g0_at(y).reshape(op.n3, 3)
        return dV * (at_x.T @ Uy.conj() + Ux.T @ at_y)

    exact = edges(lambda p: im_g0_from_displacements(solver.grid.centers - p, w))
    diagonal = dV * w / (6.0 * np.pi) - self_term_scalar(dV, w).imag
    kappa = lead + exact + im_k + dV * diagonal * (Ux.T @ Uy.conj())
    discrete = edges(lambda p: solver.g0_blocks_at(p).imag)
    return kappa, lead + discrete + im_k


# ----------------------------------------------------------------------
# LDOS identity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LdosIdentityResult:
    """Both forms of the LDOS identity at one point pair."""

    im_green: np.ndarray          # LHS
    kappa_term: np.ndarray        # shell integral of e dyadics
    absorption_term: np.ndarray   # volume integral of Im eps G G*
    m_term: np.ndarray            # medium-continuum sum of m dyadics
    residual_absorption: float    # ||LHS - kappa - absorption||_F
    residual_m: float             # ||LHS - kappa - m||_F
    forms_gap: float              # ||absorption - m||_F
    residual_discrete: float      # as residual_absorption, kernel's own kappa

    @property
    def scale(self) -> float:
        return float(np.linalg.norm(self.im_green))

    @property
    def relative_absorption(self) -> float:
        return self.residual_absorption / self.scale

    @property
    def relative_m(self) -> float:
        return self.residual_m / self.scale

    @property
    def relative_discrete(self) -> float:
        return self.residual_discrete / self.scale

    def contracted(self, dipole) -> float:
        """|d . (LHS - kappa - absorption) . d| / |d|^2."""
        d = np.asarray(dipole, dtype=float)
        defect = self.im_green - self.kappa_term - self.absorption_term
        return float(abs(d @ defect @ d)) / float(d @ d)


def ldos_identity_residual(solver: MediumSolver, x, y) -> LdosIdentityResult:
    """Residuals of the Green-tensor LDOS identity at the pair (x, y), at solver.omega.

    kappa is the exact shell integral (_shell_integral), so the residual
    is the discretization's own: the self term's Im M/dV against the
    coincidence value w/(6 pi).  residual_discrete takes kappa with the
    kernel's own values and closes to solver tolerance.  The absorption
    and m forms are algebraically identical (they agree to solver
    tolerance) because the on-shell medium sum collapses to the
    absorption integral through alpha_tilde^2 = 2 w Im eps / pi.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = solver.omega
    coincident = np.array_equal(x, y)

    Xx, Xy = solver.grid_fields(np.stack([x, y]))  # one solve, of 3 columns if coincident
    lhs = im_green_at(solver, x) if coincident else solver.green(x, y).imag

    # absorption form: w^2 sum dV Im(eps) G(x,z) G*(z,y); G(x,z_i) = Xx_i^T
    dV = solver.grid.voxel_volume
    absorb = w**2 * dV * np.einsum(
        "j,jba,jbc->ac", solver.eps.imag, Xx, Xy.conj())

    kappa, kappa_discrete = _shell_integral(solver, x, y, Xx, Xy)

    # medium-continuum form from the m dyadics, alpha^2 = 2 w Im eps / pi
    alpha2 = np.clip(2.0 * w / np.pi * solver.eps.imag, 0.0, None)
    m_term = (0.5 * np.pi / w**3) * w**4 * dV * np.einsum(
        "j,jba,jbc->ac", alpha2, Xx, Xy.conj())

    res_a = float(np.linalg.norm(lhs - kappa - absorb))
    res_m = float(np.linalg.norm(lhs - kappa - m_term))
    return LdosIdentityResult(
        im_green=lhs, kappa_term=kappa, absorption_term=absorb, m_term=m_term,
        residual_absorption=res_a, residual_m=res_m,
        forms_gap=float(np.linalg.norm(absorb - m_term)),
        residual_discrete=float(np.linalg.norm(lhs - kappa_discrete - absorb)))


# ----------------------------------------------------------------------
# decay rates and Purcell factor
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecayRates:
    """Decomposed spontaneous decay rates of one emitter (natural units)."""

    gamma_e: float            # electromagnetic-continuum shell integral, exact
    gamma_m: float            # identity route: 2 w^2 d.ImG.d - gamma_e
    gamma_m_mu_route: float   # independent medium-continuum voxel sum
    gamma_total: float        # gamma_e + gamma_m
    gamma_via_im_green: float # 2 w^2 d.ImG.d
    purcell: float
    contracted_residual: float      # |d.(identity defect).d| / (d.ImG.d)
    identity_relative_residual: float  # Frobenius residual / ||Im G||

    @classmethod
    def from_identity(cls, ident: LdosIdentityResult, emitter: EmitterSpec) -> "DecayRates":
        """Rates from the LDOS identity evaluated at the emitter's position and frequency.

        The contractions use the unit dipole u = d / |d|; the rates are those of u times
        |d|^2, and the Purcell factor and contracted residual are u's.
        """
        w, u, scale = emitter.omega, emitter.unit.d, emitter.size**2
        u_im_u = float(u @ ident.im_green @ u)
        gamma_via = 2.0 * w**2 * u_im_u
        gamma_e = 2.0 * w**2 * float(np.real(u @ ident.kappa_term @ u))
        gamma_m = scale * gamma_via - scale * gamma_e
        contracted = (ident.contracted(u) * float(u @ u) / u_im_u
                      if u_im_u != 0.0 else float("nan"))
        return cls(
            gamma_e=scale * gamma_e,
            gamma_m=gamma_m,
            gamma_m_mu_route=scale * 2.0 * w**2 * float(np.real(u @ ident.m_term @ u)),
            gamma_total=scale * gamma_e + gamma_m,
            gamma_via_im_green=scale * gamma_via,
            purcell=gamma_via / vacuum_decay_rate(w, u),
            contracted_residual=contracted,
            identity_relative_residual=ident.relative_absorption,
        )


def gamma_decomposed(solver: MediumSolver, emitter: EmitterSpec) -> DecayRates:
    """Decay-rate decomposition Gamma_e + Gamma_m with its compensation data.

    Gamma_e is the exact shell integral.  gamma_m follows the identity
    route (Im G minus the e-continuum term), which makes gamma_total equal
    gamma_via_im_green by construction; the mu route recomputes Gamma_m as
    the on-shell voxel sum of m dyadics, so |gamma_e + gamma_m_mu_route -
    gamma_via_im_green| is bounded by the contracted LDOS identity
    residual.
    """
    solver.check_frequency(emitter.omega, "emitter")
    ident = ldos_identity_residual(solver, emitter.r, emitter.r)
    return DecayRates.from_identity(ident, emitter)


def purcell(grid, materials, emitter: EmitterSpec, tol: float = 1e-10) -> float:
    """Purcell factor Gamma / Gamma_0 from the coincidence Im G; 1 in vacuum.

    grid is a VoxelGrid, solved with materials at emitter.omega to tol, or
    a MediumSolver at that frequency.  This grid form stays because
    perfbench's reference answer calls purcell(grid, materials, emitter, tol).
    """
    solver = (grid if isinstance(grid, MediumSolver)
              else MediumSolver(grid, materials, emitter.omega, tol))
    solver.check_frequency(emitter.omega, "emitter")
    img = im_green_at(solver, emitter.r)
    u = emitter.unit.d
    gamma = 2.0 * emitter.omega**2 * float(u @ img @ u)
    return gamma / vacuum_decay_rate(emitter.omega, u)


def purcell_sweep(solver_at, emitter_position, dipole, omegas):
    """Purcell/decay table over frequencies; per-row failures are recorded.

    solver_at(omega) returns the MediumSolver of one frequency, such as
    SceneConfig.solver.  Returns one dict per frequency, in the order of
    omegas, with keys omega, purcell, gamma_e, gamma_m, identity_residual
    (relative), or an error message for rows whose solver could not be
    built, whose solve failed or which ran out of memory.  Rows are
    independent, so omegas may come in any order; each takes one
    3-column solve and one kernel product (Gamma_e is the exact shell
    integral).
    """
    rows = []
    for w in omegas:
        try:
            emitter = EmitterSpec(position=tuple(emitter_position), omega=float(w),
                                  dipole=tuple(dipole))
            solver = solver_at(float(w))
            rates = gamma_decomposed(solver, emitter)
            rows.append({
                "omega": float(w),
                "purcell": rates.purcell,
                "gamma_e": rates.gamma_e,
                "gamma_m": rates.gamma_m,
                "identity_residual": rates.identity_relative_residual,
            })
        except (SolverError, ValueError, MemoryError) as exc:
            rows.append({"omega": float(w), "error": str(exc) or type(exc).__name__})
    return rows
