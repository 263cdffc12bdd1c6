"""Double-continuum field coefficients and eigenfunction components.

The electric-field operator of the coupled field-medium system carries
one complex vector coefficient per continuum label: e_kappa(r) for the
electromagnetic continuum kappa = (k, sigma, zeta) and m_mu(r) for the
medium continuum mu = (x, nu, j), weighted by sqrt(hbar / (2 eps0 w)),
1/sqrt(2 w) in natural units, w the mode frequency (omega_kappa or nu_mu);
the functions here return the coefficients without that weight.  Both
reduce to Fredholm problems with the same kernel as the medium Green
tensor:

    e_kappa = omega Phi_kappa + int_V G0 beta e_kappa,
    m_mu    = -alpha_tilde(x, nu) nu^2 G0(., x) n_j + int_V G0 beta m_mu,

whose solutions can equivalently be evaluated through the medium Green
tensor,

    e_kappa(r) = omega Phi_kappa(r) + int_V G(r, z) beta(z) omega Phi_kappa(z),
    m_mu(r)    = -alpha_tilde(x, nu) nu^2 G(r, x) n_j.

Both routes are implemented; they agree to solver tolerance as an exact
discrete identity, which the tests exploit.  The direct routes and the
Green route of m solve on the grid and reach every other point through
MediumSolver.evaluate, the evaluation formula the Green tensor uses.
The direct routes' right-hand sides (e_direct_rhs, m_direct_rhs) are
solved through MediumSolver.solved, memoised by mode, so a caller can
solve them in one block with its Green sources.  The
Green route of e needs no evaluation: it is ldos._e_fields_on_shell on
the mode's one direction, read from the memoised Green columns of each
point.  Every function takes the MediumSolver of the mode's frequency
first, and a mode at another frequency raises ValueError.

The scattering eigenfunction components are exposed through their smooth
parts only: v-components as pointwise values away from the on-shell
pole, u-components as the numerator of the pole term (the delta part is
reported symbolically, never as a number).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .green_free import PlaneWaveMode, g0_from_displacements, phi_plane_wave
from .ldos import _e_fields_on_shell
from .permittivity import coupling_alpha_tilde
from .vie import MediumSolver

#: pointwise v-components are rejected closer to the shell than this
NEAR_SINGULAR_FLOOR = 1e-6


class NearSingularError(ValueError):
    """Pointwise eigenfunction value requested too close to the on-shell pole."""


@dataclass(frozen=True)
class MedModeIndex:
    """Medium continuum label mu = (x, nu, j) with j in {1, 2, 3}."""

    x: tuple[float, float, float]
    nu: float
    j: int

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not self.nu > 0.0:
            raise ValueError("medium mode frequency nu must be positive")
        if self.j not in (1, 2, 3):
            raise ValueError("direction index j must be 1, 2 or 3")

    @property
    def x_point(self):
        return np.asarray(self.x, dtype=float)

    @property
    def direction(self):
        n = np.zeros(3)
        n[self.j - 1] = 1.0
        return n


def _alpha_at(solver: MediumSolver, index: int, nu: float) -> float:
    model = solver.materials[int(solver.grid.material_ids[index])]
    return float(coupling_alpha_tilde(model, nu))


# ----------------------------------------------------------------------
# e coefficients
# ----------------------------------------------------------------------

def e_direct_rhs(solver: MediumSolver, mode: PlaneWaveMode):
    """Inhomogeneity omega Phi_kappa of the e Fredholm equation on the grid, (N, 3)."""
    solver.check_frequency(mode.omega, "mode shell")
    return mode.omega * phi_plane_wave(mode, solver.grid.centers)


def e_grid_solution(solver: MediumSolver, mode: PlaneWaveMode):
    """On-grid e values from the direct Fredholm solve, (N, 3), read-only.

    Memoised by mode on the solver (MediumSolver.solved), so every
    function that needs the e of one mode on the grid solves for it once,
    and a caller that names the mode beside other right-hand sides, as
    validate does, solves it in their block.
    """
    return solver.solved({mode: partial(e_direct_rhs, solver, mode)})[0]


def e_coefficient(solver: MediumSolver, mode: PlaneWaveMode, points):
    """Electromagnetic field coefficient e_kappa at the requested points, (P, 3)."""
    w = mode.omega
    return solver.evaluate(points, e_grid_solution(solver, mode),
                           lambda p: w * phi_plane_wave(mode, p))[:, :, 0]


def e_coefficient_via_green(solver: MediumSolver, mode: PlaneWaveMode, points):
    """e_kappa through the medium Green tensor (route-equivalence partner).

    The shell route of ldos on the mode's one direction, read at the
    mode's submode: e(r) = omega Phi(r) + sum_i dV G(r, z_i) beta_i
    omega Phi(z_i), with G(r, z_i) taken via reciprocity from the
    (memoised) Green columns of source r, solved for all points at once.
    """
    solver.check_frequency(mode.omega, "mode shell")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    e = _e_fields_on_shell(solver, mode.k_vector / mode.omega, pts, solver.grid_fields(pts))
    return e[:, :, mode.submode]


# ----------------------------------------------------------------------
# m coefficients
# ----------------------------------------------------------------------

def _m_scale(solver: MediumSolver, mode: MedModeIndex) -> float:
    """-alpha_tilde(x, nu) nu^2 of the m inhomogeneity; mode.x must be a voxel center."""
    solver.check_frequency(mode.nu, "medium mode")
    idx = solver.grid.index_of(mode.x_point)
    if idx is None:
        raise ValueError("medium mode position must be a voxel center of the grid")
    return -_alpha_at(solver, idx, mode.nu) * mode.nu**2


def m_direct_rhs(solver: MediumSolver, mode: MedModeIndex):
    """Inhomogeneity -alpha_tilde nu^2 G0(z_i, x) n_j of the m Fredholm equation, (3N,)."""
    return _m_scale(solver, mode) * (solver.source_columns(mode.x_point) @ mode.direction)


def m_coefficient(solver: MediumSolver, mode: MedModeIndex, points, route: str = "green"):
    """Medium field coefficient m_mu at the requested points, (P, 3).

    route "green" evaluates -alpha_tilde nu^2 G(r, x) n_j from the medium
    Green tensor; route "direct" solves the m Fredholm equation with its
    own inhomogeneity, memoised by mode on the solver (MediumSolver.solved).
    The two agree to solver tolerance.
    """
    scale = _m_scale(solver, mode)
    nj = mode.direction

    def g0_from_x(p):
        return g0_from_displacements(p - mode.x_point, solver.omega)

    if route == "green":
        G = solver.evaluate(points, solver.grid_fields(mode.x_point), g0_from_x)
        return scale * (G @ nj)
    if route != "direct":
        raise ValueError(f"unknown m-coefficient route {route!r}")
    m_grid = solver.solved({mode: partial(m_direct_rhs, solver, mode)})[0]
    return solver.evaluate(points, m_grid, lambda p: scale * (g0_from_x(p) @ nj))[:, :, 0]


# ----------------------------------------------------------------------
# eigenfunction components (smooth parts; delta parts symbolic)
# ----------------------------------------------------------------------

def _check_off_shell(nup: float, w: float):
    if abs(nup**2 - w**2) < NEAR_SINGULAR_FLOOR * w**2:
        raise NearSingularError(
            "pointwise eigenfunction component requested within the on-shell "
            "floor |nu'^2 - w^2| < 1e-6 w^2; the distributional content lives "
            "in the identities, not pointwise values")


def v_component_e(solver: MediumSolver, mode: PlaneWaveMode, xp, nup: float):
    """Medium component of the electromagnetic eigenfunction.

    v^e_kappa(x', nu') = -alpha_tilde(x', nu') e_kappa(x') / (nu'^2 - w^2),
    valid away from the shell nu' = w.  e(x') comes through the Green
    route from the memoised Green columns of x', so a sweep over nu' at
    one x' solves once.
    """
    _check_off_shell(nup, mode.omega)
    idx = solver.grid.index_of(np.asarray(xp, dtype=float))
    if idx is None:
        raise ValueError("x' must be a voxel center")
    alpha = _alpha_at(solver, idx, nup)
    e_here = e_coefficient_via_green(solver, mode, xp)[0]
    return -alpha * e_here / (nup**2 - mode.omega**2)


def u_numerator_e(solver: MediumSolver, mode: PlaneWaveMode, probe: PlaneWaveMode) -> complex:
    """Smooth numerator of u^e: N(kappa, kappa') = int_V w' Phi_kappa' . e^v_kappa.

    e^v = -(eps - 1) e_kappa; the delta(kappa - kappa') part of u^e is
    symbolic and not included.  Note the primed frequency and mode in the
    integrand.  It needs e on every voxel, from the direct solve, which
    the solver memoises per mode: probes against one mode solve once.
    """
    eg = e_grid_solution(solver, mode)
    phi_probe = phi_plane_wave(probe, solver.grid.centers)
    ev = -(solver.eps - 1.0)[:, None] * eg
    return complex(probe.omega * solver.grid.voxel_volume
                   * np.sum(phi_probe * ev))


@dataclass(frozen=True)
class VComponentM:
    """Smooth part of v^m plus a symbolic flag for its delta(mu - mu') part."""

    delta_present: bool
    smooth: tuple[complex, complex, complex] | None


def v_component_m(solver: MediumSolver, mode: MedModeIndex, xp, nup: float) -> VComponentM:
    """Medium component of the medium eigenfunction.

    v^m_mu(x', nu') = n_j delta(x - x') delta(nu - nu')
                      - alpha_tilde(x', nu') m_mu(x') / (nu'^2 - nu^2);
    the delta part is reported as a flag, the smooth part pointwise.
    """
    solver.check_frequency(mode.nu, "medium mode")
    xp = np.asarray(xp, dtype=float)
    delta_present = bool(np.array_equal(xp, mode.x_point) and nup == mode.nu)
    if abs(nup**2 - mode.nu**2) < NEAR_SINGULAR_FLOOR * mode.nu**2:
        return VComponentM(delta_present=delta_present, smooth=None)
    idx = solver.grid.index_of(xp)
    if idx is None:
        raise ValueError("x' must be a voxel center")
    alpha = _alpha_at(solver, idx, nup)
    m_here = m_coefficient(solver, mode, xp)[0]
    smooth = -alpha * m_here / (nup**2 - mode.nu**2)
    return VComponentM(delta_present=delta_present, smooth=tuple(smooth))


def u_numerator_m(solver: MediumSolver, mode: MedModeIndex, probe: PlaneWaveMode) -> complex:
    """Smooth numerator of u^m: int w' Phi_kappa' . m^v_mu over all space.

    m^v = alpha_tilde(x, nu) delta(r - x) n_j - (eps - 1) m_mu, so the
    point term contributes alpha_tilde Phi_kappa'(x) . n_j and the rest a
    voxel sum over the body.
    """
    m_grid = m_coefficient(solver, mode, solver.grid.centers)  # checks nu and x first
    alpha = _alpha_at(solver, solver.grid.index_of(mode.x_point), mode.nu)
    phi_probe = phi_plane_wave(probe, solver.grid.centers)
    point_term = alpha * float(phi_plane_wave(probe, mode.x_point) @ mode.direction)
    volume_term = solver.grid.voxel_volume * np.sum(
        phi_probe * ((solver.eps - 1.0)[:, None] * m_grid))
    return complex(probe.omega * (point_term - volume_term))


# ----------------------------------------------------------------------
# noise-current amplitude
# ----------------------------------------------------------------------

#: pairing rule of the current operator inside the medium field part
NOISE_CURRENT_PAIRING = "E_m(r) = int dnu int_V d^3x [ i nu G_m(r, x, nu) j(x, nu) + H.c. ]"


@dataclass(frozen=True)
class NoiseCurrentAmplitude:
    """Scalar amplitude of the noise current operator per direction."""

    amplitude: complex
    pairing: str = NOISE_CURRENT_PAIRING


def noise_current_amplitude(solver: MediumSolver, x) -> NoiseCurrentAmplitude:
    """Amplitude -i nu sqrt(Im eps(x, nu) / pi) of the noise current at nu = solver.omega.

    Uses Im eps (not eps) under the root so the current route of the
    medium field reproduces the m-coefficient route exactly through
    alpha_tilde = sqrt(2 nu Im eps / pi); natural units absorb the
    sqrt(hbar / (pi eps0)) and 1/c^2 factors.
    """
    idx = solver.grid.index_of(np.asarray(x, dtype=float))
    if idx is None:
        raise ValueError("x must be a voxel center")
    im_eps = solver.eps[idx].imag
    return NoiseCurrentAmplitude(amplitude=-1j * solver.omega * np.sqrt(max(im_eps, 0.0) / np.pi))
