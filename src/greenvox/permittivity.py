"""Lorentz-pole permittivity models and the causality (dispersion) check.

The dielectric response of every material region is a sum of Lorentz
poles,

    eps(omega) = 1 + sum_p  wp_p^2 / (w0_p^2 - omega^2 - i gamma_p omega),

which is absorbing (Im eps > 0) for every omega > 0 as long as each pole
has gamma > 0.  A pole with w0 = 0 is the Drude case.  The coupling
strength of the medium oscillators at frequency nu is

    alpha_tilde(nu) = sqrt( (2 nu / pi) * Im eps(nu) ),

and causality ties alpha_tilde back to eps through a dispersion integral
with a -i0+ pole prescription,

    PV int_0^inf  alpha_tilde^2(nu) / (nu^2 - lam^2) dnu
        + i pi alpha_tilde^2(lam) / (2 lam)  =  eps(lam) - 1.

:func:`kk_residual` evaluates the left side numerically (principal value
by symmetric-interval subtraction, half residue added analytically) and
returns the defect against the closed form.  The same principal-value
helper is reused wherever a -i0+ frequency integral appears.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class LorentzPole:
    """One resonance of the dielectric response (rad/time units)."""

    omega0: float
    omegap: float
    gamma: float

    def __post_init__(self):
        if self.omega0 < 0.0:
            raise ValueError("omega0 must be >= 0 (0 is the Drude case)")
        if self.omegap < 0.0:
            raise ValueError("oscillator strength omegap must be >= 0")
        if not self.gamma > 0.0:
            raise ValueError("damping gamma must be strictly positive (strict absorption)")


@dataclass(frozen=True)
class PermittivityModel:
    """Sum-of-Lorentz-poles permittivity of one material region."""

    poles: tuple[LorentzPole, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "poles", tuple(self.poles))


VACUUM = PermittivityModel()


def eval_eps(model: PermittivityModel, omega):
    """Dielectric coefficient eps(omega) of the model, omega > 0 (scalar or array)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("eval_eps requires omega > 0")
    eps = np.ones_like(w, dtype=complex)
    for p in model.poles:
        eps = eps + p.omegap**2 / (p.omega0**2 - w**2 - 1j * p.gamma * w)
    return eps if eps.ndim else complex(eps)


def coupling_alpha_tilde(model: PermittivityModel, nu):
    """Medium coupling alpha_tilde(nu) = sqrt((2 nu / pi) Im eps(nu)), nonnegative real."""
    n = np.asarray(nu, dtype=float)
    im = np.imag(eval_eps(model, n))
    if np.any(im < -1e-15):
        raise ValueError("Im eps < 0: model violates the absorption invariant")
    out = np.sqrt(np.clip(2.0 * n / np.pi * im, 0.0, None))
    return out if out.ndim else float(out)


def scaled_contrast(model: PermittivityModel, s: float) -> PermittivityModel:
    """Model with (eps - 1) scaled by s >= 0 (omegap -> sqrt(s) omegap).

    alpha_tilde scales by sqrt(s); the s -> 0 limit is the uncoupled
    (free-field) medium.
    """
    if s < 0.0:
        raise ValueError("contrast scale must be >= 0")
    return replace(model, poles=tuple(replace(p, omegap=np.sqrt(s) * p.omegap) for p in model.poles))


# ----------------------------------------------------------------------
# principal-value quadrature with the -i0+ prescription
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrincipalValueQuadrature:
    """Grid controls for the dispersion integrals.

    n_nodes Gauss-Legendre nodes per panel; the pole sits in a symmetric
    window of half-width delta_frac*pole where the PV is taken by
    symmetric subtraction; panels extend to nu_max_factor times the
    largest frequency scale of the model.
    """

    n_nodes: int = 48
    delta_frac: float = 0.1
    nu_max_factor: float = 1.0e3

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least 2 Gauss-Legendre nodes per panel")
        if not 0.0 < self.delta_frac < 1.0:
            raise ValueError("delta_frac must lie in (0, 1)")
        if self.nu_max_factor <= 1.0:
            raise ValueError("nu_max_factor must exceed 1")

    def refine(self, factor: int = 2) -> "PrincipalValueQuadrature":
        return replace(self, n_nodes=self.n_nodes * factor)


@lru_cache(maxsize=64)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def _panel_integral(f, a: float, b: float, n: int) -> complex:
    x, wts = _gauss_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(wts * f(mid + half * x))


def _distinct(values):
    """The distinct values of a 1-D array, ascending: np.unique, which numpy 2 answers
    through numpy.ma, an import of its own."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _subdivide(a: float, b: float, ratio: float = 4.0) -> list[tuple[float, float]]:
    """Split [a, b] (0 < a < b) geometrically so each piece has b/a <= ratio."""
    if a <= 0.0:
        return [(a, b)]
    m = max(1, int(np.ceil(np.log(b / a) / np.log(ratio) - 1e-12)))
    edges = a * (b / a) ** (np.arange(m + 1) / m)
    return list(zip(edges[:-1], edges[1:]))


def principal_value_integral(f, pole: float, breakpoints, n_nodes: int = 48,
                             delta: float | None = None) -> complex:
    """PV of int f(x) dx over [min(breakpoints), max(breakpoints)].

    f has a simple pole at x = pole, which must lie strictly inside the
    range.  Around the pole the symmetric combination f(pole+t)+f(pole-t)
    is integrated (it is smooth); elsewhere plain Gauss-Legendre panels
    are used, geometrically subdivided on wide logarithmic spans.
    """
    pts = np.asarray(sorted(float(b) for b in breakpoints))
    lo, hi = pts[0], pts[-1]
    if not lo < pole < hi:
        raise ValueError("quadrature breakpoints do not bracket the pole")
    if delta is None:
        delta = 0.1 * min(pole - lo, hi - pole)
    delta = min(delta, 0.5 * (pole - lo), 0.5 * (hi - pole))

    edges = _distinct(np.concatenate([pts, [pole - delta, pole + delta]]))
    left = edges[edges <= pole - delta]
    right = edges[edges >= pole + delta]

    total = 0.0 + 0.0j
    for seg in (left, right):
        for a, b in zip(seg[:-1], seg[1:]):
            for aa, bb in _subdivide(a, b):
                total += _panel_integral(f, aa, bb, n_nodes)
    # symmetric subtraction across the pole window
    total += _panel_integral(lambda t: f(pole + t) + f(pole - t), 0.0, delta, n_nodes)
    return total


def _frequency_scale(model: PermittivityModel, lam: float) -> float:
    s = lam
    for p in model.poles:
        s = max(s, p.omega0 + p.omegap + p.gamma)
    return s


def _model_breakpoints(model: PermittivityModel, nu_max: float):
    pts = {0.0, nu_max}
    for p in model.poles:
        for k in (1.0, 5.0, 25.0):
            for side in (-1.0, 1.0):
                x = p.omega0 + side * k * p.gamma
                if 0.0 < x < nu_max:
                    pts.add(x)
    return sorted(pts)


def kk_residual(model: PermittivityModel, lam: float,
                quad: PrincipalValueQuadrature | None = None) -> float:
    """Defect of the dispersion relation at frequency lam.

    Returns |PV integral + i pi alpha_tilde^2(lam)/(2 lam) - (eps(lam)-1)|,
    which tends to zero as the quadrature refines (the Lorentz form
    satisfies the relation analytically).
    """
    if not lam > 0.0:
        raise ValueError("kk_residual requires lam > 0")
    quad = quad or PrincipalValueQuadrature()
    nu_max = quad.nu_max_factor * _frequency_scale(model, lam)
    if lam >= nu_max:
        raise ValueError("principal-value grid does not bracket the evaluation frequency")

    def integrand(nu):
        return coupling_alpha_tilde(model, nu) ** 2 / (nu**2 - lam**2)

    pv = principal_value_integral(integrand, lam, _model_breakpoints(model, nu_max),
                                  n_nodes=quad.n_nodes, delta=quad.delta_frac * lam)
    half_residue = 1j * np.pi * coupling_alpha_tilde(model, lam) ** 2 / (2.0 * lam)
    return float(abs(pv + half_residue - (eval_eps(model, lam) - 1.0)))
