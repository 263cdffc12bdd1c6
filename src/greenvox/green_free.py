"""Free-space dyadic Green tensor: closed forms, plane-wave spectrum, self term.

Natural units (c = 1), so omega doubles as the wavenumber k.  The scalar
outgoing Green function is g(R) = exp(i omega R) / (4 pi R) and the
off-source dyadic is

    G0(r, r') = [ (3/(kR)^2 - 3i/(kR) - 1) Rhat Rhat
                + (1 + i/(kR) - 1/(kR)^2) I ] g(R),

symmetric as a matrix and under swapping the two points.  The
distributional part -(1/(3 omega^2)) delta(r - r') I is not included
here; for a cubical voxel it is carried by :func:`self_term`, the
integral of the full distribution over the volume-equivalent sphere.

Plane-wave modes are the real transverse eigenfunctions of the double
curl with wavevectors restricted to the upper half space (k_z >= 0),
two polarizations and cosine/sine parity per wavevector.  A factor
sqrt(2) is included on top of the bare (2 pi)^(-3/2) so the half-space
family is exactly orthonormal and complete on transverse fields; with
it the shell sum of mode dyadics reproduces Im G0, in particular
Im G0(x, x) = omega/(6 pi) I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

I3 = np.eye(3)


def _as_points(r):
    a = np.asarray(r, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError("points must have 3 components")
    return a


def scalar_green(r, rp, omega: float) -> complex:
    """Outgoing scalar Green function exp(i omega R)/(4 pi R), R = |r - rp|."""
    R = float(np.linalg.norm(_as_points(r) - _as_points(rp)))
    if R == 0.0:
        raise ValueError("scalar_green is singular at coincident points")
    if not omega > 0.0:
        raise ValueError("scalar_green requires omega > 0")
    return np.exp(1j * omega * R) / (4.0 * np.pi * R)


def g0_from_displacements(disp, omega: float):
    """Off-source dyadic G0 for an array of displacements r - r'.

    disp: (..., 3) with no zero rows; returns (..., 3, 3) complex.  The
    imaginary part of the closed form cancels like eps/(omega R)^3 as
    omega R -> 0, so rows with omega R < 1 take it from the series of
    im_g0_from_displacements.
    """
    if not omega > 0.0:
        raise ValueError("dyadic Green tensor requires omega > 0")
    d = np.asarray(disp, dtype=float)
    scalar_input = d.ndim == 1
    d = np.atleast_2d(d)
    R = np.linalg.norm(d, axis=-1)
    if np.any(R == 0.0):
        raise ValueError("coincident points in dyadic Green tensor evaluation")
    Rhat = d / R[..., None]
    kR = omega * R
    g = np.exp(1j * kR) / (4.0 * np.pi * R)
    ca = 3.0 / kR**2 - 3.0j / kR - 1.0
    cb = 1.0 + 1.0j / kR - 1.0 / kR**2
    RR = Rhat[..., :, None] * Rhat[..., None, :]
    out = (ca[..., None, None] * RR + cb[..., None, None] * I3) * g[..., None, None]
    small = kR < 1.0
    if np.any(small):
        out.imag[small] = im_g0_from_displacements(d[small], omega)
    return out[0] if scalar_input else out


#: Taylor coefficients of j0(x) - j1(x)/x and j2(x)/x^2 in powers of -x^2/2, up to
#: (x^2/2)^10/10!, which is below 1e-19 of the value for x < 1
_IM_G0_SERIES = np.array([
    [(2 * k + 2) / (math.factorial(k) * math.prod(range(2 * k + 3, 0, -2))),
     1.0 / (math.factorial(k) * math.prod(range(2 * k + 5, 0, -2)))] for k in range(11)])


def im_g0_from_displacements(disp, omega: float):
    """Im G0 for an array of displacements r - r', zero rows included, (..., 3, 3) real.

    Im G0 is smooth everywhere: (omega/4 pi) [(j0(x) - j1(x)/x) I
    + (j2(x)/x^2) (omega d)(omega d)^T] with x = omega |d|, so a zero
    displacement gives the coincidence value omega/(6 pi) I.  Below
    x = 1 the spherical Bessel combinations come from their Taylor
    series, where the closed form would cancel.
    """
    if not omega > 0.0:
        raise ValueError("dyadic Green tensor requires omega > 0")
    d = np.asarray(disp, dtype=float)
    x = omega * np.linalg.norm(d, axis=-1)
    small = x < 1.0
    xs = np.where(small, 1.0, x)
    s, c = np.sin(xs), np.cos(xs)
    a = (s * (1.0 - 1.0 / xs**2) + c / xs) / xs
    b = ((3.0 / xs**2 - 1.0) * s / xs - 3.0 * c / xs**2) / xs**2
    u = -0.5 * np.where(small, x, 0.0).ravel() ** 2
    powers = np.vander(u, len(_IM_G0_SERIES), increasing=True).reshape(*x.shape, -1)
    a_series, b_series = np.moveaxis(powers @ _IM_G0_SERIES, -1, 0)
    a, b = np.where(small, a_series, a), np.where(small, b_series, b)
    dd = omega**2 * (d[..., :, None] * d[..., None, :])  # exactly symmetric
    return (omega / (4.0 * np.pi)) * (a[..., None, None] * I3 + b[..., None, None] * dd)


def g0_closed(r, rp, omega: float):
    """Closed-form free dyadic Green tensor at distinct points (3, 3) complex."""
    return g0_from_displacements(_as_points(r) - _as_points(rp), omega)


def g0_longitudinal(r, rp, omega: float):
    """Off-source longitudinal part (1/omega^2)(3 Rhat Rhat - I)/(4 pi R^3).

    Curl-free columnwise; the transverse part is g0_closed minus this.
    """
    d = _as_points(r) - _as_points(rp)
    R = float(np.linalg.norm(d))
    if R == 0.0:
        raise ValueError("coincident points in longitudinal Green tensor")
    Rhat = d / R
    return (3.0 * np.outer(Rhat, Rhat) - I3) / (4.0 * np.pi * omega**2 * R**3) + 0.0j


def self_term_scalar(voxel_volume: float, omega: float) -> complex:
    """Integral of the full G0 distribution over the volume-equivalent sphere.

    M(a) = (2/(3 omega^2)) [(1 - i omega a) exp(i omega a) - 1] - 1/(3 omega^2)
    with a = (3 V / 4 pi)^(1/3): the principal-volume integral, then the
    delta term -(1/(3 omega^2)) I, the source dyadic I/3 of a sphere
    (Yaghjian, Proc. IEEE 68, 248 (1980)).  Small-radius expansion
    M = -1/(3 omega^2) + a^2/3 + 2i omega a^3 / 9 + O(a^4); the bracket
    loses all precision to cancellation for omega a << 1, so that regime
    uses its Taylor series directly.
    """
    if not voxel_volume > 0.0:
        raise ValueError("voxel volume must be positive")
    if not omega > 0.0:
        raise ValueError("self term requires omega > 0")
    a = (3.0 * voxel_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
    x = omega * a
    if x < 1e-2:
        bracket = complex(x**2 / 2.0 - x**4 / 8.0 + x**6 / 144.0,
                          x**3 / 3.0 - x**5 / 30.0 + x**7 / 840.0)
    else:
        bracket = complex(np.cos(x) - 1.0 + x * np.sin(x), np.sin(x) - x * np.cos(x))
    return (2.0 / (3.0 * omega**2)) * bracket - 1.0 / (3.0 * omega**2)


def self_term(voxel_volume: float, omega: float):
    """Self-interaction dyadic M(a) I for a voxel of the given volume."""
    return self_term_scalar(voxel_volume, omega) * I3


# ----------------------------------------------------------------------
# transverse plane-wave modes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneWaveMode:
    """Electromagnetic continuum label kappa = (k, sigma, zeta).

    k is restricted to the upper half space (k_z >= 0), sigma in {+1, -1}
    selects the polarization vector of the deterministic transverse frame
    and zeta in {"c", "s"} the cosine/sine parity.  omega = |k| (c = 1).
    """

    k: tuple[float, float, float]
    sigma: int = +1
    zeta: str = "c"

    def __post_init__(self):
        k = tuple(float(v) for v in self.k)
        object.__setattr__(self, "k", k)
        if np.linalg.norm(k) == 0.0:
            raise ValueError("plane-wave mode requires |k| > 0")
        if k[2] < 0.0:
            raise ValueError("plane-wave wavevector must have k_z >= 0")
        if self.sigma not in (+1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.zeta not in ("c", "s"):
            raise ValueError("zeta must be 'c' or 's'")

    @property
    def k_vector(self):
        return np.asarray(self.k, dtype=float)

    @property
    def omega(self) -> float:
        return float(np.linalg.norm(self.k))

    @property
    def polarization(self):
        e_plus, e_minus = transverse_frames(self.k_vector / self.omega)
        return (e_plus if self.sigma == +1 else e_minus)[0]

    @property
    def submode(self) -> int:
        """Index of (sigma, zeta) in plane_wave_table's (+,c), (+,s), (-,c), (-,s) axis."""
        return 2 * (self.sigma == -1) + (self.zeta == "s")


PHI_NORM = np.sqrt(2.0) * (2.0 * np.pi) ** (-1.5)


def phi_plane_wave(mode: PlaneWaveMode, points):
    """Real transverse basis function sqrt(2) (2 pi)^(-3/2) eps_sigma cos/sin(k.r).

    points: (3,) or (P, 3); returns matching (3,) or (P, 3) real array.
    Transversality k . Phi = 0 holds by construction.  The values are the
    mode's submode of plane_wave_table.
    """
    pts = _as_points(points)
    table = plane_wave_table(mode.k_vector / mode.omega, mode.omega, pts.reshape(-1, 3))
    return table[0, mode.submode].reshape(pts.shape)


def transverse_frames(nodes):
    """Orthonormal transverse pairs (e_plus, e_minus) for (Q, 3) directions, two (Q, 3).

    Each is built from the coordinate axis with the smallest |khat|
    component, so the frame never degenerates; e_minus = khat x e_plus.
    """
    kh = np.atleast_2d(np.asarray(nodes, dtype=float))
    kh = kh / np.linalg.norm(kh, axis=1, keepdims=True)
    seeds = np.eye(3)[np.argmin(np.abs(kh), axis=1)]
    e1 = seeds - np.sum(seeds * kh, axis=1, keepdims=True) * kh
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return e1, np.cross(kh, e1)


def plane_wave_table(nodes, omega: float, points):
    """Phi for all 4 (sigma, zeta) submodes of each direction node.

    nodes: (Q, 3) unit vectors; points: (P, 3).  Returns (Q, 4, P, 3)
    real array, submodes ordered (+,c), (+,s), (-,c), (-,s).
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    pts = np.atleast_2d(_as_points(points))
    e1, e2 = transverse_frames(nodes)
    phase = (pts @ nodes.T).T * omega                    # (Q, P)
    c, s = np.cos(phase), np.sin(phase)
    out = np.empty((len(nodes), 4, len(pts), 3))
    out[:, 0] = PHI_NORM * c[:, :, None] * e1[:, None, :]
    out[:, 1] = PHI_NORM * s[:, :, None] * e1[:, None, :]
    out[:, 2] = PHI_NORM * c[:, :, None] * e2[:, None, :]
    out[:, 3] = PHI_NORM * s[:, :, None] * e2[:, None, :]
    return out


def im_g0_spectral(x, y, omega: float, quad):
    """Im G0(x, y, omega) from the transverse shell spectrum.

    (pi omega / 2) * sum_nodes w * sum_{sigma,zeta} Phi(x) (x) Phi(y),
    the radial delta having been collapsed onto the shell |k| = omega
    with Jacobian omega^2 (c = 1).  Real symmetric; converges to the
    imaginary part of the closed form, and to omega/(6 pi) I at x = y.
    """
    if len(quad.nodes) == 0:
        raise ValueError("empty shell quadrature")
    phx = plane_wave_table(quad.nodes, omega, np.atleast_2d(_as_points(x)))[:, :, 0, :]
    phy = plane_wave_table(quad.nodes, omega, np.atleast_2d(_as_points(y)))[:, :, 0, :]
    acc = np.einsum("q,qma,qmb->ab", quad.weights, phx, phy)
    return 0.5 * np.pi * omega * acc


# ----------------------------------------------------------------------
# finite-difference checks
# ----------------------------------------------------------------------

_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_i, _j, _k] = 1.0
    _LEVI[_i, _k, _j] = -1.0


def fd_curl(field, r, h: float):
    """Columnwise curl of a matrix-valued field by central differences.

    field: callable point -> (3, m); returns (3, m) with
    (curl F)_i = eps_ijk d_j F_k applied to every column.
    """
    r = _as_points(r)
    grads = []
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        grads.append((np.asarray(field(r + step)) - np.asarray(field(r - step))) / (2.0 * h))
    dF = np.stack(grads)  # (j, k, m)
    return np.einsum("ijk,jkm->im", _LEVI, dF)


def fd_curl_curl(field, r, h: float):
    """Central-difference curl of curl (nested 2nd-order stencils)."""
    return fd_curl(lambda rr: fd_curl(field, rr, h), _as_points(r), h)


def sommerfeld_residual(far_point, src, omega: float, h: float | None = None,
                        green_fn=None) -> float:
    """Outgoing-radiation defect |r| * ||(curl - i omega rhat x) G(r, src)||_F.

    The curl acts columnwise by central differences with step h (default
    1e-3 / omega; h must stay below 0.05 / omega).  For an outgoing Green
    tensor the residual decays like 1/|r|; an incoming one leaves it O(1).
    """
    r = _as_points(far_point)
    src = _as_points(src)
    rn = float(np.linalg.norm(r))
    if h is None:
        h = 1e-3 / omega
    if not h < 0.05 / omega:
        raise ValueError("finite-difference step too large relative to the wavelength")
    if green_fn is None:
        green_fn = g0_closed
    field = lambda rr: green_fn(rr, src, omega)
    curl = fd_curl(field, r, h)
    rhat = r / rn
    rot = np.cross(rhat, np.asarray(field(r)).T).T  # rhat x each column
    return rn * float(np.linalg.norm(curl - 1j * omega * rot))
