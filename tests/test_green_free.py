import numpy as np
import pytest

from greenvox import (PlaneWaveMode, fd_curl, fd_curl_curl, g0_closed,
                      g0_longitudinal, im_g0_spectral, make_shell_quadrature,
                      phi_plane_wave, scalar_green, self_term, sommerfeld_residual)
from greenvox.green_free import PHI_NORM, self_term_scalar, transverse_frames
from greenvox.permittivity import principal_value_integral


def random_pair(rng, scale=1.0, min_sep=0.2):
    while True:
        r = rng.uniform(-scale, scale, 3)
        rp = rng.uniform(-scale, scale, 3)
        if np.linalg.norm(r - rp) > min_sep:
            return r, rp


# ----------------------------------------------------------------------
# scalar Green function
# ----------------------------------------------------------------------

def test_scalar_static_limit():
    r, rp = np.zeros(3), np.array([0.0, 0.0, 0.5])
    g = scalar_green(r, rp, 1e-9)
    assert g == pytest.approx(1.0 / (4 * np.pi * 0.5), rel=1e-8)


def test_scalar_phase_periodicity():
    R = 0.7
    w = 2 * np.pi / R
    g = scalar_green(np.zeros(3), np.array([R, 0, 0]), w)
    assert g.imag == pytest.approx(0.0, abs=1e-15)
    assert g.real == pytest.approx(1.0 / (4 * np.pi * R), rel=1e-12)


def test_scalar_reimplementation_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        r, rp = random_pair(rng)
        w = rng.uniform(0.3, 4.0)
        R = np.linalg.norm(r - rp)
        expected = (np.cos(w * R) + 1j * np.sin(w * R)) / (4 * np.pi * R)
        assert scalar_green(r, rp, w) == pytest.approx(expected, rel=1e-14)


def test_scalar_coincident_rejected():
    with pytest.raises(ValueError):
        scalar_green(np.ones(3), np.ones(3), 1.0)


# ----------------------------------------------------------------------
# closed-form dyadic
# ----------------------------------------------------------------------

def test_g0_symmetry_exact():
    rng = np.random.default_rng(43)
    for _ in range(10):
        r, rp = random_pair(rng)
        w = rng.uniform(0.3, 4.0)
        G = g0_closed(r, rp, w)
        assert np.array_equal(G, G.T)
        assert np.array_equal(G, g0_closed(rp, r, w))


def test_g0_action_on_rhat():
    """Radial action: G0 Rhat = (2/(kR)^2 - 2i/(kR)) g Rhat (transverse part cancels)."""
    r, rp = np.array([0.9, -0.2, 0.4]), np.array([0.1, 0.3, -0.3])
    w = 1.3
    R = np.linalg.norm(r - rp)
    rhat = (r - rp) / R
    g = scalar_green(r, rp, w)
    kR = w * R
    coeff = (2.0 / kR**2 - 2.0j / kR) * g
    assert np.allclose(g0_closed(r, rp, w) @ rhat, coeff * rhat, rtol=1e-13)


def test_g0_far_field_transverse():
    w = 1.0
    rp = np.zeros(3)
    r = 500.0 * np.array([0.6, 0.64, 0.48]) / np.linalg.norm([0.6, 0.64, 0.48])
    G = g0_closed(r, rp, w)
    rhat = r / np.linalg.norm(r)
    g = scalar_green(r, rp, w)
    lead = (np.eye(3) - np.outer(rhat, rhat)) * g
    assert np.linalg.norm(G - lead) < 5.0 / 500.0 * abs(g)


def test_g0_helmholtz_residual_fd():
    """(curl curl - w^2) G0 = 0 off-source, O(h^2) stencil error, 20 pairs.

    The truncation constant carries the near-field 1/R^4 growth of the
    4th derivatives, hence the (w h)^2 / R^4 scaling of the bound.
    """
    rng = np.random.default_rng(44)
    for _ in range(20):
        r, rp = random_pair(rng, min_sep=0.4)
        w = rng.uniform(0.5, 2.0)
        h = 1e-3 / w
        R = np.linalg.norm(r - rp)
        field = lambda rr: g0_closed(rr, rp, w)
        resid = fd_curl_curl(field, r, h) - w**2 * field(r)
        scale = w**2 * np.linalg.norm(field(r))
        bound = 200.0 * (w * h) ** 2 * max(1.0, 1.0 / (w * R) ** 4)
        assert np.linalg.norm(resid) / scale < bound


def test_g0_helmholtz_residual_is_second_order():
    r, rp = np.array([0.8, 0.1, -0.2]), np.array([0.0, -0.3, 0.4])
    w = 1.0
    field = lambda rr: g0_closed(rr, rp, w)

    def resid(h):
        return np.linalg.norm(fd_curl_curl(field, r, h) - w**2 * field(r))

    ratio = resid(2e-3) / resid(1e-3)
    assert 3.0 < ratio < 5.0


def test_g0_longitudinal_traceless_and_curl_free():
    rng = np.random.default_rng(45)
    for _ in range(5):
        r, rp = random_pair(rng, min_sep=0.4)
        w = rng.uniform(0.5, 2.0)
        L = g0_longitudinal(r, rp, w)
        assert abs(np.trace(L)) < 1e-14 * np.linalg.norm(L)
        curl = fd_curl(lambda rr: g0_longitudinal(rr, rp, w), r, 1e-3 / w)
        assert np.linalg.norm(curl) < 1e-4 * w * np.linalg.norm(L)


# ----------------------------------------------------------------------
# plane-wave modes
# ----------------------------------------------------------------------

def test_phi_sine_vanishes_at_origin():
    mode = PlaneWaveMode(k=(0.4, 0.2, 1.1), sigma=+1, zeta="s")
    assert np.array_equal(phi_plane_wave(mode, np.zeros(3)), np.zeros(3))


def test_phi_transverse():
    rng = np.random.default_rng(46)
    for _ in range(20):
        k = rng.uniform(-2, 2, 3)
        k[2] = abs(k[2]) + 0.1
        mode = PlaneWaveMode(k=tuple(k), sigma=int(rng.choice([1, -1])),
                             zeta=str(rng.choice(["c", "s"])))
        pt = rng.uniform(-3, 3, 3)
        assert abs(phi_plane_wave(mode, pt) @ k) < 1e-14


def test_phi_frame_orthonormal():
    rng = np.random.default_rng(47)
    for _ in range(20):
        kh = rng.normal(size=3)
        kh /= np.linalg.norm(kh)
        (e1,), (e2,) = transverse_frames(kh)
        M = np.stack([e1, e2, kh])
        assert np.allclose(M @ M.T, np.eye(3), atol=1e-14)


def test_polarization_is_the_plane_wave_at_the_origin():
    """A cosine mode at the origin is PHI_NORM times its polarization, for both sigma:
    the mode's frame is the one plane_wave_table builds."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        k = rng.uniform(-2, 2, 3)
        k[2] = abs(k[2])
        for sigma in (1, -1):
            mode = PlaneWaveMode(k=tuple(k), sigma=sigma, zeta="c")
            assert np.array_equal(phi_plane_wave(mode, np.zeros(3)), PHI_NORM * mode.polarization)


def test_phi_box_orthonormality():
    """Voxel-sum of Phi.Phi' over a commensurate box reproduces V/(2 pi)^3 delta."""
    L = 8 * np.pi
    dk = 2 * np.pi / L
    modes = [PlaneWaveMode(k=(2 * dk, 1 * dk, 3 * dk), sigma=s, zeta=z)
             for s in (+1, -1) for z in ("c", "s")]
    modes.append(PlaneWaveMode(k=(1 * dk, 2 * dk, 1 * dk), sigma=+1, zeta="c"))
    M = 16
    ax = (np.arange(M) + 0.5) * (L / M) - L / 2
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    dV = (L / M) ** 3
    V = L**3
    vals = [phi_plane_wave(m, pts) for m in modes]
    for i, vi in enumerate(vals):
        for j, vj in enumerate(vals):
            overlap = dV * np.sum(vi * vj)
            expected = V / (2 * np.pi) ** 3 if i == j else 0.0
            assert overlap == pytest.approx(expected, abs=1e-10 * V / (2 * np.pi) ** 3)


# ----------------------------------------------------------------------
# spectral representation of Im G0
# ----------------------------------------------------------------------

def test_im_g0_coincidence_limit():
    q = make_shell_quadrature(8, 16)
    x = np.array([0.3, -0.2, 0.5])
    for w in (0.5, 1.0, 2.7):
        M = im_g0_spectral(x, x, w, q)
        assert np.linalg.norm(M - w / (6 * np.pi) * np.eye(3)) < 1e-3 * w / (6 * np.pi)


def test_im_g0_matches_closed_form_at_separation():
    q = make_shell_quadrature(8, 16)  # 128 nodes >= 26
    w = 1.0
    x = np.array([0.1, 0.2, -0.3])
    y = x + np.array([0.8, -0.35, 0.45])   # |x-y| ~ 1/w
    spec = im_g0_spectral(x, y, w, q)
    closed = g0_closed(x, y, w).imag
    assert np.linalg.norm(spec - closed) < 1e-3 * np.linalg.norm(closed)


def test_im_g0_rotation_invariance():
    w = 1.2
    x = np.array([0.0, 0.1, 0.2])
    y = np.array([0.7, -0.2, 0.6])
    base = im_g0_spectral(x, y, w, make_shell_quadrature(8, 16))
    A = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    rot = im_g0_spectral(x, y, w, make_shell_quadrature(8, 16, rotation=A))
    assert np.linalg.norm(base - rot) < 1e-6 * np.linalg.norm(base)


def test_transverse_split_against_spectral_dispersion():
    """Re[G0 - G0_par] from the spectral Im via a dispersion (Hilbert) integral.

    Re G_perp(w) = (2/pi) PV int_0^Inf w' Im G_perp(w') / (w'^2 - w^2) dw',
    truncated at Omega and averaged over one oscillation period of the
    tail to suppress the truncation ringing.  Coarse 1e-2 check.
    """
    w = 1.1
    x = np.array([0.2, -0.1, 0.3])
    y = np.array([0.9, 0.5, -0.4])
    R = float(np.linalg.norm(x - y))

    quads = {}

    def quad_for(wp):
        # shell oscillation scale is wp*R; grow the rule with it
        nt = int(np.ceil(0.6 * wp * R)) + 6
        if nt not in quads:
            quads[nt] = make_shell_quadrature(nt, 2 * nt)
        return quads[nt]

    cache = {}

    def im_gperp(wp):
        out = cache.get(wp)
        if out is None:
            out = im_g0_spectral(x, y, wp, quad_for(wp))
            cache[wp] = out
        return out

    def entry_integrand(i, j):
        def f(nu):
            nu = np.atleast_1d(nu)
            vals = np.array([n * im_gperp(float(n))[i, j] for n in nu])
            return vals / (nu**2 - w**2)
        return f

    period = 2 * np.pi / R
    omega_max0 = 20.0 / R
    recon = np.zeros((3, 3))
    n_avg = 8
    for j_avg in range(n_avg):
        omega_max = omega_max0 + j_avg * period / n_avg
        breaks = np.concatenate([[0.0], np.arange(2.0, omega_max, 2.0), [omega_max]])
        for i in range(3):
            for j in range(i, 3):
                val = principal_value_integral(entry_integrand(i, j), w, breaks,
                                               n_nodes=24, delta=0.3)
                recon[i, j] += (2 / np.pi) * val.real / n_avg
    recon = recon + np.triu(recon, 1).T

    target = g0_closed(x, y, w).real - g0_longitudinal(x, y, w).real
    assert np.linalg.norm(recon - target) < 1e-2 * np.linalg.norm(target)


# ----------------------------------------------------------------------
# self term
# ----------------------------------------------------------------------

def test_self_term_small_radius_expansion():
    """M = -1/(3 w^2) + a^2/3 + 2i w a^3/9 + O(a^4): the delta term, then the
    principal-volume integral, each part resolved on its own."""
    w = 1.3
    vol = 4 * np.pi / 3 * (1e-3) ** 3
    a = 1e-3
    M = self_term_scalar(vol, w)
    assert M.real + 1 / (3 * w**2) == pytest.approx(a**2 / 3, rel=1e-5)
    assert M.imag == pytest.approx(2 * w * a**3 / 9, rel=1e-5)


def test_self_term_static_limit():
    """As w -> 0, Re M -> a^2/3 - 1/(3 w^2) and Im M vanishes like 2 w a^3/9; at
    w = 3e-4 the a^2/3 part still resolves beside the delta term in float64."""
    a, w = 0.2, 3e-4
    vol = 4 * np.pi / 3 * a**3
    M = self_term_scalar(vol, w)
    assert M.real + 1 / (3 * w**2) == pytest.approx(a**2 / 3, rel=1e-6)
    assert M.imag == pytest.approx(2 * w * a**3 / 9, rel=1e-6)


def test_self_term_positive_imaginary_part():
    # radiative self-reaction; holds throughout the voxel regime ka <~ 2
    w = 1.0
    for a in np.linspace(1e-3, 2.0, 60):
        vol = 4 * np.pi / 3 * a**3
        assert self_term_scalar(vol, w).imag > 0.0


def test_self_term_is_isotropic():
    M = self_term(0.2**3, 1.1)
    assert np.array_equal(M, M[0, 0] * np.eye(3))


def test_self_term_rejects_nonpositive_volume():
    with pytest.raises(ValueError):
        self_term(0.0, 1.0)


# ----------------------------------------------------------------------
# Sommerfeld condition
# ----------------------------------------------------------------------

def test_sommerfeld_residual_decays_for_outgoing():
    w = 1.0
    src = np.array([0.2, 0.1, -0.1])
    direction = np.array([1.0, 0.3, 0.2])
    direction /= np.linalg.norm(direction)
    near = sommerfeld_residual(10.0 / w * direction, src, w)
    far = sommerfeld_residual(40.0 / w * direction, src, w)
    assert far < near / 4.0


def test_sommerfeld_incoming_wave_violates():
    w = 1.0
    src = np.array([0.2, 0.1, -0.1])
    direction = np.array([1.0, 0.3, 0.2])
    direction /= np.linalg.norm(direction)
    incoming = lambda r, s, ww: np.conj(g0_closed(r, s, ww))
    near = sommerfeld_residual(10.0 / w * direction, src, w, green_fn=incoming)
    far = sommerfeld_residual(40.0 / w * direction, src, w, green_fn=incoming)
    # non-decaying: stays the same order instead of dropping ~4x
    assert far > 0.5 * near
    assert far > 20.0 * sommerfeld_residual(40.0 / w * direction, src, w)


def test_sommerfeld_transverse_projection_same_bound():
    w = 1.0
    src = np.array([0.1, -0.2, 0.15])
    direction = np.array([0.8, -0.4, 0.45])
    direction /= np.linalg.norm(direction)

    def projected(r, s, ww):
        rhat = r / np.linalg.norm(r)
        return (np.eye(3) - np.outer(rhat, rhat)) @ g0_closed(r, s, ww)

    near = sommerfeld_residual(10.0 / w * direction, src, w, green_fn=projected)
    far = sommerfeld_residual(40.0 / w * direction, src, w, green_fn=projected)
    assert far < near / 3.0


def test_sommerfeld_step_guard():
    with pytest.raises(ValueError):
        sommerfeld_residual(np.array([10.0, 0, 0]), np.zeros(3), 1.0, h=0.2)


def test_plane_wave_table_matches_single_mode_path():
    """The batched table and the per-mode constructor share normalization,
    frame rule and submode ordering."""
    from greenvox.green_free import plane_wave_table

    rng = np.random.default_rng(77)
    nodes = rng.normal(size=(6, 3))
    nodes[:, 2] = np.abs(nodes[:, 2])
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    pts = rng.uniform(-1.5, 1.5, (4, 3))
    w = 1.3
    table = plane_wave_table(nodes, w, pts)
    order = [(+1, "c"), (+1, "s"), (-1, "c"), (-1, "s")]
    for q, kh in enumerate(nodes):
        for m, (sigma, zeta) in enumerate(order):
            mode = PlaneWaveMode(k=tuple(w * kh), sigma=sigma, zeta=zeta)
            assert np.allclose(table[q, m], phi_plane_wave(mode, pts),
                               rtol=1e-14, atol=1e-15)


def test_im_g0_is_smooth_through_coincidence():
    """Im G0 from the spherical Bessel form: the closed form's imaginary part where that
    does not cancel, omega/(6 pi) I at zero displacement, and continuous across the
    switch from the Taylor series (omega R < 1) to the closed form."""
    from greenvox.green_free import g0_from_displacements, im_g0_from_displacements

    w = 1.3
    rng = np.random.default_rng(4)
    unit = rng.normal(size=(50, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    # the closed form itself cancels to about 1e-13 at omega R = 0.5
    for R, bound in ((0.5 / w, 1e-13), (1.0 / w, 1e-14), (2.0, 1e-14), (9.0, 1e-14)):
        d = R * unit
        ref = g0_from_displacements(d, w).imag
        assert np.max(np.abs(im_g0_from_displacements(d, w) - ref)) <= bound * w
    assert np.allclose(im_g0_from_displacements(np.zeros((2, 3)), w),
                       w / (6 * np.pi) * np.eye(3), rtol=1e-15, atol=0)
    below, above = (im_g0_from_displacements(unit[0] * (1 + s) / w, w) for s in (-1e-15, 1e-15))
    assert np.max(np.abs(below - above)) <= 1e-15 * w
    tiny = im_g0_from_displacements(1e-9 * unit, w)
    assert np.max(np.abs(tiny - w / (6 * np.pi) * np.eye(3))) <= 1e-16


def test_g0_imaginary_part_is_the_series_at_small_omega_r():
    """Below omega R = 1 the closed form's Im G0 cancels (2e-10 relative at
    omega R = 1.3e-3); g0_from_displacements takes it from the series there."""
    from greenvox.green_free import g0_from_displacements, im_g0_from_displacements

    w = 1.3
    rng = np.random.default_rng(9)
    unit = rng.normal(size=(40, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    d = np.geomspace(1e-3, 1.0, len(unit))[:, None] / w * unit
    expected = im_g0_from_displacements(d, w)
    got = g0_from_displacements(d, w).imag
    assert np.max(np.abs(got - expected) / np.abs(expected).max(axis=(1, 2))[:, None, None]) <= 1e-15
    single = g0_from_displacements(d[0], w)
    assert single.shape == (3, 3) and np.array_equal(single.imag, expected[0])
