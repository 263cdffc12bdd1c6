import numpy as np
import pytest

from greenvox import SphereQuadrature, im_g0_spectral, make_shell_quadrature


def test_weights_sum_to_half_sphere():
    for nt, nphi in ((2, 4), (4, 8), (8, 16), (16, 32)):
        q = make_shell_quadrature(nt, nphi)
        assert abs(q.weights.sum() - 2 * np.pi) < 1e-12
        assert np.all(q.nodes[:, 2] >= 0.0)
        assert np.allclose(np.linalg.norm(q.nodes, axis=1), 1.0, atol=1e-14)


def test_transverse_projector_integral():
    q = make_shell_quadrature(4, 8)
    proj = np.einsum("q,qa,qb->ab", q.weights, q.nodes, q.nodes)
    integral = 2 * np.pi * np.eye(3) - proj  # int (I - khat khat) dOmega
    assert np.allclose(integral, 4 * np.pi / 3 * np.eye(3), atol=1e-12)


def test_refinement_halves_spectral_error():
    w = 1.0
    x = np.zeros(3)
    y = np.array([2.5, 1.1, -0.7])  # k|x-y| ~ 2.9: visible quadrature error
    from greenvox import g0_closed

    exact = g0_closed(x, y, w).imag
    q = make_shell_quadrature(2, 4)
    errs = []
    for _ in range(3):
        errs.append(np.linalg.norm(im_g0_spectral(x, y, w, q) - exact))
        q = q.refine(2)
    assert errs[1] <= errs[0] / 2
    assert errs[2] <= errs[1] / 2 or errs[2] < 1e-14


def test_degenerate_orders_rejected():
    with pytest.raises(ValueError):
        make_shell_quadrature(1, 8)
    with pytest.raises(ValueError):
        make_shell_quadrature(4, 1)


def test_quadrature_invariants_enforced():
    q = make_shell_quadrature(4, 8)
    with pytest.raises(ValueError, match="2 pi"):
        SphereQuadrature(nodes=q.nodes, weights=q.weights * 1.001,
                         n_theta=4, n_phi=8)
    dup_w = np.concatenate([[q.weights[0] / 2], q.weights])
    dup_w[1] = q.weights[0] / 2  # keep the 2 pi sum
    with pytest.raises(ValueError, match="duplicate"):
        SphereQuadrature(nodes=np.vstack([q.nodes[:1], q.nodes]), weights=dup_w,
                         n_theta=4, n_phi=8)


def test_rotation_requires_orthogonal():
    with pytest.raises(ValueError, match="orthogonal"):
        make_shell_quadrature(4, 8, rotation=np.diag([2.0, 1.0, 1.0]))
