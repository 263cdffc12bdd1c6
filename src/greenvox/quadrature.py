"""Direction quadrature on the upper half of the unit sphere.

The electromagnetic continuum integrals carry a radial delta that is
always collapsed analytically onto the shell |k| = omega (Jacobian
omega^2 in natural units); what remains is a smooth integral over the
half sphere k_z >= 0, performed with a Gauss-Legendre rule in cos(theta)
crossed with a uniform midpoint rule in phi.  Weights sum to 2 pi, the
half-sphere solid angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import _repeats_a_row


@dataclass(frozen=True)
class SphereQuadrature:
    """Direction nodes/weights realizing the half-shell measure."""

    nodes: np.ndarray        # (Q, 3) unit vectors
    weights: np.ndarray      # (Q,) positive, sum 2 pi
    n_theta: int
    n_phi: int
    rotated: bool = field(default=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if len(nodes) == 0 or len(nodes) != len(weights):
            raise ValueError("quadrature needs matching, nonempty nodes and weights")
        if abs(weights.sum() - 2.0 * np.pi) > 1e-12:
            raise ValueError("weights must sum to 2 pi (half-sphere measure)")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if _repeats_a_row(np.round(nodes, 14)):
            raise ValueError("duplicate quadrature nodes")
        if not self.rotated and np.any(nodes[:, 2] < -1e-14):
            raise ValueError("nodes must lie on the upper half sphere")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.nodes)

    def refine(self, factor: int = 2) -> "SphereQuadrature":
        return make_shell_quadrature(1.0, self.n_theta * factor, self.n_phi * factor)


def make_shell_quadrature(omega: float, n_theta: int = 8, n_phi: int = 16,
                          rotation=None) -> SphereQuadrature:
    """Product Gauss-Legendre(cos theta) x uniform(phi) rule on k_z >= 0.

    omega only labels the shell the rule will be used on (nodes are
    direction vectors; the omega^2 shell factor is applied at use).  An
    optional 3x3 rotation reorients the node set; shell integrals of
    parity-even integrands are unchanged by any rotation.
    """
    if not omega > 0.0:
        raise ValueError("shell frequency must be positive")
    if n_theta < 2 or n_phi < 2:
        raise ValueError("quadrature orders must be at least 2")
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    mu = 0.5 * (mu + 1.0)          # cos(theta) on (0, 1)
    wmu = 0.5 * wmu
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    MU, PH = np.meshgrid(mu, phi, indexing="ij")
    sin_t = np.sqrt(1.0 - MU**2)
    nodes = np.stack([sin_t * np.cos(PH), sin_t * np.sin(PH), MU], axis=-1).reshape(-1, 3)
    weights = np.broadcast_to(wmu[:, None] * (2.0 * np.pi / n_phi), MU.shape).reshape(-1).copy()
    rotated = False
    if rotation is not None:
        Rm = np.asarray(rotation, dtype=float)
        if Rm.shape != (3, 3) or abs(abs(np.linalg.det(Rm)) - 1.0) > 1e-10:
            raise ValueError("rotation must be an orthogonal 3x3 matrix")
        nodes = nodes @ Rm.T
        rotated = True
    return SphereQuadrature(nodes=nodes, weights=weights, n_theta=n_theta,
                            n_phi=n_phi, rotated=rotated)
