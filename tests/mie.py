"""Mie-theory Purcell factors of a dipole outside a homogeneous sphere (test oracle).

A dipole at distance r from the center of a sphere of radius a and
permittivity eps, in vacuum at frequency omega (k = omega), decays at

    radial:     1 - (3/2) Re sum_n n(n+1)(2n+1) a_n [h_n(kr)/(kr)]^2
    tangential: 1 - (3/4) Re sum_n (2n+1) (a_n [xi_n'(kr)/(kr)]^2 + b_n h_n(kr)^2)

times the vacuum rate (Chew, J. Chem. Phys. 87, 1355 (1987)), with the
Bohren-Huffman scattering coefficients a_n, b_n of the sphere,
h_n = j_n + i y_n and xi_n(z) = z h_n(z).  The n = 1 term reduces to the
quasi-static image dipole of polarizability 4 pi a^3 (eps - 1)/(eps + 2)
(Ruppin, J. Chem. Phys. 76, 1681 (1982)).  Independent of the engine:
only scipy's spherical Bessel functions.
"""

import numpy as np
from scipy.special import spherical_jn, spherical_yn


def _psi(n, z, derivative=False):
    """Riccati-Bessel psi_n(z) = z j_n(z), or its derivative."""
    if derivative:
        return spherical_jn(n, z) + z * spherical_jn(n, z, derivative=True)
    return z * spherical_jn(n, z)


def _h(n, z, derivative=False):
    return spherical_jn(n, z, derivative) + 1j * spherical_yn(n, z, derivative)


def _xi(n, z, derivative=False):
    """Riccati-Hankel xi_n(z) = z h_n(z), or its derivative."""
    if derivative:
        return _h(n, z) + z * _h(n, z, derivative=True)
    return z * _h(n, z)


def purcell_mie(eps: complex, radius: float, r: float, omega: float, n_max: int = 60):
    """(radial, tangential) Purcell factors at distance r > radius from the center."""
    n = np.arange(1, n_max + 1)
    m, x, rho = np.sqrt(complex(eps)), omega * radius, omega * r
    psi_x, dpsi_x = _psi(n, x), _psi(n, x, True)
    psi_mx, dpsi_mx = _psi(n, m * x), _psi(n, m * x, True)
    xi_x, dxi_x = _xi(n, x), _xi(n, x, True)
    a = (m * psi_mx * dpsi_x - psi_x * dpsi_mx) / (m * psi_mx * dxi_x - xi_x * dpsi_mx)
    b = (psi_mx * dpsi_x - m * psi_x * dpsi_mx) / (psi_mx * dxi_x - m * xi_x * dpsi_mx)
    h = _h(n, rho)
    radial = 1.0 - 1.5 * np.sum(n * (n + 1) * (2 * n + 1) * a * (h / rho) ** 2).real
    tangential = 1.0 - 0.75 * np.sum(
        (2 * n + 1) * (a * (_xi(n, rho, True) / rho) ** 2 + b * h**2)).real
    return float(radial), float(tangential)
