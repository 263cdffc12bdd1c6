"""The LDOS shell integral kappa by quadrature of the shell e-fields (test reference).

    kappa(x, y) = (pi/(2 w)) sum_shell w_q sum_{sigma,zeta} e(x) (x) e*(y)

with e from the Green route (ldos._e_fields_on_shell) over the nodes of
a SphereQuadrature, read from the solver's Green columns at x and y.
The engine computes kappa in closed form from Im G0; this quadrature
converges to it as the shell is refined and is exact in vacuum, so the
tests hold the closed form against it.
"""

import numpy as np

from greenvox.ldos import _e_fields_on_shell


def kappa_by_quadrature(solver, x, y, quad):
    """kappa(x, y) at solver.omega from the shell quadrature quad, (3, 3) complex."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    points = [x] if np.array_equal(x, y) else [x, y]
    e_xy = _e_fields_on_shell(solver, quad.nodes, points, solver.grid_fields(np.stack(points)))
    # (pi c^2 / 2 w^3) with the shell Jacobian w^2/c^3 gives pi/(2 w) at c = 1
    return (0.5 * np.pi / solver.omega) * np.einsum(
        "m,am,bm->ab", np.repeat(quad.weights, 4), e_xy[0], e_xy[-1].conj())


def relative_residuals(ident, kappa):
    """(absorption, m) form residuals of an LdosIdentityResult with kappa in place of its own."""
    return tuple(float(np.linalg.norm(ident.im_green - kappa - term)) / ident.scale
                 for term in (ident.absorption_term, ident.m_term))
