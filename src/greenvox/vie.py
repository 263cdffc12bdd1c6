"""Volume integral equation for the medium dyadic Green tensor.

The medium Green tensor obeys a Fredholm equation of the second kind,

    G(r, y) = G0(r, y) + int_V G0(r, z) beta(z) G(z, y) d^3z,
    beta(z) = omega^2 (eps(z, omega) - 1),

discretized by collocation on the voxel grid with piecewise-constant
fields (the weak form of the coupled-dipole method).  The discrete
kernel K has blocks dV * G0(z_i, z_j) off the diagonal and the
volume-equivalent-sphere self term M(a) I on it, so the linear system is

    (I - K diag(beta)) X = G0(. , y)|_V,

followed by the same equation used as an evaluation formula anywhere:
G(x, y) = G0(x, y) + sum_j dV G0(x, z_j) beta_j X_j.  With a symmetric
kernel and diagonal beta this discrete algebra reproduces reciprocity
and the Dyson permutation identity exactly (to solver tolerance), which
is what the identity tests lean on.

A dense LU path (with iterative refinement) covers systems up to
3N = 3000 unknowns; restarted GMRES with a diagonal preconditioner and a
chunked matrix-free product covers larger ones and cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, gmres

from .geometry import VoxelGrid, eps_on_grid
from .green_free import g0_closed, g0_from_displacements, self_term_scalar

#: largest system solved by dense LU in the "auto" policy
DENSE_LU_LIMIT = 3000


class SolverError(RuntimeError):
    pass


class DenseCapError(MemoryError):
    pass


def _g0_block_rows(centers, rows, omega: float, voxel_volume: float):
    """Kernel block rows K[rows, :] as (len(rows), N, 3, 3).

    K_ij = dV G0(z_i, z_j) for i != j, K_ii = self_term dyadic.
    """
    disp = centers[rows][:, None, :] - centers[None, :, :]
    self_mask = np.all(disp == 0.0, axis=-1)
    disp[self_mask] = 1.0  # placeholder, overwritten below
    blocks = voxel_volume * g0_from_displacements(disp, omega)
    blocks[self_mask] = self_term_scalar(voxel_volume, omega) * np.eye(3)
    return blocks


@dataclass
class InteractionOperator:
    """Discretized Fredholm operator p -> p - K diag(beta) p.

    kernel holds the dense 3N x 3N matrix of dV*G0 blocks (self term on
    the diagonal) or None for the matrix-free representation, in which
    case block rows are rebuilt on the fly in chunks.
    """

    grid: VoxelGrid
    omega: float
    beta: np.ndarray
    kernel: np.ndarray | None
    _lu: tuple | None = field(default=None, repr=False)

    @property
    def n3(self) -> int:
        return 3 * self.grid.n

    @property
    def beta_rep(self):
        return np.repeat(self.beta, 3)

    def apply(self, p):
        """Operator action on (3N,) or (3N, m) arrays."""
        p = np.asarray(p, dtype=complex)
        scaled = self.beta_rep[:, None] * p.reshape(self.n3, -1)
        if self.kernel is not None:
            out = p.reshape(self.n3, -1) - self.kernel @ scaled
            return out.reshape(p.shape)
        out = p.reshape(self.n3, -1).copy()
        n = self.grid.n
        chunk = max(1, min(n, 500_000 // max(n, 1)))
        for start in range(0, n, chunk):
            rows = np.arange(start, min(start + chunk, n))
            blocks = _g0_block_rows(self.grid.centers, rows, self.omega, self.grid.voxel_volume)
            flat = blocks.transpose(0, 2, 1, 3).reshape(3 * len(rows), self.n3)
            out[3 * rows[0]: 3 * (rows[-1] + 1)] -= flat @ scaled
        return out.reshape(p.shape)

    def dense_matrix(self):
        """A = I - K diag(beta) as a dense array (kernel path only)."""
        if self.kernel is None:
            raise SolverError("dense matrix requested from a matrix-free operator")
        A = -self.kernel * self.beta_rep[None, :]
        A[np.diag_indices_from(A)] += 1.0
        return A

    def lu(self):
        if self._lu is None:
            try:
                self._lu = lu_factor(self.dense_matrix(), overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - needs Im eps <= 0
                raise SolverError(
                    "operator is singular: the model must be strictly absorbing (Im eps > 0)"
                ) from exc
        return self._lu


def assemble(grid: VoxelGrid, materials, omega: float, *, dense: bool = True,
             dense_cap: int = 1000) -> InteractionOperator:
    """Build the discrete Fredholm operator for the grid at frequency omega.

    materials is either a mapping region_id -> PermittivityModel or a
    precomputed per-voxel beta array.  dense=False skips kernel storage
    and leaves a matrix-free operator for the iterative path.
    """
    if grid.n == 0:
        raise SolverError("empty grid")
    if not omega > 0.0:
        raise ValueError("assemble requires omega > 0")
    if isinstance(materials, Mapping):
        _, beta = eps_on_grid(grid, materials, omega)
    else:
        beta = np.asarray(materials, dtype=complex).reshape(grid.n)

    kernel = None
    if dense:
        if grid.n > dense_cap:
            raise DenseCapError(
                f"dense kernel for N={grid.n} voxels exceeds the configured cap "
                f"({dense_cap}); assemble with dense=False for the iterative path")
        n3 = 3 * grid.n
        kernel = np.empty((n3, n3), dtype=complex)
        chunk = max(1, min(grid.n, 500_000 // max(grid.n, 1)))
        for start in range(0, grid.n, chunk):
            rows = np.arange(start, min(start + chunk, grid.n))
            blocks = _g0_block_rows(grid.centers, rows, omega, grid.voxel_volume)
            kernel[3 * rows[0]: 3 * (rows[-1] + 1)] = \
                blocks.transpose(0, 2, 1, 3).reshape(3 * len(rows), n3)
    return InteractionOperator(grid=grid, omega=omega, beta=beta, kernel=kernel)


def solve_system(op: InteractionOperator, rhs, tol: float = 1e-10, method: str = "auto"):
    """Solve (I - K diag(beta)) x = rhs to ||op x - rhs|| <= tol ||rhs||.

    rhs: (3N,) or (3N, m).  method "dense" uses LU plus iterative
    refinement, "gmres" a restarted Krylov solve with diagonal
    preconditioning; "auto" picks dense when the kernel is stored and
    3N <= DENSE_LU_LIMIT.
    """
    if not tol > 0.0:
        raise ValueError("solver tolerance must be positive")
    rhs = np.asarray(rhs, dtype=complex)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side contains non-finite entries")
    b = rhs.reshape(op.n3, -1)
    rhs_norm = np.linalg.norm(b)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)

    if method == "auto":
        method = "dense" if (op.kernel is not None and op.n3 <= DENSE_LU_LIMIT) else "gmres"

    if method == "dense":
        x = lu_solve(op.lu(), b, check_finite=False)
        for _ in range(3):
            resid = b - op.apply(x)
            if np.linalg.norm(resid) <= tol * rhs_norm:
                break
            x += lu_solve(op.lu(), resid, check_finite=False)
        achieved = np.linalg.norm(b - op.apply(x)) / rhs_norm
        if not np.isfinite(achieved) or achieved > tol:
            raise SolverError(f"dense solve stalled at residual {achieved:.3e} (target {tol:.1e})")
        return x.reshape(rhs.shape)

    if method != "gmres":
        raise ValueError(f"unknown solve method {method!r}")
    lin = LinearOperator((op.n3, op.n3), matvec=lambda v: op.apply(v), dtype=complex)
    pre_diag = np.repeat(1.0 - self_term_scalar(op.grid.voxel_volume, op.omega) * op.beta, 3)
    precond = LinearOperator((op.n3, op.n3), matvec=lambda v: v / pre_diag, dtype=complex)
    x = np.empty_like(b)
    for j in range(b.shape[1]):
        xj, info = gmres(lin, b[:, j], x0=b[:, j], rtol=tol * 0.1, atol=0.0,
                         restart=80, maxiter=400, M=precond)
        achieved = np.linalg.norm(b[:, j] - op.apply(xj)) / np.linalg.norm(b[:, j])
        if info != 0 or not np.isfinite(achieved) or achieved > tol:
            raise SolverError(
                f"GMRES failed to converge on column {j}: achieved residual "
                f"{achieved:.3e} (target {tol:.1e}, info={info})")
        x[:, j] = xj
    return x.reshape(rhs.shape)


class MediumSolver:
    """One assembled operator (and factorization) shared across sources.

    All Green-tensor, field-coefficient and LDOS computations at a fixed
    frequency go through this object so the LU factorization is reused.
    """

    def __init__(self, grid: VoxelGrid, materials, omega: float, tol: float = 1e-10,
                 method: str = "auto", dense_cap: int = 1000):
        self.grid = grid
        self.materials = materials if isinstance(materials, Mapping) else None
        self.omega = float(omega)
        self.tol = float(tol)
        self.method = method
        if isinstance(materials, Mapping):
            self.eps, self.beta = eps_on_grid(grid, materials, omega)
        else:
            self.beta = np.asarray(materials, dtype=complex).reshape(grid.n)
            self.eps = 1.0 + self.beta / omega**2
        dense = not (method == "gmres")
        self.op = assemble(grid, self.beta, omega, dense=dense, dense_cap=dense_cap)

    def solve(self, rhs):
        return solve_system(self.op, rhs, self.tol, self.method)

    # -- geometry-aware kernel pieces -----------------------------------
    def g0_blocks_at(self, point):
        """G0(point, z_j) blocks (N, 3, 3); self block M/dV if point is a center."""
        point = np.asarray(point, dtype=float)
        idx = self.grid.index_of(point)
        disp = point[None, :] - self.grid.centers
        if idx is not None:
            disp[idx] = 1.0
        blocks = g0_from_displacements(disp, self.omega)
        if idx is not None:
            blocks[idx] = (self_term_scalar(self.grid.voxel_volume, self.omega)
                           / self.grid.voxel_volume) * np.eye(3)
        return blocks

    def source_columns(self, y):
        """Right-hand side G0(z_i, y) n_j restricted to the grid, (3N, 3)."""
        return self.g0_blocks_at(y).reshape(self.op.n3, 3)

    def grid_fields(self, y):
        """Solved on-grid Green columns X_i = G(z_i, y), shape (N, 3, 3)."""
        return self.solve(self.source_columns(y)).reshape(self.grid.n, 3, 3)

    def scattered_at(self, x, grid_values):
        """sum_j dV G0(x, z_j) beta_j V_j for on-grid values V (N, 3, m)."""
        blocks = self.g0_blocks_at(x)
        V = np.asarray(grid_values).reshape(self.grid.n, 3, -1)
        out = self.grid.voxel_volume * np.einsum(
            "j,jab,jbm->am", self.beta, blocks, V)
        return out

    def green(self, x, y, grid_values=None):
        """Medium Green tensor G(x, y) via solve-then-evaluate."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.array_equal(x, y):
            raise ValueError("coincident arguments: use im_green_at for Im G(x, x)")
        if grid_values is None:
            grid_values = self.grid_fields(y)
        ix = self.grid.index_of(x)
        if ix is not None:
            return np.asarray(grid_values).reshape(self.grid.n, 3, 3)[ix]
        return g0_closed(x, y, self.omega) + self.scattered_at(x, grid_values)


def as_solver(grid, materials, omega: float, tol: float = 1e-10) -> MediumSolver:
    """The solver passed in place of the grid (its own omega applies), else a new one."""
    if isinstance(grid, MediumSolver):
        return grid
    return MediumSolver(grid, materials, omega, tol)


def green_medium(grid: VoxelGrid, materials, omega: float, x, y, tol: float = 1e-10):
    """Medium dyadic Green tensor G(x, y, omega) for a one-off evaluation."""
    return MediumSolver(grid, materials, omega, tol).green(x, y)


def dyson_residual(grid, materials, omega: float, x, y, tol: float = 1e-10) -> float:
    """Defect of the permutation identity int beta G0 G = int beta G G0 = G - G0.

    Exact in the discrete algebra, so the returned max Frobenius defect
    is bounded by solver tolerance, independent of voxel resolution.
    """
    ms = as_solver(grid, materials, omega, tol)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Xy = ms.grid_fields(y)
    Xx = ms.grid_fields(x)
    G = ms.green(x, y, Xy)
    diff = G - g0_closed(x, y, ms.omega)
    # int beta G0(x,z) G(z,y): the evaluation route itself
    i1 = ms.scattered_at(x, Xy)
    # int beta G(x,z) G0(z,y): G(x,z) = X(x)_z^T by reciprocity
    g0_zy = g0_from_displacements(ms.grid.centers - y, ms.omega)
    i2 = ms.grid.voxel_volume * np.einsum(
        "j,jba,jbc->ac", ms.beta, Xx, g0_zy)
    return float(max(np.linalg.norm(diff - i1), np.linalg.norm(diff - i2)))
