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
G(x, y) = G0(x, y) + sum_j dV G0(x, z_j) beta_j X_j, where a point inside
voxel j takes the self term M/dV in place of G0(x, z_j).  The e and m
field coefficients solve the same system with other inhomogeneities, so
MediumSolver.evaluate is the one evaluation formula of all three.  With
a symmetric kernel and diagonal beta this discrete algebra reproduces
reciprocity and the Dyson permutation identity exactly (to solver
tolerance), which is what the identity tests lean on.

Every grid lies on a cubic lattice, so K_ij depends only on the offset
z_i - z_j, and the kernel is built once, as the table of its 3x3 blocks
over the lattice offsets, evaluated at |offsets| and reflected: an axis
mirror S gives G0(S r) = S G0(r) S.  The same symmetry stores the dense
kernel per parity sector: the lattice mirrors i -> n_a - 1 - i that map
the voxels and beta exactly onto themselves (geometry.ParityBasis)
commute with K, so K and A = I - K diag(beta) are block diagonal in
their parity basis, with up to eight blocks of about 3N/8
(symmetry-adapted block diagonalization; Bossavit, Comput. Methods Appl.
Mech. Eng. 56, 167 (1986)).  The lattice axis permutations that map the
voxels and beta onto themselves (VoxelGrid.permutations) commute with K
too and carry parity sectors onto each other with their coordinates
renamed (induced representations; Fassler & Stiefel, Group Theoretical
Methods and Their Applications, Birkhauser (1992)): on a cube-symmetric
body sectors 1, 2, 4 and sectors 3, 5, 6 are copies.  Both are found
from beta in one place, VoxelGrid.parity_basis.  So one block is
stored and factored per class of sectors, folded from the kernel rows of
the orbit representatives alone, a few MiB at a time, into 16 sum_c
d_c^2 bytes; a body with no mirror and no permutation has one block, K.
Every product K q, the solver's own residuals included, and every LU
solve is one call per class, on the coordinates of all its sectors.
A is solved by mixed-precision LU: each block is factored once in
complex64 (complex128 when ||A||_inf + 2, which bounds every block
entry, reaches the float32 range), and each solve is refined in
complex128 until every column has a backward error of one float64
epsilon (the method of LAPACK zcgesv; Buttari et al., ACM TOMS 34(4), 17
(2008)); an operator too ill-conditioned for that is refactored once in
complex128.
The matrix-free kernel is the FFT of the table embedded in a circulant
of twice the lattice extent per axis, so K p is a 3x3 block product
between two FFTs (O(N log N); Goodman, Draine & Flatau, Opt. Lett. 16,
1198 (1991)).  The FFTs are pruned (Markel, IEEE Trans. Audio
Electroacoust. 19, 305 (1971)): p lives in the body box, one eighth of
the circulant, so the forward transform runs one axis at a time over the
lines that can be nonzero, and the inverse keeps only the body box after
each axis.  The table is C-contiguous, so its spectrum is too, and the
block product is nine in-place products summed into one contiguous
output that the inverse FFTs read.  The lattice operator is solved by
restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856
(1986)), left-preconditioned by the diagonal of I - K diag(beta), from
x0 = rhs: 80 Krylov vectors per cycle, orthogonalized by two passes of
classical Gram-Schmidt, at most 400 cycles, until the true residual
formed after a cycle is at most tol/10 of the right-hand side, or a
breakdown.  That residual is the one recorded, so no further operator
application checks it.  MediumSolver, built from the mapping of region
id to permittivity model, is the one place that picks the representation
(method and dense_cap); assemble builds the one it is asked for from the
per-voxel beta, and the solve follows it.  With beta = 0 the operator is
the identity and nothing is assembled or solved.

One MediumSolver per frequency is the medium: it is the first argument
of every function that evaluates the Green tensor, here and in ldos and
modes, which work at solver.omega and take no materials or tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, solve_triangular

from .geometry import VoxelGrid, eps_on_grid
from .green_free import g0_closed, g0_from_displacements, self_term_scalar


#: solved sources (and solved plane-wave modes) a MediumSolver keeps, least recently used
#: dropped first (validate revisits five sources)
_FIELDS_KEPT = 8

#: refinement steps on one set of LU factors before giving up on them (zcgesv's ITERMAX)
_REFINE_STEPS = 30

#: bytes of kernel rows assemble folds at a time (the 257-voxel sphere's 3.4 MB in one)
_ROWS_CHUNK_BYTES = 7 << 19

#: GMRES Krylov vectors per restart cycle, and restart cycles per column
_RESTART = 80
_CYCLES = 400


class SolverError(RuntimeError):
    pass


def _kernel_table(grid: VoxelGrid, omega: float, axes):
    """Kernel blocks over the offsets axes[0] x axes[1] x axes[2], (3, 3, *lengths).

    Offsets are in lattice steps: dV*G0 at a nonzero offset, the self
    term at 0, which every axis holds.  G0 is evaluated at |o| only:
    G0(o) = S G0(|o|) S with S the mirror of the axes where o < 0, so
    block (a, b) is the one at |o| times sign(o_a) sign(o_b), exactly.
    """
    distinct = [np.unique(np.abs(ax)) for ax in axes]
    offsets = np.stack(np.meshgrid(*distinct, indexing="ij"), axis=-1).astype(float)
    offsets[0, 0, 0] = 1.0  # placeholder at the zero offset, overwritten below
    blocks = grid.voxel_volume * g0_from_displacements(grid.voxel_edge * offsets, omega)
    blocks[0, 0, 0] = self_term_scalar(grid.voxel_volume, omega) * np.eye(3)
    i0, i1, i2 = (np.searchsorted(d, np.abs(ax)) for d, ax in zip(distinct, axes))
    table = np.moveaxis(blocks, (-2, -1), (0, 1)).take(i0, 2).take(i1, 3).take(i2, 4)
    sign = np.stack(np.meshgrid(*(np.where(ax < 0, -1.0, 1.0) for ax in axes), indexing="ij"))
    return table * (sign[:, None] * sign[None, :])


@dataclass
class InteractionOperator:
    """Discretized Fredholm operator p -> p - K diag(beta) p.

    kernel holds the dense kernel as one symmetric block per class of
    parity sectors (self.parity.classes, parity the ParityBasis of the
    group that maps the voxels and beta onto themselves), the block of the
    class's first sector s, blocks[c][i, j] = sum_g h_j(g) K[rep_i,
    g(rep_j)] with h_j the source character of coordinate j, in one
    contiguous complex128 buffer of sum_c d_c^2 entries (blocks views it
    per class); K takes the coordinates x of every sector of the class, in
    the order of s's, to blocks[c] (x / stabilizer), and norm is
    ||A||_inf of A = I - K diag(beta).  kernel is None for
    the matrix-free representation, which keeps lattice, the FFT of the
    kernel table over the circulant lattice, and forms K p as a
    circulant convolution over the body box (grid.lattice_flat places
    each voxel in it).  A vacuum operator (beta = 0) is the identity and
    keeps neither.  factored lists the dtype of every LU factorization,
    in order, refinements the refinement steps every dense solve took,
    and iterations the (operator applications, achieved relative
    residual) of every column GMRES solved.
    """

    grid: VoxelGrid
    omega: float
    beta: np.ndarray
    kernel: np.ndarray | None
    norm: float = field(default=0.0, repr=False)
    lattice: np.ndarray | None = field(default=None, repr=False)
    _lu: tuple | None = field(default=None, repr=False)
    factored: list = field(default_factory=list, repr=False)
    refinements: list = field(default_factory=list, repr=False)
    iterations: list = field(default_factory=list, repr=False)

    @property
    def n3(self) -> int:
        return 3 * self.grid.n

    @cached_property
    def beta_rep(self):
        return np.repeat(self.beta, 3)

    @property
    def is_identity(self) -> bool:
        return not np.any(self.beta)

    @cached_property
    def parity(self):
        """ParityBasis of the grid's mirrors and axis permutations that also map beta exactly
        onto itself (VoxelGrid.parity_basis): its classes are the stored blocks."""
        return self.grid.parity_basis(self.beta)

    @property
    def sectors(self) -> tuple:
        """Size of every parity sector of the dense operator; () in vacuum."""
        return () if self.is_identity else tuple(
            len(index) for index, _ in self.parity.sectors.values())

    @cached_property
    def blocks(self) -> list:
        """The (d, d) symmetric block of every sector class, views of the stored kernel."""
        sizes = [len(cls.index) for cls in self.parity.classes]
        ends = np.cumsum([d * d for d in sizes]).tolist()
        return [self.kernel[end - d * d:end].reshape(d, d) for d, end in zip(sizes, ends)]

    def sectorwise(self, q, maps):
        """sum_s of maps[c] applied in every sector s of class c to the projection of q,
        for a (3N, m) q.

        The coordinates of q in a sector s, (1/G) sum_g h(g) q_{g(rep)} at
        its orbit coordinates (ParityBasis.fold), form a (d, m) array; a
        class gathers those of its k members in its representative's order
        as one (d, k m) array, maps[c] takes it to the coordinates of its
        image, and unfold carries those back to every orbit member.
        """
        basis, m = self.parity, q.shape[1]
        coeff = basis.fold(q.reshape(self.grid.n, 3 * m)).reshape(-1, m) / basis.order
        image = np.zeros(coeff.shape, dtype=complex)
        for cls, apply in zip(basis.classes, maps):
            d, k = cls.positions.shape
            image[cls.positions] = apply(coeff[cls.positions].reshape(d, k * m)).reshape(d, k, m)
        return basis.unfold(image.reshape(basis.order, len(basis.reps), -1)).reshape(self.n3, m)

    def kernel_product(self, q):
        """K q for a (3N, m) array: one product per stored block, or the lattice convolution.

        The convolution runs pruned FFTs: q is scattered into the body
        box and transformed one axis at a time, zero-padded to 2 n_a, so
        each axis transforms only the lines that can be nonzero; the
        spectrum is multiplied by the table's 3x3 blocks, nine in-place
        products summed into one output, and inverted one axis at a
        time, keeping the first n_a sites of each axis, which is where
        the body lies.  The spectrum and the product are C-contiguous, so
        m columns cost about m single columns.
        """
        if self.kernel is not None:
            return self.sectorwise(q, [partial(_weighted_product, block, cls.weights)
                                       for cls, block in zip(self.parity.classes, self.blocks)])
        index, table = self.grid.lattice_flat, self.lattice
        n, m, shape = self.grid.n, q.shape[1], self.grid.lattice_shape
        box = np.zeros((3, m, *shape), dtype=complex)
        box.reshape(3, m, -1)[:, :, index] = q.reshape(n, 3, m).transpose(1, 2, 0)
        for axis, length in enumerate(shape, start=2):
            box = np.fft.fft(box, n=2 * length, axis=axis)
        out, term = np.empty_like(box), np.empty_like(box[0])
        for a in range(3):
            np.multiply(table[a, 0], box[0], out=out[a])
            for b in (1, 2):
                out[a] += np.multiply(table[a, b], box[b], out=term)
        box = out
        for axis in (4, 3, 2):  # the contiguous axis first, on the largest array
            box = np.fft.ifft(box, axis=axis)[(slice(None),) * axis + (slice(shape[axis - 2]),)]
        return box.reshape(3, m, -1)[:, :, index].transpose(2, 0, 1).reshape(3 * n, m)

    def apply(self, p):
        """Operator action on (3N,) or (3N, m) arrays."""
        p = np.asarray(p, dtype=complex)
        if self.is_identity:
            return p.copy()
        flat = p.reshape(self.n3, -1)
        out = flat - self.kernel_product(self.beta_rep[:, None] * flat)
        return out.reshape(p.shape)

    def lu(self, double: bool = False):
        """(one (lu, piv) per sector class, ||A||_inf) for A = I - K diag(beta), stored kernel only.

        A commutes with the mirrors and axis permutations of self.parity, so
        its block in every sector of a class is I - blocks[c] diag(beta_t /
        stabilizer_t), beta_t and stabilizer_t those of each coordinate's
        orbit.  Each block is built C-ordered in complex64, or in complex128
        with double=True (whose factors replace the complex64 ones) and
        whenever ||A||_inf + 2 is not below the largest float32: an entry of
        a block is at most ||A||_inf + 2 in modulus (the diagonal 1, plus
        |K beta| summed over the distinct members of an orbit, which is at
        most the row sum of A plus 1), so a complex64 block never overflows.
        Its transpose, the same memory in Fortran order, is factored in
        place, so a solve takes trans=1.
        """
        wide = double or not self.norm + 2.0 < float(np.finfo(np.float32).max)
        dtype = np.dtype(np.complex128 if wide else np.complex64)
        if self._lu is None or (double and self._lu[0][0][0].dtype != dtype):
            if self.kernel is None:
                raise SolverError("LU requested from a matrix-free operator")
            basis = self.parity
            beta = -np.repeat(self.beta[basis.reps] / basis.stabilizer, 3)
            factors = []
            for cls, kernel in zip(basis.classes, self.blocks):
                block = np.empty(kernel.shape, dtype=dtype)
                np.multiply(kernel, beta[cls.index], out=block, casting="same_kind")
                block.reshape(-1)[::len(block) + 1] += 1.0
                factors.append(lu_factor(block.T, overwrite_a=True, check_finite=False))
            self._lu = (factors, self.norm)
            self.factored.append(dtype)
        return self._lu


def assemble(grid: VoxelGrid, beta, omega: float, *, dense: bool = True) -> InteractionOperator:
    """Build the discrete Fredholm operator for the per-voxel beta at frequency omega.

    Both representations come from one kernel table builder over lattice
    offsets: dense=False keeps the FFT of the table over the circulant
    lattice for the matrix-free operator; dense=True reads the kernel
    rows of the orbit representatives, rows[g, i, j] = K[rep_i, g(rep_j)],
    from a half-space table at ParityBasis.kernel_offsets, and folds them
    by the Walsh-Hadamard transform over g into the block of the first
    sector of every class (K is symmetric, so these rows are also its
    columns), _ROWS_CHUNK_BYTES at a time.  The grid's axis permutations
    are found at its first dense assembly.  ||A||_inf is the largest
    absolute row sum of those rows, which the mirrors map onto every other
    row, a member listed k times counting 1/k each time.  A vacuum
    (beta = 0) operator builds neither.
    """
    if not omega > 0.0:
        raise ValueError("assemble requires omega > 0")
    beta = np.asarray(beta, dtype=complex).reshape(grid.n)
    op = InteractionOperator(grid=grid, omega=omega, beta=beta, kernel=None)
    if op.is_identity:
        return op
    if not dense:
        # circulant of 2n sites per axis: index i holds offset i below n and
        # i - 2n above it, and zero at i = n, an offset no voxel pair reaches
        table = _kernel_table(grid, omega,
                              [np.fft.ifftshift(np.arange(-n, n)) for n in grid.lattice_shape])
        for axis, n in enumerate(grid.lattice_shape):
            np.moveaxis(table, 2 + axis, 0)[n] = 0.0
        op.lattice = np.fft.fftn(table, axes=(-3, -2, -1))
        return op
    basis = op.parity
    axes, offset = basis.kernel_offsets
    table = np.ascontiguousarray(np.moveaxis(_kernel_table(grid, omega, axes), 1, -1))
    order, reps = basis.members.shape
    beta_rows = np.repeat(beta[basis.reps], 3)
    counted = np.abs(beta_rows) / np.repeat(basis.stabilizer, 3)
    sums = np.empty(3 * reps)
    op.kernel = np.empty(sum(len(cls.index) ** 2 for cls in basis.classes), dtype=complex)
    step = max(1, _ROWS_CHUNK_BYTES // (order * 9 * reps * 16))
    for start in range(0, reps, step):
        pairs = offset[:, start:start + step]
        rows = np.empty((order, pairs.shape[1], 3, reps, 3), dtype=complex)
        for g, a in np.ndindex(order, 3):
            rows[g, :, a] = np.take(table[a].reshape(-1, 3), pairs[g], axis=0)
        rows = rows.reshape(order, 3 * pairs.shape[1], 3 * reps)
        sums[3 * start:3 * start + rows.shape[1]] = sum(np.abs(part) @ counted for part in rows)
        basis.transform(rows)  # block c is rows[source_t, index_u, index_t]
        for cls, block in zip(basis.classes, op.blocks):
            index, position = cls.index, cls.positions[:, 0]
            mine = np.flatnonzero((index >= 3 * start) & (index < 3 * start + rows.shape[1]))
            block[mine] = rows[position // (3 * reps), index[mine, None] - 3 * start, index]
        del rows  # before the next chunk's rows are allocated
    diagonal = self_term_scalar(grid.voxel_volume, omega) * beta_rows
    op.norm = float(np.max(sums + np.abs(1.0 - diagonal) - np.abs(diagonal)))
    return op


def _refined_lu_solve(op: InteractionOperator, b, factors):
    """Solve on the sector LU factors, refining in complex128 to a backward error of eps.

    Every column must reach ||r||_inf <= ||x||_inf ||A||_inf eps, with
    r = b - op x in complex128 and eps the float64 machine epsilon,
    whatever tolerance the caller asked for.  This is zcgesv's test
    without its sqrt(3N) slack, which let a solve stop one step early
    with 1e-13 relative errors in its small components.  Corrections are
    solved sector by sector on columns scaled to unit max, so complex64
    factors see no overflow or underflow.  Returns (x, r, corrections,
    bound met).
    """
    sector_factors, norm = factors
    getrs, = get_lapack_funcs(("getrs",), (sector_factors[0][0],))
    solves = [partial(_lu_solve, getrs, *lu_piv) for lu_piv in sector_factors]
    bound = norm * np.finfo(float).eps
    x = np.zeros_like(b)
    resid = b
    for step in range(_REFINE_STEPS + 1):
        scale = np.max(np.abs(resid), axis=0)
        scale[scale == 0.0] = 1.0
        x += scale * op.sectorwise(resid / scale, solves)
        resid = b - op.apply(x)
        if np.all(np.max(np.abs(resid), axis=0) <= bound * np.max(np.abs(x), axis=0)):
            return x, resid, step, True
    return x, resid, step, False


def _weighted_product(block, weights, coords):
    """block @ (weights * coords): a sector's kernel product."""
    return block @ (weights * coords)


def _lu_solve(getrs, lu, piv, coords):
    """A_s^-1 coords on the factors of the transposed block, in their dtype, by LAPACK getrs."""
    x, info = getrs(lu, piv, np.asarray(coords, lu.dtype, order="F"), trans=1, overwrite_b=True)
    if info != 0:
        raise SolverError(f"LAPACK getrs failed with info = {info}")
    return x


def solve_system(op: InteractionOperator, rhs, tol: float = 1e-10):
    """Solve (I - K diag(beta)) x = rhs to ||op x - rhs|| <= tol ||rhs||.

    rhs: (3N,) or (3N, m).  The representation decides the method.  A
    stored kernel is factorized once in complex64 (in complex128 when
    ||A||_inf + 2 reaches the float32 range) and every solve is refined in
    complex128 to a backward error of one float64 epsilon, so the answer is
    accurate to complex128 whatever tol is; if 30 refinement steps on complex64
    factors do not reach that bound the operator is refactorized once in
    complex128 and the solve refined again.  The lattice operator
    is solved by restarted GMRES with a diagonal preconditioner to tol/10,
    column by column, and fails unless the true residual GMRES returns is
    within tol.  The vacuum operator returns a copy of rhs.
    """
    if not tol > 0.0:
        raise ValueError("solver tolerance must be positive")
    rhs = np.asarray(rhs, dtype=complex)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side contains non-finite entries")
    if op.is_identity:
        return rhs.copy()
    b = rhs.reshape(op.n3, -1)
    rhs_norm = np.linalg.norm(b)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)

    if op.kernel is not None:
        x, resid, steps, met = _refined_lu_solve(op, b, op.lu())
        if not met and op.factored[-1] == np.complex64:  # too ill-conditioned for them
            x, resid, more, met = _refined_lu_solve(op, b, op.lu(double=True))
            steps += more
        op.refinements.append(steps)
        achieved = np.linalg.norm(resid) / rhs_norm
        if not np.isfinite(achieved) or achieved > tol:
            raise SolverError(f"dense solve stalled at residual {achieved:.3e} (target {tol:.1e})")
        return x.reshape(rhs.shape)

    pre_diag = np.repeat(1.0 - self_term_scalar(op.grid.voxel_volume, op.omega) * op.beta, 3)
    x = np.empty_like(b)
    for j in range(b.shape[1]):
        x[:, j], resid, applications = _gmres(op, b[:, j], pre_diag, 0.1 * tol)
        achieved = resid / np.linalg.norm(b[:, j]) if resid else 0.0
        op.iterations.append((applications, float(achieved)))
        if not np.isfinite(achieved) or achieved > tol:
            raise SolverError(
                f"GMRES failed to converge on column {j}: achieved residual "
                f"{achieved:.3e} (target {tol:.1e}) after {applications} operator applications")
    return x.reshape(rhs.shape)


def _gmres(op: InteractionOperator, b, pre_diag, rtol: float):
    """Restarted GMRES on op x = b, left-preconditioned by diag(pre_diag), from x0 = b.

    Each cycle runs Arnoldi on M^-1 op with two passes of classical
    Gram-Schmidt and Givens rotations, and stops early when the rotated
    residual has fallen by the factor the true residual still needs, or
    at a breakdown.  After each cycle the true residual ||b - op x|| is
    formed; the loop ends when it is <= rtol ||b||, after _CYCLES cycles,
    or after a breakdown short of that.  Returns (x, ||b - op x||,
    operator applications).
    """
    eps, target = np.finfo(float).eps, rtol * np.linalg.norm(b)
    basis = np.empty((_RESTART + 1, len(b)), dtype=complex)
    R = np.zeros((_RESTART, _RESTART), dtype=complex)  # columns 0..k rewritten each cycle
    x = b.copy()
    r = b - op.apply(x)
    rnorm, applications = np.linalg.norm(r), 1
    for _ in range(_CYCLES):
        if not rnorm > target:  # converged, or non-finite
            break
        w = r / pre_diag
        g = [np.linalg.norm(w)]  # M^-1 r in the rotated Krylov basis
        inner_target = g[0] * target / rnorm
        basis[0] = w / g[0]
        rotations = []
        for k in range(_RESTART):
            w = op.apply(basis[k])
            w /= pre_diag
            applications += 1
            w0, h = np.linalg.norm(w), np.zeros(k + 2, dtype=complex)
            for _ in range(2):
                c = (basis[:k + 1] @ w.conj()).conj()
                w -= c @ basis[:k + 1]
                h[:k + 1] += c
            h[k + 1] = wnorm = np.linalg.norm(w)
            breakdown = wnorm <= eps * w0
            if not breakdown:
                basis[k + 1] = w / wnorm
            h = h.tolist()
            for i, (cos, sin) in enumerate(rotations):
                h[i], h[i + 1] = (cos * h[i] + sin * h[i + 1],
                                  cos * h[i + 1] - sin.conjugate() * h[i])
            a, e = h[k], h[k + 1]
            rho = math.hypot(abs(a), abs(e))
            cos, sin = (abs(a) / rho, a / abs(a) * e.conjugate() / rho) if a else (0.0, 1.0)
            rotations.append((cos, sin))
            h[k] = cos * a + sin * e
            g.append(-sin.conjugate() * g[k])
            g[k] *= cos
            R[:k + 1, k] = h[:k + 1]
            if abs(g[k + 1]) <= inner_target or breakdown:
                break
        x += solve_triangular(R[:k + 1, :k + 1], g[:k + 1]) @ basis[:k + 1]
        r = b - op.apply(x)
        rnorm, applications = np.linalg.norm(r), applications + 1
        if breakdown:
            break
    return x, rnorm, applications


class MediumSolver:
    """One assembled operator (and factorization) shared across sources.

    All Green-tensor, field-coefficient and LDOS computations at a fixed
    frequency go through this object, which assembles and factorizes once:
    solve, solved (memoised by a key) and grid_fields give on-grid
    values, and evaluate carries any of them (Green columns, e or m) to
    arbitrary points.
    materials maps every region id of the grid to its PermittivityModel,
    which also gives eps at frequencies other than omega.  method is the
    one solve decision: "dense" stores the kernel (LU) at any size,
    "gmres" the lattice FFT operator (GMRES), "auto" the kernel up to
    dense_cap voxels.
    """

    def __init__(self, grid: VoxelGrid, materials: Mapping, omega: float, tol: float = 1e-10,
                 method: str = "auto", dense_cap: int = 1000):
        if method not in ("auto", "dense", "gmres"):
            raise ValueError(f"unknown solve method {method!r}")
        self.grid = grid
        self.materials = materials
        self.omega = float(omega)
        self.tol = float(tol)
        self.eps, self.beta = eps_on_grid(grid, materials, omega)
        dense = method == "dense" or (method == "auto" and grid.n <= dense_cap)
        self.op = assemble(grid, self.beta, omega, dense=dense)
        self._fields = {}
        self._solved = {}
        self._blocks = (None, None)

    def solve(self, rhs):
        return solve_system(self.op, rhs, self.tol)

    @staticmethod
    def _keep(memo, key, value):
        """Store value as the most recent entry, dropping the least recent beyond _FIELDS_KEPT."""
        memo.pop(key, None)
        if len(memo) == _FIELDS_KEPT:
            del memo[next(iter(memo))]
        memo[key] = value

    def solved(self, key, rhs):
        """solve(rhs()) for the right-hand side named by the hashable key, read-only.

        Memoised like grid_fields (the eight keys used last), so a field
        revisited by key, such as the e coefficient of one plane-wave
        mode, is solved once.
        """
        x = self._solved.get(key)
        if x is None:
            x = self.solve(rhs())
            x.flags.writeable = False
        self._keep(self._solved, key, x)
        return x

    # -- geometry-aware kernel pieces -----------------------------------
    def g0_blocks_at(self, point):
        """G0(point, z_j) blocks (N, 3, 3), with the self block M/dV for the voxel holding point.

        A point inside the body sees its own voxel through the self term,
        at the center or off it, so the evaluation formula is finite
        everywhere and continuous at a voxel center (G0 to the center
        would diverge as the point nears it).  Read-only, and kept for the
        last point asked, so the source columns of x, its evaluation row
        and the discrete shell integral at x share one evaluation.
        """
        point = np.asarray(point, dtype=float)
        key = point.tobytes()
        if self._blocks[0] == key:
            return self._blocks[1]
        idx = self.grid.index_of(point, rtol=0.5 - 1e-9)
        disp = point[None, :] - self.grid.centers
        if idx is not None:
            disp[idx] = 1.0
        blocks = g0_from_displacements(disp, self.omega)
        if idx is not None:
            blocks[idx] = (self_term_scalar(self.grid.voxel_volume, self.omega)
                           / self.grid.voxel_volume) * np.eye(3)
        blocks.flags.writeable = False
        self._blocks = (key, blocks)
        return blocks

    def source_columns(self, y):
        """Right-hand side G0(z_i, y) n_j restricted to the grid, (3N, 3)."""
        return self.g0_blocks_at(y).reshape(self.op.n3, 3)

    def grid_fields(self, sources):
        """Solved on-grid Green columns X_i = G(z_i, y), read-only.

        sources is one point y (3,), giving (N, 3, 3), or P points (P, 3),
        giving (P, N, 3, 3).  Every source not yet memoised is solved,
        a duplicate once, in one solve of 3P right-hand sides, so each
        refinement step reads the factors and the kernel once for all of
        them.  The eight sources used last are memoised, the least recently
        used dropped first, so a revisited source is not re-solved and a
        block never drops one of its own sources to make room (up to eight).
        """
        pts = np.asarray(sources, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != 3:
            raise ValueError(f"sources must be (3,) or (P, 3), got shape {pts.shape}")
        rows = pts.reshape(-1, 3)
        keys = [p.tobytes() for p in rows]
        fields = {key: self._fields.pop(key) for key in keys if key in self._fields}
        self._fields.update(fields)  # a hit becomes the most recent
        new = {key: p for key, p in zip(keys, rows) if key not in fields}
        if new:
            rhs = np.hstack([self.source_columns(p) for p in new.values()])
            X = self.solve(rhs).reshape(self.grid.n, 3, len(new), 3)
            X = np.ascontiguousarray(X.transpose(2, 0, 1, 3))
            X.flags.writeable = False
            for key, Xp in zip(new, X):
                self._keep(self._fields, key, Xp)
                fields[key] = Xp
        if pts.ndim == 1:
            return fields[keys[0]]
        out = np.stack([fields[key] for key in keys])
        out.flags.writeable = False
        return out

    def scattered_at(self, x, grid_values):
        """sum_j dV G0(x, z_j) beta_j V_j for on-grid values V (N, 3, m)."""
        blocks = self.g0_blocks_at(x)
        V = np.asarray(grid_values).reshape(self.grid.n, 3, -1)
        out = self.grid.voxel_volume * np.einsum(
            "j,jab,jbm->am", self.beta, blocks, V)
        return out

    def evaluate(self, points, grid_values, incident):
        """F(r) = incident(r) + sum_j dV G0(r, z_j) beta_j F_j at P points, (P, 3, m).

        grid_values (N, 3, m) are the solved on-grid values of a field
        obeying F = F_inc + K beta F: the Green columns of one source, or
        the e or m coefficient.  A voxel center returns its solved value
        as is; incident(r), the (3,) or (3, m) value of F_inc at one
        point, is called only at the other points.  This is the one
        evaluation formula of every solved field.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        V = np.asarray(grid_values).reshape(self.grid.n, 3, -1)
        out = np.empty((len(pts), 3, V.shape[2]), dtype=complex)
        for i, p in enumerate(pts):
            idx = self.grid.index_of(p)
            if idx is not None:
                out[i] = V[idx]
            else:
                out[i] = np.reshape(incident(p), (3, -1)) + self.scattered_at(p, V)
        return out

    def check_frequency(self, omega: float, what: str):
        """Raise ValueError unless omega is this solver's frequency (to 1e-12 relative)."""
        if abs(omega - self.omega) > 1e-12 * self.omega:
            raise ValueError(f"{what} frequency {omega!r} differs from the solver "
                             f"frequency {self.omega!r}")

    def green(self, x, y):
        """Medium Green tensor G(x, y) via solve-then-evaluate."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.array_equal(x, y):
            raise ValueError("coincident arguments: use im_green_at for Im G(x, x)")
        return self.evaluate(x, self.grid_fields(y), lambda p: g0_closed(p, y, self.omega))[0]


def dyson_residual(solver: MediumSolver, x, y) -> float:
    """Defect of the permutation identity int beta G0 G = int beta G G0 = G - G0.

    Exact in the discrete algebra, so the returned max Frobenius defect
    is bounded by solver tolerance, independent of voxel resolution.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    Xy, Xx = solver.grid_fields(np.stack([y, x]))
    # int beta G(x,z) G0(z,y): G(x,z) = X(x)_z^T by reciprocity, and G0(z,y) the
    # blocks the solve for y used, with M/dV in the voxel that holds y (taken
    # first, so the blocks at x stay memoised after the call)
    i2 = solver.grid.voxel_volume * np.einsum(
        "j,jba,jbc->ac", solver.beta, Xx, solver.g0_blocks_at(y))
    diff = solver.green(x, y) - g0_closed(x, y, solver.omega)
    # int beta G0(x,z) G(z,y): the evaluation route itself
    i1 = solver.scattered_at(x, Xy)
    return float(max(np.linalg.norm(diff - i1), np.linalg.norm(diff - i2)))
