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
z_i - z_j, and both representations read K from one table of its 3x3
blocks at signed offsets, evaluated at |offsets| and reflected: an axis
mirror S gives G0(S r) = S G0(r) S.  The same symmetry stores the dense
kernel as blocks: the lattice mirrors and axis permutations that map the
voxels and beta exactly onto themselves (VoxelGrid.symmetry_basis)
commute with K, so K and A = I - K diag(beta) are block diagonal in the
basis adapted to the group's irreducible representations (Kahnert, J.
Opt. Soc. Am. A 22, 1187 (2005)): a body with all 48 signed axis
permutations stores ten blocks of about 3N/48 each, one with none stores
K.  Only symmetry.SymmetryBasis knows that layout: once per grid and
group it plans the offsets the blocks read, so a frequency costs one G0
evaluation at their distinct |offsets| and the basis's fill of the
blocks.  Every product K q, the solver's own residuals included, and
every block solve is one call per block, on the coordinates of all its
copies.
A is factored per block, each solve refined in complex128 until every
column has a backward error of one float64 epsilon (the method of LAPACK
zcgesv; Buttari et al., ACM TOMS 34(4), 17 (2008)).  The factor
precision is decided once, from the block sizes and ||A||_inf
(_lu_dtype): mixed precision pays only where the O(d^3) factorization
dominates (Carson & Higham, SIAM J. Sci. Comput. 40, A817 (2018)), so
blocks of at most _DOUBLE_LU_MAX are factored in complex128, whose
solves mostly meet the bound at their first residual, and larger ones
in complex64, unless a bound on the block entries reaches the float32
range; an operator too ill-conditioned for complex64
factors is refactored once in complex128.  A block's factorization is
its solve (lu_factor), in one of two forms decided at factor time: a
complex128 block of at most _DOUBLE_LU_MAX rows is solved by numpy,
LU-solved (LAPACK gesv) at every block solve of its operator's first
solve, refinement steps included, and inverted when the operator is
solved again, so an operator solved once, as every CLI command's is, pays
one LU-solve per block and refinement step, not an inverse of about three
LUs (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
ch. 14); every other block
(complex64, or complex128 and wider) keeps LAPACK's LU from
scipy.linalg, factored in place, which only that branch imports, so a
process whose blocks are all at most _DOUBLE_LU_MAX wide, or that solves
by GMRES, loads no scipy.linalg.  Both forms refuse a singular block.
The dense operator keeps the K q of its last application, so the shell
integral of ldos reads the product the refinement's last residual formed.
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
classical Gram-Schmidt, its small triangle solved by numpy, at most 400
cycles, until the true residual
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

from .geometry import VoxelGrid, eps_on_grid, reflect, reflection
from .green_free import g0_closed, g0_from_displacements, self_term_scalar


#: keys each memo of a MediumSolver keeps (G0 rows by point; solved fields, the Green
#: columns by point and the field coefficients by mode), least recently used dropped
#: first (validate revisits five points and solves two field coefficients)
_FIELDS_KEPT = 8

#: refinement steps on one set of LU factors before giving up on them (zcgesv's ITERMAX)
_REFINE_STEPS = 30

#: largest stored block factored in complex128 outright; above it complex64 factors
#: and complex128 refinement cost no more.  Time of the LU plus one refined 3-column
#: solve on a Drude body at omega = 1 (2-core VM, one OpenBLAS thread, median of 10
#: alternations), complex128 over complex64, by largest block (the sphere rows were
#: measured on the four blocks of the parity-sector classes, before they were split by
#: their stabilizers; the 4224-voxel sphere's largest split block is 820, complex64):
#:   spheres, four classes:  111: 0.55-0.68  249: 0.76  315: 0.87-0.94  423: 0.88-1.07
#:                           453: 0.96  516: 1.00  582: 0.98  648: 1.05-1.10
#:   one block, no symmetry: 150: 0.69  201: 0.82  270: 0.83  300: 1.00-1.05
#:                           360: 0.81-1.04  402: 1.13-1.14  501: 1.07  600: 1.18  771: 1.18
#: complex128 factors meet the stop test in 0 or 1 steps, complex64 ones in 2 or 3.
_DOUBLE_LU_MAX = 400

#: columns of one lattice convolution (kernel_product).  Time of an m-column product over
#: a one-column product's on the 8^3 and 12^3 Lorentz cubes (2-core VM, one OpenBLAS
#: thread, medians of 150 interleaved calls), in one convolution: m = 3 2.8-3.0x,
#: 6 7.4-8.0x, 15 21x; three columns at a time: 6 6.1-6.3x, 15 16-17x
_LATTICE_COLUMNS = 3

#: GMRES Krylov vectors per restart cycle, and restart cycles per column
_RESTART = 80
_CYCLES = 400


class SolverError(RuntimeError):
    pass


_SINGULAR = "the dense operator has a singular block"


def _kernel_blocks(grid: VoxelGrid, omega: float, offsets):
    """Kernel blocks (M, 3, 3) at the offsets (M, 3) in lattice steps, the first of which
    is 0 (reflection's distinct): dV*G0 at a nonzero offset, the self term at 0."""
    offsets = np.array(offsets, dtype=float)
    offsets[0] = 1.0  # placeholder at the zero offset, overwritten below
    blocks = grid.voxel_volume * g0_from_displacements(grid.voxel_edge * offsets, omega)
    blocks[0] = self_term_scalar(grid.voxel_volume, omega) * np.eye(3)
    return blocks


@dataclass
class InteractionOperator:
    """Discretized Fredholm operator p -> p - K diag(beta) p.

    kernel holds the dense kernel as one symmetric block per class of the
    symmetry-adapted basis (self.symmetry, the SymmetryBasis of the group
    that maps the voxels and beta onto themselves), blocks[c] = U_c^T K U_c
    with U_c the orthonormal basis vectors of one copy of class c, in one
    contiguous complex128 buffer of sum_c d_c^2 entries (blocks views it
    per class); K takes the coordinates x (d_c, copies) of class c in fold's
    basis to blocks[c] x, and norm is ||A||_inf of A = I - K diag(beta),
    whose block is I - blocks[c] diag(beta at each coordinate's orbit),
    since beta is constant on every orbit of the group.  kernel is None for
    the matrix-free representation, which keeps lattice, the FFT of the
    kernel table over the circulant lattice, and forms K p as a
    circulant convolution over the body box (grid.lattice_flat places
    each voxel in it).  A vacuum operator (beta = 0) is the identity and
    keeps neither.  factored lists the dtype of every LU factorization,
    in order, refinements the refinement steps every dense solve took,
    and iterations the (operator applications, achieved relative
    residual) of every column GMRES solved.  _product holds the
    (beta p, K beta p) of the last dense apply until kernel_product reads it.
    """

    grid: VoxelGrid
    omega: float
    beta: np.ndarray
    kernel: np.ndarray | None
    norm: float = field(default=0.0, repr=False)
    lattice: np.ndarray | None = field(default=None, repr=False)
    _lu: list | None = field(default=None, repr=False)
    _product: tuple | None = field(default=None, repr=False)
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
    def symmetry(self):
        """SymmetryBasis of the grid's mirrors and axis permutations that also map beta
        exactly onto itself (VoxelGrid.symmetry_basis): its classes are the stored blocks."""
        return self.grid.symmetry_basis(self.beta)

    @property
    def sectors(self) -> tuple:
        """Size of every parity sector of the dense operator; () in vacuum."""
        return () if self.is_identity else self.symmetry.sectors

    @cached_property
    def blocks(self) -> list:
        """The (d, d) symmetric block of every symmetry class, views of the stored kernel."""
        return self.symmetry.blocks(self.kernel)

    def kernel_product(self, q):
        """K q for a (3N, m) array: one product per stored block, or the lattice convolution.

        A dense q equal to the beta p of the operator's last apply returns
        that apply's K q, read-only, with no product, and drops it: this is
        how the shell integral of ldos reuses the product of the solve's
        last residual, on the same beta X, bit for bit.  apply keeps its
        own two (3N, m) arrays and copies nothing, so an operator holds at
        most 2 x 3N x m complex128 beyond its blocks, m the columns of its
        last apply; a direct call keeps nothing.  The lattice operator
        keeps nothing: GMRES never repeats an input.

        The convolution runs pruned FFTs: q is scattered into the body
        box and transformed one axis at a time, zero-padded to 2 n_a, so
        each axis transforms only the lines that can be nonzero; the
        spectrum is multiplied by the table's 3x3 blocks, nine in-place
        products summed into one output, and inverted one axis at a
        time, keeping the first n_a sites of each axis, which is where
        the body lies.  The spectrum and the product are C-contiguous.
        More than _LATTICE_COLUMNS columns are convolved that many at a
        time: the cost of one convolution grows faster than its columns
        past them.
        """
        if self.kernel is not None:
            last = self._product  # one read: another thread may replace it
            if last is not None and np.array_equal(last[0], q):
                self._product = None
                return last[1]
            return self.symmetry.blockwise(q, [block.__matmul__ for block in self.blocks])
        if q.shape[1] > _LATTICE_COLUMNS:
            return np.hstack([self.kernel_product(q[:, start:start + _LATTICE_COLUMNS])
                              for start in range(0, q.shape[1], _LATTICE_COLUMNS)])
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
        q = self.beta_rep[:, None] * flat
        product = self.kernel_product(q)
        if self.kernel is not None:  # q and its product are this call's own, kept uncopied
            product.flags.writeable = False
            self._product = (q, product)
        return (flat - product).reshape(p.shape)

    def lu(self, double: bool = False):
        """The solve of every stored block of A = I - K diag(beta), by lu_factor; dense only.

        A commutes with the mirrors and axis permutations of self.symmetry, so
        its block in every copy of a class is I - blocks[c] diag(beta_t),
        beta_t the beta of coordinate t's orbit.  Each block is built
        C-ordered in the dtype _lu_dtype picks from the block sizes and a
        bound on its entries, or in complex128 with double=True (whose
        solves replace the complex64 ones), and handed to lu_factor, which
        factors it now or, for a small complex128 block, LU-solves it at
        each call.  solve_system asks once per solve: asked again for the
        same solves, lu inverts the small complex128 blocks, since only an
        operator solved again reuses an inverse, and the refinement steps of
        a first solve stay LU-solves.
        """
        if self._lu is None or (double and self.factored[-1] != np.complex128):
            if self.kernel is None:
                raise SolverError("LU requested from a matrix-free operator")
            classes = self.symmetry.classes
            sizes = [len(cls.voxels) for cls in classes]
            bound = self.norm if max(sizes) <= _DOUBLE_LU_MAX else max(
                self.norm, float(np.abs(self.kernel).max() * np.abs(self.beta).max()))
            dtype = np.dtype(np.complex128) if double else _lu_dtype(sizes, bound)
            solves = []
            for cls, kernel in zip(classes, self.blocks):
                block = np.empty(kernel.shape, dtype=dtype)
                np.multiply(kernel, -self.beta[cls.voxels], out=block, casting="same_kind")
                block.reshape(-1)[::len(block) + 1] += 1.0
                solves.append(lu_factor(block))
            self._lu = solves
            self.factored.append(dtype)
        else:
            for solve in self._lu:
                if isinstance(solve, _SolvedThenInverted):
                    solve.invert()
        return self._lu


def lu_factor(block):
    """The solve of one C-ordered block A_c of A: a callable taking coordinates (d, k) to
    A_c^-1 coordinates.

    A complex128 block of at most _DOUBLE_LU_MAX rows: _SolvedThenInverted,
    numpy's LU-solve at each call until InteractionOperator.lu inverts it,
    the product with the inverse from then on.  Any other block (complex64, or
    complex128 past _DOUBLE_LU_MAX, from the float32-range rule of _lu_dtype
    or a refactor): getrs with trans=1 (_lu_solve) on LAPACK getrf of the
    transpose, the same memory in Fortran order, factored in place; both
    routines come from scipy.linalg, which is imported here only (its
    import costs more than every factorization of small blocks).  A
    singular block raises SolverError in either form: numpy's when it
    is solved or inverted, getrf's here.
    """
    if block.dtype == np.complex128 and len(block) <= _DOUBLE_LU_MAX:
        return _SolvedThenInverted(block)
    from scipy.linalg import get_lapack_funcs

    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (block,))
    lu, piv, info = getrf(block.T, overwrite_a=True)
    if info != 0:
        raise SolverError(_SINGULAR if info > 0 else f"LAPACK getrf failed with info = {info}")
    return partial(_lu_solve, getrs, lu, piv)


class _SolvedThenInverted:
    """The solve of a small complex128 block: LAPACK gesv (numpy.linalg.solve) at each
    call until invert forms numpy's inverse, then the product with it.

    An inverse costs about three LUs and pays only for an operator solved
    several times; the CLI's operators are solved once.  The block is kept
    after the inverse is formed, so two threads sharing the operator never
    read a dropped one; at worst both form the inverse.
    """

    def __init__(self, block):
        self.block, self.inverse = block, None

    def invert(self):
        if self.inverse is None:
            try:
                self.inverse = np.linalg.inv(self.block)
            except np.linalg.LinAlgError:
                raise SolverError(_SINGULAR) from None

    def __call__(self, coords):
        inverse = self.inverse
        if inverse is not None:
            return inverse @ coords
        try:
            return np.linalg.solve(self.block, coords)
        except np.linalg.LinAlgError:
            raise SolverError(_SINGULAR) from None


def _lu_dtype(sizes, norm: float) -> np.dtype:
    """The dtype the stored blocks of sizes (one per block) are factored in, for an
    operator whose blocks of K diag(beta) have entries of modulus at most norm.

    complex128 when the largest block is at most _DOUBLE_LU_MAX, where its
    factorization costs less than the refinement steps complex64 factors
    need, or when norm + 2 is not below the largest float32: an entry of a
    block of A is at most norm + 1 in modulus, so below that a complex64
    block never overflows.  complex64 otherwise, refined in complex128 by
    the solve.  InteractionOperator.lu passes ||A||_inf, which bounds the
    entries for one material (an orthonormal block of K has entries at most
    ||K||_2 <= ||K||_inf), and past _DOUBLE_LU_MAX, the one case where norm
    can decide, the larger of it and max |blocks| max |beta|, which bounds
    them for any beta.
    """
    wide = max(sizes) <= _DOUBLE_LU_MAX or not norm + 2.0 < float(np.finfo(np.float32).max)
    return np.dtype(np.complex128 if wide else np.complex64)


def assemble(grid: VoxelGrid, beta, omega: float, *, dense: bool = True) -> InteractionOperator:
    """Build the discrete Fredholm operator for the per-voxel beta at frequency omega.

    Both representations build their kernel table one way: G0 at the
    distinct |offsets| of a plan of signed offsets, reflected onto them in
    one take (geometry.reflection, geometry.reflect).  dense=False plans
    the circulant lattice and keeps the FFT of its table for the
    matrix-free operator; dense=True evaluates the table at the offsets
    the grid's SymmetryBasis plans once (kernel_offsets), and the basis
    fills the stored blocks and ||A||_inf from it (SymmetryBasis.fill).
    A vacuum (beta = 0) operator builds neither.
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
        shape = grid.lattice_shape
        axes = np.meshgrid(*(np.fft.ifftshift(np.arange(-n, n)) for n in shape), indexing="ij")
        distinct, signed = reflection(np.stack(axes, axis=-1).reshape(-1, 3))
        table = reflect(_kernel_blocks(grid, omega, distinct),
                        signed.transpose(1, 2, 0).reshape(3, 3, *axes[0].shape))
        for axis, n in enumerate(shape):
            np.moveaxis(table, 2 + axis, 0)[n] = 0.0
        op.lattice = np.fft.fftn(table, axes=(-3, -2, -1))
        return op
    _, distinct, signed = op.symmetry.kernel_offsets
    op.kernel, op.norm = op.symmetry.fill(reflect(_kernel_blocks(grid, omega, distinct), signed),
                                          beta)
    return op


def _refined_lu_solve(op: InteractionOperator, b, solves):
    """Solve by op.lu()'s block solves, refining in complex128 to a backward error of eps.

    Every column must reach ||r||_inf <= ||x||_inf ||A||_inf eps, with
    r = b - op x in complex128 and eps the float64 machine epsilon,
    whatever tolerance the caller asked for.  This is zcgesv's test
    without its sqrt(3N) slack, which let a solve stop one step early
    with 1e-13 relative errors in its small components.  Corrections are
    solved block by block on columns scaled to unit max, so complex64
    factors see no overflow or underflow; ||A||_inf is op.norm.  Returns
    (x, r, corrections, bound met).
    """
    bound = op.norm * np.finfo(float).eps
    x = np.zeros_like(b)
    resid = b
    for step in range(_REFINE_STEPS + 1):
        scale = np.max(np.abs(resid), axis=0)
        scale[scale == 0.0] = 1.0
        x += scale * op.symmetry.blockwise(resid / scale, solves)
        resid = b - op.apply(x)
        if np.all(np.max(np.abs(resid), axis=0) <= bound * np.max(np.abs(x), axis=0)):
            return x, resid, step, True
    return x, resid, step, False


def _lu_solve(getrs, lu, piv, coords):
    """A_c^-1 coords on the getrf factors of the transposed block, in their dtype, by LAPACK
    getrs."""
    x, info = getrs(lu, piv, np.asarray(coords, lu.dtype, order="F"), trans=1, overwrite_b=True)
    if info != 0:
        raise SolverError(f"LAPACK getrs failed with info = {info}")
    return x


def solve_system(op: InteractionOperator, rhs, tol: float = 1e-10):
    """Solve (I - K diag(beta)) x = rhs to ||op x - rhs|| <= tol ||rhs||.

    rhs: (3N,) or (3N, m).  The representation decides the method.  A
    stored kernel's blocks are built once, in the precision op.lu decides
    from its block sizes and ||A||_inf (complex128 for blocks of at most
    _DOUBLE_LU_MAX, LU-solved through the first solve and inverted at the
    second, else complex64 LU factors), and every solve is refined in
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
        # R is upper triangular, so partial pivoting keeps its rows: this is back substitution
        x += np.linalg.solve(R[:k + 1, :k + 1], g[:k + 1]) @ basis[:k + 1]
        r = b - op.apply(x)
        rnorm, applications = np.linalg.norm(r), applications + 1
        if breakdown:
            break
    return x, rnorm, applications


def _recall(memo: dict, keys, make):
    """memo's values for keys, in order; make(missing) makes those not held, in one call.

    Hits and made values (marked read-only) become the most recent entries, then all
    but the _FIELDS_KEPT most recent are dropped: a call keeps its own, up to that many.
    """
    held = {key: memo.pop(key) for key in keys if key in memo}
    memo.update(held)
    missing = [key for key in dict.fromkeys(keys) if key not in held]
    if missing:
        for key, value in zip(missing, make(missing)):
            value.flags.writeable = False
            memo[key] = held[key] = value
    for key in list(memo)[:-_FIELDS_KEPT]:
        del memo[key]
    return [held[key] for key in keys]


class MediumSolver:
    """One assembled operator (and its block solves) shared across sources.

    All Green-tensor, field-coefficient and LDOS computations at a fixed
    frequency go through this object, which assembles once and builds its
    blocks once (lu_factor: a small block is LU-solved through the first
    solve and inverted at the second, for every later one):
    solve, solved (memoised by key) and grid_fields give on-grid values,
    and evaluate carries any of them (Green columns, e or m) to arbitrary
    points.  G0 rows and solved fields (Green columns by point, field
    coefficients by mode) are each memoised, read-only, for the
    _FIELDS_KEPT keys used last (_recall).
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
        self._solved, self._rows = {}, {}

    def solve(self, rhs):
        return solve_system(self.op, rhs, self.tol)

    def solved(self, rhs: Mapping):
        """The solutions of the right-hand sides rhs names, read-only, in its order.

        rhs maps hashable keys to callables, each giving an array of 3N
        rows' worth of columns ((3N,), (N, 3) or (N, 3, m)), and each
        solution keeps its right-hand side's shape.  Memoised by key, so a
        field revisited by key, such as the Green columns of a point or the
        e coefficient of one plane-wave mode, is solved once; every key not
        held is solved in one solve of all their columns, so each
        refinement step reads the factors and the kernel once for all.
        """
        n3 = self.op.n3

        def make(missing):
            parts = [np.asarray(rhs[key](), dtype=complex) for key in missing]
            x = self.solve(np.hstack([b.reshape(n3, -1) for b in parts]))
            x = np.split(x, np.cumsum([b.size // n3 for b in parts[:-1]]), axis=1)
            return [np.ascontiguousarray(xb).reshape(b.shape) for b, xb in zip(parts, x)]
        return _recall(self._solved, list(rhs), make)

    def sources(self, points) -> dict:
        """The Green sources at points (P, 3), as solved takes them: G0(z_i, y) n_j on the
        grid, (N, 3, 3), keyed by the point's bytes."""
        return {p.tobytes(): partial(self.g0_blocks_at, p)
                for p in np.asarray(points, dtype=float).reshape(-1, 3)}

    # -- geometry-aware kernel pieces -----------------------------------
    def g0_blocks_at(self, point):
        """G0(point, z_j) blocks (N, 3, 3), with the self block M/dV for the voxel holding point.

        A point inside the body sees its own voxel through the self term,
        at the center or off it, so the evaluation formula is finite
        everywhere and continuous at a voxel center (G0 to the center
        would diverge as the point nears it).  Read-only and memoised by
        point, so the source columns of x, its evaluation row and the
        discrete shell integral at x share one evaluation.
        """
        point = np.asarray(point, dtype=float)

        def make(_):
            idx = self.grid.index_of(point, rtol=0.5 - 1e-9)
            disp = point[None, :] - self.grid.centers
            if idx is not None:
                disp[idx] = 1.0
            blocks = g0_from_displacements(disp, self.omega)
            if idx is not None:
                blocks[idx] = (self_term_scalar(self.grid.voxel_volume, self.omega)
                               / self.grid.voxel_volume) * np.eye(3)
            return [blocks]
        return _recall(self._rows, [point.tobytes()], make)[0]

    def source_columns(self, y):
        """Right-hand side G0(z_i, y) n_j restricted to the grid, (3N, 3)."""
        return self.g0_blocks_at(y).reshape(self.op.n3, 3)

    def grid_fields(self, sources):
        """Solved on-grid Green columns X_i = G(z_i, y), read-only.

        sources is one point y (3,), giving (N, 3, 3), or P points (P, 3),
        giving (P, N, 3, 3): solved's values for self.sources, so every
        source not yet memoised is solved, a duplicate once, in one solve
        of 3P right-hand sides.
        """
        pts = np.asarray(sources, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != 3:
            raise ValueError(f"sources must be (3,) or (P, 3), got shape {pts.shape}")
        keyed = self.sources(pts)
        fields = dict(zip(keyed, self.solved(keyed)))
        if pts.ndim == 1:
            return fields[pts.tobytes()]
        out = np.stack([fields[p.tobytes()] for p in pts])
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
    # blocks the solve for y used, with M/dV in the voxel that holds y
    i2 = solver.grid.voxel_volume * np.einsum(
        "j,jba,jbc->ac", solver.beta, Xx, solver.g0_blocks_at(y))
    diff = solver.green(x, y) - g0_closed(x, y, solver.omega)
    # int beta G0(x,z) G(z,y): the evaluation route itself
    i1 = solver.scattered_at(x, Xy)
    return float(max(np.linalg.norm(diff - i1), np.linalg.norm(diff - i2)))
