"""Symmetry-adapted basis of vector fields on a voxel grid.

The group is the set of lattice mirrors i_a -> n_a - 1 - i_a and lattice
axis permutations that map the voxel sites and the per-voxel beta onto
themselves (found by VoxelGrid.symmetry_basis).  Every element commutes
with the discrete kernel, so in a basis adapted to the group's
irreducible representations the kernel is block diagonal, with one block
per irrep, repeated once per dimension of the irrep (symmetry-adapted
block diagonalization; Bossavit, Comput. Methods Appl. Mech. Eng. 56,
167 (1986); Fassler & Stiefel, Group Theoretical Methods and Their
Applications, Birkhauser (1992); for electromagnetic scattering Kahnert,
J. Opt. Soc. Am. A 22, 1187 (2005)).

The basis is built in two stages.  The mirrors form an abelian group of
G = 2^len(axes) elements, and a Walsh-Hadamard transform over the
members of each mirror orbit carries a field to its parity-sector
coordinates.  The axis permutations carry sectors onto each other (the
induced representations), and the permutations that keep a sector, its
stabilizer, permute that sector's coordinates; combining the at most six
stabilizer images of a coordinate splits the sector by the real irreps
of the stabilizer: even and odd under a single swap, A1, A2 and the
two-dimensional E under all of S3.  A stabilizer of 3-cycles alone has
complex characters, so where the permutations hold no swap, sectors are
only shared and never split.  The second stage is one sparse orthogonal
map from sector coordinates to the adapted ones, so fold, the whole map,
and unfold, its adjoint, are orthogonal: the kernel's block is the same
symmetric matrix in every copy of an irrep, and needs no weights.  Both
directions of that map are planned once per basis as numpy gathers
(_Sums), and so is fill's reading of the blocks where one chunk holds
every kernel row it reads, so a basis needs no sparse-matrix library.
"""

from __future__ import annotations

import math
import threading
from functools import cache, cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .geometry import _renumber, reflection

IDENTITY = (0, 1, 2)

#: bytes of kernel rows and their adapted images fill holds at a time (the 257-voxel
#: sphere's 1.6 MB in one); the rows' share is memory the calling thread keeps
_ROWS_CHUNK_BYTES = 7 << 19

#: floats of gathered terms fold and unfold hold at a time, so they stay in cache
_GATHER_FLOATS = 1 << 15

_held = threading.local()  # rows: where every fill in this thread, on any grid, gathers


class SymmetryClass(NamedTuple):
    """One stored block: an irrep of the stabilizer of a class of parity sectors.

    sectors: the parity sectors the class spans, its representative first;
    the block acts on fold's coordinates start .. start + d copies, d-major,
    one copy per sector of the class and partner of the irrep.  voxels
    (d,): a voxel of each coordinate's orbit, where beta is read.  The block
    rows are listed by the kernel row they are read from, ascending, so the
    rows a run of kernel rows gives are one slice: row by_row[k] of the block
    is sum_m weights[m, k] (K f_{v, slab[m, k]})[rows[k]], the kernel row
    rows[k] (3 row representative + component) against coordinate
    slab[m, k] = copy * dim + m of every coordinate v's slab of copies
    (partner m of one copy of the sector).
    """

    sectors: tuple
    start: int
    copies: int
    voxels: np.ndarray
    by_row: np.ndarray
    rows: np.ndarray
    slab: np.ndarray
    weights: np.ndarray


@cache
def _irreps(stabilizer):
    """The real orthogonal matrices, (len(stabilizer), n, n), of each irrep of a group
    of axis permutations (identity first) that the basis splits by: the trivial one,
    then, when the group holds a swap, the sign, and for all of S3 the standard
    representation on the plane x + y + z = 0."""
    irreps = [np.ones((len(stabilizer), 1, 1))]
    if len(stabilizer) > 1:
        swap = [sum(s[a] == a for a in range(3)) == 1 for s in stabilizer]
        irreps.append(np.where(swap, -1.0, 1.0)[:, None, None])
    if len(stabilizer) == 6:
        matrices = np.zeros((6, 3, 3))
        for k, sigma in enumerate(stabilizer):
            matrices[k, list(sigma), IDENTITY] = 1.0
        plane = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.sqrt([[2.0], [6.0]])
        irreps.append(plane @ matrices @ plane.T)
    for irrep in irreps:  # cached, so shared by every basis
        irrep.flags.writeable = False
    return tuple(irreps)


class _Run(NamedTuple):
    """Output rows of a _Sums that sum as many terms each: index (slots, n) and weights
    (slots, n, 1 or 2), slot-major, and rows, a slice of the output, or places (c, n),
    each row going to c places."""

    index: np.ndarray
    weights: np.ndarray
    rows: slice | np.ndarray


class _Sums(NamedTuple):
    """A sparse real map of rows, y = M x, as numpy gathers, one run at a time.

    Each row of a run is the sum over its slots of weights * x[index]: the run's terms
    are gathered and scaled _GATHER_FLOATS at a time, and summed from 0 in one
    reduction over the slots.  weights is (..., 1) for a complex x (rows, m), and (...,
    2) for a one-dimensional complex x, each weight repeated for the real and the
    imaginary part, so every product runs over contiguous memory.
    """

    runs: tuple

    def __call__(self, x, out):
        """out <- M x for complex x (M's columns, ...) and out (M's rows, ...); the rows
        of out that no run gives are left as they are."""
        width = 2 * math.prod(out.shape[1:])
        reals = out.view(float).reshape(len(out), width)
        for index, weights, rows in self.runs:
            step = max(1, _GATHER_FLOATS // (len(index) * width))
            for lo in range(0, index.shape[1], step):
                cut = slice(lo, lo + step)
                terms = x.take(index[:, cut], axis=0).view(float).reshape(len(index), -1, width)
                terms *= weights[:, cut]
                # from 0, over real parts, so no run sums pairwise by its length
                if isinstance(rows, slice):
                    np.add.reduce(terms, axis=0, initial=0.0, out=reals[rows][cut])
                    continue
                sums = np.add.reduce(terms, axis=0, initial=0.0).view(complex).reshape(
                    -1, *out.shape[1:])
                for places in rows[:, cut]:
                    out[places] = sums
        return out

    def slots(self, lo, hi):
        """(index, weights), each (slots, hi - lo): the terms of output rows lo:hi, which
        lie in one run given as a slice."""
        for index, weights, rows in self.runs:
            if isinstance(rows, slice) and rows.start <= lo and hi <= rows.stop:
                cut = slice(lo - rows.start, hi - rows.start)
                return index[:, cut], weights[:, cut, 0]
        raise IndexError(f"rows {lo}:{hi} lie in no run")


def _sums(parts, pairs=False):
    """The read-only _Sums of parts, (index, weights, rows): index and weights (slots,
    n), rows a slice or places (c, n) as in _Run; adjacent parts of as many slots whose
    rows are both slices, one following the other, or both places share one run.
    pairs: for a one-dimensional complex x."""
    runs = []
    for (_, ordered), group in groupby(parts, key=lambda part: (
            len(part[0]), isinstance(part[2], slice))):
        group = list(group)
        index, weights = (np.concatenate([part[k] for part in group], axis=1) for k in (0, 1))
        rows = (slice(group[0][2].start, group[-1][2].stop) if ordered else
                np.concatenate([part[2] for part in group], axis=1))
        run = _Run(index.astype(np.int32), np.repeat(weights[..., None], 2 if pairs else 1,
                                                     axis=2), rows)
        for array in run[:2 if ordered else 3]:
            array.flags.writeable = False
        runs.append(run)
    return _Sums(tuple(runs))


class SymmetryBasis:
    """The symmetry-adapted basis of vector fields on a grid under a group of lattice
    mirrors and axis permutations that map the voxels and beta onto themselves.

    Mirror stage.  Element g of the mirror group is a bitmask whose bit k
    flips axes[k]; it acts on a field p by (R_g p)_i = S_g p_{g(i)}, S_g the
    diagonal of -1 on the flipped axes.  Characters are bitmasks too, h(g)
    = (-1)^popcount(h & g), and sector chi holds the fields with R_g p =
    chi(g) p.  Each mirror orbit is represented by its voxel in the lower
    half of every mirror axis, and component a of an orbit has source
    character h = chi ^ e_a in sector chi (e_a the bit of axis a); it is a
    coordinate of the sector when h is 1 on the orbit's stabilizer (the
    mirrors whose plane holds the representative).  Fold position 3 R h +
    3 orbit + a holds sum_g h(g) p_{g(rep), a}, which the Walsh-Hadamard
    transform over members forms for every h at once.

    Permutation stage.  An axis permutation sigma (a key of
    VoxelGrid.permutations) carries component a of voxel i to component
    sigma[a] of its image, with no sign, so it maps fold position (h,
    orbit, a) to (sigma(h), orbit of the image, sigma[a]) and sector chi to
    sigma(chi).  The sectors one class maps onto each other are copies of
    its representative sector s, and the stabilizer of s permutes s's
    coordinates.  For each irrep of the stabilizer, the projection of one
    coordinate per stabilizer orbit (combined over at most six images, and
    orthonormalized on the orbit's own stabilizer) gives the irrep's
    coordinates; a two-dimensional irrep has two partners, one block.  Each
    generating coordinate is a kernel row of a row representative (one
    mirror orbit per orbit of the whole group) in one copy of s, so the
    block rows are read from those kernel rows alone.

    reps (R,): the mirror orbits' representatives, in voxel order; members
    (G, R): the voxel g(rep) of every mirror and orbit, an orbit on a
    mirror plane listing its voxels more than once; stabilizer (R,): the
    size of its mirror stabilizer; rows: the row representatives, indices
    into reps; sectors: the size of every nonempty parity sector; classes:
    one SymmetryClass per stored block, in the order of their first
    sector; fold and unfold carry fields between voxels and the adapted
    coordinates; kernel_offsets places the row representatives' rows in
    the kernel table, lazily, and fill reads the stored blocks through it.
    For the trivial group every voxel is its own orbit and the one block
    holds every coordinate in voxel order.
    """

    def __init__(self, grid, axes, permutations):
        self.axes, self.n = tuple(axes), grid.n
        self._lattice_index, self._lattice_shape = grid.lattice_index, grid.lattice_shape
        domain, plane = np.arange(grid.n), np.zeros(grid.n, dtype=int)
        for k, axis in enumerate(self.axes):
            coord = grid.lattice_index[:, axis]
            plane |= (grid.mirrors[axis] == np.arange(grid.n)) << k
            domain = domain[2 * coord[domain] <= grid.lattice_shape[axis] - 1]
        self.reps, plane = domain, plane[domain]
        members = [self.reps]
        for axis in self.axes:  # element g + 2^k is g followed by the mirror of axes[k]
            members += [grid.mirrors[axis][m] for m in members]
        self.members = np.stack(members)
        self.stabilizer = 1 << ((plane[:, None] >> np.arange(len(self.axes))) & 1).sum(axis=1)
        order, width = self.order, 3 * len(self.reps)
        e = np.zeros(3, dtype=int)
        e[list(self.axes)] = 1 << np.arange(len(self.axes))
        source = np.arange(order)[:, None]
        live = ((source & np.repeat(plane, 3)) == 0).reshape(-1)
        sector = (source ^ np.tile(e, len(self.reps))).reshape(-1)
        counts = np.bincount(sector[live], minlength=order)
        self.sectors = tuple(int(c) for c in counts if c)

        group = [IDENTITY, *permutations]
        split = any(sum(s[a] == a for a in range(3)) == 1 for s in group)
        chars = np.zeros((len(group), order), dtype=int)  # the image of every sector
        orbits = np.empty((len(group), len(self.reps)), dtype=int)  # of every mirror orbit
        for i, sigma in enumerate(group):
            for k, axis in enumerate(self.axes):  # bit k flips axes[k]
                chars[i] |= ((np.arange(order) >> k) & 1) << self.axes.index(sigma[axis])
            voxels = self.reps if i == 0 else grid.permutations[sigma][self.reps]
            orbits[i] = np.searchsorted(self.reps, voxels)
        coords = 3 * orbits[:, :, None] + np.array(group)[:, None, :]
        maps = (width * chars[:, :, None] + coords.reshape(len(group), 1, -1)).reshape(len(group), -1)
        inverse = np.empty_like(maps)  # every map is a permutation of the fold positions
        inverse[np.arange(len(group))[:, None], maps] = np.arange(maps.shape[1])
        self.rows = np.flatnonzero(np.min(orbits if split else orbits[:1], axis=0)
                                   == np.arange(len(self.reps)))
        row_coords = (3 * self.rows[:, None] + np.arange(3)).reshape(-1)
        row_source = np.tile(e, len(self.rows))

        self.classes, placed, start, entries = [], set(), 0, []
        for chi in np.flatnonzero(counts).tolist():
            if chi in placed:
                continue
            images_of_chi = chars[:, chi].tolist()
            targets = sorted(set(images_of_chi))
            copies = np.array([images_of_chi.index(t) for t in targets])  # each sector's first
            placed.update(targets)
            stab = np.flatnonzero(chars[:, chi] == chi) if split else np.zeros(1, dtype=int)
            # generators: the row coordinates of each copy, carried back to sector chi,
            # one per stabilizer orbit of chi's coordinates, copy 0's first
            at = width * (np.array(targets)[:, None] ^ row_source) + row_coords
            kappa, row = np.nonzero(live[at])
            at = inverse[copies[kappa], at[kappa, row]]
            key = maps[stab][:, at].min(axis=0)  # the first generator of each orbit is kept
            first = np.argsort(key, kind="stable")
            keep = first[np.diff(key[first], prepend=-1) != 0]
            at, kappa, row = at[keep], kappa[keep], row[keep]
            images = maps[stab][:, at].T  # (generators, |stab|)
            fixed = images == at[:, None]
            positions = maps[copies][:, images].transpose(1, 0, 2)  # (generators, copies, |stab|)
            for irrep in _irreps(tuple(group[i] for i in stab)):
                dim = irrep.shape[1]
                projector = np.einsum("gs,sij->gij", fixed, irrep) / fixed.sum(1)[:, None, None]
                values, vectors = (np.linalg.eigh(projector) if dim > 1
                                   else (projector[..., 0], np.ones_like(projector)))
                gen, col = np.nonzero(values > 0.5)
                if not len(gen):
                    continue
                w = vectors[gen, :, col]  # (d, dim), an orthonormal basis per generator
                scale = np.sqrt(len(stab) / (dim * fixed[gen].sum(1)))
                # partner l of coordinate u: scale dim/|stab| sum_mu (D(mu) w_u)_l e_{mu(at_u)}
                coef = np.einsum("slm,um->usl", irrep, w) * (scale * dim / len(stab))[:, None, None]
                d, n_copies = len(gen), len(copies) * dim
                # row start + (u copies + kappa) dim + l holds one entry per stabilizer element
                shape = (d, len(copies), dim, len(stab))
                entries.append((np.broadcast_to(positions[gen][:, :, None], shape),
                                np.broadcast_to(coef.transpose(0, 2, 1)[:, None], shape)))
                orbit = self.rows[row[gen] // 3]
                weights = scale[:, None] * w * np.sqrt(order / self.stabilizer[orbit])[:, None]
                by_row = np.argsort(row[gen], kind="stable")
                slab = dim * kappa[gen][by_row] + np.arange(dim)[:, None]
                self.classes.append(SymmetryClass(tuple(targets), start, n_copies,
                                                  self.reps[orbit], by_row, row[gen][by_row],
                                                  slab, weights.T[:, by_row]))
                start += d * n_copies
        # fold position (h, orbit, a) carries 1 / sqrt(G |its mirror stabilizer|)
        mirror = self.stabilizer[np.arange(width) // 3]
        parts, row = [], 0
        for columns, coef in entries:
            columns, coef = (a.reshape(-1, a.shape[-1]).T for a in (columns, coef))
            parts.append((columns, coef / np.sqrt(order * mirror[columns % width]),
                          slice(row, row + columns.shape[1])))
            row += columns.shape[1]
        self._fold = _sums(parts)
        # the adjoint times the mirror stabilizers: fold's terms grouped by their column,
        # the columns ordered by their number of terms, each run summing one number of
        # terms; a position outside every sector has none, and unfold leaves it 0
        rows, columns, weights = (np.concatenate(terms) for terms in zip(*(
            (np.broadcast_to(np.arange(rows.start, rows.stop), index.shape).reshape(-1),
             index.reshape(-1), weights.reshape(-1)) for index, weights, rows in parts)))
        terms = np.bincount(columns, minlength=order * width)
        by_column = np.lexsort((columns, terms[columns]))
        rows, weights = rows[by_column], (weights * mirror[columns % width])[by_column]
        parts, at = [], 0
        for slots in filter(None, np.flatnonzero(np.bincount(terms)).tolist()):
            places = np.flatnonzero(terms == slots)
            parts.append((rows[at:at + slots * len(places)].reshape(-1, slots).T,
                          weights[at:at + slots * len(places)].reshape(-1, slots).T,
                          places[None]))
            at += slots * len(places)
        self._unfold = _sums(parts)
        for array in (self.reps, self.members, self.stabilizer, self.rows,
                      *(a for cls in self.classes for a in cls[3:])):
            array.flags.writeable = False

    @property
    def order(self) -> int:
        return 1 << len(self.axes)

    @cached_property
    def characters(self):
        """h(g) = (-1)^popcount(h & g), (G, G) float, row h: one Kronecker factor per bit."""
        table = np.ones((1, 1))
        for _ in self.axes:
            table = np.kron([[1.0, 1.0], [1.0, -1.0]], table)
        table.flags.writeable = False
        return table

    @cached_property
    def kernel_offsets(self):
        """(index, distinct, signed): where the row representatives' kernel rows are read
        in the kernel table, lazily.

        The table holds the blocks at the P lattice offsets rep - g(rep_j) that some
        row representative rep and member g(rep_j) reach, row b of the block at offset
        p in its row 3 p + b, and index, int32 (G, R, len(rows)), is 3 p for each.
        (distinct, signed): geometry.reflection of the P offsets, signed as (3 P, 3).
        """
        key, box = 0, [2 * n - 1 for n in self._lattice_shape]
        for coord, width in zip(self._lattice_index.T, box):
            offset = coord[self.reps[self.rows]][None, None, :] - coord[self.members][:, :, None]
            key = key * width + offset + width // 2
        reached, index = _renumber(key, math.prod(box))
        distinct, signed = reflection(np.stack(np.unravel_index(reached, box), axis=1)
                                      - np.array(box) // 2)
        index, signed = (3 * index).astype(np.int32), signed.reshape(-1, 3)
        for array in (index, distinct, signed):
            array.flags.writeable = False
        return index, distinct, signed

    def transform(self, x):
        """x[h] <- sum_g h(g) x[g] for every character h along axis 0 of a C-contiguous
        (G, ...) array, in place; returns x.

        The Walsh-Hadamard transform as real products with the character
        table, 4096 real columns at a time, so each temporary stays in cache.
        """
        if self.order > 1:
            flat = x.reshape(self.order, -1)
            flat = flat.view(flat.real.dtype)  # a complex array as (re, im) pairs
            for start in range(0, flat.shape[1], 4096):
                part = flat[:, start:start + 4096]
                part[...] = self.characters @ part
        return x

    def fold(self, q):
        """The adapted coordinates (3N, m) of a field q (3N, m) given per voxel component."""
        m = q.shape[1]
        folded = self.transform(q.reshape(self.n, 3 * m)[self.members])
        return self._fold(folded.reshape(-1, m), np.empty((3 * self.n, m), dtype=complex))

    def unfold(self, coords):
        """The field (3N, m) per voxel component of adapted coordinates (3N, m): fold's
        inverse and adjoint."""
        m = coords.shape[1]
        folded = np.zeros((self.order, len(self.reps), 3 * m), dtype=complex)
        self._unfold(coords, folded.reshape(-1, m))
        field = np.empty((self.n, 3 * m), dtype=complex)
        field[self.members] = self.transform(folded)
        return field.reshape(3 * self.n, m)

    def blocks(self, kernel):
        """The (d, d) block of every class, views of a kernel buffer (sum_c d_c^2,)."""
        sizes = [len(cls.voxels) for cls in self.classes]
        ends = np.cumsum([d * d for d in sizes]).tolist()
        return [kernel[end - d * d:end].reshape(d, d) for d, end in zip(sizes, ends)]

    def blockwise(self, q, maps):
        """unfold of maps[c] applied to the adapted coordinates of every class c of q, for a
        (3N, m) q.

        fold gives q's coordinates in the orthonormal symmetry-adapted basis;
        a class's d coordinates in each of its k copies form one (d, k m)
        array, which maps[c] takes to the coordinates of its image.
        """
        m = q.shape[1]
        coords = self.fold(q)
        for cls, apply in zip(self.classes, maps):  # a class's image replaces its coordinates
            part = slice(cls.start, cls.start + len(cls.voxels) * cls.copies)
            coords[part] = apply(coords[part].reshape(len(cls.voxels), -1)).reshape(-1, m)
        return self.unfold(coords)

    @cached_property
    def _gathers(self):
        """(images, gathers, read): fold's second stage and _gather in two plans, for a
        basis filled in one chunk.  images takes the flattened rows (fold positions by
        kernel rows) to the read image values _gather reads, entry by entry and partner
        by partner, and gathers those to the stored entries, so no image value goes
        unread.  Their sums are fold's and _gather's, term for term, so a basis fills to
        the same bits in any chunks."""
        count, parts, offset = 3 * len(self.rows), [], 0
        for cls in self.classes:
            d = len(cls.voxels)
            k, i = np.nonzero(np.arange(d) <= cls.by_row[:, None])
            row = cls.by_row[k]
            index, weights = self._fold.slots(cls.start, cls.start + d * cls.copies)
            r = (i * cls.copies + cls.slab[:, k]).reshape(-1)  # partner-major
            parts.append((index[:, r] * count + np.tile(cls.rows[k], len(cls.slab)),
                          weights[:, r], cls.weights[:, k],
                          offset + np.stack([d * row + i, d * i + row])))
            offset += d * d
        images, gathers, read = [], [], 0
        for index, weights, partners, places in sorted(parts, key=lambda part: len(part[0])):
            images.append((index, weights, slice(read, read + index.shape[1])))
            gathers.append((read + np.arange(index.shape[1]).reshape(len(partners), -1),
                            partners, places))
            read += index.shape[1]
        return (_sums(images, pairs=True),
                _sums(sorted(gathers, key=lambda part: len(part[0])), pairs=True), read)

    def _gather(self, image, first, kernel):
        """The stored entries that image, fold's coordinates (3N, count) of the kernel rows
        first .. first + count, gives, class by class: entry (by_row[k], i) of a class's
        block is the sum over partners m of weights[m, k] times image[start + i copies +
        slab[m, k], rows[k]] (SymmetryClass), its weight applied to the real and the
        imaginary part.  The entries above the diagonal are left to fill's mirror."""
        count = image.shape[1]
        for cls, block in zip(self.classes, self.blocks(kernel)):
            a, b = np.searchsorted(cls.rows, (first, first + count))
            part = image[cls.start:cls.start + len(block) * cls.copies].reshape(
                len(block), cls.copies, count).transpose(1, 2, 0)
            rows = np.zeros((b - a, len(block)), dtype=complex)  # as _Sums sums, from 0
            for slab, weights in zip(cls.slab[:, a:b], cls.weights[:, a:b]):
                term = part[slab, cls.rows[a:b] - first]  # (block rows, d), C-ordered
                term.view(float).reshape(*term.shape, 2)[...] *= weights[:, None, None]
                rows += term
            block[cls.by_row[a:b]] = rows

    def fill(self, table, beta):
        """(kernel, ||I - K diag(beta)||_inf) for the K whose 3x3 blocks table (3 P, 3) holds
        at kernel_offsets' P offsets; blocks views kernel, each block exactly symmetric.

        Only the rows of the row representatives are read, rows[g, j, i] =
        K[g(rep_j), row_i], _ROWS_CHUNK_BYTES of rows and their adapted images at a
        time: one take into memory the calling thread keeps (the basis keeps none, so
        threads may fill on one basis at once), fold's two stages, and the gather of
        every class (K is symmetric, so rows are also columns).  A basis filled in one
        chunk gathers through one plan it keeps (_gathers), a larger one class by class
        (_gather), with the same arithmetic; the entries on and below each diagonal are
        gathered, and mirrored, so every block is exactly symmetric.  ||A||_inf is the
        rows' largest absolute row sum (the group maps them onto every row), over g and
        then over members, one listed k times counting 1/k, in an order no chunk moves.
        """
        index = self.kernel_offsets[0]
        order, reps = self.members.shape
        counted = np.repeat(np.abs(beta[self.reps]) / self.stabilizer, 3)[:, None]
        sums = np.empty(3 * len(self.rows))
        kernel = np.empty(sum(len(cls.voxels) ** 2 for cls in self.classes), dtype=complex)
        step = max(1, _ROWS_CHUNK_BYTES // (48 * (order * 3 * reps + 3 * self.n)))
        size = 9 * order * reps * min(step, len(self.rows))
        if getattr(_held, "rows", np.empty(0)).size < size:  # kept for the thread's next fill
            _held.rows = np.empty(size, dtype=complex)
        magnitudes = np.abs(table)
        for start in range(0, len(self.rows), step):
            pairs = index[:, :, None, start:start + step] + np.arange(3)[:, None]
            rows = _held.rows[:3 * pairs.size].reshape(order, reps, 3, -1, 3)
            # table row 3 p + b (the blocks are symmetric); mode="clip" writes to rows unbuffered
            np.take(table, pairs, axis=0, out=rows, mode="clip")
            rows = rows.reshape(order, 3 * reps, -1)
            first, count = 3 * start, rows.shape[2]
            # summed over g, then over members, entry by entry: BLAS would round by position
            sums[first:first + count] = (counted * magnitudes.take(pairs, axis=0).reshape(
                rows.shape).sum(axis=0)).sum(axis=0)
            rows = self.transform(rows).reshape(order * 3 * reps, count)
            if step >= len(self.rows):
                images, gathers, read = self._gathers
                gathers(images(rows.reshape(-1), np.empty(read, complex)), kernel)
                continue
            self._gather(self._fold(rows, np.empty((3 * self.n, count), complex)), first, kernel)
        for block in self.blocks(kernel) if step < len(self.rows) else ():
            for row in range(1, len(block)):  # column row above the diagonal, from row row
                block[:row, row] = block[row, :row]
        zero = index[0, self.rows[0], 0]  # rep - rep for the first row representative
        diagonal = np.tile(table[zero:zero + 3].diagonal(), len(self.rows)) * np.repeat(
            beta[self.reps[self.rows]], 3)
        return kernel, float(np.max(sums + np.abs(1.0 - diagonal) - np.abs(diagonal)))
