"""Voxelization of the finite body and material binding.

The body is discretized on an axis-aligned cubic lattice by center-in-
shape membership (no partial-volume weighting); the lattice is centered
on the bounding box of the declared shapes so symmetric bodies get
symmetric grids.  Voxels are ordered lexicographically by (z, y, x),
z slowest, matching the mask file layout.

Mask files are plain text:

    nx ny nz voxel_edge origin_x origin_y origin_z
    <nx*ny*nz region ids, whitespace separated, z-major order>

Region id 0 marks an absent voxel; any other id must resolve to a
material of the scene.  Voxel centers sit at origin + (index + 1/2) * edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .constants import MAX_LATTICE_SITES, NUMBER_RANGE
from .permittivity import PermittivityModel, eval_eps


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    region_id: int = 1

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if not self.radius > 0.0:
            raise GridError("sphere radius must be positive")

    def bounding_box(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def contains(self, points):
        return np.linalg.norm(np.atleast_2d(points) - np.asarray(self.center), axis=1) <= self.radius


@dataclass(frozen=True)
class Box:
    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]
    region_id: int = 1

    def __post_init__(self):
        lo = tuple(float(v) for v in self.min_corner)
        hi = tuple(float(v) for v in self.max_corner)
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        if not all(h > l for l, h in zip(lo, hi)):
            raise GridError("box must have positive extent along every axis")

    def bounding_box(self):
        return np.asarray(self.min_corner), np.asarray(self.max_corner)

    def contains(self, points):
        p = np.atleast_2d(points)
        lo, hi = self.bounding_box()
        return np.all((p >= lo) & (p <= hi), axis=1)


@dataclass(frozen=True)
class MaskShape:
    path: str


class VoxelGrid:
    """Immutable cubical voxelization: centers, edge length, material ids.

    lattice_index is each voxel's (i, j, k) on the lattice, whose site
    (0, 0, 0) is lattice_origin, the minimum center per axis.
    """

    def __init__(self, centers, voxel_edge: float, material_ids):
        centers = np.array(centers, dtype=float).reshape(-1, 3)
        material_ids = np.array(material_ids, dtype=int).reshape(-1)
        if len(centers) == 0:
            raise GridError("no voxel center falls inside the body")
        if len(centers) != len(material_ids):
            raise GridError("centers and material ids disagree in length")
        if not voxel_edge > 0.0:
            raise GridError("voxel edge must be positive")
        origin = centers.min(axis=0)
        rel = (centers - origin) / voxel_edge
        ijk = np.rint(rel)
        if not np.max(np.abs(rel - ijk)) <= 1e-9:
            raise GridError("voxel centers do not lie on one cubic lattice of the voxel edge")
        ijk = ijk.astype(int)
        if len(np.unique(ijk, axis=0)) != len(centers):
            raise GridError("duplicate voxel centers")
        for array in (centers, material_ids, ijk, origin):
            array.flags.writeable = False
        self.centers = centers
        self.lattice_origin = origin
        self.voxel_edge = float(voxel_edge)
        self.material_ids = material_ids
        self.lattice_index = ijk
        self._parity_bases = {}

    @property
    def n(self) -> int:
        return len(self.centers)

    @cached_property
    def lattice_shape(self) -> tuple[int, int, int]:
        """Lattice sites per axis spanned by the voxels, (nx, ny, nz)."""
        return tuple(int(m) for m in self.lattice_index.max(axis=0) + 1)

    @property
    def voxel_volume(self) -> float:
        return self.voxel_edge**3

    @property
    def total_volume(self) -> float:
        return self.n * self.voxel_volume

    def bounding_box(self):
        h = 0.5 * self.voxel_edge
        return self.centers.min(axis=0) - h, self.centers.max(axis=0) + h

    @cached_property
    def lattice_flat(self) -> np.ndarray:
        """Flat (C-order) index of every voxel's site in the lattice_shape box, (N,)."""
        flat = np.ravel_multi_index(self.lattice_index.T, self.lattice_shape)
        flat.flags.writeable = False
        return flat

    @cached_property
    def _sorted_sites(self):
        """(order, lattice_flat[order]) with the flat site indices ascending."""
        order = np.argsort(self.lattice_flat)
        return order, self.lattice_flat[order]

    def _voxels_at(self, image):
        """The voxel at each lattice index of image (M, 3), (M,) int, or None unless
        every index is a voxel site: a sorted search of the flat site indices, so a
        sparse body's large box costs O(N log N).  image may be float: the bounds are
        checked before it is cast."""
        if ((image < 0) | (image >= self.lattice_shape)).any():
            return None
        order, sites = self._sorted_sites
        flat = np.ravel_multi_index(image.T.astype(int), self.lattice_shape)
        pos = np.minimum(np.searchsorted(sites, flat), self.n - 1)
        if not np.array_equal(sites[pos], flat):
            return None
        found = order[pos]
        found.flags.writeable = False
        return found

    @cached_property
    def mirrors(self) -> dict:
        """axis -> voxel permutation of the lattice mirror i_a -> n_a - 1 - i_a, (N,) int,
        for every axis whose mirror maps the voxel sites onto themselves.

        The image of voxel i is voxel mirrors[axis][i].
        """
        out = {}
        for axis, n in enumerate(self.lattice_shape):
            image = self.lattice_index.copy()
            image[:, axis] = n - 1 - image[:, axis]
            found = self._voxels_at(image)
            if found is not None:
                out[axis] = found
        return out

    @cached_property
    def permutations(self) -> dict:
        """sigma -> voxel permutation (N,) int of the lattice axis permutation that
        carries axis a to axis sigma[a], for every one but the identity that maps the
        voxel sites onto themselves (which needs equal extents on the axes it moves).

        The image of voxel i is voxel permutations[sigma][i], whose lattice index
        has i's index along axis a at axis sigma[a].  It conjugates the mirror of
        axis a into that of sigma[a], so it maps the set of mirrors onto itself.
        """
        out = {}
        for sigma in list(itertools.permutations(range(3)))[1:]:  # the identity first
            image = np.empty_like(self.lattice_index)
            image[:, sigma] = self.lattice_index
            found = self._voxels_at(image)
            if found is not None:
                out[sigma] = found
        return out

    def parity_basis(self, beta) -> "ParityBasis":
        """The ParityBasis of the group of lattice mirrors and axis permutations that map
        the voxel sites and the per-voxel beta (N,) exactly onto themselves.

        This is the one place where an operator's symmetry group is found: a
        mirror or permutation is kept when beta equals its image, and the
        group is the mirrors and permutations kept (a permutation that keeps
        beta maps the kept mirrors onto each other).  Built on first use and
        kept per group; reading permutations finds the grid's axis
        permutations at the first call.
        """
        kept = {key for key, image in (*self.mirrors.items(), *self.permutations.items())
                if np.array_equal(beta[image], beta)}
        group = (tuple(a for a in self.mirrors if a in kept),
                 tuple(s for s in self.permutations if s in kept))
        if group not in self._parity_bases:
            self._parity_bases[group] = ParityBasis(self, *group)
        return self._parity_bases[group]

    def index_of(self, point, rtol: float = 1e-9):
        """Index of the voxel whose center lies within rtol edges of point per axis, else None."""
        rel = (np.asarray(point, dtype=float) - self.lattice_origin) / self.voxel_edge
        site = np.rint(rel)
        if not np.all(np.abs(rel - site) <= rtol):
            return None
        found = self._voxels_at(site[None])  # None off the lattice box: no wrap-around
        return None if found is None else int(found[0])


class SectorClass(NamedTuple):
    """Parity sectors that axis permutations map onto each other, stored as one block.

    sectors: the characters chi of the members, the representative first;
    index (d,): the representative's coordinates, as in ParityBasis.sectors;
    positions (d, k): the fold position of every member's coordinate that
    the permutation carries coordinate i of the representative onto, column
    0 the representative's own; weights (d, 1): 1 / the stabilizer's size
    of each coordinate's orbit.
    """

    sectors: tuple
    index: np.ndarray
    positions: np.ndarray
    weights: np.ndarray


class ParityBasis:
    """Parity sectors of vector fields on a grid under a group of lattice mirrors and axis
    permutations, and the classes of sectors that the permutations carry onto each other.

    The mirror group has G = 2^len(axes) elements; element g is a bitmask
    whose bit k flips axes[k].  It acts on a field p by (R_g p)_i = S_g
    p_{g(i)}, S_g the diagonal of -1 on the flipped axes, so a kernel with
    K(g z, g z') = S_g K(z, z') S_g commutes with it.  Characters are
    bitmasks too, h(g) = (-1)^popcount(h & g), and sector chi holds the
    fields with R_g p = chi(g) p.  Each orbit is represented by its voxel
    in the lower half of every mirror axis (the center plane included),
    and a field of sector chi is fixed by its values there: component a
    obeys p_{g(rep), a} = h(g) p_{rep, a} with the source character
    h = chi ^ e_a, e_a the bit of axis a (0 off the axes).  The component
    belongs to the sector when h is 1 on the orbit's stabilizer (the
    mirrors whose plane holds rep), else it is 0 there, so an orbit of |O|
    voxels lends each component to |O| of the G sectors and the sector
    sizes sum to 3N.

    permutations lists the axis permutations sigma (keys of
    VoxelGrid.permutations, the identity left out) of a group that maps the
    voxels, beta and the set of mirror axes onto themselves.  T, carrying
    component a of voxel i to component sigma[a] of its image, commutes
    with K and conjugates mirror g into sigma(g), so it carries sector chi
    onto sector sigma(chi).  It maps every representative onto a
    representative (the lower half of an axis lands in the lower half of
    its image, which has the same extent), so coordinate (orbit, a) with
    source character h goes to (orbit of the image, sigma[a]) with
    sigma(h), with no sign, and the block of sigma(chi) is the block of chi
    with its coordinates renamed.

    reps (n_orbits,): the representatives, in voxel order; members
    (G, n_orbits): the voxel g(rep) of every group element and orbit, an
    orbit on a mirror plane listing its voxels more than once; stabilizer
    (n_orbits,): the stabilizer's size; sectors: chi -> (index, position)
    for every nonempty sector, index the flat positions 3 orbit + a of its
    coordinates, ordered by their source character h, and position their
    flat positions 3 n_orbits h + index in the (G, 3 n_orbits) coordinates
    of fold; classes: the SectorClass of every class of sectors, in the
    order of their first sector.  fold and unfold carry fields between
    voxels and orbit coordinates.  For the trivial group every voxel is its
    own orbit and the one sector holds every coordinate in voxel order.
    kernel_offsets indexes the kernel table at the representatives' rows
    alone, lazily.
    """

    def __init__(self, grid: "VoxelGrid", axes, permutations):
        self.axes, self.n = tuple(axes), grid.n
        self._lattice_index = grid.lattice_index
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
        e = np.zeros(3, dtype=int)
        e[list(self.axes)] = 1 << np.arange(len(self.axes))
        self.sectors = {}
        for chi in range(self.order):
            source = np.tile(chi ^ e, len(domain))
            index = np.flatnonzero((source & np.repeat(plane, 3)) == 0)
            index = index[np.argsort(source[index], kind="stable")]
            if len(index):
                self.sectors[chi] = (index, 3 * len(domain) * source[index] + index)
        width, weights = 3 * len(domain), 1.0 / np.repeat(self.stabilizer, 3)
        images = []  # (character map, coordinate map) of every permutation
        for sigma in permutations:
            chars = np.zeros(self.order, dtype=int)
            for k, axis in enumerate(self.axes):  # bit k flips axes[k]
                chars |= ((np.arange(self.order) >> k) & 1) << self.axes.index(sigma[axis])
            orbit = np.searchsorted(self.reps, grid.permutations[sigma][self.reps])
            images.append((chars, (3 * orbit[:, None] + np.asarray(sigma)).reshape(-1)))
        self.classes, placed = [], set()
        for chi, (index, position) in self.sectors.items():
            if chi in placed:
                continue
            members = {chi: position}
            for chars, coords in images:
                members.setdefault(int(chars[chi]),
                                   width * chars[position // width] + coords[index])
            placed.update(members)
            positions = np.stack(list(members.values()), axis=1)
            self.classes.append(
                SectorClass(tuple(members), index, positions, weights[index, None]))
        for array in (self.reps, self.members, self.stabilizer,
                      *(a for sector in self.sectors.values() for a in sector),
                      *(a for cls in self.classes for a in cls[1:])):
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
        return table

    @cached_property
    def kernel_offsets(self):
        """(axes, index): the table's offsets in lattice steps, |o_x| and the signed o_y, o_z
        of voxel pairs, and the flat position in it of every rep_i - g(rep_j), int32 (G,
        n_orbits, n_orbits), read at its negative where o_x < 0 (G0(-r) = G0(r))."""
        axes, index, flip = [], 0, None
        for coord in self._lattice_index.T:
            offset = coord[self.reps][None, :, None] - coord[self.members][:, None, :]
            flip = offset < 0 if flip is None else flip
            np.negative(offset, out=offset, where=flip)
            pairs = np.unique(np.subtract.outer(*[np.unique(coord)] * 2))  # -m, ..., m
            axes.append(pairs[pairs >= 0] if not axes else pairs)
            position = np.zeros(2 * pairs[-1] + 1, dtype=int)
            position[axes[-1] + pairs[-1]] = np.arange(len(axes[-1]))
            index = index * len(axes[-1]) + position[offset + pairs[-1]]
        index = index.astype(np.int32)
        for array in (*axes, index):
            array.flags.writeable = False
        return tuple(axes), index

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

    def fold(self, field):
        """sum_g h(g) field[g(rep)] for every character h, (G, n_orbits, ...).

        field (N, ...) holds a value per voxel, read at every orbit's members.
        """
        return self.transform(field[self.members])

    def unfold(self, coords):
        """sum_h h(g) coords[h, orbit] at voxel g(rep), (N, ...): fold's adjoint.

        coords (G, n_orbits, ...), C-contiguous, is overwritten; it must
        vanish at the coordinates no sector holds, so that a voxel listed
        twice among the members receives one value.
        """
        field = np.empty((self.n, *coords.shape[2:]), dtype=coords.dtype)
        field[self.members] = self.transform(coords)
        return field


def _lattice_counts(lo, hi, h: float):
    """Cells per axis of the lattice of edge h covering [lo, hi], (3,) float."""
    return np.maximum(1.0, np.ceil((np.asarray(hi, float) - np.asarray(lo, float)) / h - 1e-9))


def _lattice_centers(lo, hi, h: float):
    """Symmetric lattice of cell centers covering [lo, hi], (z,y,x) ordering."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    counts = _lattice_counts(lo, hi, h).astype(int)
    axes = [lo[i] + 0.5 * (hi[i] - lo[i]) - 0.5 * counts[i] * h + (np.arange(counts[i]) + 0.5) * h
            for i in range(3)]
    Z, Y, X = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)


def build_grid(shapes, voxel_edge: float | None = None) -> VoxelGrid:
    """Voxelize one shape or an ordered list of shapes.

    Geometric shapes use center-in-shape membership on a lattice spanning
    the union bounding box; when several shapes claim a voxel the later
    one wins (painter's order).  A mask shape carries its own lattice and
    ids and cannot be combined with other shapes.
    """
    if isinstance(shapes, (Sphere, Box, MaskShape)):
        shapes = [shapes]
    shapes = list(shapes)
    if not shapes:
        raise GridError("no shapes declared")

    if any(isinstance(s, MaskShape) for s in shapes):
        if len(shapes) != 1:
            raise GridError("a mask shape must be the only shape of the scene")
        centers, edge, ids = read_mask(shapes[0].path)
        if voxel_edge is not None and abs(edge - voxel_edge) > 1e-12 * edge:
            raise GridError(f"mask voxel edge {edge} conflicts with requested {voxel_edge}")
        return VoxelGrid(centers, edge, ids)

    if voxel_edge is None:
        raise GridError("voxel_edge is required for geometric shapes")
    diam = min(float(np.max(s.bounding_box()[1] - s.bounding_box()[0])) for s in shapes)
    if voxel_edge > diam:
        raise GridError("voxel edge exceeds the shape diameter")

    los, his = zip(*(s.bounding_box() for s in shapes))
    lo, hi = np.min(los, axis=0), np.max(his, axis=0)
    sites = float(np.prod(_lattice_counts(lo, hi, voxel_edge)))
    if sites > MAX_LATTICE_SITES:
        raise GridError(f"the lattice spanning the shapes has {int(sites)} sites, more than "
                        f"the {MAX_LATTICE_SITES} a grid may have: raise the voxel edge")
    pts = _lattice_centers(lo, hi, voxel_edge)
    ids = np.zeros(len(pts), dtype=int)
    for s in shapes:
        inside = s.contains(pts)
        ids[inside] = s.region_id
    keep = ids != 0
    return VoxelGrid(pts[keep], voxel_edge, ids[keep])


def eps_on_grid(grid: VoxelGrid, materials, omega: float):
    """Per-voxel eps(x_i, omega) and beta(x_i, omega) = omega^2 (eps - 1).

    materials: mapping region_id -> PermittivityModel.  Unknown region
    ids raise; vacuum regions (empty pole list) give beta = 0.
    """
    eps = np.empty(grid.n, dtype=complex)
    for rid in np.unique(grid.material_ids):
        if rid not in materials:
            raise KeyError(f"region id {rid} has no material definition")
        eps[grid.material_ids == rid] = eval_eps(materials[rid], omega)
    beta = omega**2 * (eps - 1.0)
    return eps, beta


def read_mask(path):
    """Parse a mask file into (centers (N,3), edge, region_ids (N,)); GridError if malformed."""
    text, (lo, hi) = Path(path).read_text().split(), NUMBER_RANGE
    if len(text) < 7:
        raise GridError(f"mask file {path}: truncated header")
    try:
        nx, ny, nz = (int(v) for v in text[:3])
        edge, *origin = (float(v) for v in text[3:7])
        vals = np.array([int(v) for v in text[7:]], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise GridError(f"mask file {path}: {exc}") from None
    if min(nx, ny, nz) < 1 or not (lo <= edge <= hi and all(abs(v) <= hi for v in origin)):
        raise GridError(f"mask file {path}: needs positive dimensions, an edge in [{lo:g}, "
                        f"{hi:g}] and an origin within {hi:g}, got {' '.join(text[:7])}")
    if len(vals) != nx * ny * nz:
        raise GridError(f"mask file {path}: expected {nx * ny * nz} ids, found {len(vals)}")
    ids = vals.reshape(nz, ny, nx)
    iz, iy, ix = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    centers = np.array(origin) + (np.stack([ix, iy, iz], axis=-1).reshape(-1, 3) + 0.5) * edge
    flat = ids.reshape(-1)
    keep = flat != 0
    if not keep.any():
        raise GridError(f"mask file {path}: all voxels absent")
    return centers[keep], edge, flat[keep]


def write_mask(path, shape_zyx, voxel_edge: float, origin, ids_zyx):
    """Write a mask file (inverse of read_mask); ids_zyx is (nz, ny, nx)."""
    nz, ny, nx = shape_zyx
    ids = np.asarray(ids_zyx, dtype=int).reshape(nz, ny, nx)
    lines = [f"{nx} {ny} {nz} {voxel_edge!r} " + " ".join(repr(float(v)) for v in origin)]
    lines += [" ".join(str(v) for v in row) for row in ids.reshape(nz * ny, nx)]
    Path(path).write_text("\n".join(lines) + "\n")
