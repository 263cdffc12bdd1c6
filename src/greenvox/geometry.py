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

import numpy as np

from .constants import MAX_LATTICE_SITES, NUMBER_RANGE
from .permittivity import PermittivityModel, _distinct, eval_eps


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
        if _repeats_a_row(ijk):
            raise GridError("duplicate voxel centers")
        for array in (centers, material_ids, ijk, origin):
            array.flags.writeable = False
        self.centers = centers
        self.lattice_origin = origin
        self.voxel_edge = float(voxel_edge)
        self.material_ids = material_ids
        self.lattice_index = ijk
        self._symmetry_bases = {}

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
        sites = self.lattice_flat[order]
        order.flags.writeable = sites.flags.writeable = False
        return order, sites

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

    def symmetry_basis(self, beta):
        """The symmetry.SymmetryBasis of the group of lattice mirrors and axis permutations
        that map the voxel sites and the per-voxel beta (N,) exactly onto themselves.

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
        if group not in self._symmetry_bases:
            from .symmetry import SymmetryBasis  # imported here: symmetry imports geometry
            self._symmetry_bases[group] = SymmetryBasis(self, *group)
        return self._symmetry_bases[group]

    def index_of(self, point, rtol: float = 1e-9):
        """Index of the voxel whose center lies within rtol edges of point per axis, else None."""
        rel = (np.asarray(point, dtype=float) - self.lattice_origin) / self.voxel_edge
        site = np.rint(rel)
        if not np.all(np.abs(rel - site) <= rtol):
            return None
        found = self._voxels_at(site[None])  # None off the lattice box: no wrap-around
        return None if found is None else int(found[0])


def _repeats_a_row(rows):
    """Whether two rows of a 2-D array are equal, entry by entry (so -0.0 equals 0.0 and
    no row holding NaN equals another, as for np.unique(rows, axis=0))."""
    ordered = rows[np.lexsort(rows.T)]
    return bool(np.any(np.all(ordered[1:] == ordered[:-1], axis=1)))


def _renumber(keys, size):
    """(the distinct keys in [0, size), ascending; the position of every key among
    them), by a table over [0, size), which takes no sort."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


def reflection(offsets):
    """(distinct, signed): the kernel table at lattice offsets (P, 3), 0 among them, as the
    reflection G0(o) = S G0(|o|) S, S the mirror of the axes where o < 0, of the blocks at
    the distinct |offsets| (M, 3), ascending from 0.  signed (P, 3, 3): the flat position
    of every entry in reflect's stack (2, M, 3, 3) of the blocks times +1 and -1."""
    size = [int(column.max()) + 1 for column in np.abs(offsets).T]  # the box of |offsets|
    distinct, block = _renumber(np.ravel_multi_index(np.abs(offsets).T, size), np.prod(size))
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1  # the negative axes of 8 sign patterns
    flipped = (bits[:, :, None] != bits[:, None, :]).reshape(8, 9)
    signed = (np.arange(9) + 9 * len(distinct) * flipped).take((offsets < 0) @ [1, 2, 4], axis=0)
    signed += (9 * block)[:, None]
    return np.stack(np.unravel_index(distinct, size), axis=1), signed.reshape(-1, 3, 3)


def reflect(blocks, signed):
    """The kernel table of signed's shape from the blocks (M, 3, 3) at reflection's distinct
    |offsets| (times -1.0: a negation differs from it in the sign of some zero parts)."""
    return (blocks * np.array([1.0, -1.0])[:, None, None, None]).take(signed)


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
    for rid in _distinct(grid.material_ids):
        if rid not in materials:
            raise KeyError(f"region id {rid} has no material definition")
        eps[grid.material_ids == rid] = eval_eps(materials[rid], omega)
    beta = omega**2 * (eps - 1.0)
    return eps, beta


def read_mask(path):
    """Parse a mask file into (centers (N,3), edge, region_ids (N,)); GridError if malformed."""
    try:
        text, (lo, hi) = Path(path).read_text().split(), NUMBER_RANGE
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        raise GridError(f"mask file {path}: {getattr(exc, 'strerror', None) or exc}") from None
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
