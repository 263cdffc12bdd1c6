import warnings

import numpy as np
import pytest

from greenvox import (Box, GridError, LorentzPole, MaskShape, PermittivityModel,
                      Sphere, VoxelGrid, build_grid, eps_on_grid, eval_eps)
from greenvox.geometry import read_mask, write_mask


def test_box_exact_tiling():
    grid = build_grid(Box(min_corner=(0, 0, 0), max_corner=(0.8, 0.8, 0.8)), 0.2)
    assert grid.n == 64
    assert grid.voxel_volume == pytest.approx(0.2**3)
    lo, hi = grid.bounding_box()
    assert np.allclose(lo, 0.0) and np.allclose(hi, 0.8)


def test_sphere_volume_convergence():
    r = 1.0
    grid = build_grid(Sphere(center=(0, 0, 0), radius=r), r / 8)
    exact = 4 / 3 * np.pi * r**3
    assert abs(grid.total_volume - exact) / exact < 0.05
    lo, hi = grid.bounding_box()
    assert grid.total_volume <= np.prod(hi - lo) * (1 + 1e-12)


def test_grid_ordering_deterministic():
    shape = Sphere(center=(0.1, -0.2, 0.3), radius=0.9)
    a = build_grid(shape, 0.25)
    b = build_grid(shape, 0.25)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.material_ids, b.material_ids)


def test_grid_ordering_is_z_major():
    grid = build_grid(Box(min_corner=(0, 0, 0), max_corner=(0.4, 0.4, 0.4)), 0.2)
    # lexicographic in (z, y, x): z slowest, x fastest
    order = np.lexsort((grid.centers[:, 0], grid.centers[:, 1], grid.centers[:, 2]))
    assert np.array_equal(order, np.arange(grid.n))


def test_empty_grid_rejected():
    with pytest.raises(GridError):
        build_grid(Sphere(center=(0, 0, 0), radius=0.4), 0.9)  # center-in misses


def test_voxel_edge_guard():
    with pytest.raises(GridError):
        build_grid(Sphere(center=(0, 0, 0), radius=0.4), 2.0)


def test_centers_inside_shape():
    s = Sphere(center=(0.2, 0.0, -0.1), radius=0.7)
    grid = build_grid(s, 0.15)
    assert s.contains(grid.centers).all()


def test_painter_order_materials():
    outer = Box(min_corner=(-0.4, -0.4, -0.4), max_corner=(0.4, 0.4, 0.4), region_id=1)
    inner = Sphere(center=(0, 0, 0), radius=0.2, region_id=2)
    grid = build_grid([outer, inner], 0.1)
    dist = np.linalg.norm(grid.centers, axis=1)
    assert (grid.material_ids[dist <= 0.2] == 2).all()
    assert (grid.material_ids[dist > 0.2] == 1).all()


def test_mask_single_voxel_passthrough(tmp_path):
    path = tmp_path / "one.msk"
    write_mask(path, (1, 1, 1), 0.3, (1.0, 2.0, 3.0), np.array([[[5]]]))
    grid = build_grid(MaskShape(path=str(path)))
    assert grid.n == 1
    assert np.allclose(grid.centers[0], [1.15, 2.15, 3.15])
    assert grid.material_ids[0] == 5


def test_mask_round_trip(tmp_path):
    ids = np.zeros((3, 2, 4), dtype=int)
    ids[0, 1, 2] = 1
    ids[2, 0, 0] = 3
    ids[1, 1, 3] = 1
    path = tmp_path / "body.msk"
    write_mask(path, ids.shape, 0.25, (-0.5, 0.0, 0.5), ids)
    centers, edge, rids = read_mask(path)
    assert edge == 0.25
    assert len(centers) == 3
    assert sorted(rids.tolist()) == [1, 1, 3]
    # z-major order: first listed voxel is the one with smallest z-index
    assert centers[0].tolist() == [-0.5 + 2.5 * 0.25, 0.0 + 1.5 * 0.25, 0.5 + 0.5 * 0.25]


def test_mask_header_and_count_errors(tmp_path):
    bad = tmp_path / "bad.msk"
    bad.write_text("2 2\n")
    with pytest.raises(GridError, match="header"):
        read_mask(bad)
    bad.write_text("2 1 1 0.1 0 0 0\n1\n")
    with pytest.raises(GridError, match="expected 2 ids"):
        read_mask(bad)


def test_eps_on_grid_vacuum_and_signs():
    grid = build_grid(Box(min_corner=(0, 0, 0), max_corner=(0.4, 0.4, 0.4)), 0.2)
    vac = {1: PermittivityModel()}
    eps, beta = eps_on_grid(grid, vac, 1.3)
    assert np.all(eps == 1.0) and np.all(beta == 0.0)
    lorentz = {1: PermittivityModel(poles=(LorentzPole(1.5, 1.0, 0.4),))}
    eps, beta = eps_on_grid(grid, lorentz, 1.3)
    assert np.all(beta.imag > 0.0)  # Im beta > 0 wherever Im eps > 0


def test_eps_on_grid_two_materials(tmp_path):
    outer = Box(min_corner=(-0.3, -0.3, -0.3), max_corner=(0.3, 0.3, 0.3), region_id=1)
    inner = Sphere(center=(0, 0, 0), radius=0.15, region_id=2)
    grid = build_grid([outer, inner], 0.1)
    mats = {1: PermittivityModel(poles=(LorentzPole(1.5, 1.0, 0.4),)),
            2: PermittivityModel(poles=(LorentzPole(0.0, 2.0, 0.2),))}
    omega = 0.9
    eps, _ = eps_on_grid(grid, mats, omega)
    for rid in (1, 2):
        sel = grid.material_ids == rid
        assert np.allclose(eps[sel], eval_eps(mats[rid], omega))


def test_eps_on_grid_unknown_region():
    grid = build_grid(Box(min_corner=(0, 0, 0), max_corner=(0.4, 0.4, 0.4),
                          region_id=7), 0.2)
    with pytest.raises(KeyError, match="region id 7"):
        eps_on_grid(grid, {1: PermittivityModel()}, 1.0)


def test_index_of_exact_center():
    grid = build_grid(Box(min_corner=(0, 0, 0), max_corner=(0.4, 0.4, 0.4)), 0.2)
    assert grid.index_of(grid.centers[3]) == 3
    assert grid.index_of(grid.centers[3] + 0.05) is None


def test_index_of_is_a_lookup_that_never_wraps():
    """Every center maps to its own voxel; a site outside the lattice box on any
    side is no voxel, even where its flat index would alias a real one."""
    sphere = build_grid(Sphere(center=(0, 0, 0), radius=1.0), 0.17)
    assert sphere.n == 840
    assert [sphere.index_of(c) for c in sphere.centers] == list(range(sphere.n))
    box = build_grid(Box(min_corner=(0, 0, 0), max_corner=(0.6, 0.6, 0.6)), 0.2)
    for grid in (sphere, box):
        lo, hi = grid.lattice_index.min(axis=0), grid.lattice_index.max(axis=0)
        for axis in range(3):
            step = np.eye(3)[axis] * grid.voxel_edge
            for extreme, sign in ((lo, -1), (hi, +1)):
                i = np.flatnonzero(grid.lattice_index[:, axis] == extreme[axis])[0]
                assert grid.index_of(grid.centers[i] + sign * step) is None
    # a site one below the box in z would wrap onto the last z site of the previous row
    assert box.index_of(box.centers[box.index_of([0.3, 0.3, 0.1])] - [0, 0, 0.2]) is None
    c, h = sphere.centers[100], sphere.voxel_edge
    assert sphere.index_of(c + 0.4 * h) is None
    assert sphere.index_of(c + 0.4 * h, rtol=0.5 - 1e-9) == 100
    assert sphere.index_of(c + [0.6 * h, 0, 0], rtol=0.5 - 1e-9) == sphere.index_of(c + [h, 0, 0])
    assert sphere.index_of([np.nan, 0.0, 0.0]) is None
    # far points on every axis, and the sites at lattice index -1, are no voxel, and
    # casting them to integer sites warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for grid in (sphere, box):
            for unit in np.eye(3):
                assert grid.index_of(grid.lattice_origin - grid.voxel_edge * unit) is None
                for far in (-1e29, 1e29):
                    assert grid.index_of(grid.centers[0] + far * unit) is None


def test_voxel_grid_rejects_off_lattice_centers():
    """Overlapping voxels define no discretization: every center sits on one lattice."""
    with pytest.raises(GridError, match="lattice"):
        VoxelGrid([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.33, 0.1, 0.0]], 0.2, [1, 1, 1])
    with pytest.raises(GridError, match="duplicate voxel centers"):
        VoxelGrid([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [1e-12, 0.0, 0.0]], 0.2, [1, 1, 1])
    grid = VoxelGrid([[0.5, 1.0, -0.1], [0.9, 1.0, 0.3]], 0.2, [1, 1])
    assert grid.lattice_index.tolist() == [[0, 0, 0], [2, 0, 2]]
    assert grid.lattice_shape == (3, 1, 3)


def test_grid_immutable():
    grid = build_grid(Box(min_corner=(0, 0, 0), max_corner=(0.4, 0.4, 0.4)), 0.2)
    with pytest.raises(ValueError):
        grid.centers[0, 0] = 99.0


@pytest.mark.parametrize("shapes, expected", [
    (Sphere(center=(0.3, -0.2, 0.1), radius=1.0), 5),
    (Box(min_corner=(-0.4, -0.4, -0.2), max_corner=(0.4, 0.4, 0.2)), 1),
    (Box(min_corner=(-0.4, -0.3, -0.2), max_corner=(0.4, 0.3, 0.2)), 0),
    ([Box(min_corner=(-0.4,) * 3, max_corner=(0.4,) * 3),
      Box(min_corner=(0.0, 0.0, -0.4), max_corner=(0.4, 0.4, 0.4), region_id=0)], 1),
])
def test_permutations_map_the_voxel_sites_onto_themselves(shapes, expected):
    """Every axis permutation but the identity that maps the voxel sites onto themselves
    is found, and each carries voxel i to the voxel at i's center with its axes
    permuted about the body's center; a notch at x, y > 0 keeps only x <-> y."""
    grid = build_grid(shapes, 0.2)
    assert len(grid.permutations) == expected
    centered = grid.centers - 0.5 * np.add(*grid.bounding_box())
    for sigma, image in grid.permutations.items():
        assert sorted(image.tolist()) == list(range(grid.n))
        moved = np.empty_like(centered)
        moved[:, sigma] = centered
        assert np.allclose(centered[image], moved, atol=1e-12), sigma
    if expected == 1:
        assert list(grid.permutations) == [(1, 0, 2)]
