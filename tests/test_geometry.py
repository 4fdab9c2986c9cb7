import numpy as np
import pytest

from labelgen.formats import Mask
from labelgen.geometry import (
    GeometryReport,
    Polygon,
    center_scatter,
    chamfer,
    class_mean_shapes,
    class_polygons,
    compress_collinear,
    connected_components,
    crop_resize_shape,
    geometry_report,
    largest_component_polygon,
    mask_stats,
    mean_shapes,
    polygon_length,
    shape_complexity,
    shape_diversity,
    shape_diversity_by_class,
    simplify_dp,
    trace_boundary,
)

from .oracles import all_pairs_chamfer, flood_fill_components, hand_mask_stats, recursive_dp


def _mask(grid):
    return Mask(np.asarray(grid, dtype=np.uint8))


# ------------------------------------------------------------------ components

def test_all_foreground_single_component():
    comps = connected_components(_mask(np.ones((4, 4))))
    assert len(comps) == 1
    assert int(comps[0].sum()) == 16


def test_diagonal_pixels_are_8_connected():
    grid = np.zeros((3, 3))
    grid[0, 0] = grid[1, 1] = 1
    assert len(connected_components(_mask(grid))) == 1


def test_two_block_fixture_sizes():
    grid = np.zeros((8, 8))
    grid[1:3, 1:3] = 1
    grid[5, 5:8] = 1
    comps = connected_components(_mask(grid))
    assert [int(c.sum()) for c in comps] == [4, 3]


def test_component_ordering_tie_break():
    grid = np.zeros((6, 6))
    grid[4, 0:2] = 1  # later in raster order
    grid[0, 3:5] = 1  # earlier top-left index
    comps = connected_components(_mask(grid))
    assert comps[0][0, 3] and comps[0][0, 4]


def test_empty_mask_no_components():
    assert connected_components(_mask(np.zeros((5, 5)))) == []


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        grid = rng.random((16, 16)) < rng.uniform(0.2, 0.7)
        comps = connected_components(grid)
        oracle = flood_fill_components(grid)
        got = {frozenset(zip(*np.nonzero(c))) for c in comps}
        assert got == set(oracle)
        sizes = [int(c.sum()) for c in comps]
        assert sizes == sorted(sizes, reverse=True)


# ------------------------------------------------------------------ mask stats

def test_mask_stats_full_frame():
    stats = mask_stats(_mask(np.ones((4, 4))))
    assert (stats.instance_count, stats.mask_over_image) == (1, 1.0)
    assert stats.bbox_over_image == 1.0 and stats.mask_over_bbox == 1.0


def test_mask_stats_empty():
    stats = mask_stats(_mask(np.zeros((4, 4))))
    assert (stats.instance_count, stats.mask_over_image,
            stats.bbox_over_image, stats.mask_over_bbox) == (0, 0.0, 0.0, 0.0)


def test_mask_stats_two_block_fixture():
    grid = np.zeros((8, 8))
    grid[1:3, 1:3] = 1
    grid[5, 5:8] = 1
    stats = mask_stats(_mask(grid))
    assert stats.instance_count == 2
    assert stats.mask_over_image == 7 / 64
    assert stats.bbox_over_image == 35 / 64
    assert stats.mask_over_bbox == 0.2


def test_mask_stats_matches_hand_oracle_and_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        grid = rng.random((12, 12)) < rng.uniform(0.1, 0.8)
        stats = mask_stats(grid)
        count, mi, bi, mb = hand_mask_stats(grid)
        assert stats.instance_count == count
        assert stats.mask_over_image == pytest.approx(mi, abs=1e-12)
        assert stats.bbox_over_image == pytest.approx(bi, abs=1e-12)
        assert stats.mask_over_bbox == pytest.approx(mb, abs=1e-12)
        assert stats.mask_over_image <= stats.bbox_over_image + 1e-12
        assert stats.mask_over_bbox * stats.bbox_over_image == pytest.approx(
            stats.mask_over_image, abs=1e-12
        )


# ------------------------------------------------------------------ polygons

def test_square_block_polygon():
    grid = np.zeros((20, 20))
    grid[5:15, 5:15] = 1
    poly = largest_component_polygon(_mask(grid), min_pixels=100)
    assert not poly.degenerate
    np.testing.assert_array_equal(
        poly.points, [[0, 0], [1, 0], [1, 1], [0, 1]]
    )


def test_below_min_pixels_absent():
    grid = np.zeros((20, 20))
    grid[0:9, 0:11] = 1  # 99 pixels
    assert largest_component_polygon(_mask(grid), min_pixels=100) is None
    assert largest_component_polygon(_mask(grid), min_pixels=99) is not None


def test_l_shape_polygon_hand_derived():
    # vertical bar (rows 0..9, cols 0..4) on a foot (rows 10..14, cols 0..14):
    # 5 convex corners plus a diagonal cut across the one concave corner
    grid = np.zeros((15, 15))
    grid[0:10, 0:5] = 1
    grid[10:15, 0:15] = 1
    assert int(grid.sum()) == 125
    poly = largest_component_polygon(_mask(grid), min_pixels=100)
    expected = np.array(
        [[0, 0], [4, 0], [4, 9], [5, 10], [14, 10], [14, 14], [0, 14]], dtype=float
    ) / 14.0
    np.testing.assert_allclose(poly.points, expected, atol=1e-12)


def _boundary_pixels(grid):
    fg = np.asarray(grid, dtype=bool)
    padded = np.pad(fg, 1)
    boundary = set()
    for y, x in zip(*np.nonzero(fg)):
        window = padded[y : y + 3, x : x + 3]
        if not window.all():
            boundary.add((float(x), float(y)))
    return boundary


def test_polygon_vertices_walk_the_boundary():
    # oracle: vertices are boundary pixels, start at the top-left boundary
    # pixel, and wind clockwise (positive shoelace sum in image coordinates)
    rng = np.random.default_rng(23)
    for _ in range(50):
        grid = np.zeros((24, 24), dtype=bool)
        for _ in range(3):
            y, x = rng.integers(4, 14, size=2)
            h, w = rng.integers(4, 9, size=2)
            grid[y : y + h, x : x + w] = True
        pts = compress_collinear(trace_boundary(grid))
        boundary = _boundary_pixels(grid)
        assert {(px, py) for px, py in pts} <= boundary
        ys, xs = np.nonzero(grid)
        assert tuple(pts[0]) == (float(xs[0]), float(ys[0]))
        if len(pts) >= 3:
            rolled = np.roll(pts, -1, axis=0)
            shoelace = float(np.sum(pts[:, 0] * rolled[:, 1] - rolled[:, 0] * pts[:, 1]))
            assert shoelace > 0


def test_one_pixel_line_degenerate():
    grid = np.zeros((4, 50))
    grid[2, :] = 1
    poly = largest_component_polygon(_mask(grid), min_pixels=10)
    assert poly.degenerate
    assert (poly.points[:, 1] == 0).all()  # zero-extent axis maps to 0


def test_trace_boundary_is_closed_walk():
    rng = np.random.default_rng(3)
    for _ in range(50):
        grid = np.zeros((12, 12), dtype=bool)
        y, x = rng.integers(2, 8, size=2)
        grid[y : y + rng.integers(2, 4), x : x + rng.integers(2, 4)] = True
        pts = trace_boundary(grid)
        steps = np.abs(np.diff(pts, axis=0, append=pts[:1]))
        assert steps.max() <= 1  # single-pixel moves, wrap included


def test_compress_collinear_keeps_corners():
    # the wrap-around step (1,1)->(0,0) continues the diagonal run, so (1,1)
    # is interior to that run and gets compressed away
    pixels = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 1]])
    out = compress_collinear(pixels)
    np.testing.assert_array_equal(out, [[0, 0], [2, 0], [2, 2]])


# ------------------------------------------------------------------ simplify

def test_simplify_drops_near_collinear_point():
    out = simplify_dp(np.array([[0.0, 0.0], [0.5, 0.005], [1.0, 0.0]]), 0.01)
    np.testing.assert_array_equal(out, [[0, 0], [1, 0]])


def test_simplify_keeps_square_corners():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(simplify_dp(square, 0.01), square)


def test_simplify_zero_epsilon_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.random((rng.integers(3, 12), 2))
        np.testing.assert_array_equal(simplify_dp(pts, 0.0), pts)


def test_simplify_matches_recursive_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        pts = rng.random((int(rng.integers(3, 30)), 2))
        eps = float(rng.uniform(0.0, 0.5))
        np.testing.assert_array_equal(simplify_dp(pts, eps), recursive_dp(pts, eps))


def test_simplify_hausdorff_bound():
    rng = np.random.default_rng(13)
    for _ in range(100):
        pts = rng.random((20, 2))
        eps = 0.1
        simplified = simplify_dp(pts, eps)
        for p in pts:
            dists = []
            for a, b in zip(simplified[:-1], simplified[1:]):
                ab = b - a
                t = np.clip((p - a) @ ab / max(ab @ ab, 1e-30), 0, 1)
                dists.append(np.linalg.norm(p - (a + t * ab)))
            assert min(dists) <= eps + 1e-12


def test_simplify_polygon_keeps_three_points():
    poly = Polygon(np.array([[0.0, 0.0], [0.5, 0.004], [1.0, 0.008], [0.5, 0.002]]))
    out = simplify_dp(poly, 0.05)
    assert isinstance(out, Polygon)
    assert len(out) >= 3


def test_simplify_polygon_collapsed_to_two_points_keeps_its_extremal_triangle():
    # epsilon 2 drops both interior vertices of the chain (0,0)..(0,1); the
    # triangle is the first vertex, the one farthest from it, and the first
    # of the two farthest off that chord
    square = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    out = simplify_dp(square, 2.0)
    assert not out.degenerate
    np.testing.assert_array_equal(out.points, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


# ------------------------------------------------------------------ metrics

def test_polygon_length_and_complexity_unit_square():
    square = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert polygon_length(square) == pytest.approx(4.0)
    assert shape_complexity(square) == 4


def test_polygon_length_sliver():
    sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
    expected = 1.0 + 2.0 * np.sqrt(0.25 + 0.0001)
    assert polygon_length(sliver) == pytest.approx(expected, rel=1e-12)


def test_hexagon_complexity():
    angles = np.arange(6) * np.pi / 3
    hexagon = 0.5 + 0.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert shape_complexity(hexagon) == 6


def test_chamfer_identical_zero():
    pts = np.random.default_rng(1).random((8, 2))
    assert chamfer(pts, pts) == 0.0


def test_chamfer_single_point_closed_form():
    assert chamfer(np.array([[0.0, 0.0]]), np.array([[0.3, 0.4]])) == pytest.approx(0.5)


def test_chamfer_random_matches_oracle_and_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = rng.random((int(rng.integers(1, 12)), 2))
        b = rng.random((int(rng.integers(1, 12)), 2))
        value = chamfer(a, b)
        assert value == pytest.approx(all_pairs_chamfer(a, b), rel=1e-12, abs=1e-12)
        assert value == pytest.approx(chamfer(b, a), rel=1e-12)
        perm = rng.permutation(len(a))
        assert chamfer(a[perm], b) == pytest.approx(value, rel=1e-12)


def test_chamfer_empty_set_rejected():
    with pytest.raises(ValueError):
        chamfer(np.empty((0, 2)), np.array([[0.0, 0.0]]))


def test_shape_diversity_identical_is_zero():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert shape_diversity({1: [square, square], 2: [square, square, square]}) == 0.0


def test_shape_diversity_single_pair():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    b = np.array([[0.0, 0.2], [0.9, 0.0], [1.0, 1.0]])
    assert shape_diversity({4: [a, b]}) == pytest.approx(chamfer(a, b))


def test_shape_diversity_matches_pair_enumeration():
    rng = np.random.default_rng(31)
    polys = {c: [rng.random((6, 2)) for _ in range(4)] for c in (1, 2, 3)}
    per_class = {}
    for c, group in polys.items():
        values = [
            all_pairs_chamfer(group[i], group[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        per_class[c] = np.mean(values)
    assert shape_diversity(polys) == pytest.approx(np.mean(list(per_class.values())), rel=1e-12)


def test_shape_diversity_skips_singleton_classes():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    per_class, skipped = shape_diversity_by_class({1: [a], 2: [a, a]})
    assert skipped == [1]
    assert per_class == {2: 0.0}
    with pytest.raises(ValueError):
        shape_diversity({1: [a]})


def test_geometry_report_excludes_degenerate():
    square = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    line = Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]), degenerate=True)
    report = geometry_report({1: [square, square], 2: [line]})
    assert isinstance(report, GeometryReport)
    assert report.polygon_count == 2
    assert report.polygon_length == pytest.approx(4.0)
    assert report.shape_complexity == pytest.approx(4.0)
    assert report.shape_diversity == pytest.approx(0.0)
    assert report.skipped_classes == ()


# ------------------------------------------------------------------ mean shapes

def _blob(kind, res=24):
    grid = np.zeros((res, res), dtype=np.uint8)
    if kind == "disk":
        ys, xs = np.mgrid[0:res, 0:res]
        grid[(ys - res / 2) ** 2 + (xs - res / 2) ** 2 <= (res / 3) ** 2] = 1
    else:
        grid[2 : res - 2, res // 2 - 2 : res // 2 + 2] = 1
    return grid


def test_box_weights_are_cached_read_only_and_row_stochastic():
    from labelgen.geometry import _box_weights

    weights = _box_weights(45, 32)
    assert _box_weights(45, 32) is weights
    assert not weights.flags.writeable
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0


def test_mean_shapes_identical_masks():
    masks = [_blob("disk")] * 5
    result = mean_shapes(masks, k=5, seed=0)
    assert int(result.cluster_sizes.sum()) == 5
    target = crop_resize_shape(_blob("disk"))
    for j in np.nonzero(result.cluster_sizes)[0]:
        np.testing.assert_allclose(result.shapes[j], target, atol=1e-12)


def test_mean_shapes_separates_two_families():
    masks = [_blob("disk")] * 6 + [_blob("bar")] * 6
    result = mean_shapes(masks, k=2, seed=3)
    assert sorted(result.cluster_sizes.tolist()) == [6, 6]
    disk = crop_resize_shape(_blob("disk"))
    bar = crop_resize_shape(_blob("bar"))
    matched = sorted(
        [np.abs(result.shapes[j] - disk).sum() for j in range(2)]
    )[0]
    assert matched < 1e-9
    matched_bar = sorted(
        [np.abs(result.shapes[j] - bar).sum() for j in range(2)]
    )[0]
    assert matched_bar < 1e-9


def test_mean_shapes_deterministic_and_bounded():
    rng = np.random.default_rng(17)
    masks = [(rng.random((20, 20)) < 0.4).astype(np.uint8) for _ in range(12)]
    a = mean_shapes(masks, k=5, seed=42)
    b = mean_shapes(masks, k=5, seed=42)
    np.testing.assert_array_equal(a.shapes, b.shapes)
    np.testing.assert_array_equal(a.cluster_sizes, b.cluster_sizes)
    assert a.shapes.min() >= 0.0 and a.shapes.max() <= 1.0
    assert int(a.cluster_sizes.sum()) == 12


def test_mean_shapes_needs_k_masks():
    with pytest.raises(ValueError):
        mean_shapes([_blob("disk")] * 3, k=5, seed=0)


def test_class_mean_shapes_counts_only_nonempty_masks():
    empty = np.zeros((8, 8), dtype=np.uint8)
    pairs = ([(7, _blob("disk"))] * 2 + [(3, _blob("bar"))] * 2
             + [(5, _blob("disk")), (5, empty), (5, empty)])
    sets, skipped = class_mean_shapes(pairs, k=2, seed=0)
    assert [s.class_id for s in sets] == [3, 7]
    assert skipped == [5]


@pytest.mark.parametrize("k, seed, message", [(0, 0, "k must be at least 1, got 0"),
                                              (2, -1, "seed must be >= 0, got -1")])
def test_mean_shape_arguments_are_checked_before_any_mask_is_read(k, seed, message):
    def unread():
        raise AssertionError("a pair was read")
        yield

    with pytest.raises(ValueError, match=message):
        class_mean_shapes(unread(), k=k, seed=seed)
    with pytest.raises(ValueError, match=message):
        mean_shapes(unread(), k=k, seed=seed)


def test_class_polygons_groups_usable_outlines():
    line = np.zeros((20, 20), dtype=np.uint8)
    line[5, 2:18] = 1  # one pixel wide: a degenerate outline
    pairs = [(2, _blob("disk")), (1, line), (2, _blob("bar")), (1, np.zeros((20, 20)))]
    polys = class_polygons(pairs, min_pixels=10)
    assert list(polys) == [2] and len(polys[2]) == 2
    assert not any(p.degenerate for p in polys[2])


# ------------------------------------------------------------------ centers

def test_center_scatter_full_frame():
    centers = center_scatter([_mask(np.ones((10, 10)))])
    np.testing.assert_allclose(centers, [[0.5, 0.5]])


def test_center_scatter_single_pixel():
    grid = np.zeros((10, 10))
    grid[0, 0] = 1
    np.testing.assert_allclose(center_scatter([_mask(grid)]), [[0.05, 0.05]])


def test_center_scatter_zero_variance_for_centered():
    masks = []
    for size in (2, 4, 6):
        grid = np.zeros((10, 10))
        lo = 5 - size // 2
        grid[lo : lo + size, lo : lo + size] = 1
        masks.append(_mask(grid))
    centers = center_scatter(masks)
    assert centers.shape == (3, 2)
    assert centers.var(axis=0).max() == 0.0


def test_center_scatter_skips_empty():
    assert center_scatter([_mask(np.zeros((4, 4)))]).shape == (0, 2)
