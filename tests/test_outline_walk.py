"""The per-mask outline steps equal their one-numpy-call-per-pixel forms.

``trace_boundary`` walks a byte grid with table lookups; ``moore_trace`` in
``oracles.py`` is the coordinate-tuple walk it replaced, kept as the oracle
and compared with ``==`` on dtype, shape and values, including walks that
run to the 8 * area + 8 cap. The largest-component choice comes from one
labelling and must equal ``connected_components(mask)[0]``, ties included.
Bounding boxes come from row and column projections and must equal the
``np.nonzero`` min/max formulas.
"""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labelgen import geometry
from labelgen.formats import Mask
from labelgen.geometry import (
    _largest_component,
    analyze_masks,
    center_scatter,
    class_polygons,
    connected_components,
    crop_resize_shape,
    mask_stats,
    trace_boundary,
)
from labelgen.pipeline import PipelineSpec, ToySource

from .oracles import moore_trace

grids = st.integers(1, 16).flatmap(
    lambda h: st.integers(1, 16).flatmap(lambda w: arrays(bool, (h, w))))
nonempty_grids = grids.filter(lambda g: g.any())


@functools.lru_cache(maxsize=None)
def _source(seed: int) -> ToySource:
    return ToySource(PipelineSpec(num_classes=4, seed=seed, resolution=64))


def _toy_mask(seed: int, counter: int) -> Mask:
    return _source(seed).generate(counter).mask


def _assert_same_trace(component):
    got, want = trace_boundary(component), moore_trace(component)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


@settings(max_examples=300, deadline=None)
@given(nonempty_grids)
def test_trace_equals_moore_oracle_on_random_grids(grid):
    """Connected or not: both walks trace the component of the first pixel."""
    _assert_same_trace(grid)


def _line_grids():
    yield np.ones((1, 1), dtype=bool)
    for h, w, y, x in ((3, 3, 1, 1), (5, 4, 0, 3), (4, 5, 3, 0), (2, 7, 1, 6)):
        grid = np.zeros((h, w), dtype=bool)
        grid[y, x] = True
        yield grid
    for n in (2, 5, 16):
        yield np.ones((1, n), dtype=bool)
        yield np.ones((n, 1), dtype=bool)
        yield np.eye(n, dtype=bool)
        yield np.eye(n, dtype=bool)[::-1]
        padded = np.zeros((n + 4, n + 4), dtype=bool)
        padded[2:-2, 2:-2] = np.eye(n, dtype=bool)[::-1]
        yield padded
    frame = np.ones((8, 11), dtype=bool)
    frame[1:-1, 1:-1] = False
    yield frame
    yield np.ones((8, 11), dtype=bool)


@pytest.mark.parametrize("grid", list(_line_grids()), ids=lambda g: f"{g.shape}:{g.sum()}")
def test_trace_equals_moore_oracle_on_pixels_lines_and_frames(grid):
    _assert_same_trace(grid)


def test_trace_of_empty_component_is_rejected():
    for trace in (trace_boundary, moore_trace):
        with pytest.raises(ValueError, match="empty component"):
            trace(np.zeros((3, 4), dtype=bool))


def test_trace_equals_moore_oracle_on_toy_masks():
    for seed in (0, 1, 2, 3):
        for counter in range(24):
            comps = connected_components(_toy_mask(seed, counter))
            if comps:
                _assert_same_trace(comps[0])


def test_capped_walk_equals_moore_oracle():
    """Toy seed 256, counter 2 misses the stopping rule and runs to its cap."""
    largest = connected_components(_toy_mask(256, 2))[0]
    traced = trace_boundary(largest)
    assert len(traced) == 2713
    _assert_same_trace(largest)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10**6))
def test_trace_equals_moore_oracle_on_any_toy_mask(seed, counter):
    comps = connected_components(_toy_mask(seed, counter))
    if comps:
        _assert_same_trace(comps[0])


# --------------------------------------------------------------------------
# the largest component from one labelling
# --------------------------------------------------------------------------

def _assert_same_choice(grid):
    largest, area = _largest_component(grid)
    comps = connected_components(grid)
    if not comps:
        assert largest is None and area == 0
        return
    assert np.array_equal(largest, comps[0])
    assert area == int(comps[0].sum())


@settings(max_examples=300, deadline=None)
@given(grids)
def test_largest_component_equals_connected_components_first(grid):
    _assert_same_choice(grid)


@pytest.mark.parametrize("rows", [
    ["##.##", ".....", "##.##"],          # four equal blocks
    ["...##", "...##", "##...", "##..."],  # first pixel row-major, not column-major
    ["....#", "#...#", "#...."],          # the left column starts one row lower
    ["#.#.#", ".....", "#.#.#"],          # six single pixels
    [".#..", "#.#.", ".#..", "....", "####"],  # a diamond ring against a bar
    ["#.#.#.#", "###.###"],                # two U shapes, each arm first labelled apart
    ["#.#..##", "#.#..##", "###..##", "......#"],  # a U against a block
])
def test_largest_component_ties_go_to_the_first_row_major_pixel(rows):
    grid = np.array([[c == "#" for c in row] for row in rows])
    sizes = sorted(int(c.sum()) for c in connected_components(grid))
    assert sizes[-1] == sizes[-2]  # a tie for the largest
    _assert_same_choice(grid)


def test_largest_component_equals_connected_components_first_on_toy_masks():
    for seed in (0, 1, 2, 256):
        for counter in range(24):
            _assert_same_choice(geometry.foreground_grid(_toy_mask(seed, counter)))


# --------------------------------------------------------------------------
# bounding boxes from projections
# --------------------------------------------------------------------------

def _assert_boxes_match_nonzero(fg):
    h, w = fg.shape
    stats = mask_stats(fg)
    centers = center_scatter([fg])
    if not fg.any():
        assert stats == geometry.MaskStats(0, 0.0, 0.0, 0.0) and centers.shape == (0, 2)
        return
    ys, xs = np.nonzero(fg)
    area = int(fg.sum())
    bbox = int(ys.max() - ys.min() + 1) * int(xs.max() - xs.min() + 1)
    assert (stats.mask_over_image, stats.bbox_over_image, stats.mask_over_bbox) == (
        area / (w * h), bbox / (w * h), area / bbox)
    cx = (int(xs.min()) + int(xs.max()) + 1) / 2 / w
    cy = (int(ys.min()) + int(ys.max()) + 1) / 2 / h
    assert centers.tolist() == [[cx, cy]]
    crop = fg[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1].astype(np.float64)
    wr = geometry._box_weights(crop.shape[0], geometry.MEAN_SHAPE_RES)
    wc = geometry._box_weights(crop.shape[1], geometry.MEAN_SHAPE_RES)
    assert np.array_equal(crop_resize_shape(fg), wr @ crop @ wc.T)


@settings(max_examples=300, deadline=None)
@given(grids)
def test_boxes_equal_nonzero_formulas_on_random_grids(grid):
    _assert_boxes_match_nonzero(grid)


def test_boxes_equal_nonzero_formulas_on_toy_masks():
    for seed in (0, 1, 2):
        for counter in range(24):
            _assert_boxes_match_nonzero(geometry.foreground_grid(_toy_mask(seed, counter)))


# --------------------------------------------------------------------------
# the traced lookup names are still called once per mask
# --------------------------------------------------------------------------

def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(geometry, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, name, counted)
    return calls


def _pairs():
    empty = Mask(np.zeros((64, 64), dtype=np.uint8))
    masks = [_toy_mask(0, counter) for counter in range(12)]
    return [(counter % 4, mask) for counter, mask in enumerate(masks + [empty])]


def test_analysis_passes_call_traced_names_once_per_mask(monkeypatch):
    pairs = _pairs()
    stats = _count_calls(monkeypatch, "mask_stats")
    outlines = _count_calls(monkeypatch, "largest_component_polygon")
    analyze_masks("toy", pairs)
    assert (len(stats), len(outlines)) == (len(pairs), len(pairs))
    del stats[:], outlines[:]
    class_polygons(pairs)
    assert (len(stats), len(outlines)) == (0, len(pairs))


def _unread_pairs():
    raise AssertionError("a pair was read before the arguments were checked")
    yield


@pytest.mark.parametrize("pass_", [
    class_polygons, functools.partial(analyze_masks, "toy")], ids=["class_polygons", "analyze"])
@pytest.mark.parametrize("kwargs, message", [
    ({"epsilon": -1}, "epsilon must be a number >= 0, got -1"),
    ({"min_pixels": -1}, "min_pixels must be >= 0, got -1"),
])
def test_outline_pass_checks_arguments_before_reading_a_pair(pass_, kwargs, message):
    with pytest.raises(ValueError) as info:
        pass_(_unread_pairs(), **kwargs)
    assert str(info.value) == message
