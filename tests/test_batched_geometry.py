"""The batched polygon passes equal their one-at-a-time forms bit for bit.

``simplify_chains`` and the block-wise diversity are compared with ``==``
against the per-segment Douglas-Peucker and the per-pair Chamfer loop in
``oracles.py``. Contour chains from toy masks are the inputs that matter:
their coordinates are multiples of one step, so distances tie often, and a
tie broken differently would keep a different point.
"""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelgen import geometry
from labelgen.geometry import (
    Polygon,
    class_polygons,
    largest_component_polygon,
    shape_diversity_by_class,
    simplify_chains,
    simplify_dp,
    simplify_polygons,
)
from labelgen.pipeline import ToySource

from .oracles import pairwise_diversity, segment_dp

EPSILONS = (0.0, 0.003, 0.01, 0.03, 0.1)


@functools.lru_cache(maxsize=None)
def _source(seed: int, resolution: int) -> ToySource:
    return ToySource(num_classes=4, seed=seed, resolution=resolution)


def _toy_outline(seed: int, counter: int, resolution: int = 64):
    """(class id, largest-component outline or None) of one toy sample."""
    sample = _source(seed, resolution).generate(counter)
    return sample.class_id, largest_component_polygon(sample.mask, min_pixels=1)


@functools.lru_cache(maxsize=None)
def _contours():
    """Outlines of toy masks from three seeds at two resolutions, by class."""
    by_class = {}
    for seed in (0, 1, 2):
        for counter in range(24):
            class_id, poly = _toy_outline(seed, counter, 128 if counter % 4 == 0 else 64)
            if poly is not None and not poly.degenerate:
                by_class.setdefault(class_id, []).append(poly)
    return by_class


def _chains():
    return [p.points for polys in _contours().values() for p in polys]


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_simplify_chains_equal_per_segment_dp_on_contours(epsilon):
    chains = _chains()
    assert len(chains) >= 60
    for chain, simplified in zip(chains, simplify_chains(chains, epsilon)):
        assert np.array_equal(simplified, segment_dp(chain, epsilon))


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_closed_and_short_chains_equal_per_segment_dp(epsilon):
    """Closed chains start and end on one point, so a segment's end points
    coincide; chains of one and two points have no interior."""
    closed = [np.vstack([c, c[:1]]) for c in _chains()[:20]]
    short = [np.array([[0.25, 0.5]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
    chains = closed + short + closed[:3]
    for chain, simplified in zip(chains, simplify_chains(chains, epsilon)):
        assert np.array_equal(simplified, segment_dp(chain, epsilon))


def test_single_chain_and_polygon_forms_agree_with_the_batch():
    polys = [p for polys in _contours().values() for p in polys]
    batch = simplify_polygons(polys, 0.01)
    for poly, simplified in zip(polys, batch):
        assert np.array_equal(simplify_dp(poly.points, 0.01), segment_dp(poly.points, 0.01))
        single = simplify_dp(poly, 0.01)
        assert single.degenerate == simplified.degenerate
        assert np.array_equal(single.points, simplified.points)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_points_split_where_argmax_would():
    chains = [np.array([[0.0, 0.0], [0.5, np.nan], [0.2, 0.3], [0.4, np.nan], [1.0, 0.0]]),
              np.array([[0.0, 0.0], [0.5, 0.1], [np.inf, 0.3], [1.0, 0.0]]),
              np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.3], [1.0, 0.0]])]
    for chain, simplified in zip(chains, simplify_chains(chains, 0.01)):
        assert np.array_equal(simplified, segment_dp(chain, 0.01), equal_nan=True)


def test_simplify_chains_edge_cases():
    assert simplify_chains([], 0.01) == []
    with pytest.raises(ValueError, match="empty chain"):
        simplify_chains([np.empty((0, 2))], 0.01)
    degenerate = Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]), degenerate=True)
    assert simplify_polygons([degenerate], 0.01) == [degenerate]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counter=st.integers(0, 10**6),
       resolution=st.sampled_from((64, 128)), epsilon=st.sampled_from(EPSILONS))
def test_simplify_chains_equal_per_segment_dp_on_any_toy_mask(seed, counter, resolution,
                                                              epsilon):
    _, poly = _toy_outline(seed, counter, resolution)
    if poly is None:
        return
    # the chain twice in one batch, and with a second chain of another length
    chains = [poly.points, poly.points[: max(1, len(poly.points) // 2)], poly.points]
    expected = segment_dp(poly.points, epsilon)
    simplified = simplify_chains(chains, epsilon)
    assert np.array_equal(simplified[0], expected)
    assert np.array_equal(simplified[2], expected)
    assert np.array_equal(simplified[1], segment_dp(chains[1], epsilon))


def test_class_polygons_does_not_depend_on_the_batch_size(monkeypatch):
    pairs = [(counter % 3 + 1, _source(4, 64).generate(counter).mask) for counter in range(30)]
    whole = class_polygons(pairs, min_pixels=10, epsilon=0.01)
    monkeypatch.setattr(geometry, "_SIMPLIFY_BATCH", 4)
    chunked = class_polygons(pairs, min_pixels=10, epsilon=0.01)
    one_by_one = {}
    for class_id, mask in pairs:
        poly = largest_component_polygon(mask, min_pixels=10)
        if poly is not None:
            simplified = simplify_dp(poly, 0.01)
            if not simplified.degenerate:
                one_by_one.setdefault(class_id, []).append(simplified)
    for result in (chunked, one_by_one):
        assert sorted(result) == sorted(whole)
        for class_id, polys in whole.items():
            assert len(result[class_id]) == len(polys)
            for a, b in zip(result[class_id], polys):
                assert np.array_equal(a.points, b.points)


def _ring(n: int, radius: float, phase: float) -> np.ndarray:
    angles = phase + np.arange(n) * 2 * np.pi / n
    return np.round(np.stack([np.cos(angles), np.sin(angles)], axis=1) * radius * 64) / 64


def test_block_diversity_equals_pairwise_loop():
    polys = {cid: list(group) for cid, group in _contours().items()}
    # pairs of 300-point rings exceed the block cap, so each is its own block
    polys[50] = [_ring(300, r, 0.1 * r) for r in (0.4, 0.5, 0.45, 0.3)]
    assert 300 * 300 > geometry._DIVERSITY_BLOCK
    # one polygon longer than the block cap, against short ones
    polys[60] = [_ring(5, 0.5, 0.0), _ring(geometry._DIVERSITY_BLOCK + 7, 0.5, 0.3),
                 _ring(4, 0.3, 0.2), np.array([0.5, 0.5])]
    polys[70] = [_ring(6, 0.5, 0.0)]
    per_class, skipped = shape_diversity_by_class(polys)
    assert skipped == [70]
    assert per_class == pairwise_diversity(polys)
