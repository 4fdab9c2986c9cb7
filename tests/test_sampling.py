import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import xlogy

from labelgen.formats import LabeledSample
from labelgen.sampling import (
    MIN_TRUNCATION_PSI,
    CategoricalDist,
    EnsemblePrediction,
    FilterConfig,
    _entropy,
    confidence_rejection,
    filtered_count,
    js_divergence,
    nucleus_topk_sample,
    nucleus_topk_support,
    sample_uncertainty,
    truncated_normal,
    uncertainty_filter,
)

from .oracles import (
    expanded_probs,
    truncated_normal_variance,
    two_sort_confidence_rejection,
    two_sort_uncertainty_filter,
)


# ------------------------------------------------------------------ config

def test_filter_config_defaults():
    cfg = FilterConfig()
    assert (cfg.truncation_psi, cfg.rejection_rate, cfg.uncertainty_fraction) == (0.9, 0.9, 0.10)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(rejection_rate=1.0)
    with pytest.raises(ValueError):
        FilterConfig(uncertainty_fraction=1.0)
    with pytest.raises(ValueError):
        FilterConfig(truncation_psi=-1.0)
    for psi in (0.0099, 1e-300, float("nan")):
        with pytest.raises(ValueError, match="truncation_psi must be >= 0.01"):
            FilterConfig(truncation_psi=psi)
    assert FilterConfig(truncation_psi=MIN_TRUNCATION_PSI).truncation_psi == 0.01


def test_filter_config_file_roundtrip(tmp_path):
    cfg = FilterConfig(truncation_psi=0.5, rejection_rate=0.8, uncertainty_fraction=0.25)
    path = tmp_path / "filters.cfg"
    cfg.to_file(path)
    assert FilterConfig.from_file(path) == cfg


@pytest.mark.parametrize("key", ["nucleus_p", "top_k", "psi"])
def test_filter_config_file_rejects_unknown_keys(tmp_path, key):
    path = tmp_path / "filters.cfg"
    path.write_text(f"rejection_rate=0.5\n{key}=1\n")
    with pytest.raises(ValueError, match="filters.cfg:2"):
        FilterConfig.from_file(path)


def test_filter_config_override_ignores_none():
    cfg = FilterConfig().override(rejection_rate=0.5, uncertainty_fraction=None)
    assert cfg.rejection_rate == 0.5 and cfg.uncertainty_fraction == 0.10


# ------------------------------------------------------------------ truncation

def test_truncated_normal_respects_bound():
    rng = np.random.default_rng(0)
    z = truncated_normal(10_000, 0.9, rng)
    assert np.abs(z).max() <= 0.9


def test_truncated_normal_wide_bound_unit_variance():
    rng = np.random.default_rng(1)
    z = truncated_normal(100_000, 8.0, rng)
    assert z.var() == pytest.approx(1.0, abs=0.02)


def test_truncated_normal_tight_bound_variance():
    expected = truncated_normal_variance(0.9)
    assert expected == pytest.approx(0.242, abs=0.001)
    rng = np.random.default_rng(2)
    z = truncated_normal(100_000, 0.9, rng)
    assert z.var() == pytest.approx(expected, abs=0.01)


def test_truncated_normal_rejects_a_psi_that_would_not_finish():
    for psi in (0.0099, 1e-300, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="psi must be >= 0.01"):
            truncated_normal(8, psi, np.random.default_rng(0))
    z = truncated_normal(8, MIN_TRUNCATION_PSI, np.random.default_rng(0))
    assert np.abs(z).max() <= MIN_TRUNCATION_PSI


def test_truncated_normal_reproducible():
    a = truncated_normal(64, 0.9, np.random.default_rng(5))
    b = truncated_normal(64, 0.9, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------ nucleus

def test_nucleus_one_hot_always_that_index():
    probs = np.zeros(6)
    probs[3] = 1.0
    rng = np.random.default_rng(3)
    draws = nucleus_topk_sample(probs, 0.92, 200, rng, size=100)
    assert (draws == 3).all()


def test_nucleus_support_example():
    support, renorm = nucleus_topk_support([0.5, 0.3, 0.15, 0.05], 0.92, 200)
    np.testing.assert_array_equal(support, [0, 1, 2])
    np.testing.assert_allclose(renorm, [10 / 19, 6 / 19, 3 / 19])


def test_nucleus_topk_cap_example():
    support, renorm = nucleus_topk_support([0.5, 0.3, 0.15, 0.05], 0.92, 2)
    np.testing.assert_array_equal(support, [0, 1])
    np.testing.assert_allclose(renorm, [0.625, 0.375])


def test_nucleus_tie_break_by_index():
    support, _ = nucleus_topk_support([0.25, 0.25, 0.25, 0.25], 0.5, 200)
    np.testing.assert_array_equal(support, [0, 1])


def test_nucleus_empirical_frequencies_chi_squared():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        probs = rng.dirichlet(np.full(12, 1.5)) * 0.9 + 0.1 / 12
        probs = probs / probs.sum()
        support, renorm = nucleus_topk_support(probs, 0.92, 8)
        draws = nucleus_topk_sample(probs, 0.92, 8, rng, size=100_000)
        assert set(np.unique(draws)) <= set(support.tolist())
        counts = np.array([(draws == s).sum() for s in support])
        p_value = stats.chisquare(counts, 100_000 * renorm).pvalue
        assert p_value > 0.01


def test_nucleus_never_outside_support():
    rng = np.random.default_rng(6)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(20))
        support, _ = nucleus_topk_support(probs, 0.7, 5)
        draws = nucleus_topk_sample(probs, 0.7, 5, rng, size=500)
        assert set(np.unique(draws)) <= set(support.tolist())


def test_categorical_dist_validation():
    with pytest.raises(ValueError):
        CategoricalDist(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        CategoricalDist(np.array([-0.1, 1.1]))


# ------------------------------------------------------------------ js divergence

def test_js_identical_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert js_divergence([p, p]) == 0.0
    assert js_divergence([p] * 16) == 0.0


def test_js_disjoint_ln2():
    value = js_divergence([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert value == pytest.approx(math.log(2), abs=1e-12)


def test_js_bounds():
    rng = np.random.default_rng(7)
    for n in (2, 4, 16):
        dists = [rng.dirichlet(np.ones(6)) for _ in range(n)]
        value = js_divergence(dists)
        assert 0.0 <= value <= math.log(n) + 1e-12


def test_js_support_mismatch():
    with pytest.raises(ValueError):
        js_divergence([np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25])])
    with pytest.raises(ValueError):
        js_divergence([np.array([1.0, 0.0])])


# ------------------------------------------------------------------ uncertainty

def _every_pixel(dense):
    """The ensemble that lists every pixel of a dense (K, H, W, C) array."""
    k, h, w, c = np.shape(dense)
    return EnsemblePrediction(np.reshape(dense, (k, h * w, c)), np.arange(h * w), (h, w))


def test_sample_uncertainty_identical_heads_zero():
    head = np.zeros((2, 2, 2))
    head[..., 0] = 1.0
    pred = _every_pixel(np.repeat(head[None], 4, axis=0))
    assert sample_uncertainty(pred) == 0.0


def test_sample_uncertainty_single_pixel_ln2():
    probs = np.array([[[[1.0, 0.0]]], [[[0.0, 1.0]]]])
    assert sample_uncertainty(_every_pixel(probs)) == pytest.approx(math.log(2))


def test_sample_uncertainty_bounded_by_ln_k():
    rng = np.random.default_rng(8)
    k = 6
    probs = rng.dirichlet(np.ones(3), size=(k, 4, 4))
    assert sample_uncertainty(_every_pixel(probs)) <= math.log(k)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        _every_pixel(np.ones((1, 2, 2, 2)) * 0.5)  # K < 2
    with pytest.raises(ValueError):
        _every_pixel(np.full((2, 2, 2, 2), 0.6))  # sums != 1


def _listed(k=2, m=3):
    """(K, m, 2) agreeing one-hot probabilities at flat indices 0..m-1."""
    probs = np.zeros((k, m, 2))
    probs[..., 0] = 1.0
    return probs, np.arange(m)


def test_listed_ensemble_validation():
    probs, index = _listed()
    EnsemblePrediction(probs, index, (2, 2))  # valid
    with pytest.raises(ValueError, match="K >= 2"):
        EnsemblePrediction(*_listed(k=1), shape=(2, 2))
    negative = probs.copy()
    negative[0, 0] = (-0.1, 1.1)
    with pytest.raises(ValueError, match="nonnegative"):
        EnsemblePrediction(negative, index, (2, 2))
    with pytest.raises(ValueError, match="sum to 1"):
        EnsemblePrediction(np.full((2, 3, 2), 0.6), index, (2, 2))
    for bad in ([0, 1, 4], [-1, 0, 1]):  # outside the 2x2 grid
        with pytest.raises(ValueError, match="grid"):
            EnsemblePrediction(probs, np.array(bad), (2, 2))
    for bad in ([0, 2, 1], [0, 1, 1]):  # unsorted, repeated
        with pytest.raises(ValueError, match="strictly increasing"):
            EnsemblePrediction(probs, np.array(bad), (2, 2))
    for bad in ([0, 1], [0, 1, 2, 3]):  # one entry per column of probs
        with pytest.raises(ValueError, match="lists"):
            EnsemblePrediction(probs, np.array(bad), (2, 2))
    with pytest.raises(ValueError, match="integer"):
        EnsemblePrediction(probs, index.astype(float), (2, 2))
    with pytest.raises(ValueError, match="grid"):
        EnsemblePrediction(probs, index, None)  # no grid shape
    with pytest.raises(ValueError, match=r"\(K, m, C\)"):
        EnsemblePrediction(probs[None], index, (2, 2))


def test_listed_ensemble_is_read_only():
    probs, index = _listed()
    pred = EnsemblePrediction(probs, index, (1, 3))
    with pytest.raises(ValueError):
        pred.probs[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        pred.index[0] = 1


def test_listed_uncertainty_divides_by_grid():
    # one disagreeing pixel (ln 2) on a 4x5 grid of otherwise agreeing heads
    probs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    pred = EnsemblePrediction(probs, np.array([7]), (4, 5))
    assert sample_uncertainty(pred) == pytest.approx(math.log(2) / 20, rel=1e-15)
    empty = EnsemblePrediction(np.zeros((3, 0, 2)), np.zeros(0, dtype=int), (4, 5))
    assert sample_uncertainty(empty) == 0.0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 5), c=st.integers(2, 4), h=st.integers(1, 6), w=st.integers(1, 6),
       data=st.data())
def test_listed_uncertainty_equals_agreeing_dense_padding(k, c, h, w, data):
    listed = np.array(data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
    index = np.flatnonzero(listed)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(c), size=(k, index.size))
    # unlisted pixels: one distribution per pixel, shared by every head
    dense = np.repeat(rng.dirichlet(np.ones(c), size=(1, h * w)), k, axis=0)
    dense[:, index] = probs
    banded = sample_uncertainty(EnsemblePrediction(probs, index, (h, w)))
    padded = sample_uncertainty(_every_pixel(dense.reshape(k, h, w, c)))
    # identical heads can leave a rounding residue of ~1e-16 per padded pixel
    assert banded == pytest.approx(padded, rel=1e-12, abs=1e-14)


def test_entropy_equals_scipy_xlogy_bitwise():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.random(100_000), rng.random(1000) * 1e-300,
                             [0.0, 5e-324, 0.5, 1.0]])
    # one-class rows: the entropy of each row is -p*log(p) of its one value
    got = _entropy(values[:, None])
    assert got.view(np.uint64).tolist() == (-xlogy(values, values)).view(np.uint64).tolist()
    pairs = rng.dirichlet(np.ones(2), size=5000)
    assert (_entropy(pairs) == -xlogy(pairs, pairs).sum(axis=-1)).all()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 5), u=st.integers(1, 4), c=st.integers(2, 4), m=st.integers(0, 30),
       data=st.data())
def test_kinds_uncertainty_equals_expanded_heads(k, u, c, m, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(c), size=(k, u))
    kinds = rng.integers(0, u, size=m)
    index = np.sort(rng.choice(64, size=m, replace=False))
    pred = EnsemblePrediction(probs, index, (8, 8), kinds)
    per_pixel = EnsemblePrediction(expanded_probs(pred), index, (8, 8))
    assert sample_uncertainty(pred) == sample_uncertainty(per_pixel)
    with pytest.raises(ValueError):
        pred.kinds[...] = 0


@pytest.mark.parametrize("kinds, message", [
    (np.zeros((3, 1), dtype=int), "1-D integer"),
    (np.zeros(3), "1-D integer"),                   # float
    (np.zeros(3, dtype=bool), "1-D integer"),
    (np.zeros(2, dtype=int), "kinds 2"),            # one entry per listed pixel
    (np.zeros(4, dtype=int), "kinds 4"),
    (np.array([0, -1, 1]), r"\[0, 2\)"),
    (np.array([0, 2, 1]), r"\[0, 2\)"),
    (np.array([0, 1, 2], dtype=np.uint8), r"\[0, 2\)"),
])
def test_bad_kinds_rejected(kinds, message):
    probs = np.full((2, 2, 2), 0.5)
    with pytest.raises(ValueError, match=message):
        EnsemblePrediction(probs, np.arange(3), (2, 2), kinds)


# ------------------------------------------------------------------ filters

def _scored(ids, confidence=None, uncertainty=None):
    samples = []
    for i, sid in enumerate(ids):
        samples.append(
            LabeledSample(
                id=sid,
                class_id=1,
                provenance="toy",
                confidence=None if confidence is None else confidence[i],
                uncertainty=None if uncertainty is None else uncertainty[i],
            )
        )
    return samples


def test_uncertainty_filter_zero_fraction_identity():
    samples = _scored(["a", "b"], uncertainty=[0.5, 0.1])
    assert uncertainty_filter(samples, 0.0) == samples


def test_uncertainty_filter_removes_single_max():
    ids = [f"s{i}" for i in range(10)]
    samples = _scored(ids, uncertainty=[0.1 * i for i in range(10)])
    kept = uncertainty_filter(samples, 0.10)
    assert [s.id for s in kept] == ids[:9]


def test_uncertainty_filter_tie_drops_largest_id():
    ids = [f"s{i}" for i in range(10)]
    scores = [0.0] * 7 + [0.9, 0.9, 0.9]
    samples = _scored(ids, uncertainty=scores)
    kept = uncertainty_filter(samples, 0.10)
    assert [s.id for s in kept] == ids[:9]  # s9 is the tied sample with largest id


def test_uncertainty_filter_preserves_order():
    ids = ["d", "b", "c", "a"]
    samples = _scored(ids, uncertainty=[0.1, 0.9, 0.2, 0.3])
    kept = uncertainty_filter(samples, 0.25)
    assert [s.id for s in kept] == ["d", "c", "a"]


def test_uncertainty_filter_requires_scores():
    with pytest.raises(ValueError, match="uncertainty"):
        uncertainty_filter(_scored(["a"], uncertainty=None), 0.1)


def test_confidence_rejection_zero_rate_identity():
    samples = _scored(["a", "b"], confidence=[0.5, 0.1])
    assert confidence_rejection(samples, 0.0) == samples


def test_confidence_rejection_keeps_single_max():
    ids = [f"s{i}" for i in range(10)]
    samples = _scored(ids, confidence=[0.05 * i for i in range(10)])
    kept = confidence_rejection(samples, 0.9)
    assert [s.id for s in kept] == ["s9"]


def test_confidence_rejection_matches_sort_oracle():
    rng = np.random.default_rng(9)
    ids = [f"s{i:02d}" for i in range(20)]
    conf = rng.random(20).tolist()
    samples = _scored(ids, confidence=conf)
    kept = confidence_rejection(samples, 0.9)
    expected = sorted(range(20), key=lambda i: (-conf[i], ids[i]))[: math.ceil(0.1 * 20)]
    assert {s.id for s in kept} == {ids[i] for i in expected}
    assert len(kept) == 2


def test_confidence_rejection_tie_keeps_smaller_id():
    samples = _scored(["b", "a", "c"], confidence=[0.9, 0.9, 0.1])
    kept = confidence_rejection(samples, 0.9)  # keeps ceil(0.3) = 1
    assert [s.id for s in kept] == ["a"]


def test_filters_monotone_in_rate_and_fraction():
    rng = np.random.default_rng(10)
    ids = [f"s{i:03d}" for i in range(40)]
    conf = rng.random(40).tolist()
    unc = rng.random(40).tolist()
    previous = None
    for rate in (0.0, 0.5, 0.9, 0.99):
        kept = {s.id for s in confidence_rejection(_scored(ids, confidence=conf), rate)}
        if previous is not None:
            assert kept <= previous
        previous = kept
    previous = None
    for fraction in (0.0, 0.5, 0.9, 0.99):
        kept = {s.id for s in uncertainty_filter(_scored(ids, uncertainty=unc), fraction)}
        if previous is not None:
            assert kept <= previous
        previous = kept


_TIED_SCORES = st.sampled_from([0.0, 0.25, 0.5, 1.0])  # few values, so ties are common
_RATES = st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(_TIED_SCORES, max_size=40), rate=_RATES, data=st.data())
def test_confidence_rejection_keeps_count_and_breaks_ties_by_id(scores, rate, data):
    ids = data.draw(st.permutations([f"s{i:02d}" for i in range(len(scores))]))
    samples = _scored(ids, confidence=scores)
    kept = confidence_rejection(samples, rate)
    assert len(kept) == math.ceil((1.0 - rate) * len(samples))
    # the most confident first, a tie keeping the smaller id; input order kept
    best = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[: len(kept)]
    assert kept == [samples[i] for i in sorted(best)]


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(_TIED_SCORES, max_size=40), fraction=_RATES, data=st.data())
def test_uncertainty_filter_drops_count_and_breaks_ties_by_id(scores, fraction, data):
    ids = data.draw(st.permutations([f"s{i:02d}" for i in range(len(scores))]))
    samples = _scored(ids, uncertainty=scores)
    kept = uncertainty_filter(samples, fraction)
    drop = math.ceil(fraction * len(samples))
    assert len(kept) == len(samples) - drop
    # the most uncertain are dropped, a tie dropping the larger id; input order kept
    worst = set(sorted(range(len(ids)), key=lambda i: (scores[i], ids[i]), reverse=True)[:drop])
    assert kept == [s for i, s in enumerate(samples) if i not in worst]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 400), rate=_RATES, fraction=_RATES, seed=st.integers(0, 2**32 - 1))
def test_filtered_count_equals_filter_stack(n, rate, fraction, seed):
    rng = np.random.default_rng(seed)
    samples = _scored([f"s{i:03d}" for i in range(n)], confidence=rng.random(n).tolist(),
                      uncertainty=rng.random(n).tolist())
    kept = uncertainty_filter(confidence_rejection(samples, rate), fraction)
    assert filtered_count(n, rate, fraction) == len(kept)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                                st.sampled_from([0.0, -0.0, 0.25, 1.0])), max_size=12),
       rate=_RATES)
def test_filters_equal_the_two_sort_rule_on_tied_scores_and_repeated_ids(pairs, rate):
    # repeated ids with equal scores tell apart which of two equal samples is kept
    for attr, keep, oracle in (("confidence", confidence_rejection, two_sort_confidence_rejection),
                               ("uncertainty", uncertainty_filter, two_sort_uncertainty_filter)):
        samples = [LabeledSample(id=sid, class_id=1, provenance="toy", **{attr: score})
                   for sid, score in pairs]
        kept, expected = keep(samples, rate), oracle(samples, rate)
        assert [id(s) for s in kept] == [id(s) for s in expected]
