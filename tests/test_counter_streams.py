"""Per-counter seeds and streams derived in bulk equal numpy's own.

``toygen`` rewrites numpy's ``SeedSequence`` hash and ``PCG64`` seeding so a
source can seed a whole counter range at once. Every value is compared by
``==`` with what numpy's seed sequences and generators give, over roots of
one to five 32-bit words and counters on both sides of 2**32, where numpy's
spawn key grows from one word to two.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelgen.pipeline import PipelineSpec, ToySource
from labelgen.sampling import sample_uncertainty, truncated_normal
from labelgen.toygen import (
    CONFIDENCE_STREAM,
    LATENT_STREAM,
    TEXTURE_STREAM,
    band_uncertainties,
    counter_stream,
    counter_streams,
    int_words,
    set_stream,
    spawn_parent,
    spawn_state,
    substream,
    toy_generate,
)

from .oracles import (
    numpy_disagreement,
    numpy_sample_seed,
    numpy_stream,
    toy_latent,
    toy_scored,
)

ROOTS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**128, 2**140))
COUNTERS = st.one_of(st.integers(0, 2**40), st.integers(2**32 - 3, 2**32 + 3))
EDGE_ROOTS = (0, 3, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**130 + 5)


def _pcg_state(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


@settings(max_examples=200, deadline=None)
@given(root=ROOTS, key=COUNTERS, n=st.integers(1, 5))
@example(root=0, key=0, n=1)
@example(root=2**130 + 5, key=2**32, n=4)
def test_spawned_state_equals_numpy(root, key, n):
    seq = np.random.SeedSequence(root, spawn_key=(key,))
    assert spawn_state(spawn_parent(int_words(root)), int_words(key), n) == \
        seq.generate_state(n, np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(root=ROOTS, counter=COUNTERS)
@example(root=0, counter=0)
@example(root=2**32 - 1, counter=2**32 - 1)
@example(root=2**32, counter=2**32)
@example(root=2**64 - 1, counter=2**32 + 1)
@example(root=2**130 + 5, counter=2**32)
def test_counter_stream_equals_numpy(root, counter):
    parent = spawn_parent(int_words(root))
    seed, disagreement, latent_state, confidence_state = counter_stream(
        parent, counter, LATENT_STREAM, CONFIDENCE_STREAM)
    assert seed == numpy_sample_seed(root, counter)
    assert disagreement == numpy_disagreement(seed)
    assert latent_state == _pcg_state(numpy_stream(seed, LATENT_STREAM))
    rng = np.random.Generator(np.random.PCG64(7))
    latent = truncated_normal(8, 0.9, set_stream(rng, latent_state))
    assert (latent == truncated_normal(8, 0.9, numpy_stream(seed, LATENT_STREAM))).all()
    assert counter_stream(parent, counter, CONFIDENCE_STREAM) == \
        (seed, disagreement, confidence_state)
    jitter = set_stream(rng, confidence_state).normal(0.0, 0.05)
    assert jitter == numpy_stream(seed, CONFIDENCE_STREAM).normal(0.0, 0.05)


def test_edge_roots_and_counters_equal_numpy():
    counters = list(range(0, 300, 7)) + [2**32 - 1, 2**32, 2**32 + 1, 2**40]
    for root in EDGE_ROOTS:
        parent = spawn_parent(int_words(root))
        for counter in counters:
            assert counter_stream(parent, counter, LATENT_STREAM)[0] == \
                numpy_sample_seed(root, counter)


# sorted counter sets that lie below 2**32, straddle it, or end at 2**64 - 1
COUNTER_SETS = st.one_of(
    st.sets(st.integers(0, 2**32 - 1), max_size=12),
    st.sets(st.integers(2**32 - 8, 2**32 + 8), max_size=12),
    st.sets(st.integers(2**64 - 20, 2**64 - 2), max_size=8).map(lambda s: s | {2**64 - 1}),
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(root=ROOTS, counters=COUNTER_SETS)
@example(root=0, counters=[])
@example(root=5, counters=[2**32 - 1, 2**32])
@example(root=2**130 + 5, counters=[0, 2**32, 2**64 - 1])
def test_bulk_streams_equal_one_counter_at_a_time(root, counters):
    parent = spawn_parent(int_words(root))
    array = np.array(counters, dtype=np.uint64)
    for roles in ((LATENT_STREAM,), (CONFIDENCE_STREAM,), (LATENT_STREAM, TEXTURE_STREAM)):
        assert counter_streams(parent, array, *roles) == \
            [counter_stream(parent, c, *roles) for c in counters]


def test_bulk_streams_need_sorted_counters():
    with pytest.raises(ValueError, match="sorted"):
        counter_streams(spawn_parent([0]), np.array([3, 2], dtype=np.uint64), LATENT_STREAM)


def _scored(source, lo, hi):
    """(confidence, sample seed) of counters lo..hi-1: the confidences from
    one ``confidences`` call, the seeds from one ``shapes`` call."""
    seeds = [seed for seed, *_ in source.shapes(list(range(lo, hi)))]
    return list(zip(source.confidences(lo, hi).tolist(), seeds))


def _scored_oracle(source, lo, hi):
    return [(s.confidence, s.latent_seed) for s in (toy_scored(source, c) for c in range(lo, hi))]


@settings(max_examples=30, deadline=None)
@given(root=ROOTS, lo=st.integers(2**32 - 12, 2**32 + 4), length=st.integers(0, 16),
       classes=st.integers(4, 254))
@example(root=0, lo=2**32 - 8, length=0, classes=16)
@example(root=5, lo=2**32 - 8, length=16, classes=16)
def test_confidences_and_seeds_equal_the_per_counter_oracle(root, lo, length, classes):
    source = ToySource(PipelineSpec(num_classes=classes, seed=root))
    assert _scored(source, lo, lo + length) == _scored_oracle(source, lo, lo + length)


@pytest.mark.parametrize("root", EDGE_ROOTS)
def test_a_pool_scored_at_once_equals_the_per_counter_oracle(root):
    source = ToySource(PipelineSpec(num_classes=16, seed=root))
    assert _scored(source, 0, 223) == _scored_oracle(source, 0, 223)
    assert source.confidences(40, 40).shape == (0,)


@settings(max_examples=20, deadline=None)
@given(root=ROOTS, counter=COUNTERS)
def test_rendered_sample_and_ensemble_use_numpy_streams(root, counter):
    source = ToySource(PipelineSpec(num_classes=16, seed=root))
    spec = source.class_specs[counter % 16]
    seed = numpy_sample_seed(root, counter)
    latent = toy_latent(source, counter)
    expected = toy_generate(spec, latent, seed, 64, disagreement=numpy_disagreement(seed))
    sample = source.generate(counter)
    assert (sample.image.data == expected.image.data).all()
    assert (sample.mask.labels == expected.gt_mask.labels).all()
    assert replace(sample, image=None, mask=None) == toy_scored(source, counter)
    ensemble = source.ensemble(counter)
    assert (ensemble.index == expected.ensemble.index).all()
    assert (ensemble.kinds == expected.ensemble.kinds).all()
    assert (ensemble.probs == expected.ensemble.probs).all()
    [(shape_seed, disagreement, fg, shape)] = source.shapes([counter])
    assert shape_seed == seed
    assert disagreement == numpy_disagreement(seed)
    assert (fg == expected.gt_mask.foreground()).all()
    assert (repr(band_uncertainties(fg[None], [disagreement])[0])
            == repr(sample_uncertainty(expected.ensemble)))
    assert (shape[-3:] == substream(seed, TEXTURE_STREAM).integers(40, 120, 3)).all()
    [confidence] = source.confidences(counter, counter + 1).tolist()
    rendered = source.render(counter, seed, confidence, shape)
    assert replace(rendered, image=None, mask=None) == toy_scored(source, counter)
    assert (rendered.image.data == expected.image.data).all()
    assert (rendered.mask.labels == expected.gt_mask.labels).all()


@pytest.mark.parametrize("seed", [-1, -2**64])
def test_negative_root_is_rejected(seed):
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        PipelineSpec(num_classes=16, seed=seed)


# every entry point names the first counter outside [0, 2**64) it is given,
# before any stream is derived from it
@pytest.mark.parametrize("call, counter", [
    (lambda source: source.generate(-1), -1),
    (lambda source: source.generate(2**64 + 5), 2**64 + 5),
    (lambda source: source.ensemble(2**64), 2**64),
    (lambda source: source.shapes([-3]), -3),
    (lambda source: source.shapes([0, 7, 2**64 + 2]), 2**64 + 2),
    (lambda source: source.render(2**64, 0, 1.0, None), 2**64),
    (lambda source: source.confidences(-2, 1), -2),
    (lambda source: source.confidences(2**64 - 1, 2**64 + 1), 2**64),
])
def test_counter_outside_64_bits_is_rejected(call, counter):
    with pytest.raises(ValueError) as caught:
        call(ToySource(PipelineSpec(num_classes=16, seed=0)))
    assert str(caught.value) == f"counter {counter} outside [0, 2**64)"


def test_last_64_bit_counter_is_accepted():
    source = ToySource(PipelineSpec(num_classes=16, seed=0))
    last = 2**64 - 1
    assert _scored(source, last, last + 1) == _scored_oracle(source, last, last + 1)
    assert source.generate(last).id == f"toy-{last:012d}"
