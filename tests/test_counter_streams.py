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

from labelgen.pipeline import ToySource
from labelgen.sampling import truncated_normal
from labelgen.toygen import (
    CONFIDENCE_STREAM,
    LATENT_STREAM,
    counter_stream,
    counter_streams,
    int_words,
    set_stream,
    spawn_parent,
    spawn_state,
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


@settings(max_examples=40, deadline=None)
@given(root=ROOTS, lo=st.integers(2**32 - 12, 2**32 + 4), length=st.integers(0, 16))
def test_bulk_streams_equal_one_counter_at_a_time(root, lo, length):
    parent = spawn_parent(int_words(root))
    for role in (LATENT_STREAM, CONFIDENCE_STREAM):
        assert counter_streams(parent, lo, lo + length, role) == \
            [counter_stream(parent, c, role) for c in range(lo, lo + length)]


@settings(max_examples=30, deadline=None)
@given(root=ROOTS, lo=st.integers(2**32 - 12, 2**32 + 4), length=st.integers(0, 16),
       classes=st.integers(4, 254))
@example(root=0, lo=2**32 - 8, length=0, classes=16)
@example(root=5, lo=2**32 - 8, length=16, classes=16)
def test_scored_range_equals_the_per_counter_oracle(root, lo, length, classes):
    source = ToySource(num_classes=classes, seed=root)
    assert source.scored_range(lo, lo + length) == \
        [toy_scored(source, c) for c in range(lo, lo + length)]


@pytest.mark.parametrize("root", EDGE_ROOTS)
def test_a_pool_scored_at_once_equals_the_per_counter_oracle(root):
    source = ToySource(num_classes=16, seed=root)
    assert source.scored_range(0, 223) == [toy_scored(source, c) for c in range(223)]
    assert source.scored_range(40, 40) == []


@settings(max_examples=20, deadline=None)
@given(root=ROOTS, counter=COUNTERS)
def test_rendered_sample_and_ensemble_use_numpy_streams(root, counter):
    source = ToySource(num_classes=16, seed=root)
    spec = source.specs[counter % 16]
    seed = numpy_sample_seed(root, counter)
    latent = toy_latent(source, counter)
    expected = toy_generate(spec, latent, seed, 64, disagreement=numpy_disagreement(seed))
    sample = source.generate(counter)
    assert (sample.image.data == expected.image.data).all()
    assert (sample.mask.labels == expected.gt_mask.labels).all()
    assert replace(sample, image=None, mask=None) == toy_scored(source, counter)
    ensemble = source.ensemble(counter)
    assert (ensemble.index == expected.ensemble.index).all()
    assert (ensemble.probs == expected.ensemble.probs).all()


@pytest.mark.parametrize("seed", [-1, -2**64])
def test_negative_root_is_rejected(seed):
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        ToySource(num_classes=16, seed=seed)
