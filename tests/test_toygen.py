import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import spearmanr

from labelgen.geometry import mask_stats
from labelgen.sampling import sample_uncertainty, truncated_normal
from labelgen.toygen import (
    CONFIDENCE_STREAM,
    FAMILIES,
    NUM_HEADS,
    VALID_RESOLUTIONS,
    ToyClassSpec,
    _band,
    _rasterize,
    jittered_confidence,
    substream,
    toy_ensemble,
    toy_generate,
    toy_taxonomy,
)

from .oracles import (
    dense_js_uncertainty,
    full_grid_rasterize,
    numpy_disagreement,
    scipy_band,
    toy_band,
    toy_dense_ensemble,
    xlogy_uncertainty,
)


def test_taxonomy_four_classes_one_per_family():
    taxonomy, specs = toy_taxonomy(4, seed=0)
    assert [s.shape_family for s in specs] == list(FAMILIES)
    assert sorted(taxonomy.classes) == [1, 2, 3, 4]
    assert taxonomy.groups["family"] == {1: 1, 2: 2, 3: 3, 4: 4}


def test_taxonomy_sixteen_classes_cycled():
    _, specs = toy_taxonomy(16, seed=0)
    for family in FAMILIES:
        assert sum(s.shape_family == family for s in specs) == 4


def test_taxonomy_deterministic():
    a = toy_taxonomy(8, seed=9)
    b = toy_taxonomy(8, seed=9)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_taxonomy_needs_four_classes():
    with pytest.raises(ValueError):
        toy_taxonomy(3, seed=0)


def test_taxonomy_class_ids_fit_mask_labels():
    taxonomy, _ = toy_taxonomy(254, seed=0)
    assert max(taxonomy.classes) == 254
    for num_classes in (255, 256):
        with pytest.raises(ValueError, match="4..254"):
            toy_taxonomy(num_classes, seed=0)


def _spec_and_z(index=0, seed=0):
    _, specs = toy_taxonomy(16, seed=0)
    spec = specs[index % 16]
    z = truncated_normal(8, 0.9, np.random.default_rng(seed))
    return spec, z


def _dense_heads(ensemble, foreground):
    """(K, H, W) foreground probabilities: listed pixels from the ensemble,
    every other pixel the one-hot ground truth all heads agree on."""
    fg_prob = np.repeat(foreground.astype(np.float64).ravel()[None], ensemble.num_heads, 0)
    fg_prob[:, ensemble.index] = ensemble.probs[:, :, 1]
    return fg_prob.reshape((ensemble.num_heads,) + ensemble.shape)


def test_generate_deterministic():
    spec, z = _spec_and_z()
    level = numpy_disagreement(7)
    a = toy_generate(spec, z, seed=7, res=64, disagreement=level)
    b = toy_generate(spec, z, seed=7, res=64, disagreement=level)
    np.testing.assert_array_equal(a.image.data, b.image.data)
    np.testing.assert_array_equal(a.gt_mask.labels, b.gt_mask.labels)
    np.testing.assert_array_equal(a.ensemble.probs, b.ensemble.probs)
    np.testing.assert_array_equal(a.ensemble.index, b.ensemble.index)
    # the listed pixels are exactly the band, and the full grid equals the oracle's
    fg = a.gt_mask.foreground()
    np.testing.assert_array_equal(a.ensemble.index, np.flatnonzero(toy_band(fg)))
    oracle = toy_dense_ensemble(fg, level, NUM_HEADS)
    np.testing.assert_array_equal(_dense_heads(a.ensemble, fg), oracle[:, :, :, 1])
    np.testing.assert_array_equal(a.ensemble.probs[:, :, 0],
                                  oracle[:, :, :, 0].reshape(NUM_HEADS, -1)[:, a.ensemble.index])


def test_generate_invalid_resolution():
    spec, z = _spec_and_z()
    with pytest.raises(ValueError):
        toy_generate(spec, z, seed=0, res=100, disagreement=numpy_disagreement(0))


def test_zero_disagreement_one_hot_heads():
    spec, z = _spec_and_z()
    out = toy_generate(spec, z, seed=3, res=64, disagreement=0.0)
    assert out.ensemble.num_heads == NUM_HEADS
    fg = out.gt_mask.foreground()
    heads = _dense_heads(out.ensemble, fg)
    np.testing.assert_array_equal(heads > 0.5, np.repeat(fg[None], NUM_HEADS, 0))
    np.testing.assert_array_equal(heads, toy_dense_ensemble(fg, 0.0, NUM_HEADS)[:, :, :, 1])
    assert sample_uncertainty(out.ensemble) == 0.0


def test_band_uncertainty_matches_dense_oracle():
    _, specs = toy_taxonomy(16, seed=0)
    banded, dense = [], []
    for i in range(400):
        spec = specs[i % 16]
        z = truncated_normal(8, 0.9, substream(700 + i, 1))
        level = numpy_disagreement(700 + i)
        out = toy_generate(spec, z, seed=700 + i, res=64, disagreement=level)
        heads = toy_dense_ensemble(out.gt_mask.foreground(), level, NUM_HEADS)
        banded.append(sample_uncertainty(out.ensemble))
        dense.append(dense_js_uncertainty(heads))
    banded, dense = np.array(banded), np.array(dense)
    np.testing.assert_allclose(banded, dense, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(np.argsort(banded, kind="stable"),
                                  np.argsort(dense, kind="stable"))


def test_uncertainty_equals_xlogy_sum_oracle():
    _, specs = toy_taxonomy(16, seed=0)
    for i in range(400):
        z = truncated_normal(8, 0.9, substream(900 + i, 1))
        ensemble = toy_generate(specs[i % 16], z, seed=900 + i, res=64,
                                disagreement=numpy_disagreement(900 + i)).ensemble
        assert sample_uncertainty(ensemble) == xlogy_uncertainty(ensemble)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(FAMILIES), res=st.sampled_from(VALID_RESOLUTIONS),
       size=st.floats(0.01, 0.9), aspect=st.floats(0.05, 1.0),
       rot=st.floats(0.0, math.pi), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_box_rasterize_equals_full_grid(family, res, size, aspect, rot, u, v):
    # centers anywhere in the frame, so windows are clipped on every side
    a = size * res / 2
    b = aspect * a
    args = (family, res, u * res, v * res, a, b, rot)
    box = _rasterize(*args)
    assert box.shape == (res, res) and box.dtype == bool
    assert (box == full_grid_rasterize(*args)).all()


@settings(max_examples=300, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 24), st.integers(1, 24))))
@example(np.ones((7, 9), dtype=bool))
@example(np.eye(6, dtype=bool))
@example(np.pad(np.ones((3, 3), dtype=bool), ((0, 4), (4, 0))))
def test_shift_band_equals_scipy_band(grid):
    assert (_band(grid) == scipy_band(grid)).all()


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, 15), seed=st.integers(0, 2**32), res=st.sampled_from(VALID_RESOLUTIONS),
       level=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_toy_ensemble_equals_generated_ensemble(index, seed, res, level):
    _, specs = toy_taxonomy(16, seed=0)
    z = truncated_normal(8, 0.9, substream(seed, 1))
    if level is None:
        level = numpy_disagreement(seed)
    shape_only = toy_ensemble(specs[index], z, res, disagreement=level)
    generated = toy_generate(specs[index], z, seed, res, disagreement=level).ensemble
    assert shape_only.shape == generated.shape
    assert (shape_only.index == generated.index).all()
    assert (shape_only.probs == generated.probs).all()


@pytest.mark.parametrize("kwargs, message", [
    ({"res": 100}, "resolution"),
    ({"z": np.array([])}, "latent"),
    ({"z": np.array([np.nan])}, "latent"),
    ({"disagreement": 1.5}, "disagreement"),
])
def test_toy_ensemble_checks_inputs_like_generate(kwargs, message):
    spec, z = _spec_and_z(index=1)
    call = {"spec": spec, "z": z, "disagreement": numpy_disagreement(3), **kwargs}
    for build, extra in ((toy_ensemble, {}), (toy_generate, {"seed": 3})):
        with pytest.raises(ValueError, match=message):
            build(**call, **extra)


def test_uncertainty_strictly_increasing_in_disagreement():
    _, specs = toy_taxonomy(16, seed=0)
    means = []
    for level in (0.0, 0.25, 0.5, 0.75):
        values = []
        for i in range(100):
            spec = specs[i % 16]
            z = truncated_normal(8, 0.9, substream(500 + i, 1))
            out = toy_generate(spec, z, seed=500 + i, res=64, disagreement=level)
            values.append(sample_uncertainty(out.ensemble))
        means.append(np.mean(values))
    assert means[0] < means[1] < means[2] < means[3]


def test_mask_class_label_matches_spec():
    spec, z = _spec_and_z(index=5)
    out = toy_generate(spec, z, seed=11, res=64, disagreement=numpy_disagreement(11))
    labels = set(np.unique(out.gt_mask.labels).tolist())
    assert labels == {0, spec.class_id}


def test_foreground_fraction_in_analytic_range():
    # closed-form areas exist for ellipses and axis-lengths of rectangles
    _, specs = toy_taxonomy(16, seed=0)
    rng = np.random.default_rng(13)
    for spec in specs:
        if spec.shape_family not in ("ellipse", "rectangle"):
            continue
        for trial in range(10):
            z = truncated_normal(8, 0.9, rng)
            seed = int(rng.integers(1 << 32))
            out = toy_generate(spec, z, seed=seed, res=128, disagreement=numpy_disagreement(seed))
            mi = mask_stats(out.gt_mask).mask_over_image
            s_lo, s_hi = spec.size_range
            a_lo, a_hi = spec.aspect_range
            if spec.shape_family == "ellipse":
                lo = math.pi / 4 * s_lo**2 * a_lo
                hi = math.pi / 4 * s_hi**2 * a_hi
            else:
                lo = s_lo**2 * a_lo
                hi = s_hi**2 * a_hi
            assert 0.95 * lo <= mi <= 1.05 * hi


def test_confidence_decreases_with_disagreement():
    low = jittered_confidence(0.0, substream(21, CONFIDENCE_STREAM))
    high = jittered_confidence(1.0, substream(21, CONFIDENCE_STREAM))
    assert high < low


def test_uncertainty_ranks_track_injected_disagreement():
    _, specs = toy_taxonomy(16, seed=0)
    uncertainties, levels = [], []
    for i in range(200):
        spec = specs[i % 16]
        z = truncated_normal(8, 0.9, substream(9000 + i, 1))
        levels.append(numpy_disagreement(9000 + i))
        out = toy_generate(spec, z, seed=9000 + i, res=64, disagreement=levels[-1])
        uncertainties.append(sample_uncertainty(out.ensemble))
    rho = spearmanr(uncertainties, levels).statistic
    assert rho > 0.95


def test_without_ensemble_matches_with_ensemble():
    spec, z = _spec_and_z(index=2)
    level = numpy_disagreement(31)
    full = toy_generate(spec, z, seed=31, res=64, disagreement=level, with_ensemble=True)
    lean = toy_generate(spec, z, seed=31, res=64, disagreement=level, with_ensemble=False)
    assert lean.ensemble is None
    np.testing.assert_array_equal(full.image.data, lean.image.data)
    np.testing.assert_array_equal(full.gt_mask.labels, lean.gt_mask.labels)


def test_class_spec_validation():
    with pytest.raises(ValueError):
        ToyClassSpec(
            class_id=1, shape_family="blob", size_range=(0.4, 0.5),
            aspect_range=(0.8, 1.0), rotation_range=(0.0, 1.0),
            color_low=(0, 0, 0), color_high=(10, 10, 10), background_texture=0,
        )
    with pytest.raises(ValueError):
        ToyClassSpec(
            class_id=1, shape_family="ellipse", size_range=(0.4, 0.95),
            aspect_range=(0.8, 1.0), rotation_range=(0.0, 1.0),
            color_low=(0, 0, 0), color_high=(10, 10, 10), background_texture=0,
        )
