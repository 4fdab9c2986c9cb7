from pathlib import Path

import numpy as np
import pytest

from labelgen.fusion import (
    LayerSpec,
    compare,
    plan_baseline,
    plan_grouped,
    read_layers,
    write_layers,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BIGGAN512_LAYERS = read_layers(CONFIGS / "biggan512.tsv")
VQGAN256_LAYERS = read_layers(CONFIGS / "vqgan256.tsv")

# regression constants for the documented 512-resolution example config
BIGGAN512_BASELINE = 4656 * 512 * 512          # sum(channels) * final_res^2
BIGGAN512_GROUPED_PEAK = 201_326_592           # low-band mix stage
BIGGAN512_RATIO = 6.0625


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec("bad", 24, 64)  # not a power of two
    with pytest.raises(ValueError):
        LayerSpec("bad", 4, 64)   # below the smallest band
    with pytest.raises(ValueError):
        LayerSpec("bad", 1024, 64)
    with pytest.raises(ValueError):
        LayerSpec("bad", 64, 0)


def test_single_high_layer_reduce_output():
    plan = plan_grouped([LayerSpec("res8", 8, 1536)], d_reduce=128)
    reduce_stage = next(s for s in plan.stages if s.name == "high:reduce1x1")
    (channels, res), = reduce_stage.outputs
    assert (channels, res) == (128, 32)
    assert channels * res * res == 131_072


def test_baseline_single_layer():
    assert plan_baseline([LayerSpec("res8", 8, 1536)], 512) == 1536 * 512 * 512


def test_baseline_layer_already_at_final_res():
    assert plan_baseline([LayerSpec("res512", 512, 48)], 512) == 48 * 512 * 512


def test_biggan_example_baseline_exact():
    total_channels = sum(l.channels for l in BIGGAN512_LAYERS)
    assert total_channels == 4656
    assert plan_baseline(BIGGAN512_LAYERS, 512) == BIGGAN512_BASELINE


def test_biggan_example_regression():
    report = compare(BIGGAN512_LAYERS, d_reduce=128)
    assert report.baseline_elements == BIGGAN512_BASELINE
    assert report.grouped_peak_elements == BIGGAN512_GROUPED_PEAK
    assert report.grouped_peak_elements < report.baseline_elements
    assert report.ratio == pytest.approx(BIGGAN512_RATIO, rel=1e-12)
    assert report.ratio > 5


def test_empty_mid_group_high_feeds_low():
    layers = [LayerSpec("res8", 8, 512), LayerSpec("res256", 256, 64)]
    plan = plan_grouped(layers, d_reduce=128)
    bands = [g[0] for g in plan.groups]
    assert bands == ["high", "low"]
    assert plan.output_shape[1] == 512
    resolutions = [r for s in plan.stages for _, r in s.outputs]
    assert resolutions == sorted(resolutions)


def test_all_layers_at_final_res_ratio_near_one():
    layers = [LayerSpec("res512", 512, 96)]
    report = compare(layers, d_reduce=128)
    assert report.ratio == pytest.approx(1.0, rel=0.05)


def test_ratio_monotone_nonincreasing_in_d_reduce():
    ratios = [compare(BIGGAN512_LAYERS, d_reduce=d).ratio for d in (32, 64, 128, 256)]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_vqgan_config_plans_at_256():
    plan = plan_grouped(VQGAN256_LAYERS, d_reduce=128, final_res=256)
    assert plan.output_shape == (2, 256)
    assert len(VQGAN256_LAYERS) == 19  # 12 transformer taps + 7 decoder taps


def test_layer_above_final_res_rejected():
    with pytest.raises(ValueError, match="final resolution"):
        plan_grouped([LayerSpec("res512", 512, 8)], d_reduce=128, final_res=256)


@pytest.mark.parametrize("final_res", [1000, 1024, 96, 4, 0])
def test_final_res_outside_the_layer_rule_rejected(final_res):
    # above 512 no band works, so the grouped plan stays at 512 while the
    # baseline would be charged at final_res^2
    layers = [LayerSpec("res8", 8, 64)]
    message = f"resolution {final_res} must be a power of two in \\[8, 512\\]"
    for plan in (plan_grouped, plan_baseline, compare):
        with pytest.raises(ValueError, match=message):
            plan(layers, final_res=final_res)


def test_plan_shapes_consistent_random_configs():
    rng = np.random.default_rng(0)
    resolutions = [8, 16, 32, 64, 128, 256, 512]
    for _ in range(50):
        chosen = rng.choice(len(resolutions), size=rng.integers(1, 6), replace=True)
        layers = [
            LayerSpec(f"l{i}", resolutions[j], int(rng.integers(1, 2048)))
            for i, j in enumerate(chosen)
        ]
        plan = plan_grouped(layers, d_reduce=int(rng.integers(8, 512)))
        # stage outputs feed later stages: resolution never decreases
        out_res = [r for s in plan.stages for _, r in s.outputs]
        assert out_res == sorted(out_res)
        assert plan.peak_elements == max(s.live_elements for s in plan.stages)
        assert plan.output_shape[1] == max(out_res)


def test_grouped_peak_below_baseline_when_reducible():
    rng = np.random.default_rng(1)
    for _ in range(30):
        layers = [
            LayerSpec("a", 8, int(rng.integers(256, 2048))),
            LayerSpec("b", 64, int(rng.integers(256, 2048))),
            LayerSpec("c", 256, int(rng.integers(256, 2048))),
        ]
        report = compare(layers, d_reduce=128)
        assert report.grouped_peak_elements <= report.baseline_elements


def test_layers_file_roundtrip(tmp_path):
    path = tmp_path / "layers.tsv"
    write_layers(BIGGAN512_LAYERS, path)
    assert read_layers(path) == BIGGAN512_LAYERS
    write_layers([], path)  # no lines make an empty file
    assert path.read_bytes() == b"" and read_layers(path) == []


def test_layers_file_malformed(tmp_path):
    path = tmp_path / "layers.tsv"
    path.write_text("res8\t8\n")
    with pytest.raises(ValueError, match="layers.tsv:1"):
        read_layers(path)
