import tracemalloc

import numpy as np
import pytest

from labelgen import distmetrics
from labelgen.distmetrics import GaussianFit, apply_mask, fid, fit_gaussian, kid
from labelgen.formats import EmbeddingSet, Image, Mask, NonFiniteError

from .oracles import fit_gaussian_two_pass, kid_dense, kid_triple_loop


# ------------------------------------------------------------------ apply_mask

def test_apply_mask_all_foreground_identity():
    rng = np.random.default_rng(0)
    image = Image(rng.integers(0, 256, (6, 6, 3)).astype(np.uint8))
    mask = Mask(np.ones((6, 6), np.uint8))
    out = apply_mask(image, mask)
    np.testing.assert_array_equal(out.data, image.data)


def test_apply_mask_empty_all_black():
    rng = np.random.default_rng(1)
    image = Image(rng.integers(1, 256, (5, 4, 3)).astype(np.uint8))
    out = apply_mask(image, Mask(np.zeros((5, 4), np.uint8)))
    assert (out.data == 0).all()


def test_apply_mask_checkerboard_pixelwise():
    rng = np.random.default_rng(2)
    image = Image(rng.integers(1, 256, (8, 8, 3)).astype(np.uint8))
    grid = np.indices((8, 8)).sum(axis=0) % 2
    grid[0, 1] = 255  # ignore label blanks out too
    mask = Mask(grid.astype(np.uint8))
    out = apply_mask(image, mask)
    for y in range(8):
        for x in range(8):
            if mask.labels[y, x] in (0, 255):
                assert (out.data[y, x] == 0).all()
            else:
                assert (out.data[y, x] == image.data[y, x]).all()


def test_apply_mask_dimension_mismatch():
    image = Image(np.zeros((4, 4, 3), np.uint8))
    with pytest.raises(ValueError):
        apply_mask(image, Mask(np.zeros((5, 4), np.uint8)))


# ------------------------------------------------------------------ moments

def test_fit_gaussian_constant_rows():
    fit = fit_gaussian(np.tile([2.0, -1.0], (6, 1)))
    np.testing.assert_allclose(fit.mean, [2.0, -1.0])
    np.testing.assert_allclose(fit.cov, 0.0, atol=1e-15)


def test_fit_gaussian_unbiased_1d():
    fit = fit_gaussian(np.array([[0.0], [2.0]]))
    assert fit.mean[0] == pytest.approx(1.0)
    assert fit.cov[0, 0] == pytest.approx(2.0)


def test_fit_gaussian_matches_two_pass_oracle():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(17, 4))
    fit = fit_gaussian(rows)
    mean, cov = fit_gaussian_two_pass(rows)
    np.testing.assert_allclose(fit.mean, mean, atol=1e-12)
    np.testing.assert_allclose(fit.cov, cov, atol=1e-12)
    np.testing.assert_array_equal(fit.cov, fit.cov.T)


def test_gaussian_fit_validation():
    with pytest.raises(ValueError):
        GaussianFit(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        fit_gaussian(np.array([[1.0, 2.0]]))


def test_fit_gaussian_arrays_are_read_only():
    fit = fit_gaussian(np.array([[0.0, 1.0], [2.0, 5.0], [1.0, 0.0]]))
    for held in (fit.mean, fit.cov):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 99.0


@pytest.mark.parametrize("metric", [fid, kid])
def test_raw_matrix_holding_nan_is_rejected_as_non_finite(metric):
    rows = np.arange(12.0).reshape(4, 3)
    bad = rows.copy()
    bad[2, 1] = np.nan
    with pytest.raises(NonFiniteError):
        metric(bad, rows)
    with pytest.raises(NonFiniteError):
        metric(rows, bad)


# ------------------------------------------------------------------ fid

def _set_1d(mean, var):
    half = np.sqrt(var / 2)
    return EmbeddingSet(np.array([[mean - half], [mean + half]]))


def test_fid_self_zero():
    rng = np.random.default_rng(4)
    a = EmbeddingSet(rng.normal(size=(40, 6)))
    assert fid(a, a) == pytest.approx(0.0, abs=1e-6)


def test_fid_univariate_closed_form():
    assert fid(_set_1d(0.0, 1.0), _set_1d(1.0, 1.0)) == pytest.approx(1.0, abs=1e-6)


def test_fid_diagonal_closed_form():
    # rows chosen so sample covariances are exactly diagonal
    def diag_set(mu, s):
        rows = []
        d = len(s)
        for i in range(d):
            e = np.zeros(d)
            e[i] = s[i]
            rows += [mu + e, mu - e]
        return EmbeddingSet(np.array(rows))

    mu_a, mu_b = np.array([0.0, 1.0, -2.0]), np.array([0.5, 0.0, 1.0])
    s_a, s_b = np.array([1.0, 2.0, 0.5]), np.array([0.7, 1.1, 2.2])
    a, b = diag_set(mu_a, s_a), diag_set(mu_b, s_b)
    n = 6
    var_a = 2 * s_a**2 / (n - 1)
    var_b = 2 * s_b**2 / (n - 1)
    expected = float(((mu_a - mu_b) ** 2).sum() + ((np.sqrt(var_a) - np.sqrt(var_b)) ** 2).sum())
    assert fid(a, b) == pytest.approx(expected, abs=1e-9)


def test_fid_symmetric():
    rng = np.random.default_rng(5)
    a = EmbeddingSet(rng.normal(size=(30, 5)))
    b = EmbeddingSet(rng.normal(loc=0.3, size=(25, 5)))
    assert fid(a, b) == pytest.approx(fid(b, a), abs=1e-8)


def test_fid_rotation_invariant():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(50, 4))
    b = rng.normal(loc=0.5, scale=1.5, size=(40, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    base = fid(EmbeddingSet(a), EmbeddingSet(b))
    rotated = fid(EmbeddingSet(a @ q), EmbeddingSet(b @ q))
    assert rotated == pytest.approx(base, abs=1e-6)


def test_fid_same_gaussian_decreases_with_n():
    rng = np.random.default_rng(7)
    means = []
    for n in (10, 100, 1000):
        values = [
            fid(EmbeddingSet(rng.normal(size=(n, 3))), EmbeddingSet(rng.normal(size=(n, 3))))
            for _ in range(20)
        ]
        means.append(np.mean(values))
    assert means[0] > means[1] > means[2]


def test_fid_dimension_mismatch():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        fid(EmbeddingSet(rng.normal(size=(5, 2))), EmbeddingSet(rng.normal(size=(5, 3))))


def test_fid_accepts_float32_sets_holding_large_values():
    # rounding error in the covariances grows with their scale; an absolute
    # tolerance rejected 85 of these 300 pairs as not PSD
    for seed in range(300):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 6, 3))
        a[0, 0] = b[0, 0] = 1e8
        value = fid(EmbeddingSet(a.astype(np.float32)), EmbeddingSet(b.astype(np.float32)))
        assert np.isfinite(value) and value >= 0


@pytest.mark.parametrize("values", [[1.0, -0.5], [1e8, -1e3], [0.0, -2e-6]])
def test_psd_sqrt_rejects_an_indefinite_matrix(values):
    with pytest.raises(ValueError, match="not PSD"):
        distmetrics._psd_sqrt(np.diag(values), "covariance")


# ------------------------------------------------------------------ kid

def test_kid_constant_point_zero():
    a = EmbeddingSet(np.tile([1.0, 2.0], (5, 1)))
    assert kid(a, a) == pytest.approx(0.0, abs=1e-12)


def test_kid_matches_triple_loop_oracle():
    rng = np.random.default_rng(9)
    for n in range(3, 11):
        for d in range(2, 9):
            a = rng.normal(size=(n, d))
            b = rng.normal(loc=0.2, size=(n + 1, d))
            assert kid(EmbeddingSet(a), EmbeddingSet(b)) == pytest.approx(
                kid_triple_loop(a, b), rel=1e-12, abs=1e-12
            )


def test_kid_symmetric():
    rng = np.random.default_rng(10)
    a = EmbeddingSet(rng.normal(size=(12, 3)))
    b = EmbeddingSet(rng.normal(loc=1.0, size=(9, 3)))
    assert kid(a, b) == pytest.approx(kid(b, a), rel=1e-12)


def test_kid_same_distribution_within_three_standard_errors():
    rng = np.random.default_rng(11)
    values = [
        kid(EmbeddingSet(rng.normal(size=(100, 1))), EmbeddingSet(rng.normal(size=(100, 1))))
        for _ in range(40)
    ]
    mean = np.mean(values)
    stderr = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(mean) < 3 * stderr


def test_kid_block_averaging():
    rng = np.random.default_rng(12)
    a = EmbeddingSet(rng.normal(size=(20, 3)))
    b = EmbeddingSet(rng.normal(loc=2.0, size=(20, 3)))
    blocked = kid(a, b, block_size=10)
    expected = np.mean(
        [kid_triple_loop(a.rows[:10], b.rows[:10]), kid_triple_loop(a.rows[10:], b.rows[10:])]
    )
    assert blocked == pytest.approx(expected, rel=1e-12)


# A tile of t Gram entries holds max(1, t // columns) rows: t = 1 gives
# one-row tiles, t = 23 cuts an 11-row set into 2-row tiles with a short last
# one, and 1 << 19 is the module's own cap (a single tile here).
@pytest.mark.parametrize("tile", [1, 7, 23, 64, 1 << 19])
@pytest.mark.parametrize("n, m", [(2, 2), (2, 5), (11, 7), (13, 20)])
def test_kid_tiles_match_the_loop_and_dense_oracles(monkeypatch, tile, n, m):
    monkeypatch.setattr(distmetrics, "_KID_TILE", tile)
    rng = np.random.default_rng([13, n, m])
    for d in (1, 3, 8):
        a = rng.normal(size=(n, d))
        b = rng.normal(loc=0.3, scale=1.2, size=(m, d))
        value = kid(EmbeddingSet(a), EmbeddingSet(b))
        assert value == pytest.approx(kid_triple_loop(a, b), rel=1e-12, abs=1e-12)
        assert value == pytest.approx(kid_dense(a, b), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("tile", [1, 10, 1 << 19])
def test_kid_block_averaging_in_tiles_matches_the_dense_oracle(monkeypatch, tile):
    monkeypatch.setattr(distmetrics, "_KID_TILE", tile)
    rng = np.random.default_rng(14)
    a = rng.normal(size=(23, 4))
    b = rng.normal(loc=1.0, size=(18, 4))
    expected = np.mean([kid_dense(a[i : i + 6], b[i : i + 6]) for i in (0, 6, 12)])
    assert kid(a, b, block_size=6) == pytest.approx(expected, rel=1e-12)


def test_kid_memory_stays_within_a_few_tiles():
    # three dense 3000 x 3000 float64 Grams would take 216 MB
    rng = np.random.default_rng(15)
    a = rng.normal(size=(3000, 4))
    b = rng.normal(loc=0.5, size=(3000, 4))
    tracemalloc.start()
    try:
        kid(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
