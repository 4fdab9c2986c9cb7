"""Distribution distances between embedding sets, plus masked-image prep.

FID is the Frechet distance between Gaussians fitted to two embedding sets:

    d^2 = ||mu_a - mu_b||^2 + tr(cov_a + cov_b - 2 (cov_a cov_b)^(1/2))

with the matrix square root evaluated through the symmetric product
cov_a^(1/2) cov_b cov_a^(1/2), which keeps everything in real symmetric
eigendecompositions. KID is the unbiased squared MMD with the cubic
polynomial kernel k(x, y) = (x.y / d + 1)^3. Its kernel sums stream over
row tiles of at most 2^19 Gram entries (4 MiB), so memory is O(tile), not
O(n^2). Each symmetric Gram (x with x, y with y) is computed once: a tile
is multiplied only against the columns from its own first row on, and the
entries right of its diagonal block count for both triangles.

Embeddings are ingested, never computed here; pixel inputs only pass
through ``apply_mask`` which blanks background before any external
embedding step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import EmbeddingSet, Image, Mask

# rounding tolerance of eigenvalue and distance checks, relative to the
# matrix's scale (its largest eigenvalue, or the traces) where that exceeds 1
_EIG_TOL = 1e-6


def apply_mask(image: Image, mask: Mask) -> Image:
    """Zero out background and ignore pixels, keeping foreground untouched."""
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError(
            f"image {image.height}x{image.width} and mask {mask.height}x{mask.width} differ"
        )
    fg = mask.foreground()
    data = np.where(fg[:, :, None], image.data, np.uint8(0))
    return Image(data)


def _rows(embeddings) -> np.ndarray:
    rows = embeddings.rows if isinstance(embeddings, EmbeddingSet) else np.asarray(embeddings, float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("need an (n, d) embedding matrix with n >= 2")
    return rows


@dataclass(frozen=True, eq=False)
class GaussianFit:
    """Sample mean and unbiased (n-1) covariance, symmetrized."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match mean dimension")
        if np.abs(cov - cov.T).max() > 1e-9:
            raise ValueError("covariance must be symmetric within 1e-9")
        if np.diag(cov).min() < -1e-9:
            raise ValueError("covariance diagonal must be nonnegative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def fit_gaussian(embeddings) -> GaussianFit:
    rows = _rows(embeddings)
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (rows.shape[0] - 1)
    cov = (cov + cov.T) / 2
    return GaussianFit(mean=mean, cov=cov)


def _psd_sqrt(matrix: np.ndarray, what: str) -> np.ndarray:
    values, vectors = np.linalg.eigh(matrix)
    tol = _EIG_TOL * max(1.0, values.max())
    if values.min() < -tol:
        raise ValueError(f"{what} is not PSD: eigenvalue {values.min():.3e} < -{tol:g}")
    values = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(values)) @ vectors.T


def fid(a, b) -> float:
    """Frechet distance between Gaussians fitted to two embedding sets."""
    ra, rb = _rows(a), _rows(b)
    if ra.shape[1] != rb.shape[1]:
        raise ValueError(f"embedding dims differ: {ra.shape[1]} vs {rb.shape[1]}")
    ga, gb = fit_gaussian(ra), fit_gaussian(rb)
    delta = ga.mean - gb.mean
    root_a = _psd_sqrt(ga.cov, "covariance")
    inner = root_a @ gb.cov @ root_a
    inner = (inner + inner.T) / 2
    values = np.linalg.eigvalsh(inner)
    if values.min() < -_EIG_TOL * max(1.0, values.max()):
        raise ValueError(f"covariance product not PSD: eigenvalue {values.min():.3e}")
    trace_sqrt = np.sqrt(np.clip(values, 0.0, None)).sum()
    value = float(delta @ delta + np.trace(ga.cov) + np.trace(gb.cov) - 2 * trace_sqrt)
    if value < -_EIG_TOL * max(1.0, np.trace(ga.cov) + np.trace(gb.cov)):
        raise ValueError(f"negative distance {value:.3e} beyond tolerance")
    return max(value, 0.0)


_KID_TILE = 1 << 19  # Gram entries per row tile: 4 MiB of float64


def _kernel_sum(x: np.ndarray, y: np.ndarray, symmetric: bool) -> float:
    """Sum of k(x_i, y_j) over all pairs, or over i != j when ``symmetric``
    (``y`` is then ``x``), streamed over row tiles of ``x`` that hold at
    most ``_KID_TILE`` Gram entries (at least one row).

    A symmetric tile is multiplied only against the columns from its own
    first row on: the part right of its leading square block stands for
    both triangles and counts twice, and the block's diagonal is dropped.
    """
    d = x.shape[1]
    step = max(1, _KID_TILE // len(y))
    total = 0.0
    for start in range(0, len(x), step):
        tile = x[start : start + step]
        g = tile @ (y[start:] if symmetric else y).T
        g /= d
        g += 1.0
        g *= g * g
        if symmetric:
            rows = len(tile)
            total += g[:, :rows].sum() - np.trace(g) + 2.0 * g[:, rows:].sum()
        else:
            total += g.sum()
    return float(total)


def _mmd2_unbiased(x: np.ndarray, y: np.ndarray) -> float:
    n, m = len(x), len(y)
    term_x = _kernel_sum(x, x, symmetric=True) / (n * (n - 1))
    term_y = _kernel_sum(y, y, symmetric=True) / (m * (m - 1))
    return float(term_x + term_y - 2.0 * _kernel_sum(x, y, symmetric=False) / (n * m))


def check_block_size(block_size: int | None) -> None:
    """Reject a KID ``block_size`` below 2; ``None`` means the full sets."""
    if block_size is not None and block_size < 2:
        raise ValueError("block_size must be >= 2")


def kid(a, b, block_size: int | None = None) -> float:
    """Unbiased squared MMD with the cubic polynomial kernel.

    By default the estimator runs over the full sets. With ``block_size``
    it is averaged over consecutive same-index block pairs instead, which
    costs less on large sets; blocks need at least 2 rows.
    """
    ra, rb = _rows(a), _rows(b)
    if ra.shape[1] != rb.shape[1]:
        raise ValueError(f"embedding dims differ: {ra.shape[1]} vs {rb.shape[1]}")
    check_block_size(block_size)
    if block_size is None:
        return _mmd2_unbiased(ra, rb)
    blocks = min(len(ra), len(rb)) // block_size
    if blocks == 0:
        return _mmd2_unbiased(ra, rb)
    values = [
        _mmd2_unbiased(
            ra[i * block_size : (i + 1) * block_size],
            rb[i * block_size : (i + 1) * block_size],
        )
        for i in range(blocks)
    ]
    return float(np.mean(values))
