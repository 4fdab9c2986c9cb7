"""Stochastic sampling and filtering primitives.

Covers the latent truncation trick, nucleus/top-k sampling over categorical
distributions, Jensen-Shannon ensemble disagreement, and the two batch
filters (classifier-confidence rejection and uncertainty filtering), which
share one ranked cut (``ranked_cut``) that also runs on score arrays. All
randomness comes from caller-owned ``numpy.random.Generator`` instances, so
identical seeds give identical outputs. ``toygen.band_uncertainties`` scores
the offline survivors with ``_js`` too, so a change to its summation order
changes the uncertainties that ``synth`` writes, which the ``PINNED`` rows of
``tests/test_pinned_outputs.py`` would catch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .formats import FormatError, _frozen_array, file_error, read_lines, write_lines

_DIST_TOL = 1e-9
# smallest truncation accepted: rejection sampling takes about 1.25 / psi
# standard-normal draws per coordinate, so a tinier psi would not finish
MIN_TRUNCATION_PSI = 0.01


@dataclass(frozen=True)
class FilterConfig:
    """Filter-stage knobs with their standard defaults.

    truncation_psi: latent coordinates are resampled into [-psi, psi];
        at least ``MIN_TRUNCATION_PSI``.
    rejection_rate: fraction of lowest-confidence samples to reject.
    uncertainty_fraction: fraction of most-uncertain samples to drop.
    """

    truncation_psi: float = 0.9
    rejection_rate: float = 0.9
    uncertainty_fraction: float = 0.10

    def __post_init__(self):
        if not self.truncation_psi >= MIN_TRUNCATION_PSI:
            raise ValueError(f"truncation_psi must be >= {MIN_TRUNCATION_PSI}, "
                             f"got {self.truncation_psi!r}")
        if not 0.0 <= self.rejection_rate < 1.0:
            raise ValueError("rejection_rate must be in [0, 1)")
        if not 0.0 <= self.uncertainty_fraction < 1.0:
            raise ValueError("uncertainty_fraction must be in [0, 1)")

    @classmethod
    def from_file(cls, path) -> "FilterConfig":
        """Load key=value lines; an unknown or repeated key is rejected."""
        kwargs = {}
        known = {f.name for f in fields(cls)}
        for lineno, line in enumerate(read_lines(path), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in known:
                raise FormatError(f"{path}:{lineno}: expected <known key>=<value>")
            if key in kwargs:
                raise FormatError(f"{path}:{lineno}: repeated key {key}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: {key} must be a number, "
                                  f"got {value!r}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise file_error(exc, path) from None

    def to_file(self, path) -> None:
        write_lines((f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)), path)

    def override(self, **kwargs) -> "FilterConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)


def _as_dist(probs) -> np.ndarray:
    p = np.asarray(getattr(probs, "probs", probs), dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a nonempty 1-D vector")
    if p.min() < 0:
        raise ValueError("distribution entries must be nonnegative")
    if abs(p.sum() - 1.0) > _DIST_TOL:
        raise ValueError(f"distribution sums to {p.sum()!r}, not 1")
    return p


@dataclass(frozen=True, eq=False)
class CategoricalDist:
    """A validated probability vector."""

    probs: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "probs", _as_dist(self.probs))


def truncated_normal(dim: int, psi: float, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal coordinates resampled independently until |z| <= psi,
    for psi >= ``MIN_TRUNCATION_PSI``.

    Each round draws one normal for every coordinate still out of range, in
    coordinate order, as one ``standard_normal`` call. The coordinates are
    Python floats between rounds: at a latent's few coordinates that is
    cheaper than array masks."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not psi >= MIN_TRUNCATION_PSI:
        raise ValueError(f"psi must be >= {MIN_TRUNCATION_PSI}, got {psi!r}")
    z = rng.standard_normal(dim).tolist()
    out_of_range = [i for i, v in enumerate(z) if abs(v) > psi]
    while out_of_range:
        for i, v in zip(out_of_range, rng.standard_normal(len(out_of_range)).tolist()):
            z[i] = v
        out_of_range = [i for i in out_of_range if abs(z[i]) > psi]
    return np.array(z)


def nucleus_topk_support(probs, p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated support and renormalized probabilities for nucleus/top-k.

    Sorts descending (ties by ascending index), keeps the smallest prefix
    whose cumulative mass reaches p, intersects it with the top-k prefix,
    and renormalizes.
    """
    dist = _as_dist(probs)
    order = np.argsort(-dist, kind="stable")
    cumulative = np.cumsum(dist[order])
    prefix = int(np.searchsorted(cumulative, p)) + 1
    prefix = min(prefix, k, dist.size)
    support = order[:prefix]
    kept = dist[support]
    return support, kept / kept.sum()


def nucleus_topk_sample(probs, p: float, k: int, rng: np.random.Generator, size=None):
    """Draw an index (or ``size`` indices) from the truncated distribution."""
    support, renormalized = nucleus_topk_support(probs, p, k)
    return rng.choice(support, size=size, p=renormalized)


def _class_sum(t: np.ndarray) -> np.ndarray:
    """Sum over the last axis; two classes are added directly, which equals
    numpy's two-element reduction and skips its set-up cost."""
    return t[..., 0] + t[..., 1] if t.shape[-1] == 2 else t.sum(axis=-1)


def _entropy(p: np.ndarray) -> np.ndarray:
    """Entropy over the last axis. p*log(p) is taken once per distinct value,
    with libm's log (``math.log``, which ``scipy.special.xlogy`` uses too;
    ``np.log`` rounds some values differently), and is 0 at 0."""
    values, inverse = np.unique(p.ravel(), return_inverse=True)
    plogp = np.array([v * math.log(v) if v else 0.0 for v in values.tolist()])
    return -_class_sum(plogp[inverse].reshape(p.shape))


def _js(p: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence across the leading (member) axis of ``p``."""
    return _entropy(p.mean(0)) - _entropy(p).mean(0)


def js_divergence(dists) -> float:
    """Jensen-Shannon divergence of N distributions, natural-log entropy.

    Entropy of the equal-weight mixture minus the mean member entropy;
    always in [0, ln N].
    """
    stack = [_as_dist(d) for d in dists]
    if len(stack) < 2:
        raise ValueError("need at least 2 distributions")
    sizes = {s.size for s in stack}
    if len(sizes) != 1:
        raise ValueError(f"support sizes differ: {sorted(sizes)}")
    return float(max(_js(np.stack(stack)), 0.0))


@dataclass(frozen=True, eq=False)
class EnsemblePrediction:
    """Class probabilities from K heads over an (H, W) pixel grid.

    ``index`` lists, strictly increasing, the row-major flat indices of m
    pixels. ``probs`` has shape (K, u, C): the heads' distributions for u
    pixel kinds, and ``kinds`` (m,) gives the kind of each listed pixel, in
    ``index`` order, so pixels whose heads agree on every distribution share
    one column. ``kinds=None`` makes each listed pixel its own kind (u = m).
    Every pixel not listed has all heads equal, so it adds exactly 0 to the
    heads' disagreement and need not be stored. Each array is an owned,
    read-only copy (``formats._frozen_array``); the caller's stay writable.
    """

    probs: np.ndarray
    index: np.ndarray
    shape: tuple[int, int]
    kinds: np.ndarray | None = None

    def __post_init__(self):
        arr = _frozen_array(self, "probs", self.probs, np.float64)
        if arr.ndim != 3:
            raise ValueError(f"listed-pixel probs must be (K, m, C), got {arr.shape}")
        if self.shape is None or len(self.shape) != 2 or min(self.shape) < 1:
            raise ValueError(f"listed pixels need a positive (H, W) grid, got {self.shape}")
        h, w = (int(s) for s in self.shape)
        object.__setattr__(self, "shape", (h, w))
        index = _frozen_array(self, "index", self.index)
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise ValueError("index must be a 1-D integer array")
        counted = "probs" if self.kinds is None else "kinds"
        num_kinds = arr.shape[1]
        kinds = _frozen_array(self, "kinds",
                              np.arange(num_kinds) if self.kinds is None else self.kinds)
        if kinds.ndim != 1 or kinds.dtype.kind not in "iu":
            raise ValueError("kinds must be a 1-D integer array")
        if kinds.size != index.size:
            raise ValueError(f"index lists {index.size} pixels, {counted} {kinds.size}")
        if kinds.size and (kinds.min() < 0 or kinds.max() >= num_kinds):
            raise ValueError(f"kinds must be in [0, {num_kinds}): probs holds {num_kinds} kinds")
        if index.size and (index[0] < 0 or index[-1] >= h * w
                           or (np.diff(index) <= 0).any()):
            raise ValueError(f"index must be strictly increasing within the {h}x{w} grid")
        if arr.shape[0] < 2:
            raise ValueError("ensemble needs K >= 2 heads")
        if arr.size:
            if arr.min() < 0:
                raise ValueError("probabilities must be nonnegative")
            if np.abs(_class_sum(arr) - 1.0).max() > 1e-6:
                raise ValueError("per-pixel probabilities must sum to 1 within 1e-6")

    @property
    def num_heads(self) -> int:
        return self.probs.shape[0]


def sample_uncertainty(pred: EnsemblePrediction) -> float:
    """Mean over the grid of the per-pixel JS divergence across ensemble heads.

    The divergence is computed once per pixel kind and gathered by
    ``pred.kinds``. Unlisted pixels add exactly 0, so the sum runs over the
    listed pixels only and is divided by H*W.
    """
    per_pixel = np.maximum(_js(pred.probs), 0.0)[pred.kinds]
    h, w = pred.shape
    return float(per_pixel.sum() / (h * w))


def _require_scores(samples, attr: str) -> list[float]:
    scores = []
    for sample in samples:
        value = getattr(sample, attr)
        if value is None:
            raise ValueError(f"sample {sample.id!r} is missing {attr}")
        scores.append(float(value))
    return scores


def _rejection_keep(n: int, rate: float) -> int:
    return math.ceil((1.0 - rate) * n)


def _uncertainty_drop(n: int, fraction: float) -> int:
    return math.ceil(fraction * n)


def filtered_count(n: int, rate: float, fraction: float) -> int:
    """Samples left when confidence_rejection at ``rate`` and then
    uncertainty_filter at ``fraction`` run over n samples.

    Both filters keep an exact count whatever the scores, so the count is
    known before any sample is scored.
    """
    kept = _rejection_keep(n, rate)
    return kept - _uncertainty_drop(kept, fraction)


def ranked_cut(scores, ties, keep: int, sign: int) -> np.ndarray:
    """Positions, increasing, of the ``keep`` entries that rank first by
    ``sign * scores``: ``sign`` -1 keeps the highest scores, 1 the lowest.
    Tied scores keep the smaller ``ties`` key, and of entries tied in both,
    the earlier. A 0.0 score ties a -0.0 one."""
    order = np.lexsort((ties, sign * np.asarray(scores, dtype=np.float64)))
    return np.sort(order[:keep])


def _ranked_cut(samples: list, attr: str, keep: int, sign: int) -> list:
    """``ranked_cut`` of the samples' ``attr`` scores, in input order. Tied
    scores keep the smaller id; of samples tied in id too, the earlier is
    kept when the highest scores are, the later when the lowest are."""
    scores = _require_scores(samples, attr)
    rank = {sid: r for r, sid in enumerate(sorted({s.id for s in samples}))}
    n = len(samples)
    ties = [rank[s.id] * n + (i if sign < 0 else n - 1 - i) for i, s in enumerate(samples)]
    return [samples[i] for i in ranked_cut(scores, ties, keep, sign)]


def uncertainty_filter(samples, fraction: float = 0.10):
    """Drop the ceil(fraction*n) most uncertain samples.

    Ties at the cut are resolved by dropping the larger sample id first, so
    tied samples with smaller ids are kept. Input order is preserved.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    samples = list(samples)
    return _ranked_cut(samples, "uncertainty",
                       len(samples) - _uncertainty_drop(len(samples), fraction), 1)


def confidence_rejection(samples, rate: float = 0.9):
    """Keep the ceil((1-rate)*n) most confident samples.

    Ties at the cut keep the smaller sample id. Input order is preserved
    among the kept samples.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    samples = list(samples)
    return _ranked_cut(samples, "confidence", _rejection_keep(len(samples), rate), -1)
