"""Mask and polygon geometry: components, contours, shape statistics.

The polygon pipeline mirrors the usual contour workflow: take the largest
8-connected foreground component, trace its outer boundary clockwise,
compress straight (horizontal/vertical/diagonal) pixel runs down to their
end points, normalize the points to the unit square per axis, then simplify
with Douglas-Peucker. Per mask this costs a few numpy calls: one labelling
picks the largest component, bounding boxes come from row and column
projections, and the boundary walk runs over a byte copy of the padded grid
with module-level tables of moves, so each step is a few list and bytes
lookups rather than numpy indexing. Perimeter, point count and pairwise
Chamfer distance are computed on the simplified polygons. The dataset passes at the end
(analyze_masks, class_polygons, class_mean_shapes) take (class_id, Mask)
pairs, so callers decide how masks are read. class_polygons is the one
outline pass: it traces each mask as it arrives and simplifies outlines in
batches; analyze_masks runs it and takes each mask's statistics on the way.
Chamfer distances are computed block-wise. Results are bit-equal to one
outline or pair at a time.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

from .formats import IGNORE_LABEL, Mask, _frozen_array

_EIGHT = np.ones((3, 3), dtype=bool)

# clockwise neighbor ring in image coordinates (y down): N NE E SE S SW W NW
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_WEST = 6
# the directions a trace tries, in order, when its back pixel lies in direction b
_TRY_ORDER = tuple(tuple((b + step) % 8 for step in range(1, 9)) for b in range(8))
# after a move in direction d, the direction from the pixel moved to of the new
# back pixel, the neighbor tried just before d: _DIRS[d - 1] - _DIRS[d]
_BACK_AFTER = (6, 6, 0, 0, 2, 2, 4, 4)

MEAN_SHAPE_RES = 32

# outlines simplified together by the dataset passes
_SIMPLIFY_BATCH = 256
# cdist entries per diversity block: one polygon against the later ones
_DIVERSITY_BLOCK = 1 << 16


def foreground_grid(mask) -> np.ndarray:
    """Boolean foreground grid from a Mask, a label grid, or a boolean array."""
    labels = mask.labels if isinstance(mask, Mask) else np.asarray(mask)
    if labels.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {labels.shape}")
    if labels.dtype == bool:
        return labels
    return (labels != 0) & (labels != IGNORE_LABEL)


# --------------------------------------------------------------------------
# components and per-mask statistics
# --------------------------------------------------------------------------

def connected_components(mask) -> list[np.ndarray]:
    """8-connected foreground components as boolean grids.

    Ordered by pixel count descending; ties broken by the smallest row-major
    index of the component's top-left pixel. The outline passes take only
    the first of these, from one labelling (``_largest_component``); the
    tests hold that choice to this order.
    """
    fg = foreground_grid(mask)
    labeled, n = ndimage.label(fg, structure=_EIGHT)
    if n == 0:
        return []
    flat = labeled.ravel()
    counts = np.bincount(flat, minlength=n + 1)
    first = np.full(n + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    order = sorted(range(1, n + 1), key=lambda i: (-counts[i], first[i]))
    return [labeled == i for i in order]


@dataclass(frozen=True)
class MaskStats:
    """Per-mask area statistics.

    instance_count: number of 8-connected foreground components.
    mask_over_image: foreground pixels / image pixels.
    bbox_over_image: tight foreground bounding-box area / image pixels.
    mask_over_bbox: foreground pixels / bounding-box pixels.
    """

    instance_count: int
    mask_over_image: float
    bbox_over_image: float
    mask_over_bbox: float


def _bbox(fg: np.ndarray) -> tuple[int, int, int, int]:
    """Inclusive (top, bottom, left, right) of a nonempty grid's foreground,
    from its row and column projections."""
    rows = np.flatnonzero(fg.any(axis=1))
    cols = np.flatnonzero(fg.any(axis=0))
    return int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])


def mask_stats(mask) -> MaskStats:
    fg = foreground_grid(mask)
    h, w = fg.shape
    area = int(np.count_nonzero(fg))
    if area == 0:
        return MaskStats(0, 0.0, 0.0, 0.0)
    n = ndimage.label(fg, structure=_EIGHT)[1]
    top, bottom, left, right = _bbox(fg)
    bbox = (bottom - top + 1) * (right - left + 1)
    return MaskStats(
        instance_count=int(n),
        mask_over_image=area / (w * h),
        bbox_over_image=bbox / (w * h),
        mask_over_bbox=area / bbox,
    )


def center_scatter(masks) -> np.ndarray:
    """Normalized bounding-box centers, one (cx, cy) row per nonempty mask."""
    centers = []
    for mask in masks:
        fg = foreground_grid(mask)
        if not fg.any():
            continue
        h, w = fg.shape
        top, bottom, left, right = _bbox(fg)
        cx = (left + right + 1) / 2 / w
        cy = (top + bottom + 1) / 2 / h
        centers.append((cx, cy))
    return np.array(centers, dtype=float).reshape(-1, 2)


# --------------------------------------------------------------------------
# contour extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Polygon:
    """Ordered (x, y) vertex list of a closed outline.

    Normalized polygons have all coordinates in [0, 1]. ``degenerate`` marks
    outlines with zero extent on an axis or fewer than 3 vertices; these are
    excluded from perimeter/complexity/diversity aggregates.
    """

    points: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        pts = _frozen_array(self, "points", self.points, np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"polygon points must have shape (n, 2), got {pts.shape}")
        if len(pts) < 2:
            raise ValueError("polygon needs at least 2 points")
        if not self.degenerate and len(pts) < 3:
            raise ValueError("non-degenerate polygon needs at least 3 points")
        if (pts[1:] == pts[:-1]).all(axis=1).any():
            raise ValueError("consecutive polygon points must be distinct")

    def __len__(self) -> int:
        return len(self.points)


def trace_boundary(component: np.ndarray) -> np.ndarray:
    """Clockwise outer-boundary pixels of a connected component.

    Moore-neighbor tracing starting at the top-left foreground pixel, with
    the entered-from-the-same-direction stopping rule, for at most
    8 * area + 8 moves. Returns (n, 2) pixel coordinates as (x, y); boundary
    pixels of one-pixel-wide parts appear once per traversal direction, as a
    boundary walk does.

    The walk runs on a byte copy of the zero-padded grid. Its state is the
    flat position and the direction of the back pixel (the background pixel
    it entered from); a move in direction d tries the eight neighbors
    clockwise after the back direction (``_TRY_ORDER``), steps by that
    direction's flat offset and takes ``_BACK_AFTER[d]`` as the new back
    direction. The walk stops when the start state (start pixel, back pixel
    to the west) comes round again.
    """
    comp = np.asarray(component, dtype=bool)
    padded = np.zeros((comp.shape[0] + 2, comp.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = comp
    start = int(np.argmax(padded))
    if not padded.flat[start]:
        raise ValueError("cannot trace an empty component")
    grid = padded.tobytes()
    width = padded.shape[1]
    offsets = [dy * width + dx for dy, dx in _DIRS]
    pos, back = start, _WEST
    positions = [pos]
    for _ in range(8 * int(np.count_nonzero(padded)) + 8):
        for d in _TRY_ORDER[back]:
            if grid[pos + offsets[d]]:
                break
        else:
            break  # isolated pixel
        pos += offsets[d]
        back = _BACK_AFTER[d]
        if pos == start and back == _WEST:
            break
        positions.append(pos)
    rows, cols = np.divmod(np.array(positions), width)
    return np.stack([cols, rows], axis=1) - 1.0


def compress_collinear(pixels: np.ndarray) -> np.ndarray:
    """Keep only the end points of straight single-step runs of a pixel cycle."""
    pts = np.asarray(pixels)
    if len(pts) < 3:
        return pts
    # steps[i] enters point i and steps[i + 1] leaves it
    cycle = np.concatenate((pts[-1:], pts, pts[:1]))
    steps = cycle[1:] - cycle[:-1]
    keep = (steps[1:] != steps[:-1]).any(axis=1)
    if not keep.any():
        return pts[:1]
    return pts[keep]


def normalize_unit(points: np.ndarray) -> tuple[np.ndarray, bool]:
    """Scale each axis to [0, 1]; a zero-extent axis maps to 0 and flags degeneracy."""
    pts = np.asarray(points, dtype=np.float64)
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    degenerate = bool((span == 0).any())
    out = np.zeros_like(pts)
    for axis in range(2):
        if span[axis] > 0:
            out[:, axis] = (pts[:, axis] - lo[axis]) / span[axis]
    return out, degenerate


def _largest_component(fg: np.ndarray) -> tuple[np.ndarray | None, int]:
    """``connected_components(fg)[0]`` and its pixel count from one labelling;
    (None, 0) for an empty grid."""
    labeled, n = ndimage.label(fg, structure=_EIGHT)
    if n == 0:
        return None, 0
    if n == 1:
        return fg, int(np.count_nonzero(fg))
    # ndimage.label numbers components in the raster order of their first
    # pixels, so argmax's first maximum is connected_components' tie-break
    counts = np.bincount(labeled.ravel())
    label = int(np.argmax(counts[1:])) + 1
    return labeled == label, int(counts[label])


def largest_component_polygon(mask, min_pixels: int = 100) -> Polygon | None:
    """Normalized outline of the largest component, or None below min_pixels."""
    largest, area = _largest_component(foreground_grid(mask))
    if largest is None or area < min_pixels:
        return None
    contour = compress_collinear(trace_boundary(largest))
    points, degenerate = normalize_unit(contour)
    degenerate = degenerate or len(points) < 3
    if len(points) < 2:
        points = np.array([points[0], points[0] + (1.0, 0.0)])
        degenerate = True
    return Polygon(points, degenerate=degenerate)


# --------------------------------------------------------------------------
# Douglas-Peucker simplification
# --------------------------------------------------------------------------

def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the segment a-b."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def _farthest_interior(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """For segments pts[lo]-pts[hi], sorted by interior length, each with at
    least one interior point: the interior point ``np.argmax`` picks from
    ``_segment_distances`` (the first maximum, or the first NaN) and its
    distance, bit for bit.

    The two dot products run as ``(k, L, d) @ (k, d, 1)`` over the k
    segments with L interior points, so BLAS sums each one in the order it
    uses for a single segment; the remaining steps are elementwise.
    """
    inner = hi - lo - 1
    a = pts[lo]
    ab = pts[hi] - a
    denom = (ab[:, None, :] @ ab[:, :, None]).ravel()
    # one row per interior point, segment by segment
    seg = np.repeat(np.arange(len(lo)), inner)
    row = np.arange(len(seg))
    row_start = np.cumsum(inner) - inner
    points = pts[row + (lo + 1 - row_start)[seg]]
    a_rows, ab_rows = a[seg], ab[seg]
    rel = points - a_rows
    dot = np.empty(len(seg))
    edges = [0, *(np.flatnonzero(np.diff(inner)) + 1).tolist(), len(lo)]
    for s0, s1 in zip(edges[:-1], edges[1:]):
        r0, r1 = row_start[s0], row_start[s1 - 1] + inner[s1 - 1]
        block = rel[r0:r1].reshape(s1 - s0, inner[s0], -1)
        dot[r0:r1] = (block @ ab[s0:s1, :, None]).ravel()
    flat = denom == 0.0
    t = np.clip(dot / np.where(flat, 1.0, denom)[seg], 0.0, 1.0)
    t[flat[seg]] = 0.0  # a point segment: the distance to its end point
    dists = np.linalg.norm(points - (a_rows + t[:, None] * ab_rows), axis=1)
    far = np.maximum.reduceat(dists, row_start)
    row[(dists != far[seg]) & ~np.isnan(dists)] = len(seg)
    return np.minimum.reduceat(row, row_start) - row_start + lo + 1, far


def simplify_chains(chains, epsilon: float) -> list[np.ndarray]:
    """Douglas-Peucker on open chains anchored at their end points.

    Interior points are dropped only when their maximum segment deviation is
    strictly below epsilon, so epsilon=0 is the identity.

    Each round splits every open segment of every chain at one recursion
    depth; a segment's outcome depends only on its end points, so the kept
    points are those of the recursive algorithm, and the split points are
    those of ``_segment_distances`` per segment, bit for bit.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in chains]
    if not arrays:
        return []
    if any(len(a) == 0 for a in arrays):
        raise ValueError("cannot simplify an empty chain")
    pts = np.concatenate(arrays)
    sizes = np.array([len(a) for a in arrays])
    first = np.cumsum(sizes) - sizes
    keep = np.zeros(len(pts), dtype=bool)
    keep[first] = keep[first + sizes - 1] = True
    lo, hi = first, first + sizes - 1
    while True:
        wide = hi - lo >= 2
        if not wide.any():
            break
        order = np.argsort((hi - lo)[wide], kind="stable")
        lo, hi = lo[wide][order], hi[wide][order]
        split, far = _farthest_interior(pts, lo, hi)
        cut = ~(far < epsilon)
        keep[split[cut]] = True
        lo = np.concatenate([lo[cut], split[cut]])
        hi = np.concatenate([split[cut], hi[cut]])
    return [pts[s : s + n][keep[s : s + n]] for s, n in zip(first.tolist(), sizes.tolist())]


def _extremal_triangle(points: np.ndarray) -> np.ndarray:
    """Three spanning vertices: first point, farthest from it, farthest off that chord."""
    p0 = points[0]
    i1 = int(np.argmax(np.linalg.norm(points - p0, axis=1)))
    i2 = int(np.argmax(_segment_distances(points, p0, points[i1])))
    idx = sorted({0, i1, i2})
    return points[idx]


def _simplified_polygon(poly: Polygon, simplified: np.ndarray) -> Polygon:
    if len(simplified) < 3:
        simplified = _extremal_triangle(poly.points)
    if len(simplified) < 3:
        return Polygon(simplified, degenerate=True)
    return Polygon(simplified)


def simplify_polygons(polys, epsilon: float = 0.01) -> list[Polygon]:
    """``simplify_dp`` of each polygon, with the chains simplified in one batch."""
    polys = list(polys)
    usable = [p for p in polys if not p.degenerate]
    chains = iter(simplify_chains([p.points for p in usable], epsilon))
    return [p if p.degenerate else _simplified_polygon(p, next(chains)) for p in polys]


def simplify_dp(poly, epsilon: float = 0.01):
    """Simplify a polygon or chain with the Douglas-Peucker algorithm.

    A ``Polygon`` is a closed outline (the result keeps at least 3
    vertices); a bare point array is an open chain. Degenerate polygons pass
    through unchanged.
    """
    if not isinstance(poly, Polygon):
        return simplify_chains([poly], epsilon)[0]
    return simplify_polygons([poly], epsilon)[0]


# --------------------------------------------------------------------------
# polygon metrics
# --------------------------------------------------------------------------

def polygon_length(poly) -> float:
    """Closed perimeter of the polygon (last vertex connects back to the first)."""
    pts = np.asarray(getattr(poly, "points", poly), dtype=float)
    return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())


def shape_complexity(poly) -> int:
    """Number of vertices."""
    return len(np.asarray(getattr(poly, "points", poly)))


def chamfer(a, b) -> float:
    """Symmetric sum-form Chamfer distance between two point sets.

    Sum over each set of the squared Euclidean distance to the nearest point
    of the other set; no per-point averaging, so the value grows with point
    count.
    """
    pa = np.atleast_2d(np.asarray(getattr(a, "points", a), dtype=float))
    pb = np.atleast_2d(np.asarray(getattr(b, "points", b), dtype=float))
    if pa.size == 0 or pb.size == 0:
        raise ValueError("chamfer distance requires nonempty point sets")
    d2 = cdist(pa, pb, "sqeuclidean")
    return float(d2.min(axis=1).sum() + d2.min(axis=0).sum())


def shape_diversity_by_class(polys_by_class) -> tuple[dict, list]:
    """Mean pairwise Chamfer distance per class.

    Classes with fewer than two polygons cannot form a pair and are returned
    in the skipped list.
    """
    per_class: dict = {}
    skipped: list = []
    for cid in sorted(polys_by_class):
        polys = polys_by_class[cid]
        if len(polys) < 2:
            skipped.append(cid)
            continue
        total = 0.0
        for value in _class_chamfers(polys):  # not sum(): 3.12 compensates its rounding
            total += value
        per_class[cid] = total / (len(polys) * (len(polys) - 1) // 2)
    return per_class, skipped


def _class_chamfers(polys):
    """``chamfer(polys[i], polys[j])`` for i < j, in (i, j) order.

    One cdist runs from polygon i to a block of the polygons after it, capped
    at about ``_DIVERSITY_BLOCK`` entries. Distances and minima are exact, and
    each pair's two minima are summed as contiguous arrays of the pair's own
    lengths, so every value equals ``chamfer`` bit for bit.
    """
    sets = [np.atleast_2d(np.asarray(getattr(p, "points", p), dtype=float)) for p in polys]
    if any(s.size == 0 for s in sets):
        raise ValueError("chamfer distance requires nonempty point sets")
    points = np.concatenate(sets)
    sizes = np.array([len(s) for s in sets])
    ends = np.cumsum(sizes)
    for i, pa in enumerate(sets[:-1]):
        j0 = i + 1
        while j0 < len(sets):
            start = ends[j0 - 1]
            j1 = max(j0 + 1, int(np.searchsorted(ends, start + _DIVERSITY_BLOCK // len(pa),
                                                 side="right")))
            cuts = ends[j0 - 1:j1 - 1] - start
            row_mins, col_mins = _block_minima(pa, points[start:ends[j1 - 1]], cuts)
            for row_min, c0, c1 in zip(row_mins, cuts, ends[j0:j1] - start):
                yield float(row_min.sum() + col_mins[c0:c1].sum())
            j0 = j1


def _block_minima(pa: np.ndarray, block: np.ndarray, cuts: np.ndarray):
    """Minimum squared distance from each point of pa to each polygon of the
    block (one contiguous row per polygon), and from each block point to pa.

    The distance matrix is freed on return, before the next block's is made.
    """
    d2 = cdist(pa, block, "sqeuclidean")
    return np.minimum.reduceat(d2, cuts, axis=1).T.copy(), d2.min(axis=0)


def shape_diversity(polys_by_class) -> float:
    """Unweighted mean over classes of the per-class mean pairwise Chamfer."""
    per_class, _ = shape_diversity_by_class(polys_by_class)
    if not per_class:
        raise ValueError("shape diversity needs at least one class with >= 2 polygons")
    return float(np.mean(list(per_class.values())))


@dataclass(frozen=True)
class GeometryReport:
    """Aggregate polygon statistics over a dataset.

    polygon_length and shape_complexity are means over non-degenerate
    simplified polygons; shape_diversity is the per-class mean pairwise
    Chamfer distance averaged over classes (None when no class has a pair).
    """

    polygon_length: float
    shape_complexity: float
    shape_diversity: float | None
    polygon_count: int
    skipped_classes: tuple = ()


def geometry_report(polys_by_class) -> GeometryReport:
    """Summarize already-simplified polygons grouped by class id."""
    usable = {
        cid: [p for p in polys if not getattr(p, "degenerate", False)]
        for cid, polys in polys_by_class.items()
    }
    flat = [p for polys in usable.values() for p in polys]
    if not flat:
        raise ValueError("no usable polygons to aggregate")
    lengths = [polygon_length(p) for p in flat]
    counts = [shape_complexity(p) for p in flat]
    per_class, skipped = shape_diversity_by_class(
        {cid: polys for cid, polys in usable.items() if polys}
    )
    diversity = float(np.mean(list(per_class.values()))) if per_class else None
    return GeometryReport(
        polygon_length=float(np.mean(lengths)),
        shape_complexity=float(np.mean(counts)),
        shape_diversity=diversity,
        polygon_count=len(flat),
        skipped_classes=tuple(skipped),
    )


# --------------------------------------------------------------------------
# mean shapes
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _box_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic overlap matrix for area-weighted box resampling (read-only)."""
    scale = n_in / n_out
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo, hi = i * scale, (i + 1) * scale
        j0, j1 = int(math.floor(lo)), min(int(math.ceil(hi)), n_in)
        for j in range(j0, j1):
            weights[i, j] = min(hi, j + 1) - max(lo, j)
    weights /= weights.sum(axis=1, keepdims=True)
    weights.flags.writeable = False
    return weights


def crop_resize_shape(mask) -> np.ndarray:
    """Crop the foreground to its tight bbox and box-average to
    MEAN_SHAPE_RES x MEAN_SHAPE_RES."""
    fg = foreground_grid(mask)
    if not fg.any():
        raise ValueError("cannot crop an empty mask")
    top, bottom, left, right = _bbox(fg)
    crop = fg[top : bottom + 1, left : right + 1].astype(np.float64)
    wr = _box_weights(crop.shape[0], MEAN_SHAPE_RES)
    wc = _box_weights(crop.shape[1], MEAN_SHAPE_RES)
    return wr @ crop @ wc.T


def _kmeans_plusplus(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = x[idx]
        closest = np.minimum(closest, ((x - x[idx]) ** 2).sum(axis=1))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int = 100):
    n, k = len(x), len(centers)
    assign = None
    for _ in range(max_iter):
        d2 = cdist(x, centers, "sqeuclidean")
        new_assign = d2.argmin(axis=1)  # ties resolve to the lowest cluster index
        own = d2[np.arange(n), new_assign]
        for j in range(k):
            if not (new_assign == j).any():
                far = int(own.argmax())
                if own[far] > 0:  # re-seed empty clusters from the farthest point
                    centers[j] = x[far]
                    new_assign[far] = j
                    own[far] = 0.0
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
        for j in range(k):
            members = x[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers, assign


@dataclass(frozen=True, eq=False)
class MeanShapeSet:
    """k cluster-centroid shapes (res x res grids in [0, 1]) and their sizes."""

    shapes: np.ndarray
    cluster_sizes: np.ndarray
    class_id: int | None = None

    def __post_init__(self):
        _frozen_array(self, "shapes", self.shapes)
        _frozen_array(self, "cluster_sizes", self.cluster_sizes)


def _check_cluster_count(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def mean_shapes(masks, k: int = 5, seed: int = 0, class_id: int | None = None) -> MeanShapeSet:
    """Cluster bbox-cropped, 32x32-resized masks with seeded k-means.

    Uses k-means++ initialization and Lloyd iterations until the assignment
    reaches a fixpoint (at most 100 rounds); deterministic for a given seed.
    """
    _check_cluster_count(k)
    vectors = []
    for mask in masks:
        fg = foreground_grid(mask)
        if fg.any():
            vectors.append(crop_resize_shape(fg).ravel())
    if len(vectors) < k:
        raise ValueError(f"need at least k={k} masks with foreground, got {len(vectors)}")
    x = np.stack(vectors)
    rng = np.random.default_rng(seed)
    centers, assign = _lloyd(x, _kmeans_plusplus(x, k, rng))
    sizes = np.bincount(assign, minlength=k)
    shapes = np.clip(centers.reshape(k, MEAN_SHAPE_RES, MEAN_SHAPE_RES), 0.0, 1.0)
    return MeanShapeSet(shapes=shapes, cluster_sizes=sizes, class_id=class_id)


# --------------------------------------------------------------------------
# dataset passes over (class_id, Mask) pairs
# --------------------------------------------------------------------------

def class_polygons(pairs, min_pixels: int = 100, epsilon: float = 0.01) -> dict:
    """Simplified normalized outlines grouped by class id, in mask order.

    The one outline pass: min_pixels and epsilon are checked before any pair
    is read, each mask's largest component is traced as its pair arrives, and
    the outlines are simplified in batches of ``_SIMPLIFY_BATCH``, so memory
    stays flat however many masks stream in. Outlines below min_pixels or
    degenerate after simplification are left out.
    """
    if min_pixels < 0:
        raise ValueError(f"min_pixels must be >= 0, got {min_pixels}")
    if not epsilon >= 0:  # also rejects NaN, which would keep every point
        raise ValueError(f"epsilon must be a number >= 0, got {epsilon}")
    traced = ((class_id, poly) for class_id, mask in pairs
              if (poly := largest_component_polygon(mask, min_pixels=min_pixels))
              is not None and not poly.degenerate)
    by_class: dict[int, list[Polygon]] = {}
    while batch := list(islice(traced, _SIMPLIFY_BATCH)):
        simplified = simplify_polygons([poly for _, poly in batch], epsilon)
        for (class_id, _), poly in zip(batch, simplified):
            if not poly.degenerate:
                by_class.setdefault(class_id, []).append(poly)
    return by_class


def class_mean_shapes(pairs, k: int = 5, seed: int = 0) -> tuple[list, list]:
    """Mean shapes of each class with at least k nonempty masks, by class id.

    Returns the MeanShapeSets and the ids of the classes skipped for having
    fewer than k nonempty masks.
    """
    _check_cluster_count(k)
    by_class: dict[int, list] = {}
    for class_id, mask in pairs:
        if foreground_grid(mask).any():
            by_class.setdefault(class_id, []).append(mask)
    sets, skipped = [], []
    for cid in sorted(by_class):
        if len(by_class[cid]) < k:
            skipped.append(cid)
        else:
            sets.append(mean_shapes(by_class[cid], k=k, seed=seed, class_id=cid))
    return sets, skipped


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


@dataclass(frozen=True)
class AnalysisReport:
    """Dataset statistics row: sizes, area ratios, shape metrics, optional
    distribution distances (None renders as "-")."""

    name: str
    size: int
    instances_per_image: float
    mask_image_ratio: float
    bbox_image_ratio: float
    mask_bbox_ratio: float
    mask_image_ratio_pooled: float
    bbox_image_ratio_pooled: float
    mask_bbox_ratio_pooled: float
    polygon_length: float | None
    polygon_points: float | None
    shape_diversity: float | None
    image_fid: float | None = None
    image_kid: float | None = None
    label_fid: float | None = None
    label_kid: float | None = None

    def machine_lines(self) -> list[str]:
        """One ``key<TAB>value`` line per field, in field order; ``name`` is
        keyed ``dataset``."""
        names = [f.name for f in fields(self)]
        keys = ["dataset", *names[1:]]
        return [f"{key}\t{_fmt(getattr(self, name))}" for key, name in zip(keys, names)]

    def format_table(self) -> str:
        headers = ["dataset", "size", "inst", "mask/img", "bbox/img", "mask/bbox",
                   "img-fid", "img-kid", "lbl-fid", "lbl-kid", "perim", "points", "div"]
        row = [self.name, str(self.size), _fmt(self.instances_per_image),
               _fmt(self.mask_image_ratio), _fmt(self.bbox_image_ratio),
               _fmt(self.mask_bbox_ratio), _fmt(self.image_fid), _fmt(self.image_kid),
               _fmt(self.label_fid), _fmt(self.label_kid), _fmt(self.polygon_length),
               _fmt(self.polygon_points), _fmt(self.shape_diversity)]
        widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
        head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        body = "  ".join(v.ljust(w) for v, w in zip(row, widths))
        return head + "\n" + body


def analyze_masks(name: str, pairs, min_pixels: int = 100,
                  epsilon: float = 0.01) -> AnalysisReport:
    """Aggregate per-mask statistics and polygon metrics in one pass.

    The pass is ``class_polygons``; each mask's statistics are taken as it
    reads the mask.
    """
    measured = []  # (MaskStats, pixel count) of each mask, in mask order

    def measure():
        for class_id, mask in pairs:
            measured.append((mask_stats(mask), mask.width * mask.height))
            yield class_id, mask

    polys_by_class = class_polygons(measure(), min_pixels=min_pixels, epsilon=epsilon)
    if not measured:
        raise ValueError("empty dataset")
    if polys_by_class:
        report = geometry_report(polys_by_class)
        pl, sc, sd = report.polygon_length, report.shape_complexity, report.shape_diversity
    else:
        pl = sc = sd = None
    found = [stats for stats, _ in measured if stats.instance_count > 0]
    fg_total = sum(round(stats.mask_over_image * pixels) for stats, pixels in measured)
    bbox_total = sum(round(stats.bbox_over_image * pixels) for stats, pixels in measured)
    pixel_total = sum(pixels for _, pixels in measured)

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    return AnalysisReport(
        name=name,
        size=len(measured),
        instances_per_image=mean([stats.instance_count for stats, _ in measured]),
        mask_image_ratio=mean([stats.mask_over_image for stats in found]),
        bbox_image_ratio=mean([stats.bbox_over_image for stats in found]),
        mask_bbox_ratio=mean([stats.mask_over_bbox for stats in found]),
        mask_image_ratio_pooled=fg_total / pixel_total,
        bbox_image_ratio_pooled=bbox_total / pixel_total,
        mask_bbox_ratio_pooled=fg_total / bbox_total if bbox_total else 0.0,
        polygon_length=pl,
        polygon_points=sc,
        shape_diversity=sd,
    )
