"""Mask and polygon geometry: components, contours, shape statistics.

The polygon pipeline mirrors the usual contour workflow: take the largest
8-connected foreground component, trace its outer boundary clockwise,
compress straight (horizontal/vertical/diagonal) pixel runs down to their
end points, normalize the points to the unit square per axis, then simplify
with Douglas-Peucker. Perimeter, point count and pairwise Chamfer distance
are computed on the simplified polygons. The dataset passes at the end
(analyze_masks, class_polygons, class_mean_shapes) take (class_id, Mask)
pairs, so callers decide how masks are read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

from .formats import IGNORE_LABEL, Mask

_EIGHT = np.ones((3, 3), dtype=bool)

# clockwise neighbor ring in image coordinates (y down): N NE E SE S SW W NW
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}

MEAN_SHAPE_RES = 32


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
    index of the component's top-left pixel.
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


def mask_stats(mask) -> MaskStats:
    fg = foreground_grid(mask)
    h, w = fg.shape
    area = int(fg.sum())
    if area == 0:
        return MaskStats(0, 0.0, 0.0, 0.0)
    n = ndimage.label(fg, structure=_EIGHT)[1]
    ys, xs = np.nonzero(fg)
    bbox = int(ys.max() - ys.min() + 1) * int(xs.max() - xs.min() + 1)
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
        ys, xs = np.nonzero(fg)
        cx = (int(xs.min()) + int(xs.max()) + 1) / 2 / w
        cy = (int(ys.min()) + int(ys.max()) + 1) / 2 / h
        centers.append((cx, cy))
    return np.array(centers, dtype=float).reshape(-1, 2)


# --------------------------------------------------------------------------
# contour extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Polygon:
    """Ordered (x, y) vertex list of a closed outline.

    Normalized polygons have all coordinates in [0, 1]. ``degenerate`` marks
    outlines with zero extent on an axis or fewer than 3 vertices; these are
    excluded from perimeter/complexity/diversity aggregates.
    """

    points: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"polygon points must have shape (n, 2), got {pts.shape}")
        if len(pts) < 2:
            raise ValueError("polygon needs at least 2 points")
        if not self.degenerate and len(pts) < 3:
            raise ValueError("non-degenerate polygon needs at least 3 points")
        if (pts[1:] == pts[:-1]).all(axis=1).any():
            raise ValueError("consecutive polygon points must be distinct")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def trace_boundary(component: np.ndarray) -> np.ndarray:
    """Clockwise outer-boundary pixels of a connected component.

    Moore-neighbor tracing starting at the top-left foreground pixel, with
    the entered-from-the-same-direction stopping rule. Returns (n, 2) pixel
    coordinates as (x, y); boundary pixels of one-pixel-wide parts appear
    once per traversal direction, as a boundary walk does.
    """
    comp = np.asarray(component, dtype=bool)
    ys, xs = np.nonzero(comp)
    if ys.size == 0:
        raise ValueError("cannot trace an empty component")
    grid = np.pad(comp, 1)
    cy, cx = int(ys[0]) + 1, int(xs[0]) + 1
    by, bx = cy, cx - 1
    start, start_back = (cy, cx), (by, bx)
    pixels = [(cx, cy)]
    limit = 8 * ys.size + 8
    for _ in range(limit):
        base = _DIR_INDEX[(by - cy, bx - cx)]
        for step in range(1, 9):
            dy, dx = _DIRS[(base + step) % 8]
            ny, nx = cy + dy, cx + dx
            if grid[ny, nx]:
                py, px = _DIRS[(base + step - 1) % 8]
                by, bx = cy + py, cx + px
                cy, cx = ny, nx
                break
        else:
            break  # isolated pixel
        if (cy, cx) == start and (by, bx) == start_back:
            break
        pixels.append((cx, cy))
    return np.array(pixels, dtype=np.float64) - 1.0


def compress_collinear(pixels: np.ndarray) -> np.ndarray:
    """Keep only the end points of straight single-step runs of a pixel cycle."""
    pts = np.asarray(pixels)
    if len(pts) < 3:
        return pts
    steps = np.diff(pts, axis=0, append=pts[:1])
    keep = np.any(steps != np.roll(steps, 1, axis=0), axis=1)
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


def largest_component_polygon(mask, min_pixels: int = 100) -> Polygon | None:
    """Normalized outline of the largest component, or None below min_pixels."""
    comps = connected_components(mask)
    if not comps:
        return None
    largest = comps[0]
    if int(largest.sum()) < min_pixels:
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


def simplify_chain(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Douglas-Peucker on an open chain anchored at its end points.

    Interior points are dropped only when their maximum segment deviation is
    strictly below epsilon, so epsilon=0 is the identity.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[n - 1] = True
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        dists = _segment_distances(pts[a + 1 : b], pts[a], pts[b])
        split = a + 1 + int(np.argmax(dists))
        if dists[split - a - 1] < epsilon:
            continue
        keep[split] = True
        stack.append((a, split))
        stack.append((split, b))
    return pts[keep]


def _extremal_triangle(points: np.ndarray) -> np.ndarray:
    """Three spanning vertices: first point, farthest from it, farthest off that chord."""
    p0 = points[0]
    i1 = int(np.argmax(np.linalg.norm(points - p0, axis=1)))
    i2 = int(np.argmax(_segment_distances(points, p0, points[i1])))
    idx = sorted({0, i1, i2})
    return points[idx]


def simplify_dp(poly, epsilon: float = 0.01):
    """Simplify a polygon or chain with the Douglas-Peucker algorithm.

    A ``Polygon`` is a closed outline (the result keeps at least 3
    vertices); a bare point array is an open chain. Degenerate polygons pass
    through unchanged.
    """
    if not isinstance(poly, Polygon):
        return simplify_chain(poly, epsilon)
    if poly.degenerate:
        return poly
    simplified = simplify_chain(poly.points, epsilon)
    if len(simplified) < 3:
        simplified = _extremal_triangle(poly.points)
    if len(simplified) < 3:
        return Polygon(simplified, degenerate=True)
    return Polygon(simplified)


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
        pairs = 0
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                total += chamfer(polys[i], polys[j])
                pairs += 1
        per_class[cid] = total / pairs
    return per_class, skipped


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

def _box_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic overlap matrix for area-weighted box resampling."""
    scale = n_in / n_out
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo, hi = i * scale, (i + 1) * scale
        j0, j1 = int(math.floor(lo)), min(int(math.ceil(hi)), n_in)
        for j in range(j0, j1):
            weights[i, j] = min(hi, j + 1) - max(lo, j)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def crop_resize_shape(mask, res: int = MEAN_SHAPE_RES) -> np.ndarray:
    """Crop the foreground to its tight bbox and box-average to res x res."""
    fg = foreground_grid(mask)
    if not fg.any():
        raise ValueError("cannot crop an empty mask")
    ys, xs = np.nonzero(fg)
    crop = fg[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1].astype(np.float64)
    wr = _box_weights(crop.shape[0], res)
    wc = _box_weights(crop.shape[1], res)
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


@dataclass(frozen=True)
class MeanShapeSet:
    """k cluster-centroid shapes (res x res grids in [0, 1]) and their sizes."""

    shapes: np.ndarray
    cluster_sizes: np.ndarray
    class_id: int | None = None


def mean_shapes(masks, k: int = 5, seed: int = 0, class_id: int | None = None) -> MeanShapeSet:
    """Cluster bbox-cropped, 32x32-resized masks with seeded k-means.

    Uses k-means++ initialization and Lloyd iterations until the assignment
    reaches a fixpoint (at most 100 rounds); deterministic for a given seed.
    """
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

def _add_polygon(polys_by_class: dict, class_id: int, mask, min_pixels: int,
                 epsilon: float) -> None:
    """Append the mask's simplified largest-component outline under its class,
    unless the component is below min_pixels or the outline is degenerate."""
    poly = largest_component_polygon(mask, min_pixels=min_pixels)
    if poly is None:
        return
    simplified = simplify_dp(poly, epsilon)
    if not simplified.degenerate:
        polys_by_class.setdefault(class_id, []).append(simplified)


def class_polygons(pairs, min_pixels: int = 100, epsilon: float = 0.01) -> dict:
    """Simplified normalized outlines grouped by class id, in mask order."""
    polys_by_class: dict[int, list[Polygon]] = {}
    for class_id, mask in pairs:
        _add_polygon(polys_by_class, class_id, mask, min_pixels, epsilon)
    return polys_by_class


def class_mean_shapes(pairs, k: int = 5, seed: int = 0) -> tuple[list, list]:
    """Mean shapes of each class with at least k nonempty masks, by class id.

    Returns the MeanShapeSets and the ids of the classes skipped for having
    fewer than k nonempty masks.
    """
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
        pairs = [
            ("dataset", self.name),
            ("size", self.size),
            ("instances_per_image", self.instances_per_image),
            ("mask_image_ratio", self.mask_image_ratio),
            ("bbox_image_ratio", self.bbox_image_ratio),
            ("mask_bbox_ratio", self.mask_bbox_ratio),
            ("mask_image_ratio_pooled", self.mask_image_ratio_pooled),
            ("bbox_image_ratio_pooled", self.bbox_image_ratio_pooled),
            ("mask_bbox_ratio_pooled", self.mask_bbox_ratio_pooled),
            ("polygon_length", self.polygon_length),
            ("polygon_points", self.polygon_points),
            ("shape_diversity", self.shape_diversity),
            ("image_fid", self.image_fid),
            ("image_kid", self.image_kid),
            ("label_fid", self.label_fid),
            ("label_kid", self.label_kid),
        ]
        return [f"{key}\t{_fmt(value)}" for key, value in pairs]

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
    """Aggregate per-mask statistics and polygon metrics in one pass."""
    instance_counts = []
    mi, bi, mb = [], [], []
    fg_total = bbox_total = pixel_total = 0
    polys_by_class: dict[int, list[Polygon]] = {}
    for class_id, mask in pairs:
        stats = mask_stats(mask)
        instance_counts.append(stats.instance_count)
        if stats.instance_count > 0:
            mi.append(stats.mask_over_image)
            bi.append(stats.bbox_over_image)
            mb.append(stats.mask_over_bbox)
        pixels = mask.width * mask.height
        pixel_total += pixels
        fg_total += round(stats.mask_over_image * pixels)
        bbox_total += round(stats.bbox_over_image * pixels)
        _add_polygon(polys_by_class, class_id, mask, min_pixels, epsilon)
    if not instance_counts:
        raise ValueError("empty dataset")
    if polys_by_class:
        report = geometry_report(polys_by_class)
        pl, sc, sd = report.polygon_length, report.shape_complexity, report.shape_diversity
    else:
        pl = sc = sd = None
    return AnalysisReport(
        name=name,
        size=len(instance_counts),
        instances_per_image=float(np.mean(instance_counts)),
        mask_image_ratio=float(np.mean(mi)) if mi else 0.0,
        bbox_image_ratio=float(np.mean(bi)) if bi else 0.0,
        mask_bbox_ratio=float(np.mean(mb)) if mb else 0.0,
        mask_image_ratio_pooled=fg_total / pixel_total,
        bbox_image_ratio_pooled=bbox_total / pixel_total,
        mask_bbox_ratio_pooled=fg_total / bbox_total if bbox_total else 0.0,
        polygon_length=pl,
        polygon_points=sc,
        shape_diversity=sd,
    )
