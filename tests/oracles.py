"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written the slow, obvious way (python loops,
recursion, full enumeration) so it shares no code path with the library.
"""
import math
from collections import deque
from pathlib import Path

import numpy as np


def flood_fill_components(foreground):
    """8-connected components by BFS; returns lists of (row, col) pixel sets."""
    fg = np.asarray(foreground, dtype=bool)
    h, w = fg.shape
    seen = np.zeros_like(fg)
    components = []
    for y in range(h):
        for x in range(w):
            if not fg[y, x] or seen[y, x]:
                continue
            queue = deque([(y, x)])
            seen[y, x] = True
            pixels = []
            while queue:
                cy, cx = queue.popleft()
                pixels.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and fg[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            components.append(frozenset(pixels))
    return components


# clockwise neighbor ring in image coordinates (y down): N NE E SE S SW W NW
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}


def moore_trace(component):
    """Clockwise Moore-neighbor boundary walk with coordinate tuples.

    Starts at the top-left foreground pixel, entered from its west neighbor,
    and stops when it re-enters the start pixel from that neighbor or after
    8 * area + 8 moves. Returns (n, 2) float (x, y) pixel coordinates.
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


def hand_mask_stats(foreground):
    """Loop-based instance count, area ratios and bbox ratios."""
    fg = np.asarray(foreground, dtype=bool)
    h, w = fg.shape
    pixels = [(y, x) for y in range(h) for x in range(w) if fg[y, x]]
    if not pixels:
        return 0, 0.0, 0.0, 0.0
    count = len(flood_fill_components(fg))
    area = len(pixels)
    ys = [p[0] for p in pixels]
    xs = [p[1] for p in pixels]
    bbox = (max(ys) - min(ys) + 1) * (max(xs) - min(xs) + 1)
    return count, area / (w * h), bbox / (w * h), area / bbox


def all_pairs_chamfer(a, b):
    """O(n*m) double-loop sum-form Chamfer distance."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    total = 0.0
    for p in a:
        total += min(float(((p - q) ** 2).sum()) for q in b)
    for q in b:
        total += min(float(((q - p) ** 2).sum()) for p in a)
    return total


def _point_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float((p - a) @ ab) / denom
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def recursive_dp(points, epsilon):
    """Textbook recursive Douglas-Peucker over an open chain.

    Interior points survive when the maximum deviation is >= epsilon,
    matching the library's strict-drop rule.
    """
    points = np.asarray(points, float)
    if len(points) < 3:
        return points

    def rec(a, b):
        best, best_d = None, -1.0
        for i in range(a + 1, b):
            d = _point_segment_distance(points[i], points[a], points[b])
            if d > best_d:
                best, best_d = i, d
        if best is None or best_d < epsilon:
            return [a, b]
        left = rec(a, best)
        right = rec(best, b)
        return left[:-1] + right

    return points[rec(0, len(points) - 1)]


def _segment_distances(points, a, b):
    """Distance from each point to the segment a-b, one numpy call at a time."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(points - proj, axis=1)


def segment_dp(points, epsilon):
    """Douglas-Peucker one segment at a time from a stack, with numpy distances.

    The per-segment form the batched library version must equal bit for bit:
    the same dot products, each for one segment.
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


def cdist_chamfer(a, b):
    """Sum-form Chamfer distance from one cdist over the whole pair."""
    from scipy.spatial.distance import cdist

    pa = np.atleast_2d(np.asarray(getattr(a, "points", a), dtype=float))
    pb = np.atleast_2d(np.asarray(getattr(b, "points", b), dtype=float))
    d2 = cdist(pa, pb, "sqeuclidean")
    return float(d2.min(axis=1).sum() + d2.min(axis=0).sum())


def pairwise_diversity(polys_by_class):
    """Per-class mean Chamfer over every pair, one cdist per pair in (i, j) order."""
    per_class = {}
    for cid in sorted(polys_by_class):
        polys = polys_by_class[cid]
        if len(polys) < 2:
            continue
        total, pairs = 0.0, 0
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                total += cdist_chamfer(polys[i], polys[j])
                pairs += 1
        per_class[cid] = total / pairs
    return per_class


def pixel_iou(pred, gt, class_map, num_labels, include_background):
    """Set-based per-class IoU over mapped ground-truth labels."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    mapped = np.full(gt.shape, -1, dtype=np.int64)
    mapped[gt == 0] = 0
    for cid, label in class_map.items():
        mapped[gt == cid] = label
    mapped[gt == 255] = -1
    valid = mapped >= 0
    per_class = {}
    start = 0 if include_background else 1
    for label in range(start, num_labels + 1):
        inter = int(((pred == label) & (mapped == label) & valid).sum())
        union = int((((pred == label) | (mapped == label)) & valid).sum())
        if union > 0:
            per_class[label] = inter / union
    return per_class


def fit_gaussian_two_pass(rows):
    """Mean and unbiased covariance with explicit loops."""
    rows = np.asarray(rows, float)
    n, d = rows.shape
    mean = np.zeros(d)
    for row in rows:
        mean += row
    mean /= n
    cov = np.zeros((d, d))
    for row in rows:
        delta = row - mean
        cov += np.outer(delta, delta)
    return mean, cov / (n - 1)


def kid_triple_loop(a, b):
    """Unbiased polynomial-kernel MMD^2 with explicit index loops."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d = a.shape[1]

    def k(x, y):
        return (float(x @ y) / d + 1.0) ** 3

    n, m = len(a), len(b)
    term_a = sum(k(a[i], a[j]) for i in range(n) for j in range(n) if i != j)
    term_b = sum(k(b[i], b[j]) for i in range(m) for j in range(m) if i != j)
    cross = sum(k(a[i], b[j]) for i in range(n) for j in range(m))
    return term_a / (n * (n - 1)) + term_b / (m * (m - 1)) - 2 * cross / (n * m)


def kid_dense(x, y):
    """Unbiased polynomial-kernel MMD^2 from three dense n x n Gram matrices,
    the form the row-tiled ``distmetrics._mmd2_unbiased`` replaced."""

    def _poly_kernel(x, y):
        return (x @ y.T / x.shape[1] + 1.0) ** 3

    n, m = len(x), len(y)
    kxx = _poly_kernel(x, x)
    kyy = _poly_kernel(y, y)
    kxy = _poly_kernel(x, y)
    term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return float(term_x + term_y - 2.0 * kxy.mean())


def masked_truncated_normal(dim, psi, rng):
    """``truncated_normal`` as first written, on array masks: each round
    redraws every coordinate still out of range with one ``standard_normal``
    call."""
    z = rng.standard_normal(dim)
    out_of_range = np.abs(z) > psi
    while out_of_range.any():
        z[out_of_range] = rng.standard_normal(int(out_of_range.sum()))
        out_of_range = np.abs(z) > psi
    return z


def truncated_normal_variance(psi):
    """Second moment of the truncated standard normal via quadrature."""
    from scipy import integrate

    density = lambda z: np.exp(-z * z / 2) / np.sqrt(2 * np.pi)
    mass, _ = integrate.quad(density, -psi, psi)
    second, _ = integrate.quad(lambda z: z * z * density(z), -psi, psi)
    return second / mass


def _window_counts(fg, radius):
    """Foreground pixels in each (2r+1)x(2r+1) window; outside the frame is background."""
    h, w = fg.shape
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=np.int64)
    padded[radius:radius + h, radius:radius + w] = fg
    counts = np.zeros((h, w), dtype=np.int64)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            counts += padded[dy:dy + h, dx:dx + w]
    return counts


def toy_band(foreground):
    """The toy generator's 3-pixel boundary band, from window counts.

    A pixel is in the band when its 3x3 window touches the foreground and
    its 5x5 window is not entirely foreground.
    """
    fg = np.asarray(foreground, dtype=bool)
    return (_window_counts(fg, 1) > 0) & (_window_counts(fg, 2) < 25)


def toy_dense_ensemble(foreground, disagreement, num_heads=16):
    """Dense (K, H, W, 2) toy heads, one head at a time.

    Every head is the one-hot ground truth, except inside the band where
    head k slides toward its target (2k+1)/(2K) by ``disagreement``.
    """
    fg = np.asarray(foreground, dtype=bool)
    band = toy_band(fg)
    heads = np.empty((num_heads,) + fg.shape + (2,))
    for k in range(num_heads):
        target = (2 * k + 1) / (2 * num_heads)
        p = fg.astype(np.float64)
        p[band] = (1.0 - disagreement) * p[band] + disagreement * target
        heads[k, :, :, 1] = p
        heads[k, :, :, 0] = 1.0 - p
    return heads


def dense_js_uncertainty(heads):
    """Mean over every pixel of the heads' JS divergence, with plain logs."""
    heads = np.asarray(heads, dtype=np.float64)

    def entropy(p):
        return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)

    per_pixel = entropy(heads.mean(axis=0)) - entropy(heads).mean(axis=0)
    return float(np.maximum(per_pixel, 0.0).mean())


def _crossing_parity(px, py, verts):
    inside = np.zeros(px.shape, dtype=bool)
    x1, y1 = verts[-1]
    for x2, y2 in verts:
        crosses = (y1 > py) != (y2 > py)
        denom = (y2 - y1) if y2 != y1 else 1.0
        x_cross = (x2 - x1) * (py - y1) / denom + x1
        inside ^= crosses & (px < x_cross)
        x1, y1 = x2, y2
    return inside


def full_grid_rasterize(family, res, cx, cy, a, b, rot):
    """The toy shapes evaluated at every pixel center of the res x res grid.

    The reference for the library's bounding-box rasterizer: the same float
    expressions, with no window.
    """
    ys, xs = np.mgrid[0:res, 0:res]
    px = xs + 0.5 - cx
    py = ys + 0.5 - cy
    cos_r, sin_r = math.cos(rot), math.sin(rot)
    xr = cos_r * px + sin_r * py
    yr = -sin_r * px + cos_r * py
    if family == "ellipse":
        return (xr / a) ** 2 + (yr / b) ** 2 <= 1.0
    if family == "rectangle":
        return (np.abs(xr) <= a) & (np.abs(yr) <= b)
    if family == "star":
        angles = np.arange(10) * math.pi / 5 - math.pi / 2
        radii = np.where(np.arange(10) % 2 == 0, a, 0.45 * a)
        verts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        return _crossing_parity(xr, yr / b * a, verts)
    if family == "crescent":
        body = xr**2 + yr**2 <= a**2
        cutout = (xr - 0.55 * a) ** 2 + yr**2 <= (0.8 * a) ** 2
        return body & ~cutout
    raise ValueError(family)


def _float_background(res, texture, rng):
    base = rng.integers(40, 120, size=3).astype(np.float64)
    ramp = np.linspace(0.0, 80.0, res)
    canvas = np.zeros((res, res, 3))
    if texture == 0:
        canvas[:] = base
    elif texture == 1:
        canvas[:] = base + ramp[None, :, None]
    elif texture == 2:
        canvas[:] = base + ramp[:, None, None]
    else:
        ys, xs = np.mgrid[0:res, 0:res]
        checker = ((ys // 8 + xs // 8) % 2) * 40.0
        canvas[:] = base + checker[:, :, None]
    return np.clip(canvas, 0, 255)


def float_canvas_paint(res, texture, rng, foreground, color):
    """A toy image painted on a float64 canvas: the background texture over a
    base colour drawn from ``rng``, the foreground set to the float ``color``,
    then the whole canvas clipped and truncated to uint8."""
    canvas = _float_background(res, texture, rng)
    canvas[foreground] = color
    return np.clip(canvas, 0, 255).astype(np.uint8)


def scipy_band(foreground):
    """The 3-pixel band as scipy.ndimage morphology: 3x3 dilation minus two
    3x3 erosions, outside the frame counted as background."""
    from scipy import ndimage

    fg = np.asarray(foreground, dtype=bool)
    structure = np.ones((3, 3), dtype=bool)
    return ndimage.binary_dilation(fg, structure) & ~ndimage.binary_erosion(
        fg, structure, iterations=2)


def per_pixel_band_heads(foreground, disagreement, num_heads=16):
    """The toy band's heads with one column per band pixel: (K, m, 2)
    probabilities and the m band pixels' flat indices, built as the library
    built them before it stored one column per pixel kind."""
    fg = np.asarray(foreground, dtype=bool)
    index = np.flatnonzero(toy_band(fg))
    fg_prob = fg.ravel()[index].astype(np.float64)
    targets = (2.0 * np.arange(num_heads) + 1.0) / (2.0 * num_heads)
    head_fg = (1.0 - disagreement) * fg_prob[None, :] + disagreement * targets[:, None]
    return np.stack([1.0 - head_fg, head_fg], axis=-1), index


def expanded_probs(pred):
    """An ensemble's (K, m, C) heads at its m listed pixels, one column per
    pixel: its per-kind columns gathered by ``kinds``, in C order (numpy lays
    a gather along axis 1 out pixel-major, which changes reduction order)."""
    return np.ascontiguousarray(pred.probs[:, pred.kinds])


def xlogy_uncertainty(pred):
    """Listed-pixel JS uncertainty with entropies summed by ``.sum(-1)``."""
    from scipy.special import xlogy

    def entropy(p):
        return -xlogy(p, p).sum(axis=-1)

    probs = expanded_probs(pred)
    per_pixel = np.maximum(entropy(probs.mean(axis=0)) - entropy(probs).mean(axis=0), 0.0)
    h, w = pred.shape
    return float(per_pixel.sum() / (h * w))


def manifest_path_escapes(path):
    """The pathlib rule ``ManifestEntry`` used for its relative paths: reject
    an absolute path or one with a ``..`` component."""
    parsed = Path(path)
    return parsed.is_absolute() or ".." in parsed.parts


# roles of a toy sample's numpy substreams: latent, confidence, disagreement
_TOY_LATENT, _TOY_CONFIDENCE, _TOY_DISAGREEMENT = 1, 50, 60


def numpy_sample_seed(root, counter):
    """A toy sample's seed from numpy's own ``SeedSequence``."""
    seq = np.random.SeedSequence(root, spawn_key=(counter,))
    return int(seq.generate_state(1, np.uint64)[0])


def numpy_stream(seed, role):
    """A toy sample's substream from numpy's own ``SeedSequence`` and ``default_rng``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role,)))


def numpy_disagreement(seed):
    """The disagreement level of a toy sample seed, from numpy's own substream."""
    return float(numpy_stream(seed, _TOY_DISAGREEMENT).random())


def toy_scored(source, counter):
    """``ToySource``'s pixel-free sample of one counter, one counter at a time
    through numpy's own seed sequences and generators."""
    from labelgen.formats import LabeledSample

    seed = numpy_sample_seed(source.spec.seed, counter)
    disagreement = numpy_disagreement(seed)
    jitter = float(numpy_stream(seed, _TOY_CONFIDENCE).normal(0.0, 0.05))
    return LabeledSample(
        id=f"toy-{counter:012d}",
        class_id=source.class_specs[counter % len(source.class_specs)].class_id,
        provenance="toy",
        latent_seed=seed,
        confidence=min(max(1.0 - 0.8 * disagreement + jitter, 0.0), 1.0),
    )


def toy_latent(source, counter):
    """The truncated latent ``ToySource`` draws for a counter, from numpy's
    own substream."""
    from labelgen.sampling import truncated_normal

    seed = numpy_sample_seed(source.spec.seed, counter)
    return truncated_normal(8, source.spec.filters.truncation_psi, numpy_stream(seed, _TOY_LATENT))


def stream_oracle(source, count, rate, warmup_base, warmup_size):
    """(candidates, accepted, threshold) of an online stream of ``count``
    samples, scoring one counter at a time with ``toy_scored``."""
    threshold = None
    if rate > 0:
        warm = [toy_scored(source, warmup_base + i).confidence for i in range(warmup_size)]
        threshold = float(np.quantile(warm, rate))
    candidates = accepted = 0
    while accepted < count:
        if threshold is None or toy_scored(source, candidates).confidence > threshold:
            accepted += 1
        candidates += 1
    return candidates, accepted, threshold


def smallest_sufficient_pool(n, rate, fraction):
    """The smallest candidate pool, from n / ((1 - rate) * (1 - fraction))
    rounded up, that confidence rejection at ``rate`` and then uncertainty
    filtering at ``fraction`` leave n samples of, tried one size at a time:
    rejection keeps ceil((1 - rate) * pool) candidates and the uncertainty
    filter drops ceil(fraction * kept) of those."""
    pool = math.ceil(n / ((1.0 - rate) * (1.0 - fraction)))
    while True:
        kept = math.ceil((1.0 - rate) * pool)
        if kept - math.ceil(fraction * kept) >= n:
            return pool
        pool += 1


def two_sort_uncertainty_filter(samples, fraction):
    """``uncertainty_filter`` as first written: sort by id descending, then
    stably by falling uncertainty, and drop the ceil(fraction*n) first."""
    samples = list(samples)
    scores = [float(s.uncertainty) for s in samples]
    drop = math.ceil(fraction * len(samples))
    if drop == 0:
        return samples
    order = sorted(range(len(samples)), key=lambda i: samples[i].id, reverse=True)
    order.sort(key=lambda i: -scores[i])  # stable: equal scores stay id-descending
    dropped = set(order[:drop])
    return [s for i, s in enumerate(samples) if i not in dropped]


def two_sort_confidence_rejection(samples, rate):
    """``confidence_rejection`` as first written: sort by id ascending, then
    stably by falling confidence, and keep the ceil((1-rate)*n) first."""
    samples = list(samples)
    scores = [float(s.confidence) for s in samples]
    keep = math.ceil((1.0 - rate) * len(samples))
    order = sorted(range(len(samples)), key=lambda i: samples[i].id)
    order.sort(key=lambda i: -scores[i])  # stable: equal scores stay id-ascending
    kept = set(order[:keep])
    return [s for i, s in enumerate(samples) if i in kept]
