"""Procedural class-conditional generator with exact ground truth.

Stands in for a real generative model in end-to-end tests. Every output is
a pure function of (class spec, latent, seed, disagreement level): shape
parameters are a clamped affine map of the latent coordinates, the
ground-truth mask is the exact rasterization of the shape at pixel centers,
and a 16-head ensemble disagrees only inside a 3-pixel boundary band by the
given level. Inside the band each head slides from the true one-hot label
toward its own fixed probability target (targets are spread evenly over (0,
1)), displaced by the disagreement level, so the per-pixel divergence
across heads grows strictly with the level and the per-sample uncertainty
score carries no sampling noise. Outside the band every head equals the
one-hot ground truth, so the ensemble is emitted in its listed-pixel form:
the band's flat pixel indices and the (16, m, 2) head probabilities there,
never a dense (16, H, W, 2) tensor. Classifier confidence
(``jittered_confidence``) decreases with the disagreement plus a small
jitter drawn from the sample's confidence stream, so rejection filtering
has a meaningful signal; it reads no pixel, so a sample can be scored
before it is rendered. The ensemble depends on the shape alone, so
``toy_ensemble`` builds it from the rasterized shape without painting an
image. Rasterization evaluates only the pixels in a box around the shape,
and the band comes from shifted views of the mask, not from a morphology
library.

Rendering draws nothing but the background texture, keyed by the sample
seed; the latent and the disagreement level are inputs. A source derives a
counter's sample seed, disagreement level and latent and confidence streams
from independent substreams keyed by (seed, role), so generation is
order-independent and can run in parallel without changing results. It does
so with numpy's ``SeedSequence`` hash and ``PCG64`` seeding, rewritten here
bit-exact once over values that are Python ints (one counter,
``counter_stream``) or uint64 arrays (a counter range, ``counter_streams``),
so a whole candidate pool is seeded in bulk with the numbers ``substream``
would give.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import ClassTaxonomy, Image, Mask
from .sampling import EnsemblePrediction

FAMILIES = ("ellipse", "rectangle", "star", "crescent")
VALID_RESOLUTIONS = (64, 128, 256)
NUM_HEADS = 16
LATENT_DIM = 8  # latent coordinates read per sample; ToySource draws this many

LATENT_STREAM = 1
CONFIDENCE_STREAM = 50
_DISAGREEMENT_STREAM = 60
_TEXTURE_STREAM = 70

# per-family size multipliers equalizing boundary-band length across families
_SIZE_SCALE = {"ellipse": 1.0, "rectangle": 0.78, "star": 1.0, "crescent": 0.85}


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent deterministic generator for (seed, path)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


# numpy's SeedSequence (O'Neill's seed_seq_fe over a pool of four 32-bit
# words) and PCG64 seeding (a 128-bit LCG with an XSL-RR output). The hash
# runs on Python ints and on uint64 arrays alike: every value is a 32-bit
# word, a product of two words fits 64 bits, and each result is masked.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, const):
    """seed_seq_fe's hashmix: the hashed word and the next hash constant."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """seed_seq_fe's mix of a pool word with a hashed word."""
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> 16


def _absorb(pool, const, word):
    """Mix one more entropy word into every pool word."""
    mixed = []
    for value in pool:
        hashed, const = _hashmix(word, const)
        mixed.append(_mix(value, hashed))
    return mixed, const


def int_words(n: int) -> list[int]:
    """numpy's split of a non-negative int into little-endian 32-bit words
    (0 is one word)."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def spawn_parent(words) -> tuple[list, int]:
    """The (pool, hash constant) ``SeedSequence(entropy, spawn_key=key)``
    holds before it mixes in a nonempty key, from the entropy's words.

    As numpy does when a key follows, the words are zero-padded to the
    four-word pool; words past the fourth are mixed in after the pool.
    """
    words = list(words) + [0] * (4 - len(words))
    pool, const = [], _INIT_A
    for word in words[:4]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[4:]:
        pool, const = _absorb(pool, const, word)
    return pool, const


def spawn_state(parent: tuple[list, int], key, n: int) -> list:
    """``generate_state(n, np.uint64)`` of the child of ``parent`` whose
    spawn key has the 32-bit words ``key``."""
    pool, const = parent
    for word in key:
        pool, const = _absorb(pool, const, word)
    const, halves = _INIT_B, []
    for i in range(2 * n):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 2 * n, 2)]


def pcg64_seeded(words) -> tuple[int, int]:
    """PCG64's (state, increment) when seeded from ``generate_state(4, np.uint64)``."""
    s0, s1, s2, s3 = words
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc


def pcg64_random(state: int, inc: int) -> float:
    """The first ``random()`` of a PCG64 in (state, inc): one LCG step, the
    XSL-RR output, its top 53 bits scaled to [0, 1)."""
    state = (state * _PCG_MULT + inc) & _MASK128
    word = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    word = (word >> rot | word << (64 - rot)) & _MASK64
    return (word >> 11) * (1.0 / 9007199254740992.0)


def _streams(parent, key, roles):
    """Sample seeds, then the disagreement-stream state words and those of
    each stream in ``roles``, of the counters with spawn-key words ``key``
    (ints or uint64 arrays)."""
    seeds = spawn_state(parent, key, 1)[0]
    seed_parent = spawn_parent([seeds & _MASK32, seeds >> 32])
    return (seeds, spawn_state(seed_parent, [_DISAGREEMENT_STREAM], 4),
            [spawn_state(seed_parent, [role], 4) for role in roles])


def counter_stream(parent, counter: int, *roles: int) -> tuple:
    """One counter's sample seed, injected disagreement and, for each role,
    the PCG64 (state, increment) of ``substream(seed, role)``, where
    ``parent = spawn_parent(int_words(root))`` and the sample seed is that of
    ``SeedSequence(root, spawn_key=(counter,))``."""
    seed, disagreement, words = _streams(parent, int_words(counter), roles)
    return (seed, pcg64_random(*pcg64_seeded(disagreement)),
            *(pcg64_seeded(w) for w in words))


def counter_streams(parent, lo: int, hi: int,
                    role: int) -> list[tuple[int, float, tuple[int, int]]]:
    """``counter_stream(parent, c, role)`` of each counter c in [lo, hi)
    (below 2**64), hashed as uint64 arrays: one group below 2**32, whose
    spawn keys are one word, and one at or above it, whose keys are two."""
    out = []
    for a, b in ((lo, min(hi, 1 << 32)), (max(lo, 1 << 32), hi)):
        if a >= b:
            continue
        counters = np.arange(a, b, dtype=np.uint64)
        key = [counters] if b <= 1 << 32 else [counters & _MASK32, counters >> 32]
        seeds, disagreement, (words,) = _streams(parent, key, (role,))
        for seed, d_words, r_words in zip(seeds.tolist(),
                                          zip(*(w.tolist() for w in disagreement)),
                                          zip(*(w.tolist() for w in words))):
            out.append((seed, pcg64_random(*pcg64_seeded(d_words)), pcg64_seeded(r_words)))
    return out


def set_stream(rng: np.random.Generator, state: tuple[int, int]) -> np.random.Generator:
    """Put a PCG64 ``Generator`` in (state, increment), as freshly seeded."""
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state[0], "inc": state[1]},
                               "has_uint32": 0, "uinteger": 0}
    return rng


@dataclass(frozen=True)
class ToyClassSpec:
    """Shape family and parameter ranges for one synthetic class."""

    class_id: int
    shape_family: str
    size_range: tuple[float, float]
    aspect_range: tuple[float, float]
    rotation_range: tuple[float, float]
    color_low: tuple[int, int, int]
    color_high: tuple[int, int, int]
    background_texture: int

    def __post_init__(self):
        if self.shape_family not in FAMILIES:
            raise ValueError(f"unknown shape family {self.shape_family!r}")
        lo, hi = self.size_range
        if not 0.0 < lo <= hi <= 0.9:
            raise ValueError(f"size range {self.size_range} outside (0, 0.9]")


@dataclass(frozen=True)
class ToyOutput:
    image: Image
    gt_mask: Mask
    ensemble: EnsemblePrediction | None


def toy_taxonomy(num_classes: int, seed: int = 0) -> tuple[ClassTaxonomy, list[ToyClassSpec]]:
    """Deterministic taxonomy with the four shape families cycled across classes.

    Includes a "family" task grouping classes by shape family (labels 1..4)
    and a binary "fgbg" task mapping every class to label 1. Class ids must
    fit a mask label (1..254; 255 is the ignore label), so 4..254 classes.
    """
    if not 4 <= num_classes <= 254:
        raise ValueError(f"num_classes must be in 4..254 (one per shape family at least, "
                         f"ids below the 255 ignore label), got {num_classes}")
    rng = substream(seed, 10)
    classes: dict[int, str] = {}
    family_group: dict[int, int] = {}
    specs: list[ToyClassSpec] = []
    for index in range(num_classes):
        class_id = index + 1
        family = FAMILIES[index % len(FAMILIES)]
        classes[class_id] = f"{family}_{class_id:03d}"
        family_group[class_id] = index % len(FAMILIES) + 1
        scale = _SIZE_SCALE[family]
        size_lo = rng.uniform(0.48, 0.54) * scale
        size_hi = size_lo + rng.uniform(0.06, 0.10) * scale
        aspect_lo = rng.uniform(0.70, 0.85)
        aspect_hi = aspect_lo + rng.uniform(0.08, 0.15)
        rot_hi = rng.uniform(math.pi / 2, math.pi)
        color_lo = tuple(int(v) for v in rng.integers(30, 170, size=3))
        color_hi = tuple(min(v + 70, 255) for v in color_lo)
        specs.append(
            ToyClassSpec(
                class_id=class_id,
                shape_family=family,
                size_range=(size_lo, size_hi),
                aspect_range=(aspect_lo, min(aspect_hi, 1.0)),
                rotation_range=(0.0, rot_hi),
                color_low=color_lo,
                color_high=color_hi,
                background_texture=int(rng.integers(0, 4)),
            )
        )
    taxonomy = ClassTaxonomy(
        classes=classes,
        groups={"family": family_group, "fgbg": {cid: 1 for cid in classes}},
    )
    return taxonomy, specs


def jittered_confidence(disagreement: float, rng: np.random.Generator) -> float:
    """A toy sample's classifier confidence.

    Falls with the disagreement level plus a small jitter drawn from ``rng``,
    the sample's confidence stream, clamped to [0, 1]. It reads no latent
    and no pixel, so a sample can be scored without being rendered.
    """
    jitter = float(rng.normal(0.0, 0.05))
    return min(max(1.0 - 0.8 * disagreement + jitter, 0.0), 1.0)


def _param(z_value: float, lo: float, hi: float) -> float:
    """Clamped affine map of a roughly standard-normal coordinate into [lo, hi]."""
    u = min(max((z_value + 3.0) / 6.0, 0.0), 1.0)
    return lo + u * (hi - lo)


def _points_in_polygon(px: np.ndarray, py: np.ndarray, verts: np.ndarray) -> np.ndarray:
    inside = np.zeros(px.shape, dtype=bool)
    x1, y1 = verts[-1]
    for x2, y2 in verts:
        crosses = (y1 > py) != (y2 > py)
        denom = (y2 - y1) if y2 != y1 else 1.0
        x_cross = (x2 - x1) * (py - y1) / denom + x1
        inside ^= crosses & (px < x_cross)
        x1, y1 = x2, y2
    return inside


def _rasterize(family: str, res: int, cx: float, cy: float, a: float, b: float,
               rot: float) -> np.ndarray:
    """Exact pixel-center rasterization of one shape; a/b are semi-extents in pixels.

    Only the window of pixels within hypot(a, b) + 2 of the center, clipped
    to the grid, is evaluated; every family lies within hypot(a, b) of its
    center. Each window pixel gets the same float expression a full-grid
    evaluation would give it, and every other pixel is background.
    """
    reach = math.hypot(a, b) + 2.0
    x0, x1 = max(int(cx - reach), 0), min(int(cx + reach) + 1, res)
    y0, y1 = max(int(cy - reach), 0), min(int(cy + reach) + 1, res)
    ys, xs = np.mgrid[y0:y1, x0:x1]
    px = xs + 0.5 - cx
    py = ys + 0.5 - cy
    cos_r, sin_r = math.cos(rot), math.sin(rot)
    xr = cos_r * px + sin_r * py
    yr = -sin_r * px + cos_r * py
    if family == "ellipse":
        inside = (xr / a) ** 2 + (yr / b) ** 2 <= 1.0
    elif family == "rectangle":
        inside = (np.abs(xr) <= a) & (np.abs(yr) <= b)
    elif family == "star":
        angles = np.arange(10) * math.pi / 5 - math.pi / 2
        radii = np.where(np.arange(10) % 2 == 0, a, 0.45 * a)
        verts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        inside = _points_in_polygon(xr, yr / b * a, verts)
    elif family == "crescent":
        body = xr**2 + yr**2 <= a**2
        cutout = (xr - 0.55 * a) ** 2 + yr**2 <= (0.8 * a) ** 2
        inside = body & ~cutout
    else:
        raise ValueError(f"unknown shape family {family!r}")
    out = np.zeros((res, res), dtype=bool)
    out[y0:y1, x0:x1] = inside
    return out


def _background(res: int, texture: int, rng: np.random.Generator) -> np.ndarray:
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


def _shape(spec: ToyClassSpec, z: np.ndarray, res: int,
           disagreement: float) -> tuple[np.ndarray, np.ndarray]:
    """Check the inputs and rasterize the shape.

    Returns the foreground mask and the latent cycled to its LATENT_DIM used
    coordinates.
    """
    if res not in VALID_RESOLUTIONS:
        raise ValueError(f"resolution {res} not in {VALID_RESOLUTIONS}")
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size < 1 or not np.isfinite(z).all():
        raise ValueError("latent vector must be nonempty and finite")
    if not 0.0 <= disagreement <= 1.0:
        raise ValueError("disagreement must be in [0, 1]")
    zc = np.resize(z, LATENT_DIM)

    size = _param(zc[0], *spec.size_range)
    aspect = _param(zc[1], *spec.aspect_range)
    rot = _param(zc[2], *spec.rotation_range)
    # circumradius keeps rotated shapes fully inside the frame
    if spec.shape_family == "rectangle":
        reach = size / 2 * math.sqrt(1.0 + aspect**2)
    else:
        reach = size / 2
    margin = reach + 1.0 / res
    cx = _param(zc[3], margin, 1.0 - margin) * res
    cy = _param(zc[4], margin, 1.0 - margin) * res
    a = size * res / 2
    b = aspect * a
    return _rasterize(spec.shape_family, res, cx, cy, a, b, rot), zc


def _band(fg: np.ndarray) -> np.ndarray:
    """Pixels within 1 of the foreground and within 2 of the background.

    The 3x3 dilation minus the 5x5 erosion (two 3x3 erosions) of ``fg``, with
    everything outside the frame counted as background; each window is two
    passes of shifted views over a zero-padded copy.
    """
    h, w = fg.shape
    pad = np.zeros((h + 4, w + 4), dtype=bool)
    pad[2:-2, 2:-2] = fg
    rows = pad[:, 1:-3] | pad[:, 2:-2] | pad[:, 3:-1]
    dilated = rows[1:-3] | rows[2:-2] | rows[3:-1]
    rows = pad[:, :-4] & pad[:, 1:-3] & pad[:, 2:-2] & pad[:, 3:-1] & pad[:, 4:]
    eroded = rows[:-4] & rows[1:-3] & rows[2:-2] & rows[3:-1] & rows[4:]
    return dilated & ~eroded


def _band_ensemble(fg: np.ndarray, disagreement: float) -> EnsemblePrediction:
    index = np.flatnonzero(_band(fg))
    fg_prob = fg.ravel()[index].astype(np.float64)
    targets = (2.0 * np.arange(NUM_HEADS) + 1.0) / (2.0 * NUM_HEADS)
    head_fg = (1.0 - disagreement) * fg_prob[None, :] + disagreement * targets[:, None]
    heads = np.stack([1.0 - head_fg, head_fg], axis=-1)
    return EnsemblePrediction(heads, index, fg.shape)


def toy_ensemble(spec: ToyClassSpec, z: np.ndarray, res: int = 64, *,
                 disagreement: float) -> EnsemblePrediction:
    """The ensemble ``toy_generate`` would return, from the shape alone.

    Rasterizes the shape and builds the band heads; paints no image. Makes
    the same checks as ``toy_generate``.
    """
    fg, _ = _shape(spec, z, res, disagreement)
    return _band_ensemble(fg, disagreement)


def toy_generate(spec: ToyClassSpec, z: np.ndarray, seed: int, res: int = 64, *,
                 disagreement: float, with_ensemble: bool = True) -> ToyOutput:
    """Render one labeled sample; deterministic in (spec, z, seed, res,
    disagreement).

    The latent ``z`` sets the shape and its colour; ``seed`` keys only the
    background texture. ``disagreement`` in [0, 1] sets how far the ensemble
    heads slide from the true label toward their fixed fan of probability
    targets inside the boundary band. The ensemble lists only the boundary
    band's pixels. ``with_ensemble=False`` skips the head construction
    (image and mask are unaffected).
    """
    fg, zc = _shape(spec, z, res, disagreement)
    gt = np.where(fg, np.uint8(spec.class_id), np.uint8(0))

    color = np.array(
        [_param(zc[5 + c], spec.color_low[c], spec.color_high[c]) for c in range(3)]
    )
    canvas = _background(res, spec.background_texture, substream(seed, _TEXTURE_STREAM))
    canvas[fg] = color
    image = Image(np.clip(canvas, 0, 255).astype(np.uint8))

    return ToyOutput(
        image=image,
        gt_mask=Mask(gt),
        ensemble=_band_ensemble(fg, disagreement) if with_ensemble else None,
    )
