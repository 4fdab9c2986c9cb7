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
the band's flat pixel indices, never a dense (16, H, W, 2) tensor. A band
pixel's heads depend only on whether it is foreground, so the ensemble
holds (16, 2, 2) head probabilities for the two pixel kinds, background and
foreground, and each band pixel's kind. Classifier confidence
(``jittered_confidence``) decreases with the disagreement plus a small
jitter drawn from the sample's confidence stream, so rejection filtering
has a meaningful signal; it reads no pixel, so a sample can be scored
before it is rendered. Band scoring uses ``sampling._js`` over the stack's
head tables: ``band_uncertainties`` scores a stack of shapes with one
``_js`` call and one band pass, bit for bit as ``sample_uncertainty``
scores each shape's ensemble, without building one.
Rasterization evaluates only the pixels in a box around the shape, and the
band comes from shifted views of the mask, not from a morphology library.

``toy_generate`` composes one rasterizer and one painter: ``toy_shape``
gives the foreground and its colour, and ``toy_paint`` paints them over a
background base colour, so a caller that keeps a shape and its base can
paint it later without rasterizing it again. ``toy_generate`` draws the
base from the sample seed's texture stream (``texture_base``); painting is
in uint8: each distinct ``float(base) + offset`` of the texture is computed
once, truncated, and gathered to the pixels, with no float canvas of the
image. The latent and the disagreement level are inputs. A source derives
a counter's sample seed, disagreement level and latent, confidence and
texture streams from independent substreams keyed by (seed, role), so
generation is order-independent and can run in parallel without changing
results. It does so with numpy's ``SeedSequence`` hash and ``PCG64``
seeding, rewritten here bit-exact once over values that are Python ints
(one counter, ``counter_stream``) or uint64 arrays (sorted counters,
``counter_streams``), so a whole candidate pool, or every survivor of a
filter, is seeded in bulk with the numbers ``substream`` would give.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .formats import ClassTaxonomy, Image, Mask
from .sampling import EnsemblePrediction, _js

FAMILIES = ("ellipse", "rectangle", "star", "crescent")
VALID_RESOLUTIONS = (64, 128, 256)
NUM_HEADS = 16
LATENT_DIM = 8  # latent coordinates read per sample; ToySource draws this many

LATENT_STREAM = 1
CONFIDENCE_STREAM = 50
_DISAGREEMENT_STREAM = 60
TEXTURE_STREAM = 70

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


def _seed_parent(parent, key):
    """Sample seeds of the counters with spawn-key words ``key`` (ints or
    uint64 arrays), and the ``spawn_parent`` of each seed."""
    seeds = spawn_state(parent, key, 1)[0]
    return seeds, spawn_parent([seeds & _MASK32, seeds >> 32])


def counter_stream(parent, counter: int, *roles: int) -> tuple:
    """One counter's sample seed, injected disagreement and, for each role,
    the PCG64 (state, increment) of ``substream(seed, role)``, where
    ``parent = spawn_parent(int_words(root))`` and the sample seed is that of
    ``SeedSequence(root, spawn_key=(counter,))``."""
    seed, seed_parent = _seed_parent(parent, int_words(counter))
    disagreement, *words = (spawn_state(seed_parent, [role], 4)
                            for role in (_DISAGREEMENT_STREAM, *roles))
    return (seed, pcg64_random(*pcg64_seeded(disagreement)), *map(pcg64_seeded, words))


def counter_streams(parent, counters: np.ndarray, *roles: int) -> list[tuple]:
    """``counter_stream(parent, c, *roles)`` of each counter c of the sorted
    uint64 array ``counters``, hashed as uint64 arrays: one group below
    2**32, whose spawn keys are one word, and one at or above it, whose keys
    are two. The disagreement stream and ``roles`` are hashed together, as
    one column of role words against the row of seeds."""
    if (counters[1:] < counters[:-1]).any():
        raise ValueError("counters must be sorted")
    low, high = np.split(counters, [np.searchsorted(counters, 1 << 32)])
    column = np.array([_DISAGREEMENT_STREAM, *roles], dtype=np.uint64)[:, None]
    out = []
    for key in ([low], [high & _MASK32, high >> 32]):
        if not key[0].size:
            continue
        seeds, seed_parent = _seed_parent(parent, key)
        # each role's state words, as a (counter, 4) list
        disagreement, *role_words = np.stack(spawn_state(seed_parent, [column], 4),
                                             axis=-1).tolist()
        out.extend(zip(seeds.tolist(), [pcg64_random(*pcg64_seeded(w)) for w in disagreement],
                       *(map(pcg64_seeded, words) for words in role_words)))
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


@dataclass(frozen=True, eq=False)
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
    px = np.arange(x0, x1)[None, :] + 0.5 - cx  # a row and a column,
    py = np.arange(y0, y1)[:, None] + 0.5 - cy  # broadcast by the rotation
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


@lru_cache(maxsize=16)
def _texture(res: int, texture: int) -> tuple[np.ndarray, np.ndarray]:
    """A background texture as its distinct offsets from the base colour and
    each pixel's index into them (both read-only): none for a flat
    background, a 0..80 ramp across the columns or down the rows, or a
    checker of 8-pixel squares offset by 0 or 40. The flat and ramp indices
    are broadcast views of one value, row or column, so only the checker's
    is a full grid."""
    steps = np.arange(res)
    if texture == 0:
        offsets, index = np.zeros(1), np.broadcast_to(np.intp(0), (res, res))
    elif texture == 1:
        offsets, index = np.linspace(0.0, 80.0, res), np.broadcast_to(steps, (res, res))
    elif texture == 2:
        offsets, index = np.linspace(0.0, 80.0, res), np.broadcast_to(steps[:, None], (res, res))
    else:
        cells = steps // 8
        offsets, index = np.array([0.0, 40.0]), (cells[:, None] + cells) % 2
    offsets.flags.writeable = index.flags.writeable = False
    return offsets, index


def _canvas(texture: int, base: np.ndarray, foreground: np.ndarray,
            colour: np.ndarray) -> np.ndarray:
    """The uint8 image: each background pixel is ``float(base) + offset``,
    clipped and truncated, and each foreground pixel is ``colour``.

    The sum is taken once per distinct offset, and the colour is one more
    row of that table, so one gather paints every pixel and no float canvas
    of the whole image is built.
    """
    offsets, index = _texture(foreground.shape[0], texture)
    table = np.empty((len(offsets) + 1, 3), dtype=np.uint8)
    table[:-1] = np.clip(offsets[:, None] + base, 0, 255).astype(np.uint8)
    table[-1] = colour
    return table.take(np.where(foreground, len(offsets), index), axis=0)


def toy_shape(spec: ToyClassSpec, z: np.ndarray, res: int = 64, *,
              disagreement: float) -> tuple[np.ndarray, np.ndarray]:
    """Check the inputs and rasterize the shape: the foreground mask and the
    colour it is painted with, clipped and truncated to uint8.

    The first half of ``toy_generate``; ``toy_paint`` is the second.
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
    colour = [_param(zc[5 + c], spec.color_low[c], spec.color_high[c]) for c in range(3)]
    return (_rasterize(spec.shape_family, res, cx, cy, a, b, rot),
            np.clip(colour, 0, 255).astype(np.uint8))


def _band(fg: np.ndarray) -> np.ndarray:
    """Pixels within 1 of the foreground and within 2 of the background.

    The 3x3 dilation minus the 5x5 erosion (two 3x3 erosions) of ``fg``, with
    everything outside the frame counted as background; each window is two
    passes of shifted views over a zero-padded copy. ``fg`` is one (H, W)
    foreground or a stack of them, each with its own band.
    """
    *stack, h, w = fg.shape
    pad = np.zeros((*stack, h + 4, w + 4), dtype=bool)
    pad[..., 2:-2, 2:-2] = fg
    rows = pad[..., 1:-3] | pad[..., 2:-2] | pad[..., 3:-1]
    dilated = rows[..., 1:-3, :] | rows[..., 2:-2, :] | rows[..., 3:-1, :]
    rows = pad[..., :-4] & pad[..., 1:-3] & pad[..., 2:-2] & pad[..., 3:-1] & pad[..., 4:]
    eroded = (rows[..., :-4, :] & rows[..., 1:-3, :] & rows[..., 2:-2, :]
              & rows[..., 3:-1, :] & rows[..., 4:, :])
    return dilated & ~eroded


def _band_heads(levels) -> np.ndarray:
    """The (NUM_HEADS, 2k, 2) head probabilities of k disagreement levels:
    columns 2i and 2i + 1 hold level i's band heads for the two pixel kinds,
    background and foreground, each head slid from the one-hot truth toward
    its target by the level."""
    level = np.repeat(np.asarray(levels, dtype=np.float64), 2)
    truth = np.tile([0.0, 1.0], level.size // 2)
    targets = (2.0 * np.arange(NUM_HEADS) + 1.0) / (2.0 * NUM_HEADS)
    head_fg = (1.0 - level) * truth + level * targets[:, None]
    return np.stack([1.0 - head_fg, head_fg], axis=-1)


def band_ensemble(fg: np.ndarray, disagreement: float) -> EnsemblePrediction:
    """The ensemble of the foreground ``fg``: the band's heads for its two
    pixel kinds, background (0) and foreground (1)."""
    index = np.flatnonzero(_band(fg))
    return EnsemblePrediction(_band_heads([disagreement]), index, fg.shape,
                              fg.ravel()[index].view(np.uint8))


def band_uncertainties(fgs: np.ndarray, disagreements) -> list[float]:
    """``sample_uncertainty(band_ensemble(fg, d))`` of each foreground fg of
    the (k, H, W) stack ``fgs`` at its disagreement level d, bit for bit,
    with no ensemble built: one ``_js`` call scores the pixel kinds of the
    whole stack, one ``_band`` pass finds every band, and each foreground's
    pixel kinds are gathered from its own row."""
    kind_js = np.maximum(_js(_band_heads(disagreements)), 0.0).reshape(-1, 2)
    size = fgs.shape[-2] * fgs.shape[-1]
    return [float(js.take(fg[band].view(np.uint8)).sum() / size)
            for js, fg, band in zip(kind_js, fgs, _band(fgs))]


def texture_base(rng: np.random.Generator) -> np.ndarray:
    """A sample's background base colour, drawn from its texture stream."""
    return rng.integers(40, 120, size=3)


def toy_paint(spec: ToyClassSpec, foreground: np.ndarray, colour: np.ndarray,
              base: np.ndarray) -> tuple[Image, Mask]:
    """The image and mask of a sample whose ``toy_shape`` is (foreground,
    colour) and whose ``texture_base`` is ``base``: the class's background
    texture over ``base``, the foreground filled with ``colour``, and the
    foreground labelled with the class id."""
    return (Image(_canvas(spec.background_texture, base, foreground, colour)),
            Mask(foreground.view(np.uint8) * np.uint8(spec.class_id)))


def toy_generate(spec: ToyClassSpec, z: np.ndarray, seed: int, res: int = 64, *,
                 disagreement: float, with_ensemble: bool = True) -> ToyOutput:
    """Render one labeled sample; deterministic in (spec, z, seed, res,
    disagreement).

    The latent ``z`` sets the shape and its colour; ``seed`` keys only the
    background texture, through ``substream(seed, TEXTURE_STREAM)``.
    ``disagreement`` in [0, 1] sets how far the ensemble heads slide from the
    true label toward their fixed fan of probability targets inside the
    boundary band. The ensemble lists only the boundary band's pixels.
    ``with_ensemble=False`` skips the head construction (image and mask are
    unaffected). The sample is ``toy_shape`` painted by ``toy_paint``.
    """
    fg, colour = toy_shape(spec, z, res, disagreement=disagreement)
    image, mask = toy_paint(spec, fg, colour, texture_base(substream(seed, TEXTURE_STREAM)))
    return ToyOutput(image=image, gt_mask=mask,
                     ensemble=band_ensemble(fg, disagreement) if with_ensemble else None)
