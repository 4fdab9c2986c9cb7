"""Domain types and on-disk formats shared by every other module.

Masks are binary PGM (P5, maxval 255): label 0 is background, 255 is the
ignore label, 1..254 are foreground class ids. Images are binary PPM (P6).
Embedding sets use a tiny binary container ("EMB1" magic, little-endian
uint32 n and d, then n*d little-endian float32 values, row-major). Dataset
manifests are UTF-8 text with a fixed tab-separated field order so they
stream and diff cleanly.

All types are immutable after construction; array payloads are marked
read-only so instances can be shared freely between threads.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

IGNORE_LABEL = 255

PROVENANCE_TAGS = (
    "real-annotated",
    "synthetic-annotated",
    "biggan-sim",
    "vqgan-sim",
    "toy",
)

MANIFEST_MAGIC = "LGKITv1"
EMBEDDING_MAGIC = b"EMB1"

# the characters str.splitlines ends a line at; a field also may not hold a tab
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_FIELD_BREAKS = _LINE_BREAKS | {"\t"}


class FormatError(ValueError):
    """Base class for malformed or inconsistent on-disk data."""


class MalformedHeaderError(FormatError):
    pass


class MaxvalError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class BadMagicError(FormatError):
    pass


class SizeMismatchError(FormatError):
    pass


class NonFiniteError(FormatError):
    pass


class DuplicateIdError(FormatError):
    pass


class MissingFieldError(FormatError):
    pass


class UnknownProvenanceError(FormatError):
    pass


def _check_text(what: str, text: str, breaks=_FIELD_BREAKS) -> None:
    """Reject text that would not read back as one field of one line."""
    if not breaks.isdisjoint(text):
        raise FormatError(f"{what} {text!r} would not read back: it breaks the line or field")


def _frozen_array(obj, name, value):
    arr = np.ascontiguousarray(value)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class Mask:
    """Per-pixel label grid; shape (height, width), dtype uint8."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValueError(f"mask labels must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"mask dimensions must be >= 1, got {arr.shape}")
        if arr.dtype != np.uint8:
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("mask labels out of uint8 range")
            arr = arr.astype(np.uint8)
        _frozen_array(self, "labels", arr)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def foreground(self) -> np.ndarray:
        """Boolean grid of foreground pixels (neither background nor ignore)."""
        return (self.labels != 0) & (self.labels != IGNORE_LABEL)


def validate_mask_labels(mask: Mask, num_classes: int) -> None:
    """Reject any label outside {0, 255} and 1..num_classes."""
    bad = (mask.labels > num_classes) & (mask.labels != IGNORE_LABEL)
    if bad.any():
        value = int(mask.labels[bad][0])
        raise ValueError(
            f"mask label {value} outside 1..{num_classes} (0=background, 255=ignore)"
        )


@dataclass(frozen=True)
class Image:
    """8-bit RGB image; data shape (height, width, 3)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"image data must have shape (h, w, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image dimensions must be >= 1")
        if arr.dtype != np.uint8:
            arr = arr.astype(np.uint8)
        _frozen_array(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabeledSample:
    """An image/mask pair with provenance and filter scores.

    ``confidence`` and ``uncertainty`` are optional scores attached by a
    classifier and an ensemble respectively; ``latent_seed`` records the
    generator input for synthetic provenance and may be absent for real data.
    ``image`` and ``mask`` may be None when only metadata travels (the pixel
    payloads then live behind manifest paths).
    """

    id: str
    class_id: int
    provenance: str
    latent_seed: int | None = None
    confidence: float | None = None
    uncertainty: float | None = None
    image: Image | None = None
    mask: Mask | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("sample id must be nonempty")
        if not 1 <= self.class_id <= 1000:
            raise ValueError(f"class_id {self.class_id} outside 1..1000")
        if self.provenance not in PROVENANCE_TAGS:
            raise UnknownProvenanceError(f"unknown provenance {self.provenance!r}")
        if self.latent_seed is not None and not 0 <= self.latent_seed < 2**64:
            raise ValueError("latent_seed must fit in 64 unsigned bits")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.uncertainty is not None and self.uncertainty < 0:
            raise ValueError(f"uncertainty {self.uncertainty} must be nonnegative")
        if self.image is not None and self.mask is not None:
            if (self.image.height, self.image.width) != (self.mask.height, self.mask.width):
                raise ValueError("mask dimensions must equal image dimensions")


@dataclass(frozen=True)
class ClassTaxonomy:
    """Class-id to name map plus per-task groupings of class ids.

    Each group maps class_id -> task label; task labels must be contiguous
    1..K and every grouped class id must exist in ``classes``.
    """

    classes: dict[int, str]
    groups: dict[str, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        for cid, name in self.classes.items():
            _check_text(f"class {cid} name", name)
        for task, table in self.groups.items():
            _check_text("task name", task)
            labels = set(table.values())
            if not labels:
                raise ValueError(f"task {task!r} has an empty group table")
            k = max(labels)
            if labels != set(range(1, k + 1)):
                raise ValueError(f"task {task!r} labels are not contiguous 1..{k}")
            missing = set(table) - set(self.classes)
            if missing:
                raise ValueError(
                    f"task {task!r} references unknown class ids {sorted(missing)[:5]}"
                )


@dataclass(frozen=True)
class ManifestEntry:
    """One dataset record: metadata plus relative paths to the pixel files."""

    id: str
    class_id: int
    image_path: str
    mask_path: str
    provenance: str
    latent_seed: int | None = None
    confidence: float | None = None
    uncertainty: float | None = None

    def __post_init__(self):
        for name in ("id", "image_path", "mask_path"):
            if not getattr(self, name):
                raise MissingFieldError(f"manifest entry field {name!r} is empty")
            _check_text(f"manifest entry {name}", getattr(self, name))
        if self.id.startswith("#"):
            raise FormatError(f"sample id {self.id!r} starts with '#', as metadata lines do")
        if not 1 <= self.class_id <= 1000:
            raise ValueError(f"class_id {self.class_id} outside 1..1000")
        if self.provenance not in PROVENANCE_TAGS:
            raise UnknownProvenanceError(f"unknown provenance {self.provenance!r}")
        for name in ("image_path", "mask_path"):
            path = Path(getattr(self, name))
            if path.is_absolute() or ".." in path.parts:
                raise FormatError(f"{name} must stay inside the manifest directory")


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered dataset listing with creation parameters.

    ``metadata`` holds creation parameters (source, seed, truncation,
    rejection rate, uncertainty fraction, ...) as strings so round-trips are
    exact.
    """

    name: str
    entries: tuple[ManifestEntry, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_text("manifest name", self.name, _LINE_BREAKS)
        for key, value in self.metadata.items():
            _check_text("metadata key", key, _LINE_BREAKS)
            if "=" in key:
                raise FormatError(f"metadata key {key!r} holds '='")
            _check_text(f"metadata value of {key!r}", value, _LINE_BREAKS)
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for entry in self.entries:
            if entry.id in seen:
                raise DuplicateIdError(f"duplicate sample id {entry.id!r}")
            seen.add(entry.id)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class EmbeddingSet:
    """n x d matrix of per-image embeddings, n >= 2, all values finite."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"embeddings must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"embedding set needs n >= 2 rows, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.isfinite(arr).all():
            raise NonFiniteError("embedding set contains non-finite values")
        _frozen_array(self, "rows", arr)

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


# --------------------------------------------------------------------------
# netpbm (PGM P5 / PPM P6)
# --------------------------------------------------------------------------

def _parse_netpbm(data: bytes, magic: bytes, path) -> tuple[int, int, bytes]:
    """Parse a binary netpbm header, returning (width, height, payload)."""
    if not data.startswith(magic):
        raise MalformedHeaderError(f"{path}: expected {magic.decode()} magic")
    pos = len(magic)
    tokens = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise MalformedHeaderError(f"{path}: header ended early")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise MalformedHeaderError(f"{path}: unterminated comment")
            pos = nl + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise MalformedHeaderError(f"{path}: non-integer header field") from None
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"{path}: dimensions must be >= 1")
    if maxval != 255:
        raise MaxvalError(f"{path}: maxval must be 255, got {maxval}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeaderError(f"{path}: missing whitespace after maxval")
    return width, height, data[pos + 1 :]


def _read_netpbm(path, magic: bytes, *channels: int) -> np.ndarray:
    """The (height, width, *channels) uint8 payload of a binary netpbm file."""
    width, height, payload = _parse_netpbm(Path(path).read_bytes(), magic, path)
    expected = width * height * math.prod(channels)
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise FormatError(f"{path}: {len(payload) - expected} trailing bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, *channels)


def read_mask(path) -> Mask:
    """Read a binary PGM (P5, maxval 255) label grid."""
    return Mask(_read_netpbm(path, b"P5"))


def write_mask(mask: Mask, path) -> None:
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + mask.labels.tobytes())


def read_image(path) -> Image:
    """Read a binary PPM (P6, maxval 255) RGB image."""
    return Image(_read_netpbm(path, b"P6", 3))


def write_image(image: Image, path) -> None:
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.data.tobytes())


# --------------------------------------------------------------------------
# embeddings ("EMB1")
# --------------------------------------------------------------------------

def read_embeddings(path) -> EmbeddingSet:
    """Read an EMB1 file: magic, u32le n, u32le d, n*d float32le row-major."""
    data = Path(path).read_bytes()
    if data[:4] != EMBEDDING_MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise TruncatedPayloadError(f"{path}: header needs 12 bytes")
    n, d = struct.unpack("<II", data[4:12])
    payload = data[12:]
    expected = 4 * n * d
    if len(payload) != expected:
        raise SizeMismatchError(
            f"{path}: declared {n}x{d} needs {expected} payload bytes, got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(n, d)
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{path}: embedding payload contains non-finite values")
    if n < 2:
        raise FormatError(f"{path}: embedding set needs n >= 2 rows, got {n}")
    return EmbeddingSet(values)


def write_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write an EMB1 file; values beyond the float32 range are rejected, not
    stored as infinities."""
    with np.errstate(over="ignore"):
        rows = embeddings.rows.astype("<f4")
    if not np.isfinite(rows).all():
        raise NonFiniteError("embedding values exceed the float32 range of EMB1")
    header = EMBEDDING_MAGIC + struct.pack("<II", embeddings.count, embeddings.dim)
    payload = rows.tobytes()
    Path(path).write_bytes(header + payload)


# --------------------------------------------------------------------------
# manifests
# --------------------------------------------------------------------------

_MANIFEST_FIELDS = 8


def _format_optional(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"{MANIFEST_MAGIC} {manifest.name}"]
    for key, value in manifest.metadata.items():
        lines.append(f"#{key}={value}")
    for e in manifest.entries:
        lines.append(
            "\t".join(
                (
                    e.id,
                    str(e.class_id),
                    e.image_path,
                    e.mask_path,
                    e.provenance,
                    _format_optional(e.latent_seed),
                    _format_optional(e.confidence),
                    _format_optional(e.uncertainty),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> DatasetManifest:
    """Parse a manifest; errors carry the file name and 1-based line number."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MANIFEST_MAGIC + " "):
        raise MalformedHeaderError(f"{path}:1: first line must be '{MANIFEST_MAGIC} <name>'")
    name = lines[0][len(MANIFEST_MAGIC) + 1 :]
    metadata: dict[str, str] = {}
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise FormatError(f"{path}:{lineno}: metadata line must be #key=value")
            metadata[key] = value
            continue
        fields = line.split("\t")
        if len(fields) != _MANIFEST_FIELDS:
            raise MissingFieldError(
                f"{path}:{lineno}: expected {_MANIFEST_FIELDS} tab-separated fields, got {len(fields)}"
            )
        sid, class_id, image_path, mask_path, provenance, seed, conf, unc = fields
        if sid in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate sample id {sid!r}")
        seen.add(sid)
        try:
            entry = ManifestEntry(
                id=sid,
                class_id=int(class_id),
                image_path=image_path,
                mask_path=mask_path,
                provenance=provenance,
                latent_seed=None if seed == "-" else int(seed),
                confidence=None if conf == "-" else float(conf),
                uncertainty=None if unc == "-" else float(unc),
            )
        except FormatError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        entries.append(entry)
    return DatasetManifest(name=name, entries=tuple(entries), metadata=metadata)


# --------------------------------------------------------------------------
# taxonomies
# --------------------------------------------------------------------------

def write_taxonomy(taxonomy: ClassTaxonomy, path) -> None:
    """Serialize as 'class<TAB>id<TAB>name' and 'group<TAB>task<TAB>id<TAB>label' lines."""
    lines = []
    for cid in sorted(taxonomy.classes):
        lines.append(f"class\t{cid}\t{taxonomy.classes[cid]}")
    for task in sorted(taxonomy.groups):
        for cid in sorted(taxonomy.groups[task]):
            lines.append(f"group\t{task}\t{cid}\t{taxonomy.groups[task][cid]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_taxonomy(path) -> ClassTaxonomy:
    classes: dict[int, str] = {}
    groups: dict[str, dict[int, int]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if (fields[0], len(fields)) not in (("class", 3), ("group", 4)):
            raise FormatError(f"{path}:{lineno}: unrecognized taxonomy line")
        try:
            if fields[0] == "class":
                classes[int(fields[1])] = fields[2]
            else:
                groups.setdefault(fields[1], {})[int(fields[2])] = int(fields[3])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer id field") from None
    try:
        return ClassTaxonomy(classes=classes, groups=groups)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# --------------------------------------------------------------------------
# polygons as text
# --------------------------------------------------------------------------

def write_polygons(polys_by_class: dict[int, list[np.ndarray]], path) -> None:
    """One polygon per line: class_id<TAB>x1,y1;x2,y2;... with 6 decimals."""
    lines = []
    for cid in sorted(polys_by_class):
        for poly in polys_by_class[cid]:
            pts = np.asarray(getattr(poly, "points", poly), dtype=float)
            body = ";".join(f"{x:.6f},{y:.6f}" for x, y in pts.tolist())
            lines.append(f"{cid}\t{body}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_polygons(path) -> dict[int, list[np.ndarray]]:
    out: dict[int, list[np.ndarray]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        try:
            cid_text, body = line.split("\t")
            pts = np.array(
                [[float(v) for v in pair.split(",")] for pair in body.split(";")]
            )
            out.setdefault(int(cid_text), []).append(pts)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed polygon line") from None
    return out
