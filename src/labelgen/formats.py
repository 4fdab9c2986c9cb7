"""Domain types and on-disk formats shared by every other module.

Masks are binary PGM (P5, maxval 255): label 0 is background, 255 is the
ignore label, 1..254 are foreground class ids. Images are binary PPM (P6).
Embedding sets use a tiny binary container ("EMB1" magic, little-endian
uint32 n and d, then n*d little-endian float32 values, row-major). Every
text format is UTF-8; dataset manifests have a fixed tab-separated column
order so they stream and diff cleanly. ``LabeledSample`` (in memory) and
``ManifestEntry`` (on disk) share one ``SampleRecord`` of fields and checks.

Masks and images are read and written by ``_read_netpbm`` and ``_write_netpbm``,
every text file by ``read_lines`` and ``write_lines``; read errors name the file.

All types are immutable after construction. Each array a type holds is an
owned, read-only copy made by ``_frozen_array``: the caller's array is never
shared or frozen, and instances can be shared freely between threads.
"""
from __future__ import annotations

import math
import re
import struct
from operator import attrgetter
from dataclasses import dataclass, field, fields
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


def file_error(exc: ValueError, path, lineno: int | None = None) -> FormatError:
    """``exc`` led by ``path`` or ``path:lineno``, as a FormatError unless it is one already."""
    where = path if lineno is None else f"{path}:{lineno}"
    return (type(exc) if isinstance(exc, FormatError) else FormatError)(f"{where}: {exc}")


def _check_text(what: str, text: str, breaks=_FIELD_BREAKS) -> None:
    """Reject text that would not read back as one field of one line."""
    if not breaks.isdisjoint(text):
        raise FormatError(f"{what} {text!r} would not read back: it breaks the line or field")


def _frozen_array(obj, name, value, dtype=None):
    """Store on ``obj`` an owned, C-contiguous, read-only copy of ``value``,
    converted to ``dtype`` in the same copy, and return it."""
    arr = np.array(value, dtype=dtype, order="C")
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def _uint8_grid(obj, name: str, channels: tuple[int, ...] = ()) -> None:
    """Store ``obj.<name>`` as a uint8 grid of shape (h, w, *channels), h and
    w >= 1. A value a uint8 does not hold exactly (negative, above 255,
    fractional or NaN) is rejected, not wrapped or truncated."""
    what = f"{type(obj).__name__.lower()} {name}"
    arr = np.asarray(getattr(obj, name))
    if arr.ndim < 2 or arr.shape[2:] != channels or 0 in arr.shape:
        form = ", ".join(["h", "w", *map(str, channels)])
        raise ValueError(f"{what} must have shape ({form}), h and w >= 1, got {arr.shape}")
    if arr.dtype != np.uint8 and not (((arr >= 0) & (arr <= 255)).all()
                                      and (arr == arr.astype(np.uint8)).all()):
        raise ValueError(f"{what} must be integers in 0..255")
    _frozen_array(obj, name, arr, np.uint8)


@dataclass(frozen=True, eq=False)
class Mask:
    """Per-pixel label grid; shape (height, width), dtype uint8."""

    labels: np.ndarray

    def __post_init__(self):
        _uint8_grid(self, "labels")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def foreground(self) -> np.ndarray:
        """Boolean grid of foreground pixels (neither background nor ignore)."""
        return (self.labels != 0) & (self.labels != IGNORE_LABEL)


@dataclass(frozen=True, eq=False)
class Image:
    """8-bit RGB image; data shape (height, width, 3)."""

    data: np.ndarray

    def __post_init__(self):
        _uint8_grid(self, "data", (3,))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


# a base only, never built itself: each subclass makes its own __init__,
# __repr__ and __eq__, so making them here too would only slow the import
@dataclass(frozen=True, kw_only=True, init=False, repr=False, eq=False)
class SampleRecord:
    """The fields a sample carries in memory and on disk, checked once.

    ``confidence`` and ``uncertainty`` are optional scores attached by a
    classifier and an ensemble respectively; ``latent_seed`` records the
    generator input for synthetic provenance and may be absent for real data.
    The id must read back as one manifest field that is not a metadata line.
    """

    id: str
    class_id: int
    provenance: str
    latent_seed: int | None = None
    confidence: float | None = None
    uncertainty: float | None = None

    def __post_init__(self):
        if not self.id:
            raise MissingFieldError("sample id is empty")
        _check_text("sample id", self.id)
        if self.id.startswith("#"):
            raise FormatError(f"sample id {self.id!r} starts with '#', as metadata lines do")
        if not 1 <= self.class_id <= 1000:
            raise ValueError(f"class_id {self.class_id} outside 1..1000")
        if self.provenance not in PROVENANCE_TAGS:
            raise UnknownProvenanceError(f"unknown provenance {self.provenance!r}")
        if self.latent_seed is not None and not 0 <= self.latent_seed < 2**64:
            raise ValueError(f"latent_seed {self.latent_seed} must fit in 64 unsigned bits")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.uncertainty is not None and not self.uncertainty >= 0:
            raise ValueError(f"uncertainty {self.uncertainty} must be nonnegative")

    def record_fields(self) -> dict:
        """The ``SampleRecord`` fields by name, to build another record type."""
        return {f.name: getattr(self, f.name) for f in fields(SampleRecord)}


@dataclass(frozen=True, kw_only=True)
class LabeledSample(SampleRecord):
    """A sample record with its image/mask pair.

    ``image`` and ``mask`` may be None when only metadata travels (the pixel
    payloads then live behind manifest paths).
    """

    image: Image | None = None
    mask: Mask | None = None

    def __post_init__(self):
        super().__post_init__()
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
        if not self.classes:
            raise ValueError("taxonomy has no classes")
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


@dataclass(frozen=True, kw_only=True)
class ManifestEntry(SampleRecord):
    """One dataset record: a sample record plus relative paths to its pixel files."""

    image_path: str
    mask_path: str

    def __post_init__(self):
        super().__post_init__()
        for name in ("image_path", "mask_path"):
            path = getattr(self, name)
            if not path:
                raise MissingFieldError(f"manifest entry field {name!r} is empty")
            _check_text(f"manifest entry {name}", path)
            if path.startswith("/") or ".." in path.split("/"):
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


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """n x d matrix of per-image embeddings, n >= 2, all values finite (else FormatError)."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.ndim != 2:
            raise FormatError(f"embeddings must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise FormatError(f"embedding set needs n >= 2 rows, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise FormatError("embedding dimension must be >= 1")
        with np.errstate(invalid="ignore"):  # a signalling NaN flags as it is cast
            rows = _frozen_array(self, "rows", arr, np.float64)
        if not np.isfinite(rows).all():
            raise NonFiniteError("embedding set contains non-finite values")

    @property
    def count(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


# --------------------------------------------------------------------------
# netpbm (PGM P5 / PPM P6)
# --------------------------------------------------------------------------

# after the magic: width, height and maxval, each led by whitespace and '#'
# comment lines; width and height end at whitespace, maxval's is checked apart
_FIELD = rb"(?:\s|#.*\n)*([^\s#]\S*)"
_NETPBM_HEADER = re.compile(_FIELD + rb"\s" + _FIELD + rb"\s" + _FIELD)


def _parse_netpbm(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    """Parse a binary netpbm header, returning (width, height, payload offset)."""
    if not data.startswith(magic):
        raise MalformedHeaderError(f"{path}: expected {magic.decode()} magic")
    header = _NETPBM_HEADER.match(data, len(magic))
    if header is None:
        raise MalformedHeaderError(f"{path}: header ended early")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:
        raise MalformedHeaderError(f"{path}: non-integer header field") from None
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"{path}: dimensions must be >= 1")
    if maxval != 255:
        raise MaxvalError(f"{path}: maxval must be 255, got {maxval}")
    end = header.end()
    if not data[end : end + 1].isspace():
        raise MalformedHeaderError(f"{path}: missing whitespace after maxval")
    return width, height, end + 1


def _read_netpbm(path, magic: bytes, *channels: int) -> np.ndarray:
    """The (height, width, *channels) uint8 payload of a binary netpbm file,
    a read-only view of the bytes read."""
    data = Path(path).read_bytes()
    width, height, offset = _parse_netpbm(data, magic, path)
    expected = width * height * math.prod(channels)
    size = len(data) - offset
    if size < expected:
        raise TruncatedPayloadError(f"{path}: payload has {size} bytes, expected {expected}")
    if size > expected:
        raise FormatError(f"{path}: {size - expected} trailing bytes")
    return np.frombuffer(data, np.uint8, offset=offset).reshape(height, width, *channels)


def _write_netpbm(path, magic: bytes, pixels: np.ndarray) -> None:
    """Write a binary netpbm file of maxval 255 holding ``pixels`` row-major."""
    height, width = pixels.shape[:2]
    Path(path).write_bytes(b"%s\n%d %d\n255\n" % (magic, width, height) + pixels.tobytes())


def read_mask(path) -> Mask:
    """Read a binary PGM (P5, maxval 255) label grid."""
    return Mask(_read_netpbm(path, b"P5"))


def write_mask(mask: Mask, path) -> None:
    _write_netpbm(path, b"P5", mask.labels)


def read_image(path) -> Image:
    """Read a binary PPM (P6, maxval 255) RGB image."""
    return Image(_read_netpbm(path, b"P6", 3))


def write_image(image: Image, path) -> None:
    _write_netpbm(path, b"P6", image.data)


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
    n, d = struct.unpack_from("<II", data, 4)
    if len(data) - 12 != 4 * n * d:
        raise SizeMismatchError(f"{path}: declared {n}x{d} needs {4 * n * d} payload bytes, "
                                f"got {len(data) - 12}")
    try:
        return EmbeddingSet(np.frombuffer(data, "<f4", offset=12).reshape(n, d))
    except FormatError as exc:  # the set's own checks
        raise file_error(exc, path) from None


def write_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write an EMB1 file; values beyond the float32 range are rejected, not
    stored as infinities."""
    with np.errstate(over="ignore"):
        rows = embeddings.rows.astype("<f4")
    if not np.isfinite(rows).all():
        raise NonFiniteError("embedding values exceed the float32 range of EMB1")
    Path(path).write_bytes(EMBEDDING_MAGIC + struct.pack("<II", *rows.shape) + rows.tobytes())


# --------------------------------------------------------------------------
# text lines and manifests
# --------------------------------------------------------------------------

def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without their line breaks."""
    try:
        return Path(path).read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: cannot decode byte {exc.start} as UTF-8") from None


def write_lines(lines, path) -> None:
    """Write each line with a trailing newline; no lines make an empty file."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _optional(parse):
    return lambda text: None if text == "-" else parse(text)


# the columns of an entry line, in order, each with the parser of its text;
# an absent optional value is written and read as "-"
_MANIFEST_COLUMNS = (
    ("id", str),
    ("class_id", int),
    ("image_path", str),
    ("mask_path", str),
    ("provenance", str),
    ("latent_seed", _optional(int)),
    ("confidence", _optional(float)),
    ("uncertainty", _optional(float)),
)


def _format_field(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # a numpy scalar's own repr names its type
    return str(value)


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"{MANIFEST_MAGIC} {manifest.name}"]
    for key, value in manifest.metadata.items():
        lines.append(f"#{key}={value}")
    columns = attrgetter(*(name for name, _ in _MANIFEST_COLUMNS))
    for e in manifest.entries:
        lines.append("\t".join(map(_format_field, columns(e))))
    write_lines(lines, path)


def read_manifest(path) -> DatasetManifest:
    """Parse a manifest; errors carry the file name and 1-based line number."""
    lines = read_lines(path)
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
            if key in metadata:
                raise FormatError(f"{path}:{lineno}: repeated metadata key {key!r}")
            metadata[key] = value
            continue
        texts = line.split("\t")
        if len(texts) != len(_MANIFEST_COLUMNS):
            raise MissingFieldError(f"{path}:{lineno}: expected {len(_MANIFEST_COLUMNS)} "
                                    f"tab-separated fields, got {len(texts)}")
        if texts[0] in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate sample id {texts[0]!r}")
        seen.add(texts[0])
        try:
            entry = ManifestEntry(**{name: parse(text) for (name, parse), text
                                     in zip(_MANIFEST_COLUMNS, texts)})
        except ValueError as exc:
            raise file_error(exc, path, lineno) from None
        entries.append(entry)
    return DatasetManifest(name=name, entries=tuple(entries), metadata=metadata)


# --------------------------------------------------------------------------
# taxonomies
# --------------------------------------------------------------------------

def write_taxonomy(taxonomy: ClassTaxonomy, path) -> None:
    """Serialize as 'class<TAB>id<TAB>name' and 'group<TAB>task<TAB>id<TAB>label' lines."""
    lines = [f"class\t{cid}\t{taxonomy.classes[cid]}" for cid in sorted(taxonomy.classes)]
    lines += [f"group\t{task}\t{cid}\t{table[cid]}"
              for task, table in sorted(taxonomy.groups.items()) for cid in sorted(table)]
    write_lines(lines, path)


def read_taxonomy(path) -> ClassTaxonomy:
    classes: dict[int, str] = {}
    groups: dict[str, dict[int, int]] = {}
    for lineno, line in enumerate(read_lines(path), 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if (fields[0], len(fields)) not in (("class", 3), ("group", 4)):
            raise FormatError(f"{path}:{lineno}: unrecognized taxonomy line")
        try:
            if fields[0] == "class":
                table, key, value = classes, int(fields[1]), fields[2]
            else:
                table = groups.setdefault(fields[1], {})
                key, value = int(fields[2]), int(fields[3])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer id field") from None
        if key in table:
            what = "class id" if table is classes else f"task {fields[1]!r} row of class"
            raise FormatError(f"{path}:{lineno}: repeated {what} {key}")
        table[key] = value
    try:
        return ClassTaxonomy(classes=classes, groups=groups)
    except ValueError as exc:
        raise file_error(exc, path) from None


# --------------------------------------------------------------------------
# polygons
# --------------------------------------------------------------------------

def write_polygons(polys_by_class: dict[int, list[np.ndarray]], path) -> None:
    """One polygon per line: class_id<TAB>x1,y1;x2,y2;... with 6 decimals."""
    lines = []
    for cid in sorted(polys_by_class):
        for poly in polys_by_class[cid]:
            pts = np.asarray(getattr(poly, "points", poly), dtype=float)
            body = ";".join(f"{x:.6f},{y:.6f}" for x, y in pts.tolist())
            lines.append(f"{cid}\t{body}")
    write_lines(lines, path)


def read_polygons(path) -> dict[int, list[np.ndarray]]:
    out: dict[int, list[np.ndarray]] = {}
    for lineno, line in enumerate(read_lines(path), 1):
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
