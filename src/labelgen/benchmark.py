"""Segmentation benchmark machinery: tasks, mIoU scoring and its report.

Tasks map dataset class ids onto contiguous task labels 1..K; background
stays 0 and anything unmapped (or labeled 255) is ignored. Binary tasks
(K == 1) include background as a scored class, multi-class tasks exclude
it; ``TaskSpec`` sets this per task and ``ConfusionMatrix`` carries it to
``miou``. Per-class IoU uses the usual intersection-over-union of the
confusion matrix, with zero-union classes left out of the mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import ClassTaxonomy, DatasetManifest, IGNORE_LABEL, ManifestEntry, Mask

# (train, test) sizes of the seven standard benchmark tasks
SPLIT_SIZES = {
    "Dog": (657, 1040),
    "Bird": (366, 512),
    "FG/BG": (5294, 8316),
    "MC-16": (1268, 1967),
    "MC-100": (540, 798),
    "MC-128": (5294, 8316),
    "MC-992": (5294, 8316),
}

TASK_NAMES = tuple(SPLIT_SIZES)


@dataclass(frozen=True)
class TaskSpec:
    """A segmentation task: class_id -> task label (unmapped ids are ignored)."""

    name: str
    class_map: dict[int, int]
    num_task_labels: int
    include_background: bool
    expected_split_sizes: tuple[int, int] | None = None

    def __post_init__(self):
        labels = set(self.class_map.values())
        if labels != set(range(1, self.num_task_labels + 1)):
            raise ValueError(
                f"task {self.name!r} labels must be contiguous 1..{self.num_task_labels}"
            )


def build_task(taxonomy: ClassTaxonomy | None, name: str, class_ids=()) -> TaskSpec:
    """Derive a TaskSpec from a taxonomy group table.

    "FG/BG" (or "fgbg") maps every class to task label 1 even without an
    explicit group table; without a taxonomy its classes are ``class_ids``,
    and no other task can be built. Binary tasks include background in the
    mIoU mean; multi-class tasks exclude it.
    """
    if taxonomy is not None and name in taxonomy.groups:
        class_map = dict(taxonomy.groups[name])
    elif name in ("FG/BG", "fgbg"):
        ids = sorted(class_ids) if taxonomy is None else taxonomy.classes
        class_map = {cid: 1 for cid in ids}
    elif taxonomy is None:
        raise ValueError(f"task {name!r} needs a taxonomy")
    else:
        raise ValueError(f"taxonomy has no group table for task {name!r}")
    if not class_map:
        raise ValueError(f"task {name!r} maps no class")
    num_labels = max(class_map.values())
    return TaskSpec(
        name=name,
        class_map=class_map,
        num_task_labels=num_labels,
        include_background=num_labels == 1,
        expected_split_sizes=SPLIT_SIZES.get(name),
    )


class ConfusionMatrix:
    """(K+1) x (K+1) pixel counts with row = ground truth, col = prediction."""

    def __init__(self, num_task_labels: int, include_background: bool = False):
        if num_task_labels < 1:
            raise ValueError("need at least one task label")
        self.num_task_labels = num_task_labels
        self.include_background = include_background
        side = num_task_labels + 1
        self.counts = np.zeros((side, side), dtype=np.int64)
        self.ignored = 0

    @classmethod
    def for_task(cls, task: TaskSpec) -> "ConfusionMatrix":
        return cls(task.num_task_labels, task.include_background)

    @property
    def total_pixels(self) -> int:
        return int(self.counts.sum()) + self.ignored

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.counts.shape != self.counts.shape:
            raise ValueError("cannot merge confusion matrices of different sizes")
        merged = ConfusionMatrix(self.num_task_labels, self.include_background)
        merged.counts = self.counts + other.counts
        merged.ignored = self.ignored + other.ignored
        return merged


def _grid(mask) -> np.ndarray:
    return mask.labels if isinstance(mask, Mask) else np.asarray(mask)


def accumulate(cm: ConfusionMatrix, pred, gt, task: TaskSpec) -> ConfusionMatrix:
    """Add one prediction/ground-truth pair; gt class ids map through the task."""
    pred_grid = _grid(pred).astype(np.int64)
    gt_grid = _grid(gt)
    if pred_grid.shape != gt_grid.shape:
        raise ValueError(f"shape mismatch: pred {pred_grid.shape} vs gt {gt_grid.shape}")
    k = task.num_task_labels
    if pred_grid.min() < 0 or pred_grid.max() > k:
        raise ValueError(f"prediction labels must lie in 0..{k}")
    lut = np.full(256, -1, dtype=np.int64)
    lut[0] = 0
    for cid, label in task.class_map.items():
        if cid < IGNORE_LABEL:
            lut[cid] = label
    mapped = lut[gt_grid.astype(np.int64)]
    valid = mapped >= 0
    cm.ignored += int((~valid).sum())
    flat = mapped[valid] * (k + 1) + pred_grid[valid]
    cm.counts += np.bincount(flat, minlength=(k + 1) ** 2).reshape(k + 1, k + 1)
    return cm


@dataclass(frozen=True)
class IouResult:
    per_class: dict[int, float]
    mean: float


def miou(cm: ConfusionMatrix) -> IouResult:
    """Per-class IoU and its mean; classes with zero union are excluded."""
    if cm.counts.sum() == 0:
        raise ValueError("confusion matrix has no counted pixels")
    start = 0 if cm.include_background else 1
    per_class: dict[int, float] = {}
    diag = np.diag(cm.counts)
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    for label in range(start, cm.num_task_labels + 1):
        union = rows[label] + cols[label] - diag[label]
        if union > 0:
            per_class[label] = float(diag[label] / union)
    if not per_class:
        raise ValueError("no class has a nonzero union")
    return IouResult(per_class=per_class, mean=float(np.mean(list(per_class.values()))))


@dataclass(frozen=True)
class RankResult:
    best: tuple[tuple[int, float], ...]
    worst: tuple[tuple[int, float], ...]


def rank_classes(per_class_iou: dict[int, float], n: int = 5) -> RankResult:
    """Top and bottom n classes by IoU; ties resolve to the smaller class id."""
    if len(per_class_iou) < n:
        raise ValueError(f"need at least {n} scored classes, got {len(per_class_iou)}")
    best = sorted(per_class_iou.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    worst = sorted(per_class_iou.items(), key=lambda kv: (kv[1], kv[0]))[:n]
    return RankResult(best=tuple(best), worst=tuple(worst))


def score(task: TaskSpec, pairs) -> IouResult:
    """mIoU over the matched (prediction, ground truth) mask pairs; none is an error."""
    cm = ConfusionMatrix.for_task(task)
    matched = 0
    for matched, (pred, gt) in enumerate(pairs, 1):
        accumulate(cm, pred, gt, task)
    if matched == 0:
        raise ValueError("no prediction ids matched the ground-truth manifest")
    return miou(cm)


def _label_name(task: TaskSpec, taxonomy: ClassTaxonomy | None, label: int) -> str:
    if label == 0:
        return "background"
    members = [cid for cid, l in task.class_map.items() if l == label]
    if len(members) == 1 and taxonomy is not None:
        return taxonomy.classes.get(members[0], f"label_{label}")
    if task.num_task_labels == 1:
        return "foreground"
    return f"group_{label}"


def report_lines(result: IouResult, task: TaskSpec, taxonomy: ClassTaxonomy | None) -> list[str]:
    """Each scored label's IoU row, the mean, then the five best and worst labels."""
    def row(label: int, iou: float) -> str:
        return f"{label}\t{_label_name(task, taxonomy, label)}\t{iou:.6f}"
    lines = [row(label, result.per_class[label]) for label in sorted(result.per_class)]
    lines.append(f"mIoU\t{result.mean:.6f}")
    ranks = rank_classes(result.per_class, n=min(5, len(result.per_class)))
    for heading, ranked in (("top-5 best", ranks.best), ("top-5 worst", ranks.worst)):
        lines.append(heading)
        lines.extend(f"  {row(label, iou)}" for label, iou in ranked)
    return lines


def task_split_sizes(task: TaskSpec, manifest: DatasetManifest) -> int:
    """Number of manifest entries whose class participates in the task."""
    return sum(1 for entry in manifest.entries if entry.class_id in task.class_map)


# --------------------------------------------------------------------------
# reference benchmark fixture
# --------------------------------------------------------------------------
# A structural stand-in for the full 1000-class benchmark: group tables and
# per-class image counts are synthetic, but the split totals per task are the
# published benchmark sizes, so split accounting can be validated exactly.

_DOG_IDS = range(1, 119)          # 118 classes
_BIRD_IDS = range(119, 178)       # 59 classes
_MC16_IDS = range(178, 194)       # 16 classes
_MC100_IDS = range(194, 294)      # 100 classes
_OTHER_IDS = range(294, 993)      # 699 classes
_EXCLUDED_IDS = range(993, 1001)  # 8 classes the synthesis source handles poorly


def _spread(total: int, ids) -> dict[int, int]:
    ids = list(ids)
    base, extra = divmod(total, len(ids))
    return {cid: base + (1 if i < extra else 0) for i, cid in enumerate(ids)}


def reference_taxonomy() -> ClassTaxonomy:
    classes: dict[int, str] = {}
    for cid in _DOG_IDS:
        classes[cid] = f"dog_{cid:04d}"
    for cid in _BIRD_IDS:
        classes[cid] = f"bird_{cid:04d}"
    for cid in _MC16_IDS:
        classes[cid] = f"common_{cid:04d}"
    for cid in _MC100_IDS:
        classes[cid] = f"sampled_{cid:04d}"
    for cid in _OTHER_IDS:
        classes[cid] = f"other_{cid:04d}"
    for cid in _EXCLUDED_IDS:
        classes[cid] = f"excluded_{cid:04d}"
    groups = {
        "Dog": {cid: 1 for cid in _DOG_IDS},
        "Bird": {cid: 1 for cid in _BIRD_IDS},
        "FG/BG": {cid: 1 for cid in classes},
        "MC-16": {cid: i + 1 for i, cid in enumerate(_MC16_IDS)},
        "MC-100": {cid: i + 1 for i, cid in enumerate(_MC100_IDS)},
        "MC-128": {cid: (cid - 1) % 128 + 1 for cid in classes},
        "MC-992": {cid: cid for cid in range(1, 993)},
    }
    return ClassTaxonomy(classes=classes, groups=groups)


def _reference_counts(split: str) -> dict[int, int]:
    if split == "train":
        dog, bird, mc16, mc100 = 657, 366, 1268, 540
        total = SPLIT_SIZES["FG/BG"][0]
    else:
        dog, bird, mc16, mc100 = 1040, 512, 1967, 798
        total = SPLIT_SIZES["FG/BG"][1]
    counts: dict[int, int] = {}
    counts.update(_spread(dog, _DOG_IDS))
    counts.update(_spread(bird, _BIRD_IDS))
    counts.update(_spread(mc16, _MC16_IDS))
    counts.update(_spread(mc100, _MC100_IDS))
    counts.update(_spread(total - dog - bird - mc16 - mc100, _OTHER_IDS))
    counts.update({cid: 0 for cid in _EXCLUDED_IDS})
    return counts


def reference_manifest(split: str) -> DatasetManifest:
    """Synthetic train or test manifest matching the benchmark split totals."""
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")
    provenance = "synthetic-annotated" if split == "train" else "real-annotated"
    entries = []
    index = 0
    for cid, count in sorted(_reference_counts(split).items()):
        for _ in range(count):
            sid = f"{split}-{index:05d}"
            entries.append(
                ManifestEntry(
                    id=sid,
                    class_id=cid,
                    image_path=f"images/{sid}.ppm",
                    mask_path=f"masks/{sid}.pgm",
                    provenance=provenance,
                )
            )
            index += 1
    return DatasetManifest(name=f"benchmark-{split}", entries=tuple(entries))
