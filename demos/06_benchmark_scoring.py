"""
Segmentation benchmark scoring
==============================

Task construction from a taxonomy, scoring of (prediction, ground truth)
mask pairs into per-class IoU, best/worst ranking, plus the reference
split-size accounting.
"""
import numpy as np

from labelgen.benchmark import (
    SPLIT_SIZES,
    build_task,
    rank_classes,
    reference_manifest,
    reference_taxonomy,
    score,
    task_split_sizes,
)
from labelgen.formats import Mask
from labelgen.toygen import toy_taxonomy

# a 4-class toy taxonomy ships a "family" grouping; predictions are noisy
taxonomy, _ = toy_taxonomy(4, seed=0)
task = build_task(taxonomy, "family")
print(f"task {task.name}: {task.num_task_labels} labels, "
      f"background {'included' if task.include_background else 'excluded'}")

rng = np.random.default_rng(0)
pairs = []
for class_id in (1, 2, 3, 4):
    gt = np.zeros((32, 32), dtype=np.uint8)
    gt[8:24, 8:24] = class_id
    pred = np.where(gt > 0, task.class_map[class_id], 0)
    flip = rng.random(pred.shape) < 0.07  # 7% label noise
    pred = np.where(flip, rng.integers(0, 5, pred.shape), pred)
    pairs.append((pred, Mask(gt)))

result = score(task, pairs)
for label, iou in sorted(result.per_class.items()):
    print(f"  label {label}: IoU {iou:.4f}")
print(f"mIoU: {result.mean:.4f}")

ranks = rank_classes(result.per_class, n=2)
print(f"best 2:  {ranks.best}")
print(f"worst 2: {ranks.worst}")

# the reference benchmark fixture reproduces the published split totals
print("\nreference split sizes (train/test):")
ref_taxonomy = reference_taxonomy()
train = reference_manifest("train")
test = reference_manifest("test")
for name in SPLIT_SIZES:
    t = build_task(ref_taxonomy, name)
    sizes = (task_split_sizes(t, train), task_split_sizes(t, test))
    print(f"  {name:7s} {sizes[0]:5d} / {sizes[1]:5d}   (expected {SPLIT_SIZES[name]})")
