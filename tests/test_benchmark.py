import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from labelgen.benchmark import (
    SPLIT_SIZES,
    TASK_NAMES,
    ConfusionMatrix,
    IouResult,
    TaskSpec,
    accumulate,
    build_task,
    miou,
    rank_classes,
    reference_manifest,
    reference_taxonomy,
    report_lines,
    score,
    task_split_sizes,
)
from labelgen.formats import ClassTaxonomy, Mask
from labelgen.toygen import toy_taxonomy

from .oracles import pixel_iou


def test_build_task_fgbg_binary_collapse():
    taxonomy = reference_taxonomy()
    task = build_task(taxonomy, "FG/BG")
    assert task.num_task_labels == 1
    assert set(task.class_map.values()) == {1}
    assert len(task.class_map) == 1000
    assert task.include_background


def test_build_task_toy_family():
    taxonomy, _ = toy_taxonomy(4, seed=0)
    task = build_task(taxonomy, "family")
    assert task.num_task_labels == 4
    assert not task.include_background


def test_build_task_dog_covers_118_classes():
    task = build_task(reference_taxonomy(), "Dog")
    assert len(task.class_map) == 118
    assert task.num_task_labels == 1
    assert task.expected_split_sizes == (657, 1040)


def test_build_task_unknown_name():
    taxonomy, _ = toy_taxonomy(4, seed=0)
    with pytest.raises(ValueError):
        build_task(taxonomy, "MC-999")


def test_build_task_without_taxonomy_only_fgbg():
    task = build_task(None, "fgbg", {7, 3})
    assert task.class_map == {3: 1, 7: 1}
    assert task.num_task_labels == 1 and task.include_background
    with pytest.raises(ValueError, match="needs a taxonomy"):
        build_task(None, "family", {7, 3})


def _binary_task():
    return TaskSpec(
        name="fgbg", class_map={1: 1}, num_task_labels=1, include_background=True
    )


def test_accumulate_perfect_prediction_diagonal():
    task = _binary_task()
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.array([[1, 1], [0, 0]], dtype=np.uint8))
    pred = np.array([[1, 1], [0, 0]])
    accumulate(cm, pred, gt, task)
    assert cm.counts[0, 0] == 2 and cm.counts[1, 1] == 2
    assert cm.counts.sum() == 4 and cm.ignored == 0


def test_accumulate_all_ignore():
    task = _binary_task()
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.full((3, 3), 255, dtype=np.uint8))
    accumulate(cm, np.zeros((3, 3), dtype=int), gt, task)
    assert cm.counts.sum() == 0
    assert cm.ignored == 9
    assert cm.total_pixels == 9


def test_accumulate_hand_fixture():
    task = _binary_task()
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.array([[1, 1], [0, 0]], dtype=np.uint8))
    pred = np.array([[1, 0], [0, 0]])
    accumulate(cm, pred, gt, task)
    assert cm.counts[1, 1] == 1
    assert cm.counts[1, 0] == 1
    assert cm.counts[0, 0] == 2


def test_accumulate_rejects_bad_pred_labels():
    task = _binary_task()
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        accumulate(cm, np.full((2, 2), 7), gt, task)
    with pytest.raises(ValueError):
        accumulate(cm, np.zeros((3, 2), dtype=int), gt, task)


def test_miou_perfect_is_one():
    task = _binary_task()
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.array([[1, 0], [1, 0]], dtype=np.uint8))
    accumulate(cm, gt.labels.astype(int), gt, task)
    assert miou(cm).mean == 1.0


def test_miou_hand_fixture():
    task = _binary_task()
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.array([[1, 1], [0, 0]], dtype=np.uint8))
    accumulate(cm, np.array([[1, 0], [0, 0]]), gt, task)
    result = miou(cm)
    assert result.per_class[0] == pytest.approx(2 / 3)
    assert result.per_class[1] == pytest.approx(1 / 2)
    assert result.mean == pytest.approx(0.58333, abs=1e-5)


def test_miou_all_background_prediction():
    task = _binary_task()
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.ones((2, 2), dtype=np.uint8))
    accumulate(cm, np.zeros((2, 2), dtype=int), gt, task)
    assert miou(cm).per_class[1] == 0.0


def test_miou_excludes_zero_union_classes():
    task = TaskSpec(name="mc", class_map={1: 1, 2: 2, 3: 3},
                    num_task_labels=3, include_background=False)
    cm = ConfusionMatrix.for_task(task)
    gt = Mask(np.array([[1, 2], [0, 0]], dtype=np.uint8))
    accumulate(cm, np.array([[1, 2], [0, 0]]), gt, task)
    result = miou(cm)
    assert 3 not in result.per_class
    assert result.mean == 1.0


def test_miou_matches_pixel_oracle():
    rng = np.random.default_rng(0)
    class_map = {1: 1, 2: 2, 3: 3}
    for trial in range(500):
        include_background = bool(trial % 2)
        task = TaskSpec(name="t", class_map=dict(class_map), num_task_labels=3,
                        include_background=include_background)
        gt = rng.choice([0, 1, 2, 3, 255], size=(8, 8), p=[0.3, 0.25, 0.2, 0.15, 0.1])
        pred = rng.integers(0, 4, size=(8, 8))
        cm = ConfusionMatrix.for_task(task)
        accumulate(cm, pred, Mask(gt.astype(np.uint8)), task)
        expected = pixel_iou(pred, gt, class_map, 3, include_background)
        if not expected:
            continue
        result = miou(cm)
        assert set(result.per_class) == set(expected)
        for label, value in expected.items():
            assert result.per_class[label] == pytest.approx(value, abs=1e-12)
        assert result.mean == pytest.approx(np.mean(list(expected.values())), abs=1e-12)


def test_accumulate_partition_invariant():
    rng = np.random.default_rng(1)
    task = TaskSpec(name="t", class_map={1: 1, 2: 2}, num_task_labels=2,
                    include_background=False)
    samples = []
    for _ in range(200):
        gt = Mask(rng.choice([0, 1, 2, 255], size=(6, 6)).astype(np.uint8))
        pred = rng.integers(0, 3, size=(6, 6))
        samples.append((pred, gt))
    reference = ConfusionMatrix.for_task(task)
    for pred, gt in samples:
        accumulate(reference, pred, gt, task)
    for _ in range(10):
        order = rng.permutation(len(samples))
        cut = int(rng.integers(1, len(samples)))
        part_a = ConfusionMatrix.for_task(task)
        part_b = ConfusionMatrix.for_task(task)
        for i in order[:cut]:
            accumulate(part_a, *samples[i], task)
        for i in order[cut:]:
            accumulate(part_b, *samples[i], task)
        merged = part_a.merge(part_b)
        np.testing.assert_array_equal(merged.counts, reference.counts)
        assert merged.ignored == reference.ignored


def test_miou_invariant_under_label_permutation():
    rng = np.random.default_rng(2)
    task = TaskSpec(name="t", class_map={1: 1, 2: 2, 3: 3}, num_task_labels=3,
                    include_background=False)
    gt = rng.choice([0, 1, 2, 3], size=(10, 10)).astype(np.uint8)
    pred = rng.integers(0, 4, size=(10, 10))
    cm = ConfusionMatrix.for_task(task)
    accumulate(cm, pred, Mask(gt), task)
    base = miou(cm)
    perm = {1: 3, 2: 1, 3: 2}
    gt_p = gt.copy()
    pred_p = pred.copy()
    for old, new in perm.items():
        gt_p[gt == old] = new
        pred_p[pred == old] = new
    cm_p = ConfusionMatrix.for_task(task)
    accumulate(cm_p, pred_p, Mask(gt_p), task)
    permuted = miou(cm_p)
    assert permuted.mean == pytest.approx(base.mean, abs=1e-12)
    assert sorted(permuted.per_class.values()) == pytest.approx(
        sorted(base.per_class.values()), abs=1e-12
    )


def test_rank_classes_ordering_and_ties():
    scores = {1: 0.9, 2: 0.1, 3: 0.9, 4: 0.5, 5: 0.3, 6: 0.1}
    ranks = rank_classes(scores, n=2)
    assert ranks.best == ((1, 0.9), (3, 0.9))
    assert ranks.worst == ((2, 0.1), (6, 0.1))
    with pytest.raises(ValueError):
        rank_classes({1: 0.5}, n=5)


def test_rank_classes_distinct_fixture():
    scores = {i: i / 10 for i in range(1, 11)}
    ranks = rank_classes(scores, n=5)
    assert [cid for cid, _ in ranks.best] == [10, 9, 8, 7, 6]
    assert [cid for cid, _ in ranks.worst] == [1, 2, 3, 4, 5]


@st.composite
def _task_and_pairs(draw):
    """A task of 1..3 labels over class ids 1..4 and 1..4 in-memory mask pairs
    of any sizes; ground truths hold unmapped ids and 255 as well."""
    k = draw(st.integers(1, 3))
    class_map = {cid: (cid - 1) % k + 1 for cid in range(1, draw(st.integers(k, 4)) + 1)}
    task = TaskSpec(name="t", class_map=class_map, num_task_labels=k,
                    include_background=draw(st.booleans()))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        gt = draw(arrays(np.uint8, shape, elements=st.sampled_from([0, 1, 2, 3, 4, 255])))
        pred = draw(arrays(np.int64, shape, elements=st.integers(0, k)))
        pairs.append((pred, Mask(gt)))
    return task, pairs


@settings(max_examples=200, deadline=None)
@given(_task_and_pairs())
def test_score_matches_pixel_oracle_over_pairs(task_and_pairs):
    # pixel IoU over several pairs is the IoU over their pixels pooled
    task, pairs = task_and_pairs
    pred = np.concatenate([p.ravel() for p, _ in pairs])
    gt = np.concatenate([g.labels.ravel() for _, g in pairs])
    expected = pixel_iou(pred, gt, task.class_map, task.num_task_labels,
                         task.include_background)
    if not expected:
        with pytest.raises(ValueError):
            score(task, iter(pairs))
        return
    result = score(task, iter(pairs))
    assert result.per_class == expected
    assert result.mean == np.mean(list(expected.values()))


def test_score_without_pairs_raises():
    task = build_task(None, "FG/BG", {1, 2})
    with pytest.raises(ValueError, match="no prediction ids matched the ground-truth manifest"):
        score(task, [])


def test_report_lines_of_the_pinned_fgbg_report():
    # the two-label report test_cli pins for bench --task FG/BG
    task = build_task(None, "FG/BG", {1, 2, 3, 4})
    result = IouResult(per_class={0: 0.961288, 1: 0.782637}, mean=0.871962)
    assert report_lines(result, task, None) == [
        "0\tbackground\t0.961288", "1\tforeground\t0.782637", "mIoU\t0.871962",
        "top-5 best", "  0\tbackground\t0.961288", "  1\tforeground\t0.782637",
        "top-5 worst", "  1\tforeground\t0.782637", "  0\tbackground\t0.961288",
    ]


def test_report_lines_names_a_two_member_label_as_a_group():
    taxonomy = ClassTaxonomy(classes={1: "cat", 2: "lynx", 3: "dog"},
                             groups={"pets": {1: 1, 2: 1, 3: 2}})
    task = build_task(taxonomy, "pets")
    result = IouResult(per_class={1: 0.5, 2: 0.25}, mean=0.375)
    assert report_lines(result, task, taxonomy)[:3] == [
        "1\tgroup_1\t0.500000", "2\tdog\t0.250000", "mIoU\t0.375000",
    ]


def test_reference_split_sizes_match_published_table():
    taxonomy = reference_taxonomy()
    train = reference_manifest("train")
    test = reference_manifest("test")
    assert len(train) == 5294 and len(test) == 8316
    for name in TASK_NAMES:
        task = build_task(taxonomy, name)
        assert (task_split_sizes(task, train), task_split_sizes(task, test)) == SPLIT_SIZES[name], name


def test_reference_taxonomy_group_shapes():
    taxonomy = reference_taxonomy()
    assert len(taxonomy.classes) == 1000
    assert len(taxonomy.groups["Dog"]) == 118
    assert len(taxonomy.groups["Bird"]) == 59
    assert len(taxonomy.groups["MC-16"]) == 16
    assert len(taxonomy.groups["MC-100"]) == 100
    assert len(taxonomy.groups["MC-992"]) == 992
    assert max(taxonomy.groups["MC-128"].values()) == 128
