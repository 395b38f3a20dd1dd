import numpy as np
import pytest
from problem_gen import class_loop_iou

from ctxseg.evaluation import iou_per_class
from ctxseg.regions import Region, VideoSequence


def seq_with_areas(areas):
    regions = [Region(i, 0, np.array([1.0, 0.0]), a, None)
               for i, a in enumerate(areas)]
    return VideoSequence(regions, [])


def test_perfect_prediction_scores_one():
    seq = seq_with_areas([10, 20, 30])
    gt = {0: 1, 1: 2, 2: 0}
    report = iou_per_class(dict(gt), gt, seq)
    assert report.per_class_iou == {1: 1.0, 2: 1.0}
    assert report.mean_iou == 1.0


def test_disjoint_supports_score_zero():
    seq = seq_with_areas([10, 20])
    report = iou_per_class({0: 1, 1: 0}, {0: 0, 1: 1}, seq)
    assert report.per_class_iou[1] == 0.0
    assert report.mean_iou == 0.0


def test_area_weighted_quarter():
    # areas 10, 10, 20: gt = {c, c, bg}, pred = {c, bg, c}
    seq = seq_with_areas([10, 10, 20])
    report = iou_per_class({0: 1, 1: 0, 2: 1}, {0: 1, 1: 1, 2: 0}, seq)
    assert report.per_class_iou[1] == pytest.approx(0.25)
    assert report.mean_iou == pytest.approx(0.25)


def test_background_excluded_from_mean():
    seq = seq_with_areas([10, 10, 10, 10])
    pred = {0: 1, 1: 0, 2: 0, 3: 0}
    gt = {0: 1, 1: 0, 2: 0, 3: 0}
    report = iou_per_class(pred, gt, seq)
    assert 0 not in report.per_class_iou
    assert report.mean_iou == 1.0


def test_mean_over_gt_present_classes_only():
    seq = seq_with_areas([10, 10])
    # class 2 appears only in the prediction: reported but not averaged
    report = iou_per_class({0: 1, 1: 2}, {0: 1, 1: 0}, seq)
    assert report.per_class_iou[2] == 0.0
    assert report.mean_iou == 1.0


def test_empty_ground_truth_rejected():
    seq = seq_with_areas([10])
    with pytest.raises(ValueError):
        iou_per_class({0: 1}, {}, seq)


def test_unknown_gt_region_rejected():
    seq = seq_with_areas([10])
    with pytest.raises(KeyError):
        iou_per_class({0: 1}, {99: 1}, seq)


def test_symmetric_in_pred_and_gt():
    rng = np.random.default_rng(0)
    seq = seq_with_areas(list(rng.integers(1, 50, 12)))
    a = {i: int(rng.integers(0, 4)) for i in range(12)}
    b = {i: int(rng.integers(0, 4)) for i in range(12)}
    ra = iou_per_class(a, b, seq)
    rb = iou_per_class(b, a, seq)
    shared = set(ra.per_class_iou) & set(rb.per_class_iou)
    for c in shared:
        assert ra.per_class_iou[c] == pytest.approx(rb.per_class_iou[c])


def test_invariant_to_region_split():
    # one labeled region vs the same area split in two: identical IoU
    whole = seq_with_areas([40, 60])
    r1 = iou_per_class({0: 1, 1: 1}, {0: 1, 1: 0}, whole)
    split = seq_with_areas([40, 30, 30])
    r2 = iou_per_class({0: 1, 1: 1, 2: 1}, {0: 1, 1: 0, 2: 0}, split)
    assert r1.per_class_iou[1] == pytest.approx(r2.per_class_iou[1])


def test_bounded_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        seq = seq_with_areas(list(rng.integers(1, 9, n)))
        pred = {i: int(rng.integers(0, 4)) for i in range(n)}
        gt = {i: int(rng.integers(0, 4)) for i in range(n)}
        if not gt:
            continue
        report = iou_per_class(pred, gt, seq)
        for v in report.per_class_iou.values():
            assert 0.0 <= v <= 1.0
        assert 0.0 <= report.mean_iou <= 1.0


@pytest.mark.parametrize("seed", range(20))
def test_one_pass_matches_class_loop(seed):
    """Bit for bit against the per-class scan, with ids missing from either map
    and ids that are background in both or in one."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    seq = seq_with_areas(list(rng.integers(1, 10 ** 6, n)))
    L = int(rng.integers(1, 6))
    pred = {i: int(rng.integers(0, L)) for i in range(n) if rng.random() < 0.8}
    gt = {i: int(rng.integers(0, L)) for i in range(n) if rng.random() < 0.8} or {0: 0}
    report = iou_per_class(pred, gt, seq)
    assert report.per_class_iou == class_loop_iou(pred, gt, seq)
    assert list(report.per_class_iou) == sorted(report.per_class_iou)
    assert report.gt_regions == {c: list(gt.values()).count(c) for c in set(gt.values())}
    assert report.pred_regions == {c: list(pred.values()).count(c)
                                   for c in set(pred.values())}


def test_unknown_pred_region_of_class():
    # an unknown id predicted background is never looked up; of a class it raises
    seq = seq_with_areas([10])
    assert iou_per_class({0: 1, 99: 0}, {0: 1}, seq).per_class_iou == {1: 1.0}
    with pytest.raises(KeyError, match="unknown region id 99"):
        iou_per_class({0: 1, 99: 2}, {0: 1}, seq)


def test_report_serialization_and_table():
    seq = seq_with_areas([10, 10])
    report = iou_per_class({0: 1, 1: 0}, {0: 1, 1: 1}, seq)
    assert set(report.to_record()) == {"mean", "per_class"}
    table = report.format_table()
    assert "mean" in table and "class" in table
