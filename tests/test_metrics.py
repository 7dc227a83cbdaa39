import numpy as np
import pytest

from panemo import metrics
from panemo.errors import ShapeError
from panemo.textprep import EMOTIONS
from panemo.verify import brute_force_f1, brute_force_jaccard


class TestThreshold:
    def test_exactly_at_tau_is_negative(self):
        assert metrics.threshold(np.array([[0.5]]), 0.5)[0, 0] == 0

    def test_strictly_above(self):
        assert metrics.threshold(np.array([[0.51]]), 0.5)[0, 0] == 1

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        scores = rng.random((20, 11))
        lo = metrics.threshold(scores, 0.3)
        hi = metrics.threshold(scores, 0.7)
        assert np.all(hi <= lo)

    def test_tau_range(self):
        scores = np.array([[0.0, 0.5, 1.0]])
        assert metrics.threshold(scores, 0).tolist() == [[0, 1, 1]]
        assert metrics.threshold(scores, 1).tolist() == [[0, 0, 0]]
        for tau in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                metrics.threshold(scores, tau)


class TestJaccard:
    def test_identity(self):
        rng = np.random.default_rng(1)
        gold = rng.integers(0, 2, (10, 11))
        assert metrics.jaccard_accuracy(gold, gold) == 1.0

    def test_disjoint(self):
        pred = np.array([[1, 0, 0]])
        gold = np.array([[0, 1, 1]])
        assert metrics.jaccard_accuracy(pred, gold) == 0.0

    def test_half_overlap_and_mean(self):
        # example 1: pred {joy} vs gold {joy, anger} -> 0.5; example 2 exact -> 1
        joy, anger = EMOTIONS.index("joy"), EMOTIONS.index("anger")
        pred = np.zeros((2, 11), dtype=int)
        gold = np.zeros((2, 11), dtype=int)
        pred[0, joy] = 1
        gold[0, joy] = gold[0, anger] = 1
        pred[1, 3] = gold[1, 3] = 1
        assert metrics.jaccard_accuracy(pred, gold) == 0.75

    def test_empty_empty_scores_one(self):
        assert metrics.jaccard_accuracy(np.zeros((1, 11)), np.zeros((1, 11))) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.jaccard_accuracy(np.zeros((1, 11)), np.zeros((2, 11)))


class TestF1:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(2)
        gold = rng.integers(0, 2, (30, 11))
        gold[0] = 1  # make every class present
        micro, macro, per_class = metrics.f1_scores(gold, gold)
        assert micro == 1.0 and macro == 1.0
        assert all(f1 == 1.0 for _, _, f1, _ in per_class)

    def test_all_negative_predictions(self):
        gold = np.ones((5, 11), dtype=int)
        micro, macro, _ = metrics.f1_scores(np.zeros_like(gold), gold)
        assert micro == 0.0 and macro == 0.0

    def test_hand_built_confusion_counts(self):
        # 4 examples x 3 active classes, counted against the brute-force oracle
        pred = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
        gold = np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1], [0, 0, 1]])
        micro, macro, per_class = metrics.f1_scores(pred, gold)
        bf_micro, bf_macro = brute_force_f1(pred.tolist(), gold.tolist())
        assert abs(micro - bf_micro) < 1e-12
        assert abs(macro - bf_macro) < 1e-12
        # class 0: TP=1 FP=1 FN=0 -> P=0.5 R=1 F1=2/3
        p, r, f1, support = per_class[0]
        assert (p, r, support) == (0.5, 1.0, 1)
        assert abs(f1 - 2 / 3) < 1e-12

    def test_zero_support_class_scores_zero(self):
        pred = np.zeros((3, 2), dtype=int)
        gold = np.zeros((3, 2), dtype=int)
        gold[:, 0] = 1
        pred[:, 0] = 1
        _, macro, per_class = metrics.f1_scores(pred, gold)
        assert per_class[1][2] == 0.0  # never predicted, never gold
        assert macro == 0.5


class TestInvariants:
    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 2, (40, 11))
        gold = rng.integers(0, 2, (40, 11))
        perm = rng.permutation(11)
        micro, macro, _ = metrics.f1_scores(pred, gold)
        micro_p, macro_p, _ = metrics.f1_scores(pred[:, perm], gold[:, perm])
        assert abs(micro - micro_p) < 1e-12
        assert abs(macro - macro_p) < 1e-12

    def test_duplicating_examples_unchanged(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 2, (25, 11))
        gold = rng.integers(0, 2, (25, 11))
        pred2, gold2 = np.tile(pred, (2, 1)), np.tile(gold, (2, 1))
        assert abs(metrics.jaccard_accuracy(pred, gold) - metrics.jaccard_accuracy(pred2, gold2)) < 1e-12
        m1 = metrics.f1_scores(pred, gold)[:2]
        m2 = metrics.f1_scores(pred2, gold2)[:2]
        assert np.allclose(m1, m2, atol=1e-12)

    def test_jaccard_one_iff_equal(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 2, (10, 11))
        gold = pred.copy()
        gold[3, 2] ^= 1
        assert metrics.jaccard_accuracy(pred, gold) < 1.0

    def test_agrees_with_brute_force_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pred = rng.integers(0, 2, (15, 11))
            gold = rng.integers(0, 2, (15, 11))
            assert abs(metrics.jaccard_accuracy(pred, gold) - brute_force_jaccard(pred.tolist(), gold.tolist())) < 1e-12
            micro, macro, _ = metrics.f1_scores(pred, gold)
            bf_micro, bf_macro = brute_force_f1(pred.tolist(), gold.tolist())
            assert abs(micro - bf_micro) < 1e-12 and abs(macro - bf_macro) < 1e-12


class TestReports:
    def test_empty_dataset_report(self):
        pred = np.zeros((0, 11), dtype=int)
        gold = np.zeros((0, 11), dtype=int)
        text = metrics.per_class_report(metrics.compute_report(pred, gold))
        lines = text.splitlines()
        assert len(lines) == 12  # header + 11 emotions
        for name, line in zip(EMOTIONS, lines[1:]):
            assert line.startswith(name)
            assert " 0 " in line or line.split()[1] == "0"

    def test_supports_equal_gold_column_sums(self):
        rng = np.random.default_rng(7)
        pred = rng.integers(0, 2, (30, 11))
        gold = rng.integers(0, 2, (30, 11))
        report = metrics.compute_report(pred, gold)
        for c, cm in enumerate(report.per_class):
            assert cm.support == gold[:, c].sum()
        assert sum(cm.support for cm in report.per_class) == gold.sum()
