"""Multi-label evaluation: thresholding, Jaccard accuracy, micro/macro F1."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ShapeError
from .textprep import EMOTIONS


def valid_threshold(tau) -> bool:
    """Whether ``tau`` is a decision threshold: a real number in [0, 1]."""
    return isinstance(tau, Real) and not isinstance(tau, bool) and 0 <= tau <= 1


def threshold(scores: np.ndarray, tau: float) -> np.ndarray:
    """Binary predictions: 1 iff score strictly greater than tau."""
    if not valid_threshold(tau):
        raise ValueError(f"threshold must be in [0, 1], got {tau}")
    return (np.asarray(scores) > tau).astype(np.int64)


def _check_shapes(pred, gold):
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    if pred.shape != gold.shape:
        raise ShapeError(f"pred shape {pred.shape} != gold shape {gold.shape}")
    return pred, gold


def jaccard_accuracy(pred: np.ndarray, gold: np.ndarray) -> float:
    """Mean over examples of |P∩G| / |P∪G| on label sets.

    An example with both sets empty scores 1 (the union is empty, nothing is
    wrong), matching the standard multi-label accuracy treatment.
    """
    pred, gold = _check_shapes(pred, gold)
    if pred.shape[0] == 0:
        return 1.0  # vacuous: no example disagrees
    inter = np.logical_and(pred, gold).sum(axis=1).astype(np.float64)
    union = np.logical_or(pred, gold).sum(axis=1).astype(np.float64)
    scores = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return float(scores.mean())


@dataclass
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    jaccard: float
    micro_f1: float
    macro_f1: float
    per_class: list[ClassMetrics]


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def f1_scores(pred: np.ndarray, gold: np.ndarray):
    """Per-class precision/recall/F1 plus micro and macro averages.

    0/0 is defined as 0 throughout. Micro pools TP/FP/FN over all classes;
    macro is the unweighted mean of per-class F1s.
    """
    pred, gold = _check_shapes(pred, gold)
    n_classes = pred.shape[1]
    per_class = []
    tp_all = fp_all = fn_all = 0
    for c in range(n_classes):
        p, g = pred[:, c], gold[:, c]
        tp = int(np.sum((p == 1) & (g == 1)))
        fp = int(np.sum((p == 1) & (g == 0)))
        fn = int(np.sum((p == 0) & (g == 1)))
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class.append((precision, recall, f1, tp + fn))
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
    micro_p = _safe_div(tp_all, tp_all + fp_all)
    micro_r = _safe_div(tp_all, tp_all + fn_all)
    micro_f1 = _safe_div(2 * micro_p * micro_r, micro_p + micro_r)
    macro_f1 = sum(f1 for _, _, f1, _ in per_class) / n_classes
    return micro_f1, macro_f1, per_class


def compute_report(pred: np.ndarray, gold: np.ndarray) -> MetricsReport:
    micro, macro, per_class = f1_scores(pred, gold)
    return MetricsReport(
        jaccard=jaccard_accuracy(pred, gold),
        micro_f1=micro,
        macro_f1=macro,
        per_class=[
            ClassMetrics(name, p, r, f1, s)
            for name, (p, r, f1, s) in zip(EMOTIONS, per_class)
        ],
    )


def per_class_report(report: MetricsReport) -> str:
    """``report``'s classes as an aligned plain-text table: emotion, support,
    precision, recall, F1."""
    width = max(len(n) for n in EMOTIONS)
    lines = [f"{'emotion':<{width}}  support  precision  recall      f1"]
    for c in report.per_class:
        lines.append(
            f"{c.name:<{width}}  {c.support:7d}  {c.precision:9.4f}"
            f"  {c.recall:6.4f}  {c.f1:6.4f}"
        )
    return "\n".join(lines)
