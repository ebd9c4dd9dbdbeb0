"""Agreement metrics for two-state sleep classification.

Quiet sleep (QS) is the positive class throughout. Every summary statistic
is computed as a single quotient of integer counts, so results are exact to
the last float bit and can be checked against rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LengthMismatch, SingleClassLabels, ZeroVariance
from .labels import Label


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts for the QS-positive two-by-two table."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricReport:
    """Summary agreement statistics.

    precision and f1 are None when their denominators are zero (no positive
    predictions, or no positives anywhere); they are reported as absent
    rather than coerced to 0.
    """

    accuracy: float
    precision: float | None
    f1: float | None
    kappa: float
    auc: float | None = None


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def confusion(y_true: Sequence, y_pred: Sequence) -> ConfusionMatrix:
    """Count QS-positive outcomes over paired label sequences.

    Pairs where either side is not QS or AS (excluded epochs, gaps) are
    skipped. Raises LengthMismatch when the sequences differ in length.
    """
    if len(y_true) != len(y_pred):
        raise LengthMismatch(
            f"{len(y_true)} reference labels vs {len(y_pred)} predictions")
    tp = fp = fn = tn = 0
    valid = (Label.QS, Label.AS)
    for t, p in zip(y_true, y_pred):
        if t not in valid or p not in valid:
            continue
        if t == Label.QS:
            if p == Label.QS:
                tp += 1
            else:
                fn += 1
        else:
            if p == Label.QS:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def report(cm: ConfusionMatrix) -> MetricReport:
    """Accuracy, precision, F1, and Cohen's kappa from a confusion matrix.

    kappa uses the marginal chance agreement
    pe = [(tp+fp)(tp+fn) + (fn+tn)(fp+tn)] / total^2 and is defined as 1
    for perfect agreement even when only one class occurs (the 0/0 case),
    and 0 when chance agreement is total but agreement is not perfect.
    """
    tp, fp, fn, tn = cm.tp, cm.fp, cm.fn, cm.tn
    total = cm.total
    if total == 0:
        raise ZeroVariance("empty confusion matrix")

    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    f1 = (2 * tp) / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else None

    if fp == 0 and fn == 0:
        kappa = 1.0
    else:
        # kappa = (po - pe) / (1 - pe), cleared to one integer quotient
        chance = (tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)
        denom = total * total - chance
        kappa = (total * (tp + tn) - chance) / denom if denom != 0 else 0.0
    return MetricReport(accuracy=accuracy, precision=precision, f1=f1,
                        kappa=kappa)


def roc_auc(y_true: Sequence, scores: Sequence[float]) -> RocCurve:
    """ROC curve and AUC for QS scores.

    Tied scores are grouped into single curve vertices. The AUC is the
    area under that curve, which is the pairwise ranking probability with
    half credit for ties (Hanley & McNeil, Radiology 143 (1982) 29-36):
    each positive counts twice the negatives scored below it plus the
    negatives tied with it, over 2 * n_pos * n_neg. Raises
    SingleClassLabels unless both classes are present.
    """
    y = np.asarray([1 if t == Label.QS else 0 for t in y_true], dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise LengthMismatch(f"{y.shape[0]} labels vs {s.shape[0]} scores")
    if np.isnan(s).any():
        raise ZeroVariance("scores contain NaN")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise SingleClassLabels("ROC needs both QS and AS examples")

    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    # last index of each tie group, descending score
    boundary = np.nonzero(np.diff(s_sorted))[0]
    group_end = np.concatenate([boundary, [s.size - 1]])
    cum_tp = np.cumsum(y_sorted)[group_end]
    cum_fp = (group_end + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    # per tie group: its positives, the negatives in it, and those below
    tp = np.diff(cum_tp, prepend=0)
    tied = np.diff(cum_fp, prepend=0)
    below = n_neg - cum_fp
    auc = int((tp * (2 * below + tied)).sum()) / (2 * n_pos * n_neg)
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"{a.shape} vs {b.shape}")
    if a.size < 2:
        raise ZeroVariance("need at least two points")
    da = a - a.mean()
    db = b - b.mean()
    # r is scale invariant; dividing by the peak deviation first keeps
    # the squared sums from underflowing or overflowing at the extremes
    for d in (da, db):
        peak = np.max(np.abs(d))
        if peak > 0.0:
            d /= peak
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        raise ZeroVariance("constant input sequence")
    return float((da * db).sum() / denom)


def median_range(values: Iterable[float]) -> tuple[float, float, float]:
    """(median, min, max) summary used for per-subject tables."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ZeroVariance("no values to summarize")
    return float(np.median(arr)), float(arr.min()), float(arr.max())
