"""Metrics against independent rational-arithmetic and pairwise oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleeptrend.errors import (LengthMismatch, SingleClassLabels,
                               ZeroVariance)
from sleeptrend.labels import Label
from sleeptrend.metrics import (ConfusionMatrix, confusion, median_range,
                                pearson, report, roc_auc)


def oracle_report(tp: int, fp: int, fn: int, tn: int):
    """Re-derive every statistic with exact rational arithmetic."""
    total = tp + fp + fn + tn
    acc = Fraction(tp + tn, total)
    prec = Fraction(tp, tp + fp) if tp + fp > 0 else None
    f1 = Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else None
    po = acc
    pe = Fraction((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn), total * total)
    if fp == 0 and fn == 0:
        kappa = Fraction(1)
    elif pe == 1:
        kappa = Fraction(0)
    else:
        kappa = (po - pe) / (1 - pe)
    return acc, prec, f1, kappa


def pairwise_auc(y_true, scores):
    """Mann-Whitney ranking probability with half credit for ties, as an
    exact fraction of pair counts."""
    pos = [s for t, s in zip(y_true, scores) if t == Label.QS]
    neg = [s for t, s in zip(y_true, scores) if t == Label.AS]
    half_wins = 0
    for p in pos:
        for n in neg:
            if p > n:
                half_wins += 2
            elif p == n:
                half_wins += 1
    return Fraction(half_wins, 2 * len(pos) * len(neg))


class TestReport:
    def test_worked_example(self):
        # tp=40 tn=40 fp=10 fn=10: accuracy .8, precision .8, F1 .8, kappa .6
        rep = report(ConfusionMatrix(tp=40, fp=10, fn=10, tn=40))
        assert rep.accuracy == 0.8
        assert rep.precision == 0.8
        assert rep.f1 == 0.8
        assert rep.kappa == pytest.approx(0.6, abs=1e-15)

    def test_constant_as_prediction_has_zero_kappa(self):
        # balanced truth, predictor always says AS
        rep = report(ConfusionMatrix(tp=0, fp=0, fn=5, tn=5))
        assert rep.kappa == 0.0
        assert rep.accuracy == 0.5
        assert rep.precision is None

    def test_perfect_agreement(self):
        rep = report(ConfusionMatrix(tp=7, fp=0, fn=0, tn=3))
        assert rep.kappa == 1.0
        assert rep.accuracy == 1.0

    def test_single_class_perfect(self):
        rep = report(ConfusionMatrix(tp=9, fp=0, fn=0, tn=0))
        assert rep.kappa == 1.0

    def test_undefined_f1_all_true_negative(self):
        rep = report(ConfusionMatrix(tp=0, fp=0, fn=0, tn=4))
        assert rep.precision is None
        assert rep.f1 is None
        assert rep.accuracy == 1.0

    def test_matches_rational_oracle_on_random_matrices(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 200, size=4))
            if tp + fp + fn + tn == 0:
                tn = 1
            rep = report(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            acc, prec, f1, kappa = oracle_report(tp, fp, fn, tn)
            # both routes reduce to one integer quotient: exact equality
            assert rep.accuracy == float(acc)
            if prec is None:
                assert rep.precision is None
            else:
                assert rep.precision == float(prec)
            if f1 is None:
                assert rep.f1 is None
            else:
                assert rep.f1 == float(f1)
            assert rep.kappa == float(kappa)

    def test_kappa_one_iff_no_errors(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 30, size=4))
            if tp + fp + fn + tn == 0:
                continue
            rep = report(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            assert (rep.kappa == 1.0) == (fp == 0 and fn == 0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ZeroVariance):
            report(ConfusionMatrix(0, 0, 0, 0))


class TestConfusion:
    def test_counts_and_exclusions(self):
        y_true = [Label.QS, Label.QS, Label.AS, Label.AS, Label.EXCLUDED,
                  Label.QS]
        y_pred = [Label.QS, Label.AS, Label.QS, Label.AS, Label.QS, "Gap"]
        cm = confusion(y_true, y_pred)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_label_swap_transposes_counts(self):
        rng = np.random.default_rng(5)
        labels = [Label.QS, Label.AS]
        y_true = [labels[i] for i in rng.integers(0, 2, size=80)]
        y_pred = [labels[i] for i in rng.integers(0, 2, size=80)]
        cm = confusion(y_true, y_pred)
        swap = {Label.QS: Label.AS, Label.AS: Label.QS}
        cm_sw = confusion([swap[t] for t in y_true], [swap[p] for p in y_pred])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (cm_sw.tn, cm_sw.fn,
                                                cm_sw.fp, cm_sw.tp)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([Label.QS], [Label.QS, Label.AS])


class TestRoc:
    def test_trapezoid_equals_pairwise_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            y = [Label.QS if v else Label.AS for v in rng.integers(0, 2, n)]
            if Label.QS not in y:
                y[0] = Label.QS
            if Label.AS not in y:
                y[-1] = Label.AS
            # quantized scores force plenty of ties
            s = np.round(rng.random(n), 1)
            curve = roc_auc(y, s)
            assert curve.auc == float(pairwise_auc(y, s))

    def test_perfect_reversed_and_constant(self):
        y = [Label.AS, Label.AS, Label.QS, Label.QS]
        assert roc_auc(y, [0.1, 0.2, 0.8, 0.9]).auc == 1.0
        assert roc_auc(y, [0.9, 0.8, 0.2, 0.1]).auc == 0.0
        assert roc_auc(y, [0.5, 0.5, 0.5, 0.5]).auc == 0.5

    def test_curve_is_monotone(self):
        rng = np.random.default_rng(7)
        y = [Label.QS if v else Label.AS for v in rng.integers(0, 2, 50)]
        y[0], y[1] = Label.QS, Label.AS
        curve = roc_auc(y, np.round(rng.random(50), 2))
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.fpr[0] == 0.0 and curve.fpr[-1] == 1.0
        assert curve.tpr[0] == 0.0 and curve.tpr[-1] == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassLabels):
            roc_auc([Label.QS, Label.QS], [0.3, 0.4])


class TestPearson:
    def test_exact_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
        assert pearson(x, [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0)

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40),
           st.floats(0.5, 3.0), st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, xs, scale, shift):
        x = np.asarray(xs)
        y = scale * x + shift
        # the shift can swallow tiny variation (partly or entirely), which
        # legitimately makes y constant or dominated by rounding noise
        if np.ptp(x) == 0 or np.ptp(y) <= 1e-6 * np.max(np.abs(y)):
            return
        assert pearson(x, y) == pytest.approx(1.0, abs=1e-9)


def test_median_range():
    med, lo, hi = median_range([0.7, 0.9, 0.8])
    assert (med, lo, hi) == (0.8, 0.7, 0.9)
