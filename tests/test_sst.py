"""Trend construction tests: channel fusion arithmetic, median smoothing
with gaps, dichotomic interval detection, the amplitude-integrated
companion trend against a rectified-sine oracle, and SVG determinism."""

import gc
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tone_amplitude
from sleeptrend import sst
from sleeptrend.dsp import design_butter_bandpass, filter_zero_phase
from sleeptrend.errors import ConfigError, EvenWindow, ShapeMismatch
from sleeptrend.labels import GAP, Label
from sleeptrend.sst import (QsInterval, SstConfig, SstTrace, compute_aeeg,
                            compute_sst, decide, detect_dqs, median_smooth,
                            read_sst_csv, render_svg, write_dqs_csv,
                            write_sst_csv)

NAN = float("nan")


def series(rows):
    """Predictions for channels C0, C1, ... from an (epochs, channels)
    table."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return {f"C{i}": rows[:, i] for i in range(rows.shape[1])}


def fuse(rows, weights=None):
    """The fused trend of `rows`, with `weights` in channel order."""
    cfg = SstConfig(weights=None if weights is None else
                    {f"C{i}": w for i, w in enumerate(weights)})
    return compute_sst(series(rows), cfg).p_mean


class TestFuse:
    def test_uniform_mean(self):
        fused = fuse([[0.6, 0.7, 0.8, 0.9]])
        assert fused[0] == pytest.approx(0.75, abs=1e-12)

    def test_single_channel_identity(self):
        fused = fuse([[0.3], [0.8]])
        assert fused.tolist() == [0.3, 0.8]

    def test_missing_channels_renormalize(self):
        fused = fuse([[0.9, NAN, 0.5, NAN]])
        assert fused[0] == pytest.approx(0.7, abs=1e-12)

    def test_all_missing_epoch_stays_nan(self):
        fused = fuse([[NAN, NAN], [0.5, 0.7]])
        assert np.isnan(fused[0]) and fused[1] == pytest.approx(0.6)

    def test_explicit_weights(self):
        fused = fuse([[0.9, 0.3]], weights=[2.0, 1.0])
        assert fused[0] == pytest.approx(0.7, abs=1e-12)

    def test_weights_renormalize_over_present(self):
        fused = fuse([[NAN, 0.4, 0.8]], weights=[5.0, 1.0, 3.0])
        assert fused[0] == pytest.approx((0.4 + 3 * 0.8) / 4.0, abs=1e-12)

    def test_zero_weight_over_present_rejected(self):
        # a zero weight would leave an epoch where only that channel is
        # present without a trend; it is refused before any fusion
        with pytest.raises(ConfigError, match=r"sst\.weights\.C0"):
            fuse([[0.9, NAN]], weights=[0.0, 1.0])

    @pytest.mark.parametrize("weights", [[1.0], [1.0, -0.5]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ConfigError):
            fuse([[0.5, 0.5]], weights=weights)

    def test_permuting_channels_preserves_fusion(self):
        rng = np.random.default_rng(0)
        values = rng.random((20, 4))
        values[rng.random((20, 4)) < 0.2] = np.nan
        base = fuse(values)
        perm = [2, 0, 3, 1]
        shuffled = fuse(values[:, perm])
        assert np.allclose(base, shuffled, equal_nan=True)

    def test_probabilities_validated(self):
        with pytest.raises(ShapeMismatch):
            fuse([[1.2, 0.5]])


class TestMedianSmooth:
    def test_isolated_flip_removed(self):
        out = median_smooth(np.array([0.9, 0.9, 0.1, 0.9, 0.9]))
        assert out[2] == 0.9

    def test_constant_unchanged(self):
        x = np.full(10, 0.4)
        assert np.array_equal(median_smooth(x), x)

    def test_monotone_unchanged(self):
        x = np.linspace(0.1, 0.9, 15)
        assert np.allclose(median_smooth(x), x)

    def test_boundary_window_shrinks_symmetrically(self):
        out = median_smooth(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), window=5)
        assert out[0] == 0.0  # window of one at the very edge
        assert out[1] == 0.0  # three-wide window [0, 1, 0]

    def test_gaps_preserved_and_excluded(self):
        out = median_smooth(np.array([0.8, NAN, 0.2, 0.2, 0.2]), window=3)
        assert np.isnan(out[1])
        assert out[2] == 0.2  # the NaN neighbor is ignored
        assert out[0] == 0.8

    def test_gap_cannot_flip_a_confident_neighbor(self):
        # a missing minute next to a state change leaves four valid
        # samples straddling the cliff; the middle sample nearer the
        # epoch's own raw value wins, so a confident epoch keeps an
        # observed value from its own side
        x = np.array([0.03, 0.03, 0.03, 0.95, NAN, 0.95, 0.96])
        out = median_smooth(x, window=5)
        assert out[3] == 0.95
        x = np.array([NAN, 0.05, 0.06, 0.96, 0.96])
        out = median_smooth(x, window=5)
        assert out[2] == 0.06
        # the gap may also cut off the epoch's allies on the left while
        # the right side holds the opposite state; the rule is symmetric
        x = np.array([1.0, 1.0, NAN, 0.99, 0.06, 0.02, 0.02])
        out = median_smooth(x, window=5)
        assert out[3] == 0.99

    def test_median_is_always_an_observed_value(self):
        rng = np.random.default_rng(4)
        x = rng.random(60)
        x[rng.random(60) < 0.3] = np.nan
        out = median_smooth(x, window=5)
        observed = set(x[np.isfinite(x)])
        for v in out[np.isfinite(out)]:
            assert v in observed

    @pytest.mark.parametrize("window", [0, 2, 4])
    def test_even_or_empty_window_rejected(self, window):
        # the window is checked once, when the config is built, so
        # median_smooth is only ever given an odd positive one
        with pytest.raises(EvenWindow, match=r"sst\.smooth_window"):
            SstConfig(smooth_window=window)

    @given(st.lists(st.one_of(st.floats(0, 1), st.none()), min_size=1,
                    max_size=40),
           st.sampled_from([1, 3, 5, 7]))
    @settings(max_examples=60, deadline=None)
    def test_output_stays_in_range_and_keeps_gaps(self, values, window):
        x = np.array([np.nan if v is None else v for v in values])
        out = median_smooth(x, window=window)
        assert np.array_equal(np.isnan(out), np.isnan(x))
        finite = x[np.isfinite(x)]
        if finite.size:
            ok = np.isfinite(out)
            assert np.all(out[ok] >= finite.min() - 1e-12)
            assert np.all(out[ok] <= finite.max() + 1e-12)


class TestComputeSst:
    def test_identical_channels_zero_band(self):
        probs = series(np.full((6, 4), 0.7))
        trace = compute_sst(probs)
        assert np.allclose(trace.p_max - trace.p_min, 0.0)
        assert set(trace.decisions) == {str(Label.QS)}

    def test_all_rejected_epoch_is_a_gap(self):
        values = np.full((3, 2), 0.8)
        values[1] = np.nan
        trace = compute_sst(series(values))
        assert trace.decisions[1] == GAP
        assert np.isnan(trace.p_mean[1])
        assert np.isnan(trace.p_smoothed[1])

    def test_spread_channels_give_band_and_qs(self):
        trace = compute_sst(series([[0.2, 0.9]]))
        assert trace.p_min[0] == 0.2 and trace.p_max[0] == 0.9
        assert trace.p_mean[0] == pytest.approx(0.55)
        assert trace.decisions[0] == str(Label.QS)

    def test_threshold_is_inclusive(self):
        trace = compute_sst(series([[0.5], [0.499]]),
                            SstConfig(smooth_window=1))
        assert trace.decisions == (str(Label.QS), str(Label.AS))

    def test_band_brackets_mean_on_random_inputs(self):
        rng = np.random.default_rng(1)
        values = rng.random((200, 4))
        values[rng.random((200, 4)) < 0.3] = np.nan
        trace = compute_sst(series(values))
        ok = np.isfinite(trace.p_mean)
        assert np.all(trace.p_min[ok] <= trace.p_mean[ok] + 1e-12)
        assert np.all(trace.p_mean[ok] <= trace.p_max[ok] + 1e-12)
        gaps = np.array([d == GAP for d in trace.decisions])
        assert np.array_equal(gaps, ~ok)

    def test_decisions_follow_smoothed_not_raw(self):
        # an isolated raw dip survives fusing but not smoothing
        values = np.array([[0.9], [0.9], [0.1], [0.9], [0.9]])
        trace = compute_sst(series(values))
        assert trace.p_mean[2] == pytest.approx(0.1)
        assert trace.decisions[2] == str(Label.QS)


class TestDetectDqs:
    def trace_from(self, smoothed, threshold=0.5):
        smoothed = np.asarray(smoothed, dtype=float)
        return SstTrace(p_mean=smoothed, p_min=smoothed, p_max=smoothed,
                        p_smoothed=smoothed,
                        decisions=tuple(decide(smoothed, threshold)))

    def test_single_block(self):
        intervals = detect_dqs(self.trace_from([0.8] * 10))
        assert intervals == [QsInterval(0, 10)]

    def test_all_below_threshold(self):
        assert detect_dqs(self.trace_from([0.2] * 8)) == []

    def test_gap_splits_runs(self):
        intervals = detect_dqs(self.trace_from([0.8] * 5 + [NAN]
                                               + [0.8] * 4))
        assert intervals == [QsInterval(0, 5), QsInterval(6, 10)]

    def test_reads_the_trace_decisions(self):
        # the intervals follow the decisions the trace was built with,
        # not a second threshold applied to p_smoothed
        trace = self.trace_from([0.45, 0.45, 0.8, 0.45], threshold=0.4)
        assert detect_dqs(trace) == [QsInterval(0, 4)]

    @given(st.lists(st.one_of(st.floats(0, 1), st.none()), min_size=1,
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_intervals_shrink_as_threshold_rises(self, values):
        smoothed = [np.nan if v is None else v for v in values]

        def covered(threshold):
            out = set()
            for qs in detect_dqs(self.trace_from(smoothed, threshold)):
                out.update(range(qs.start_epoch, qs.end_epoch))
            return out

        low, high = covered(0.3), covered(0.7)
        assert high <= low
        expected = {i for i, v in enumerate(smoothed)
                    if np.isfinite(v) and v >= 0.3}
        assert low == expected


class TestBuildTrend:
    """The trend of named channel predictions under a config."""

    PREDICTIONS = {"B": np.array([0.9, 0.2, NAN, 0.7]),
                   "A": np.array([0.1, 0.4, NAN, 0.8])}

    def test_decide_boundaries(self):
        assert decide([0.5, 0.49, NAN, 1.0], 0.5) \
            == [str(Label.QS), str(Label.AS), GAP, str(Label.QS)]

    def test_weights_align_by_channel_name(self):
        cfg = SstConfig(threshold=0.4, smooth_window=3,
                        weights={"B": 3.0, "A": 1.0})
        trace = compute_sst(self.PREDICTIONS, cfg)
        # channels sort to (A, B), so the weights line up as [1, 3]
        expected = (1.0 * self.PREDICTIONS["A"]
                    + 3.0 * self.PREDICTIONS["B"]) / 4.0
        np.testing.assert_allclose(trace.p_mean, expected, rtol=1e-15)
        assert trace.decisions == tuple(decide(median_smooth(expected, 3),
                                               0.4))

    def test_missing_weight_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"sst\.weights.*'B'"):
            compute_sst(self.PREDICTIONS, SstConfig(weights={"A": 1.0}))


class TestSstConfig:
    @pytest.mark.parametrize("kwargs, error", [
        ({"smooth_window": 4}, EvenWindow),
        ({"smooth_window": 0}, EvenWindow),
        ({"threshold": 0.0}, ConfigError),
        ({"threshold": 1.0}, ConfigError),
        ({"threshold": float("nan")}, ConfigError),
        ({"weights": {"A": -1.0}}, ConfigError),
        ({"weights": {"A": float("inf")}}, ConfigError),
        ({"weights": {"A": 0.0}}, ConfigError),
    ])
    def test_rejected_when_built(self, kwargs, error):
        with pytest.raises(error, match=r"sst\."):
            SstConfig(**kwargs)

    def test_channel_weights_follow_the_given_order(self):
        cfg = SstConfig(weights={"B": 3.0, "A": 1.0, "C": 0.5})
        assert cfg.channel_weights(["A", "B"]) == [1.0, 3.0]
        assert SstConfig().channel_weights(["A", "B"]) == [1.0, 1.0]
        with pytest.raises(ConfigError, match=r"missing .*\['D'\]"):
            cfg.channel_weights(["A", "D"])


class TestAeeg:
    def test_steady_tone_matches_rectified_mean(self):
        fs = 64.0
        t = np.arange(int(fs * 300)) / fs
        x = 10.0 * np.sin(2 * np.pi * 7.0 * t)
        lower, upper = compute_aeeg(x, fs)
        expected = 2.0 * 10.0 / np.pi
        for i in (1, 2, 3):
            assert lower[i] == pytest.approx(expected, rel=0.02)
            assert upper[i] == pytest.approx(expected, rel=0.02)
        assert np.all(lower <= upper + 1e-12)

    def test_zero_signal_gives_zero_band(self):
        lower, upper = compute_aeeg(np.zeros(64 * 120), 64.0)
        assert np.allclose(lower, 0.0) and np.allclose(upper, 0.0)

    def test_amplitude_scaling_is_linear(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(64 * 180) * 20.0
        lo2, up2 = compute_aeeg(2.0 * x, 64.0)
        lo1, up1 = compute_aeeg(x, 64.0)
        assert np.allclose(lo2, 2.0 * lo1, rtol=1e-9)
        assert np.allclose(up2, 2.0 * up1, rtol=1e-9)

    def test_band_is_each_minutes_percentiles(self):
        # one percentile call over all minutes matches a call per minute
        x = 30.0 * np.random.default_rng(4).standard_normal(64 * 60 * 4 + 9)
        lower, upper = compute_aeeg(x.copy(), 64.0)
        spec = design_butter_bandpass(2.0, 15.0, order=2, fs=64.0)
        smooth = np.convolve(np.abs(filter_zero_phase(x, spec)),
                             np.ones(32) / 32, mode="same")
        minutes = [smooth[i * 3840:(i + 1) * 3840] for i in range(4)]
        assert np.array_equal(lower, [np.percentile(m, 10) for m in minutes])
        assert np.array_equal(upper, [np.percentile(m, 90) for m in minutes])

    def test_partial_minute_dropped(self):
        lower, upper = compute_aeeg(np.zeros(64 * 90), 64.0)
        assert len(lower) == 1 and len(upper) == 1

    def test_burst_suppression_widens_the_band(self):
        fs = 64.0
        rng = np.random.default_rng(3)
        quiet = 5.0 * rng.standard_normal(int(fs * 60))
        loud = 60.0 * rng.standard_normal(int(fs * 60))
        # alternate 5 s quiet / 5 s loud inside each minute
        x = np.concatenate([
            np.where((np.arange(int(fs * 60)) // int(5 * fs)) % 2,
                     loud, quiet) for _ in range(3)])
        lower, upper = compute_aeeg(x, fs)
        assert np.all(upper[1:2] > 3.0 * lower[1:2])


def reference_aeeg(samples, fs):
    """The aEEG in one pass: a full-length moving average, then every
    minute's percentiles in one call."""
    spec = design_butter_bandpass(2.0, 15.0, order=2, fs=fs)
    rectified = np.abs(filter_zero_phase(samples, spec))
    win = max(1, int(round(0.5 * fs)))
    smooth = np.convolve(rectified, np.ones(win) / win, mode="same")
    per_epoch = int(round(60 * fs))
    n_epochs = len(smooth) // per_epoch
    segs = smooth[:n_epochs * per_epoch].reshape(n_epochs, per_epoch)
    lower, upper = np.percentile(segs, [10, 90], axis=1)
    return lower, upper


class TestAeegBlocks:
    """compute_aeeg's blocks against the one-pass reference, bitwise."""

    # windows of 32, 50 and 128 samples are even, 125 is odd
    @pytest.mark.parametrize("fs", [64.0, 100.0, 250.0, 256.0])
    @pytest.mark.parametrize("length", [
        "below_one_block", "one_block", "two_blocks",
        "blocks_and_partial_minute", "one_minute_blocks"])
    def test_bitwise_equal_to_the_one_pass_aeeg(self, monkeypatch, fs,
                                                length):
        per_epoch = int(round(60 * fs))
        if length == "one_minute_blocks":
            # a block edge in every minute: a halo that is off by one
            # sample changes one average per edge, which must move
            # some minute's percentiles
            monkeypatch.setattr(sst, "AEEG_BLOCK", 1)
        block = max(1, sst.AEEG_BLOCK // per_epoch) * per_epoch
        n = {"below_one_block": 2 * per_epoch + per_epoch // 3,
             "one_block": block,
             "two_blocks": 2 * block,
             "blocks_and_partial_minute": 2 * block + 3 * per_epoch
             + per_epoch // 2,
             "one_minute_blocks": 120 * per_epoch + per_epoch // 2}[length]
        rng = np.random.default_rng(int(fs) + n)
        t = np.arange(n) / fs
        # a bursting signal, so the percentiles move from minute to minute
        x = 25.0 * rng.standard_normal(n) * (1.5 + np.sin(t / 7.0))
        got = compute_aeeg(x.copy(), fs)
        expected = reference_aeeg(x, fs)
        for a, b in zip(got, expected):
            assert a.shape == b.shape == (n // per_epoch,)
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_float64_input_is_rectified_in_place(self):
        x = 25.0 * np.random.default_rng(31).standard_normal(256 * 150)
        spec = design_butter_bandpass(2.0, 15.0, order=2, fs=256.0)
        rectified = np.abs(filter_zero_phase(x, spec))
        compute_aeeg(x, 256.0)
        assert np.array_equal(x.view(np.int64), rectified.view(np.int64))

    def test_other_dtypes_are_left_untouched(self):
        x = (25.0 * np.random.default_rng(32).standard_normal(256 * 150)
             ).astype(np.float32)
        before = x.copy()
        got = compute_aeeg(x, 256.0)
        assert np.array_equal(x, before)
        expected = reference_aeeg(x.astype(np.float64), 256.0)
        for a, b in zip(got, expected):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestCsv:
    def make_trace(self):
        values = np.array([[0.9, 0.8], [NAN, NAN], [0.3, 0.5]])
        return compute_sst(series(values))

    def test_sst_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "sst.csv"
        write_sst_csv(trace, path)
        back = read_sst_csv(path)
        assert back.decisions == trace.decisions
        for name in ("p_mean", "p_min", "p_max", "p_smoothed"):
            assert np.allclose(getattr(back, name), getattr(trace, name),
                               equal_nan=True)

    def test_read_closes_its_file(self, tmp_path):
        path = tmp_path / "sst.csv"
        write_sst_csv(self.make_trace(), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            read_sst_csv(path)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_sst_header(self, tmp_path):
        path = tmp_path / "sst.csv"
        write_sst_csv(self.make_trace(), path)
        header = path.read_text().splitlines()[0]
        assert header == ("epoch_index,t_start_s,p_mean,p_min,p_max,"
                          "p_smoothed,decision")

    def test_dqs_csv_in_seconds(self, tmp_path):
        path = tmp_path / "dqs.csv"
        write_dqs_csv([QsInterval(2, 5)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "start_s,end_s"
        assert lines[1] == "120.0,300.0"


class TestSvg:
    def make_trace(self, smoothed):
        smoothed = np.asarray(smoothed, dtype=float)
        decisions = tuple(
            GAP if not np.isfinite(v) else
            str(Label.QS) if v >= 0.5 else str(Label.AS) for v in smoothed)
        return SstTrace(p_mean=smoothed, p_min=smoothed * 0.9,
                        p_max=np.minimum(smoothed * 1.1, 1.0),
                        p_smoothed=smoothed, decisions=decisions)

    def test_empty_trace_still_renders(self):
        empty = SstTrace(p_mean=np.array([]), p_min=np.array([]),
                         p_max=np.array([]), p_smoothed=np.array([]),
                         decisions=())
        doc = render_svg(empty)
        assert doc.startswith("<svg ") and doc.rstrip().endswith("</svg>")
        assert "<polyline" not in doc

    def test_gap_splits_polyline(self):
        trace = self.make_trace([0.8, 0.8, NAN, 0.8, 0.8])
        doc = render_svg(trace)
        assert doc.count("<polyline") == 2

    def test_dqs_and_annotation_strips_present(self):
        trace = self.make_trace([0.8] * 60)
        doc = render_svg(trace, detect_dqs(trace),
                         annotations={"e1": [str(Label.QS)] * 60})
        assert doc.count('fill="#1f4e79"') >= 2  # DQS bar + QS strip
        assert ">DQS</text>" in doc and ">e1</text>" in doc

    def test_aeeg_panel_rendered(self):
        trace = self.make_trace([0.6] * 30)
        aeeg = (np.full(30, 4.0), np.full(30, 20.0))
        doc = render_svg(trace, aeeg=aeeg)
        assert 'fill="#2e7d32"' in doc

    def test_threshold_line_dashed(self):
        doc = render_svg(self.make_trace([0.6] * 10))
        assert "stroke-dasharray" in doc


class TestPinnedOutputs:
    """The trend's files for fixed predictions, pinned by SHA-256: four
    channels with explicit weights and a non-default threshold and
    window, a gap on one channel, and a minute every channel rejected.
    Every value is a ratio of small integers, so the inputs are exact."""

    N = 90
    CONFIG = SstConfig(threshold=0.45, smooth_window=3,
                       weights={"F3-P3": 1.0, "F4-P4": 2.0, "F3-F4": 0.5,
                                "P3-P4": 1.5})
    SHA256 = {
        "sst.csv": "e70cde72d3de8020b991f370649158df"
                   "3441b2daf687352f2b77f05ee159e380",
        "dqs.csv": "acf835aea1323c800132503b12b2eb07"
                   "f6efa4cb67f3286e10b1a3da7b0dd409",
        "sst.svg": "ed8e3ec7b755260ac4e3f8515c7c1a75"
                   "c7c53dcef6cff754d80676275871554e",
    }

    def predictions(self):
        i = np.arange(self.N)
        base = np.abs(i % 40 - 20) / 20.0
        # insertion order is not name order, so the channels must be
        # sorted before the weights line up
        out = {name: np.clip(base + ((i * (3 + c)) % 7 - 3) / 50.0, 0, 1)
               for c, name in enumerate(("P3-P4", "F4-P4", "F3-P3",
                                         "F3-F4"))}
        out["F3-F4"][20:30] = np.nan
        for p in out.values():
            p[45] = np.nan
        return out

    def test_outputs_match_pinned_hashes(self, tmp_path):
        trace = compute_sst(self.predictions(), self.CONFIG)
        dqs = detect_dqs(trace)
        i = np.arange(self.N)
        scorer = [str(Label.EXCLUDED) if k in (44, 45, 46)
                  else str(Label.QS) if (k // 15) % 2 else str(Label.AS)
                  for k in range(self.N)]
        lower = 3.0 + (i % 11) / 2.0
        aeeg = (lower, lower + 10.0 + (i % 13) * 4.0)
        write_sst_csv(trace, tmp_path / "sst.csv")
        write_dqs_csv(dqs, tmp_path / "dqs.csv")
        (tmp_path / "sst.svg").write_text(render_svg(
            trace, dqs, annotations={"e1": scorer}, aeeg=aeeg,
            threshold=self.CONFIG.threshold))
        assert len(dqs) > 1 and GAP in trace.decisions
        assert {name: hashlib.sha256((tmp_path / name).read_bytes())
                .hexdigest() for name in self.SHA256} == self.SHA256
