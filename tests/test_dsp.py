"""Signal conditioning against frequency-sweep and sinusoid-fit oracles."""

import sys
import threading
import time
import weakref

import numpy as np
import pytest
from helpers import sos_gain, tone_amplitude
from scipy import signal

from sleeptrend import dsp, pipeline
from sleeptrend.dsp import (ArtifactConfig, EPOCH_SAMPLES,
                            design_butter_bandpass, filter_zero_phase,
                            preprocess_channel, resample, segment_epochs)
from sleeptrend.errors import (ConfigError, DataError, InvalidEpoch,
                               MissingChannel, NyquistViolation,
                               ShapeMismatch, TooShortSignal)
from sleeptrend.recording import (AnnotationTrack, ChannelSignal, Recording,
                                  derive_bipolar)
from sleeptrend.training import SubjectData

FS = 256.0


@pytest.fixture(scope="module")
def sos():
    return design_butter_bandpass(0.5, 30.0, order=4, fs=FS)


class TestDesign:
    def test_band_edges_at_half_power(self, sos):
        for edge in (0.5, 30.0):
            db = 20 * np.log10(sos_gain(sos, edge, FS))
            assert db == pytest.approx(-3.01, abs=0.5)

    def test_passband_flat(self, sos):
        for f in np.arange(2.0, 20.01, 0.5):
            assert sos_gain(sos, f, FS) >= 0.9

    def test_stopband_at_45_hz(self, sos):
        assert 20 * np.log10(sos_gain(sos, 45.0, FS)) <= -30.0

    def test_dc_gain_zero(self, sos):
        assert sos_gain(sos, 0.0, FS) < 1e-12

    def test_rejects_band_beyond_nyquist(self):
        with pytest.raises(NyquistViolation):
            design_butter_bandpass(0.5, 30.0, fs=50.0)
        with pytest.raises(ConfigError):
            design_butter_bandpass(30.0, 0.5, fs=256.0)
        with pytest.raises(ConfigError):
            design_butter_bandpass(0.5, 30.0, order=0, fs=256.0)

    def test_design_works_at_other_rates(self):
        for fs in (200.0, 250.0, 500.0, 1000.0):
            s = design_butter_bandpass(0.5, 30.0, order=4, fs=fs)
            assert sos_gain(s, 10.0, fs) == pytest.approx(1.0, abs=0.01)


class TestZeroPhase:
    def test_gain_is_squared_magnitude(self, sos):
        # 28 Hz sits on the shoulder where |H| and |H|^2 clearly differ
        n = int(FS * 40)
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 28.0 * t)
        y = filter_zero_phase(x, sos)
        measured = tone_amplitude(y[n // 4: -n // 4], 28.0, FS,
                                  offset=n // 4)
        assert measured == pytest.approx(sos_gain(sos, 28.0, FS) ** 2,
                                         rel=0.01)

    def test_no_phase_shift(self, sos):
        n = int(FS * 30)
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = filter_zero_phase(x, sos)
        sl = slice(n // 4, -n // 4)
        # zero lag: projection onto the quadrature component vanishes
        quad = np.cos(2 * np.pi * 10.0 * t[sl])
        inphase = np.sin(2 * np.pi * 10.0 * t[sl])
        assert abs(np.dot(y[sl], quad)) < 1e-3 * abs(np.dot(y[sl], inphase))

    def test_passband_tone_preserved(self, sos):
        n = int(FS * 30)
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        y = filter_zero_phase(x, sos)
        measured = tone_amplitude(y[n // 4: -n // 4], 10.0, FS,
                                  offset=n // 4)
        assert measured == pytest.approx(1.0, abs=0.01)

    def test_linearity(self, sos):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4096)
        y = rng.standard_normal(4096)
        lhs = filter_zero_phase(2.5 * x - 1.25 * y, sos)
        rhs = 2.5 * filter_zero_phase(x, sos) \
            - 1.25 * filter_zero_phase(y, sos)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_too_short_signal(self, sos):
        with pytest.raises(TooShortSignal):
            filter_zero_phase(np.zeros(16), sos)


class TestStreamedFilter:
    """The block-wise passes reproduce sosfiltfilt's arithmetic exactly."""

    BLOCK = dsp._FILTER_BLOCK

    @staticmethod
    def reference(x, sos):
        # the pad length filter_zero_phase derives: the slowest pole's
        # settling time, capped at size - 1
        padlen = min(x.size - 1, max(3 * (2 * len(sos) + 1),
                                     dsp._settle_samples(sos)))
        return signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK, 2 * BLOCK + 7000])
    def test_bitwise_equal_around_block_multiples(self, sos, n):
        x = 30.0 * np.random.default_rng(n).standard_normal(n)
        before = x.copy()
        y = filter_zero_phase(x, sos)
        assert np.array_equal(y, self.reference(x, sos))
        assert np.array_equal(x, before)

    def test_bitwise_equal_when_pad_spans_the_signal(self, sos):
        # 200 samples is shorter than the settling time: padlen = 199
        assert dsp._settle_samples(sos) > 200
        x = np.random.default_rng(1).standard_normal(200)
        assert np.array_equal(filter_zero_phase(x, sos),
                              self.reference(x, sos))

    @pytest.mark.parametrize("fs, n", [(500.0, 30_000), (128.0, 70_000)])
    def test_bitwise_equal_at_other_rates(self, fs, n):
        other = design_butter_bandpass(0.5, 30.0, order=4, fs=fs)
        x = np.random.default_rng(2).standard_normal(n)
        assert np.array_equal(filter_zero_phase(x, other),
                              self.reference(x, other))

    @pytest.mark.parametrize("n", [200, BLOCK + 1, 2 * BLOCK + 7000])
    def test_in_place(self, sos, n):
        x = np.random.default_rng(3).standard_normal(n)
        expected = self.reference(x, sos)
        y = filter_zero_phase(x, sos, out=x)
        assert y is x
        assert np.array_equal(x, expected)

    def test_out_must_match_the_signal(self, sos):
        x = np.zeros(1000)
        for out in (np.zeros(999), np.zeros(1000, dtype=np.float32)):
            with pytest.raises(ShapeMismatch):
                filter_zero_phase(x, sos, out=out)


class TestResample:
    def test_length_contract(self):
        for n in (15360, 15361, 1000, 999):
            y = resample(np.zeros(n), 256.0, 64.0)
            assert y.size == -(-n * 64 // 256)

    def test_passband_tone_amplitude(self):
        n = int(FS * 30)
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 5.0 * t)
        y = resample(x, FS, 64.0)
        m = y.size
        measured = tone_amplitude(y[m // 4: -m // 4], 5.0, 64.0,
                                  offset=m // 4)
        assert measured == pytest.approx(1.0, rel=0.01)

    def test_50_hz_killed_by_antialias(self):
        n = int(FS * 30)
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 50.0 * t)
        y = resample(x, FS, 64.0)
        residual = np.sqrt(np.mean(y[y.size // 4: -y.size // 4] ** 2))
        # peak-equivalent attenuation relative to the unit input tone
        assert 20 * np.log10(max(residual * np.sqrt(2), 1e-12)) <= -40.0

    def test_rational_ratio(self):
        # 200 -> 64 Hz is up 8 / down 25
        n = int(200.0 * 30)
        t = np.arange(n) / 200.0
        x = np.sin(2 * np.pi * 5.0 * t)
        y = resample(x, 200.0, 64.0)
        m = y.size
        assert m == -(-n * 8 // 25)
        measured = tone_amplitude(y[m // 4: -m // 4], 5.0, 64.0,
                                  offset=m // 4)
        assert measured == pytest.approx(1.0, rel=0.01)

    def test_identity_when_rates_match(self):
        x = np.arange(100.0)
        y = resample(x, 64.0, 64.0)
        assert np.array_equal(x, y)
        assert y is not x


class TestArtifacts:
    """The raw-rate scan preprocess_channel runs on each whole minute."""

    MINUTE = int(FS * 60)

    def _rejected(self, minute, cfg=ArtifactConfig()):
        _, report = preprocess_channel(minute, FS, "F3-P3", artifact=cfg)
        return report.rejected == (0,)

    def test_amplitude_limit_is_strict(self):
        rng = np.random.default_rng(1)
        quiet = rng.standard_normal(self.MINUTE)
        spike = quiet.copy()
        spike[100] = 250.5
        at_limit = quiet.copy()
        at_limit[100] = 250.0
        assert self._rejected(spike)
        assert not self._rejected(at_limit)

    def test_negative_spike_rejected(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(self.MINUTE)
        x[100] = -251.0
        assert self._rejected(x)

    def test_flat_run(self):
        cfg = ArtifactConfig(flat_run_s=1.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(self.MINUTE)
        x[100:356] = 7.0  # exactly 1 s at 256 Hz
        assert self._rejected(x, cfg)
        y = rng.standard_normal(self.MINUTE)
        y[100:330] = 7.0  # 0.9 s
        assert not self._rejected(y, cfg)

    def test_all_zero_signal_is_flat(self):
        assert self._rejected(np.zeros(self.MINUTE))

    def test_nan_rejected(self):
        x = np.random.default_rng(6).standard_normal(self.MINUTE)
        x[7] = np.nan
        assert self._rejected(x)


class TestSegmentation:
    def test_epoch_count_and_trailing_drop(self):
        x = np.arange(EPOCH_SAMPLES * 3 + 100, dtype=np.float64)
        epochs, valid = segment_epochs(x)
        assert epochs.shape == (3, EPOCH_SAMPLES)
        assert epochs.dtype == np.float32
        assert valid.tolist() == [True, True, True]
        assert epochs[1, 0] == EPOCH_SAMPLES

    def test_wrong_length_epoch_rejected(self):
        # a subject's epoch arrays must be (n_epochs, EPOCH_SAMPLES)
        with pytest.raises(InvalidEpoch):
            SubjectData(subject_id="n1",
                        epochs={"x": (np.zeros((1, 100), np.float32),
                                      np.ones(1, dtype=bool))},
                        labels={}, n_epochs=1)

    def test_valid_flags_attached(self):
        x = np.zeros(EPOCH_SAMPLES * 2)
        _, valid = segment_epochs(x, valid=[True, False])
        assert valid.dtype == bool
        assert valid.tolist() == [True, False]

    def test_flag_shortage_rejected(self):
        with pytest.raises(ShapeMismatch):
            segment_epochs(np.zeros(EPOCH_SAMPLES * 2), valid=[True])


class TestPipeline:
    def test_stage_order_and_rejection(self):
        rng = np.random.default_rng(11)
        n = int(FS * 60 * 4 + 50)
        x = 20.0 * rng.standard_normal(n)
        # raw amplitude artifact confined to minute 2
        x[int(FS * 135)] = 400.0
        (epochs, valid), report = preprocess_channel(x, FS, "F3-P3")
        assert report.rejected == (2,)
        # trailing partial minute dropped
        assert epochs.shape == (4, EPOCH_SAMPLES)
        assert epochs.dtype == np.float32
        assert valid.tolist() == [True, True, False, True]

    def test_scan_happens_before_filtering(self):
        # a DC step of 300 uV would survive no band-pass; rejection must
        # therefore come from the raw scan
        n = int(FS * 120)
        rng = np.random.default_rng(5)
        x = 5.0 * rng.standard_normal(n)
        x[:int(FS * 60)] += 300.0
        (epochs, valid), report = preprocess_channel(x, FS, "c")
        assert 0 in report.rejected
        assert not valid[0]
        # after the band-pass the samples no longer exceed the limit
        assert np.max(np.abs(epochs[0])) < 250.0

    def test_nonfinite_samples_do_not_leak(self):
        # one NaN rejects its own minute and must not spread through the
        # band-pass into the valid minutes around it
        rng = np.random.default_rng(12)
        x = 20.0 * rng.standard_normal(int(FS * 60 * 5))
        x[int(FS * 150)] = np.nan
        (epochs, valid), report = preprocess_channel(x, FS, "F3-P3")
        assert report.rejected == (2,)
        assert valid.tolist() == [True, True, False, True, True]
        assert np.isfinite(epochs).all()
        assert np.isfinite(x).all()  # zeroed and filtered in place

    def test_float64_input_filtered_in_place(self):
        rng = np.random.default_rng(13)
        x = 20.0 * rng.standard_normal(int(FS * 60 * 3))
        samples = x.copy()
        single = x.astype(np.float32)
        (epochs, valid), report = preprocess_channel(x, FS, "F3-P3")
        assert not np.array_equal(x, samples)  # filtered in place
        (again, again_valid), again_report = preprocess_channel(
            samples.copy(), FS, "F3-P3")
        assert np.array_equal(again, epochs)
        assert np.array_equal(again_valid, valid)
        assert again_report == report
        # any other dtype is converted to a new array first
        kept = single.copy()
        preprocess_channel(single, FS, "F3-P3")
        assert np.array_equal(single, kept)


def artifact_recording():
    """Four referential channels with a raw amplitude artifact in minute
    1 of F3 and a NaN sample in minute 3 of P4."""
    rng = np.random.default_rng(21)
    n = int(FS * 60 * 5) + 100
    channels = {label: 20.0 * rng.standard_normal(n)
                for label in ("F3", "F4", "P3", "P4")}
    channels["F3"][int(FS * 75)] = 600.0
    channels["P4"][int(FS * 200)] = np.nan
    return Recording(subject_id="s01", duration_s=n / FS, channels=[
        ChannelSignal(label=label, fs=FS, samples=samples)
        for label, samples in channels.items()])


class TestPreprocessRecording:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_equals_a_serial_loop(self, monkeypatch, cpus):
        monkeypatch.setattr(pipeline, "_available_cpus", lambda: cpus)
        rec = artifact_recording()
        raw = [ch.samples.copy() for ch in rec.channels]
        epochs, reports = pipeline.preprocess_recording(rec)
        for ch, before in zip(rec.channels, raw):
            assert np.array_equal(ch.samples, before, equal_nan=True)

        bipolar = derive_bipolar(rec, pipeline.BIPOLAR_PAIRS)
        assert list(epochs) == list(reports) == bipolar.labels
        for ch in bipolar.channels:
            (x, valid), report = dsp.preprocess_channel(ch.samples, ch.fs,
                                                        ch.label)
            assert np.array_equal(epochs[ch.label][0], x)
            assert np.array_equal(epochs[ch.label][1], valid)
            assert reports[ch.label] == report
        assert reports["F3-P3"].rejected == (1,)
        assert reports["F4-P4"].rejected == (3,)
        assert reports["P3-P4"].rejected == (3,)

    def test_calls_go_through_the_module_attribute(self, monkeypatch):
        seen = []
        original = dsp.preprocess_channel

        def spy(samples, fs, channel, *args, **kwargs):
            seen.append(channel)
            return original(samples, fs, channel, *args, **kwargs)

        monkeypatch.setattr(dsp, "preprocess_channel", spy)
        pipeline.preprocess_recording(artifact_recording())
        assert sorted(seen) == sorted(f"{a}-{b}"
                                      for a, b in pipeline.BIPOLAR_PAIRS)

    def test_missing_pair_raises(self):
        with pytest.raises(MissingChannel):
            pipeline.preprocess_recording(artifact_recording(),
                                          pairs=[("F3", "P3"), ("F3", "Cz")])

    def test_bad_pair_fails_before_any_pair_is_derived(self, monkeypatch):
        derived = []
        monkeypatch.setattr(pipeline, "derive_bipolar",
                            lambda rec, pairs, out=None: derived.append(pairs))
        with pytest.raises(MissingChannel):
            pipeline.preprocess_recording(
                artifact_recording(),
                pairs=[("F3", "P3"), ("F4", "P4"), ("F3", "Cz")])
        assert derived == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_pairs_no_channels(self, monkeypatch, cpus):
        monkeypatch.setattr(pipeline, "_available_cpus", lambda: cpus)
        assert pipeline.preprocess_recording(artifact_recording(),
                                             pairs=[]) == ({}, {})

    def test_subject_without_pairs_is_rejected(self):
        tracks = {"truth": AnnotationTrack.from_rows([(0.0, 60.0)])}
        with pytest.raises(DataError, match="no channel pairs"):
            pipeline.assemble_subject(artifact_recording(), tracks, pairs=[])

    def in_flight_peak(self, monkeypatch, cpus, raw_first=False):
        """Peak count of tasks in flight while every ordered pair of the
        four channels is conditioned: a task is in flight from its
        derivation until its conditioning, or `raw_first`, ends. Both
        are slowed, so an unbounded schedule would derive every pair
        before the first one ends."""
        lock = threading.Lock()
        in_flight, peak = [0], [0]
        derive, condition = pipeline.derive_bipolar, dsp.preprocess_channel

        def spy_derive(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            return derive(*args, **kwargs)

        def end(result=None):
            time.sleep(0.05)
            with lock:
                in_flight[0] -= 1
            return result

        monkeypatch.setattr(pipeline, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "derive_bipolar", spy_derive)
        monkeypatch.setattr(dsp, "preprocess_channel",
                            lambda *args, **kwargs: end(condition(*args,
                                                                  **kwargs)))
        pairs = [(a, b) for a in ("F3", "F4", "P3", "P4")
                 for b in ("F3", "F4", "P3", "P4") if a != b]
        done = sorted(pipeline.condition_recording(
            artifact_recording(), pairs,
            raw_first=(lambda ch: end()) if raw_first else None),
            key=lambda item: item[0])
        assert [report.channel for *_, report in done] \
            == [f"{a}-{b}" for a, b in pairs]
        return peak[0]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_pairs_in_flight_are_bounded(self, monkeypatch, cpus):
        assert self.in_flight_peak(monkeypatch, cpus) == cpus

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_raw_first_counts_as_in_flight(self, monkeypatch, cpus):
        assert self.in_flight_peak(monkeypatch, cpus, raw_first=True) \
            == cpus

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_raw_first_has_its_own_derivation(self, monkeypatch, cpus):
        monkeypatch.setattr(pipeline, "_available_cpus", lambda: cpus)
        rec = artifact_recording()
        epochs, reports = pipeline.preprocess_recording(rec)
        first = derive_bipolar(rec, pipeline.BIPOLAR_PAIRS[:1]).channels[0]
        seen = []

        def spoil(ch):
            seen.append((ch.label, ch.samples.copy()))
            ch.samples[:] = np.nan

        done = list(pipeline.condition_recording(rec, raw_first=spoil))
        assert len(seen) == 1
        assert seen[0][0] == first.label
        assert np.array_equal(seen[0][1], first.samples)
        assert sorted(item[0] for item in done) == [0, 1, 2, 3]
        for *_, (x, valid), report in done:
            assert np.array_equal(x, epochs[report.channel][0])
            assert np.array_equal(valid, epochs[report.channel][1])
            assert report == reports[report.channel]

    def test_recording_is_let_go_once_the_last_pair_is_derived(
            self, monkeypatch):
        # more threads than CPUs, switching often: a lost update of the
        # count of pairs still to derive would keep the recording alive
        monkeypatch.setattr(pipeline, "_available_cpus", lambda: 8)
        pairs = [(a, b) for a in ("F3", "F4", "P3", "P4")
                 for b in ("F3", "F4", "P3", "P4") if a != b]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                rec = artifact_recording()
                alive = weakref.ref(rec)
                channels = pipeline.condition_recording(rec, pairs)
                del rec
                released = [alive() is None for _ in channels]
                # the first channel comes while pairs are still to be
                # submitted
                assert not released[0] and released[-1]
        finally:
            sys.setswitchinterval(interval)

    def test_raw_first_errors_are_raised(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_available_cpus", lambda: 2)

        def fail(ch):
            raise NyquistViolation("too slow")

        with pytest.raises(NyquistViolation, match="too slow"):
            list(pipeline.condition_recording(artifact_recording(),
                                              raw_first=fail))

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_first_failing_task_names_the_error(self, monkeypatch, cpus):
        # every task fails, the first one last: its error is still the
        # one raised, as on one CPU
        monkeypatch.setattr(pipeline, "_available_cpus", lambda: cpus)

        def fail_pair(samples, fs, channel, *args, **kwargs):
            raise NyquistViolation(channel)

        def fail_slowly(ch):
            time.sleep(0.1)
            raise NyquistViolation("aeeg")

        monkeypatch.setattr(dsp, "preprocess_channel", fail_pair)
        with pytest.raises(NyquistViolation, match="^aeeg$"):
            list(pipeline.condition_recording(artifact_recording(),
                                              raw_first=fail_slowly))
