"""Generator contracts: determinism, state structure, amplitude budget,
artifact bookkeeping, and file round trips."""

import numpy as np
import pytest

from sleeptrend import dsp, synth
from sleeptrend.errors import ConfigError
from sleeptrend.labels import Label
from sleeptrend.recording import (AnnotationTrack, derive_bipolar,
                                  epoch_labels, read_annotations, read_edf)

BIPOLAR_PAIRS = [("F3", "P3"), ("F4", "P4"), ("F3", "F4"), ("P3", "P4")]


def rms_variability(samples: np.ndarray, epoch: int, fs: int = 256) -> float:
    """Std of 2-second-window RMS inside one 1-minute epoch."""
    seg = samples[epoch * 60 * fs:(epoch + 1) * 60 * fs]
    windows = seg.reshape(-1, 2 * fs)
    return float(np.sqrt((windows ** 2).mean(axis=1)).std())


class TestConfig:

    def test_defaults_valid(self):
        cfg = synth.SynthConfig()
        assert cfg.qs_fraction == 0.35
        assert cfg.cycle_min == (40.0, 70.0)

    @pytest.mark.parametrize("override", [
        {"seed": -1},
        {"n_subjects": 0},
        {"duration_min": 0.0},
        {"qs_fraction": 0.0},
        {"qs_fraction": 1.0},
        {"cycle_min": (70.0, 40.0)},
        {"as_rms_uv": (0.0, 30.0)},
        {"burst_s": (-1.0, 2.0)},
        {"artifact_rate_per_hour": -0.5},
        {"jitter_s": -1.0},
    ])
    def test_invalid_values_rejected(self, override):
        with pytest.raises(ConfigError):
            synth.SynthConfig(**override)

    def test_amplitude_budget_guard(self):
        # bursts plus a 300 uV artifact must stay within 500 uV
        with pytest.raises(ConfigError):
            synth.SynthConfig(burst_peak_uv=(50.0, 250.0))


class TestGenerate:

    def test_same_seed_bit_identical(self):
        cfg = synth.SynthConfig(seed=9, n_subjects=2, duration_min=10.0)
        first = synth.generate(cfg)
        second = synth.generate(cfg)
        for (rec_a, truth_a), (rec_b, truth_b) in zip(first, second):
            assert truth_a.track.intervals == truth_b.track.intervals
            for label in rec_a.labels:
                assert np.array_equal(rec_a.channel(label).samples,
                                      rec_b.channel(label).samples)

    def test_seeds_differ(self):
        one = synth.generate(synth.SynthConfig(seed=1, n_subjects=1,
                                               duration_min=10.0))[0][0]
        two = synth.generate(synth.SynthConfig(seed=2, n_subjects=1,
                                               duration_min=10.0))[0][0]
        assert not np.array_equal(one.channel("F3").samples,
                                  two.channel("F3").samples)

    def test_subjects_independent_of_cohort_size(self):
        # subject i depends on (seed, i) only, so prefixes agree
        big = synth.generate(synth.SynthConfig(seed=9, n_subjects=3,
                                               duration_min=10.0))
        small = synth.generate(synth.SynthConfig(seed=9, n_subjects=2,
                                                 duration_min=10.0))
        for i in range(2):
            assert big[i][0].subject_id == small[i][0].subject_id
            for label in ("F3", "P4"):
                assert np.array_equal(big[i][0].channel(label).samples,
                                      small[i][0].channel(label).samples)

    def test_recording_geometry(self):
        cfg = synth.SynthConfig(seed=3, n_subjects=2, duration_min=12.0)
        generated = synth.generate(cfg)
        assert [rec.subject_id for rec, _ in generated] == ["s01", "s02"]
        for rec, truth in generated:
            assert rec.labels == list(synth.CHANNELS)
            assert all(ch.fs == synth.GENERATOR_FS for ch in rec.channels)
            assert rec.duration_s == 720.0
            assert truth.subject_id == rec.subject_id
            for label in rec.labels:
                assert rec.channel(label).samples.size == 720 * 256

    def test_long_run_qs_fraction(self):
        cfg = synth.SynthConfig(seed=3, n_subjects=1, duration_min=360.0)
        rec, truth = synth.generate(cfg)[0]
        qs_seconds = sum(dur for _, dur in truth.track.intervals)
        assert qs_seconds / rec.duration_s == pytest.approx(0.35, abs=0.05)

    def test_quiet_intervals_inside_recording(self):
        cfg = synth.SynthConfig(seed=7, n_subjects=1, duration_min=95.0)
        rec, truth = synth.generate(cfg)[0]
        assert truth.track.intervals
        for onset, dur in truth.track.intervals:
            assert dur >= 1.0
            assert 0.0 <= onset
            assert onset + dur <= rec.duration_s

    def test_epoch_rms_variability_separation(self):
        # the defining contract: quiet-sleep alternation makes within-epoch
        # RMS swing harder than stationary active sleep, for nearly every
        # epoch pair; judged on artifact-free output
        cfg = synth.SynthConfig(seed=5, n_subjects=1, duration_min=150.0,
                                artifact_rate_per_hour=0.0)
        rec, truth = synth.generate(cfg)[0]
        labels = epoch_labels(truth.track, int(rec.duration_s // 60))
        x = rec.channel("F3").samples
        qs = [rms_variability(x, i) for i, lab in enumerate(labels)
              if lab is Label.QS]
        active = [rms_variability(x, i) for i, lab in enumerate(labels)
                  if lab is Label.AS]
        assert len(qs) >= 20 and len(active) >= 20
        wins = sum(1 for q in qs for a in active if q > a)
        assert wins / (len(qs) * len(active)) >= 0.95

    def test_amplitude_budget_respected(self):
        for seed in (0, 5):
            cfg = synth.SynthConfig(seed=seed, n_subjects=1,
                                    duration_min=120.0)
            rec, _ = synth.generate(cfg)[0]
            for label in rec.labels:
                samples = rec.channel(label).samples
                assert np.isfinite(samples).all()
                assert np.max(np.abs(samples)) <= synth.AMPLITUDE_CAP_UV

    def test_organic_signal_below_rejection_limit(self):
        # without injected artifacts no bipolar minute may cross 250 uV,
        # otherwise rejection counts would drift off the configured rate
        cfg = synth.SynthConfig(seed=5, n_subjects=1, duration_min=120.0,
                                artifact_rate_per_hour=0.0)
        rec, _ = synth.generate(cfg)[0]
        bipolar = derive_bipolar(rec, BIPOLAR_PAIRS)
        for ch in bipolar.channels:
            assert np.max(np.abs(ch.samples)) < 250.0

    def test_artifact_minutes_rejected_at_configured_rate(self):
        # rate 2/hour over 10 hours: about 20 rejected minutes, +-50%
        cfg = synth.SynthConfig(seed=11, n_subjects=1, duration_min=600.0,
                                artifact_rate_per_hour=2.0)
        rec, _ = synth.generate(cfg)[0]
        ch = derive_bipolar(rec, [("F3", "P3")]).channels[0]
        _, report = dsp.preprocess_channel(ch.samples, 256.0, ch.label)
        assert report.n_epochs == 600
        assert 10 <= len(report.rejected) <= 30


class TestJitter:

    TRACK = AnnotationTrack.from_rows([(600.0, 300.0), (3000.0, 420.0)])

    def test_boundaries_move_within_limit(self):
        out = synth.jitter_track(self.TRACK, 30.0, seed=4)
        assert len(out.intervals) == 2
        for (onset, dur), (ref_on, ref_dur) in zip(out.intervals,
                                                   self.TRACK.intervals):
            assert abs(onset - ref_on) <= 30.0
            assert abs((onset + dur) - (ref_on + ref_dur)) <= 30.0
            assert dur >= 1.0

    def test_zero_shift_is_identity(self):
        out = synth.jitter_track(self.TRACK, 0.0, seed=4)
        assert out.intervals == self.TRACK.intervals

    def test_deterministic_per_seed(self):
        a = synth.jitter_track(self.TRACK, 30.0, seed=4)
        b = synth.jitter_track(self.TRACK, 30.0, seed=4)
        c = synth.jitter_track(self.TRACK, 30.0, seed=5)
        assert a.intervals == b.intervals
        assert a.intervals != c.intervals

    def test_negative_shift_rejected(self):
        with pytest.raises(ConfigError):
            synth.jitter_track(self.TRACK, -1.0, seed=0)


class TestWriteDataset:

    def test_files_round_trip(self, tmp_path):
        cfg = synth.SynthConfig(seed=9, n_subjects=2, duration_min=30.0)
        generated = synth.generate(cfg)
        paths = synth.write_dataset(generated, tmp_path)
        assert len(paths) == 8
        assert all(p.exists() for p in paths)

        rec, truth = generated[0]
        back = read_edf(tmp_path / "s01.edf")
        assert back.subject_id == "s01"
        assert back.labels == list(synth.CHANNELS)
        assert back.duration_s == rec.duration_s
        for label in rec.labels:
            err = np.max(np.abs(back.channel(label).samples
                                - rec.channel(label).samples))
            assert err < 0.05  # EDF 16-bit quantization
        raw = (tmp_path / "s01.edf").read_bytes()
        ns = len(synth.CHANNELS)
        assert raw[244:252] == b"1       "  # 1 s data records
        assert raw[256 + 96 * ns:256 + 104 * ns] == b"uV      " * ns

        assert read_annotations(
            tmp_path / "s01.truth.csv").intervals == truth.track.intervals
        assert read_annotations(
            tmp_path / "s01.e1.csv").intervals == truth.track.intervals
        e2 = read_annotations(tmp_path / "s01.e2.csv")
        assert e2.intervals != truth.track.intervals
        for (onset, dur), (ref_on, ref_dur) in zip(e2.intervals,
                                                   truth.track.intervals):
            assert abs(onset - ref_on) <= 30.0
            assert abs((onset + dur) - (ref_on + ref_dur)) <= 30.0
