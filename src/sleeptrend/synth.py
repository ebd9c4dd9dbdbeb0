"""Synthetic neonatal EEG with known sleep-state structure.

Recordings alternate active and quiet sleep on a per-subject cycle in the
tens-of-minutes range. Quiet sleep is rendered as alternating high-amplitude
bursts and low inter-burst stretches; active sleep is stationary noise with
a 1/f amplitude weighting. All channels share the state timing but carry
independent content, so bipolar derivations keep the state structure. Every
numeric default is a plausibility constant for end-to-end testing, not a
clinical claim.

Amplitude budget: organic content stays at or below half the 250 microvolt
rejection limit per channel, so the difference of two channels cannot cross
the limit on its own. Minutes rejected downstream are then exactly the
injected artifact minutes, which ride at 300 microvolts on top of at most
120 of background and stay inside the 500 microvolt envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal.windows import tukey

from .errors import ConfigError
from .recording import (AnnotationTrack, ChannelSignal, Recording,
                        write_annotations, write_edf)

CHANNELS = ("F3", "F4", "P3", "P4")
GENERATOR_FS = 256.0
ARTIFACT_PEAK_UV = 300.0
AMPLITUDE_CAP_UV = 500.0

# Stream ids for the counter-based per-subject generators. Each concern
# gets its own Philox key so subjects can be built independently and in
# any order without sharing state.
_STREAM_TIMING = 0
_STREAM_ARTIFACT = 1
_STREAM_CHANNEL0 = 2

_PINK_FLOOR_HZ = 0.4


def _check_range(name: str, pair: tuple[float, float]) -> None:
    lo, hi = pair
    if not 0.0 < lo <= hi:
        raise ConfigError(
            f"{name} range ({lo}, {hi}) must be positive and ordered")


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs. Two-element tuples are (low, high) uniform ranges;
    amplitudes are single-sided peaks in microvolts."""

    seed: int = 0
    n_subjects: int = 4
    duration_min: float = 60.0
    cycle_min: tuple[float, float] = (40.0, 70.0)
    qs_fraction: float = 0.35
    as_rms_uv: tuple[float, float] = (15.0, 30.0)
    burst_peak_uv: tuple[float, float] = (50.0, 120.0)
    burst_s: tuple[float, float] = (3.0, 8.0)
    ibi_peak_uv: tuple[float, float] = (5.0, 25.0)
    ibi_s: tuple[float, float] = (3.0, 10.0)
    artifact_rate_per_hour: float = 2.0
    jitter_s: float = 30.0  # largest boundary shift of scorer e2

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError(f"seed {self.seed} outside [0, 2**63)")
        if self.n_subjects < 1:
            raise ConfigError(f"n_subjects {self.n_subjects} must be >= 1")
        if self.duration_min <= 0:
            raise ConfigError(
                f"duration {self.duration_min} min must be positive")
        if not 0.0 < self.qs_fraction < 1.0:
            raise ConfigError(
                f"quiet-sleep fraction {self.qs_fraction} outside (0, 1)")
        if self.artifact_rate_per_hour < 0:
            raise ConfigError(
                f"artifact rate {self.artifact_rate_per_hour} is negative")
        if self.jitter_s < 0:
            raise ConfigError(f"jitter {self.jitter_s} s is negative")
        for name in ("cycle_min", "as_rms_uv", "burst_peak_uv", "burst_s",
                     "ibi_peak_uv", "ibi_s"):
            _check_range(name, getattr(self, name))
        if self.burst_peak_uv[1] + ARTIFACT_PEAK_UV > AMPLITUDE_CAP_UV:
            raise ConfigError(
                f"burst peak {self.burst_peak_uv[1]} plus a "
                f"{ARTIFACT_PEAK_UV} artifact breaks the "
                f"{AMPLITUDE_CAP_UV} microvolt budget")


@dataclass(frozen=True)
class GroundTruth:
    """Exact quiet-sleep intervals the generator used for one subject."""

    subject_id: str
    track: AnnotationTrack


def _stream(seed: int, subject: int, concern: int) -> np.random.Generator:
    key = np.array([seed, (subject << 8) | concern], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-RMS noise, amplitude weighted 1/sqrt(f) above a low floor."""
    if n < 8:
        return rng.standard_normal(n)
    freqs = np.fft.rfftfreq(n, 1.0 / GENERATOR_FS)
    weight = np.zeros(freqs.size)
    weight[1:] = 1.0 / np.sqrt(np.maximum(freqs[1:], _PINK_FLOOR_HZ))
    spectrum = weight * (rng.standard_normal(freqs.size)
                         + 1j * rng.standard_normal(freqs.size))
    x = np.fft.irfft(spectrum, n)
    rms = float(np.sqrt(np.mean(x * x)))
    return x / rms if rms > 0 else x


def _quiet_intervals(rng: np.random.Generator, cfg: SynthConfig,
                     duration_s: float) -> list[tuple[float, float]]:
    """Cycle plan as (onset, duration) rows in whole seconds.

    Each cycle runs active sleep first, then quiet sleep. A trailing
    partial cycle keeps the configured quiet fraction of whatever length
    remains, so the long-run fraction holds for any duration.
    """
    cycle_s = float(round(rng.uniform(*cfg.cycle_min) * 60.0))
    rows = []
    t = 0.0
    while t < duration_s:
        span = min(cycle_s, duration_s - t)
        qs_len = float(round(cfg.qs_fraction * span))
        if qs_len >= 1.0:
            rows.append((t + span - qs_len, qs_len))
        t += span
    return rows


def _alternation(rng: np.random.Generator,
                 cfg: SynthConfig, n_samples: int) -> list:
    """Burst and inter-burst spans in samples, shared by all channels."""
    segments = []
    pos = 0
    burst = True
    while pos < n_samples:
        lo, hi = cfg.burst_s if burst else cfg.ibi_s
        length = min(n_samples - pos,
                     max(1, round(rng.uniform(lo, hi) * GENERATOR_FS)))
        segments.append((pos, pos + length, burst))
        pos += length
        burst = not burst
    return segments


def _scaled_to_peak(noise: np.ndarray, peak: float) -> np.ndarray:
    top = float(np.max(np.abs(noise)))
    return noise * (peak / top) if top > 0 else noise


def _fill_channel(rng: np.random.Generator, cfg: SynthConfig,
                  plan: list, n: int) -> np.ndarray:
    x = np.empty(n)
    as_rms = rng.uniform(*cfg.as_rms_uv)
    for start, end, segments in plan:
        if segments is None:
            x[start:end] = as_rms * _pink_noise(rng, end - start)
            continue
        for s0, s1, burst in segments:
            m = s1 - s0
            noise = _pink_noise(rng, m)
            if burst:
                noise = noise * tukey(m, 0.4)
                peak = rng.uniform(*cfg.burst_peak_uv)
            else:
                peak = rng.uniform(*cfg.ibi_peak_uv)
            x[start + s0:start + s1] = _scaled_to_peak(noise, peak)
    return x


def _add_artifacts(rng: np.random.Generator, cfg: SynthConfig,
                   channels: list[ChannelSignal], duration_s: float) -> None:
    """Oscillatory excursions in Poisson-many distinct minutes.

    The waveform is added to F3 and subtracted from P4, so every bipolar
    pair over these electrodes sees the full excursion.
    """
    n_minutes = int(duration_s // 60)
    count = int(rng.poisson(cfg.artifact_rate_per_hour * duration_s / 3600.0))
    count = min(count, n_minutes)
    if count == 0:
        return
    minutes = np.sort(rng.choice(n_minutes, size=count, replace=False))
    fs = GENERATOR_FS
    positive = next(ch for ch in channels if ch.label == "F3")
    negative = next(ch for ch in channels if ch.label == "P4")
    for minute in minutes:
        freq = rng.uniform(2.0, 4.0)
        dur = rng.uniform(1.0, 2.0)
        offset = rng.uniform(0.0, 60.0 - dur)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        length = round(dur * fs)
        start = round((minute * 60.0 + offset) * fs)
        t = np.arange(length) / fs
        wave = ARTIFACT_PEAK_UV * np.sin(2.0 * np.pi * freq * t + phase)
        wave *= tukey(length, 0.5)
        positive.samples[start:start + length] += wave
        negative.samples[start:start + length] -= wave


def _one_subject(cfg: SynthConfig,
                 index: int) -> tuple[Recording, GroundTruth]:
    subject_id = f"s{index + 1:02d}"
    duration_s = float(round(cfg.duration_min * 60.0))
    n = round(duration_s * GENERATOR_FS)

    timing = _stream(cfg.seed, index, _STREAM_TIMING)
    quiet = _quiet_intervals(timing, cfg, duration_s)

    # One chronological plan shared by every channel: active stretches
    # carry no alternation, quiet stretches carry the shared segments.
    plan = []
    prev = 0
    for onset, dur in quiet:
        a = round(onset * GENERATOR_FS)
        b = round((onset + dur) * GENERATOR_FS)
        if a > prev:
            plan.append((prev, a, None))
        plan.append((a, b, _alternation(timing, cfg, b - a)))
        prev = b
    if prev < n:
        plan.append((prev, n, None))

    channels = []
    for offset, label in enumerate(CHANNELS):
        rng = _stream(cfg.seed, index, _STREAM_CHANNEL0 + offset)
        samples = _fill_channel(rng, cfg, plan, n)
        channels.append(ChannelSignal(label=label, fs=GENERATOR_FS,
                                      samples=samples))

    _add_artifacts(_stream(cfg.seed, index, _STREAM_ARTIFACT), cfg,
                   channels, duration_s)

    recording = Recording(subject_id=subject_id, duration_s=duration_s,
                          channels=channels)
    truth = GroundTruth(subject_id=subject_id,
                        track=AnnotationTrack.from_rows(quiet))
    return recording, truth


def generate(cfg: SynthConfig) -> list[tuple[Recording, GroundTruth]]:
    """All subjects for one config.

    Deterministic per seed; each subject depends only on the seed and its
    own index, never on how many subjects come before or after it.
    """
    return [_one_subject(cfg, index) for index in range(cfg.n_subjects)]


def jitter_track(track: AnnotationTrack, max_shift_s: float,
                 seed: int) -> AnnotationTrack:
    """Shift every interval boundary by an independent uniform offset.

    Fabricates a plausible second scorer from ground truth. Intervals that
    collapse below one second are dropped; overlaps cannot arise as long
    as gaps between intervals exceed twice the shift, and are clamped away
    otherwise.
    """
    if max_shift_s < 0:
        raise ConfigError(f"max shift {max_shift_s} is negative")
    rng = np.random.default_rng(seed)
    rows = []
    prev_end = 0.0
    for onset, dur in track.intervals:
        a = round(onset + rng.uniform(-max_shift_s, max_shift_s))
        b = round(onset + dur + rng.uniform(-max_shift_s, max_shift_s))
        a = max(prev_end, max(0.0, float(a)))
        if b - a >= 1.0:
            rows.append((a, float(b - a)))
            prev_end = float(b)
    return AnnotationTrack.from_rows(rows)


def write_dataset(generated: list[tuple[Recording, GroundTruth]],
                  out_dir: str | Path,
                  jitter_s: float = SynthConfig.jitter_s) -> list[Path]:
    """EDF plus three annotation files per subject.

    Scorer e1 matches ground truth exactly; scorer e2 is the truth with
    boundaries jittered by up to jitter_s. Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for index, (recording, truth) in enumerate(generated):
        base = out_dir / recording.subject_id
        edf_path = base.with_suffix(".edf")
        write_edf(recording, edf_path)
        written.append(edf_path)
        tracks = {
            "truth": truth.track,
            "e1": truth.track,
            "e2": jitter_track(truth.track, jitter_s, seed=index),
        }
        for name, track in tracks.items():
            path = Path(f"{base}.{name}.csv")
            write_annotations(track, path)
            written.append(path)
    return written
