"""Signal conditioning: band-pass, resampling, artifact scan, segmentation.

The preprocessing order is fixed: scan raw minutes for artifacts first
(amplitude and flatness limits apply to the unfiltered signal), then
band-pass, then resample to the working rate, then cut 1-minute epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal

from .errors import (ConfigError, NyquistViolation, ShapeMismatch,
                     TooShortSignal)
from .labels import EPOCH_S

TARGET_FS = 64.0
EPOCH_SAMPLES = 3840  # 60 s at 64 Hz
_FILTER_BLOCK = 1 << 16  # samples per sosfilt call in filter_zero_phase


@dataclass(frozen=True)
class PreprocessConfig:
    """The band-pass applied to every raw channel."""

    low_hz: float = 0.5
    high_hz: float = 30.0
    order: int = 4


@dataclass(frozen=True)
class ArtifactConfig:
    """Raw-signal rejection limits, applied per 1-minute window."""

    amp_limit_uv: float = 250.0
    flat_run_s: float = 1.0


@dataclass(frozen=True)
class PreprocessReport:
    channel: str
    n_epochs: int
    rejected: tuple[int, ...]


def design_butter_bandpass(low_hz: float, high_hz: float,
                           order: int = PreprocessConfig.order, *,
                           fs: float) -> np.ndarray:
    """Design the band-pass filter for one sampling rate, as the array of
    its cascaded second-order sections.

    `order` counts second-order sections per band edge: an order-4 design
    rolls each edge off with 8 poles (16 overall), which keeps the stopband
    under -30 dB by 45 Hz while the band edges stay at the half-power
    (-3 dB) points of the single-pass response. Zero-phase application
    squares the magnitude response.

    Raises ConfigError for band edges out of order, and NyquistViolation
    (a DataError) when the band does not fit below the signal's fs/2. The
    returned sections are checked for stability (all poles strictly inside
    the unit circle).
    """
    if order < 1:
        raise ConfigError(f"filter order {order} must be >= 1")
    if fs <= 0:
        raise ConfigError(f"sampling rate {fs} must be positive")
    if not 0.0 < low_hz < high_hz:
        raise ConfigError(
            f"band edges ({low_hz}, {high_hz}) must satisfy 0 < low < high")
    if high_hz >= fs / 2.0:
        raise NyquistViolation(
            f"high edge {high_hz} Hz requires fs > {2 * high_hz} Hz, "
            f"got {fs} Hz")
    sos = signal.butter(2 * order, [low_hz, high_hz], btype="bandpass",
                        fs=fs, output="sos")
    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise ConfigError(
                f"unstable design for band ({low_hz}, {high_hz}) at {fs} Hz")
    return sos


def _settle_samples(sos: np.ndarray) -> int:
    """Samples for the slowest pole's impulse response to decay to 1e-6."""
    _, poles, _ = signal.sos2zpk(sos)
    radius = float(np.max(np.abs(poles)))
    if radius <= 0.0 or radius >= 1.0:
        return 0
    return int(math.ceil(math.log(1e-6) / math.log(radius)))


def filter_zero_phase(x: np.ndarray, sos: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Forward-backward filtering: zero phase, squared magnitude.

    The signal is extended by even reflection before filtering. An even
    extension carries no step at the boundary, so the slow pole near the
    low band edge is barely excited; the default odd extension offsets
    the pad by twice the edge value and leaves a visible transient. The
    pad length covers the slowest pole's settling time when the signal
    is long enough, and shrinks to fit otherwise.

    The result is bitwise equal to
    `signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)`, but the
    two passes run block by block into `out` (a new array by default), so
    no padded copy of the signal is made: the pads only carry the filter
    state. `out` may be `x` itself, which is then overwritten.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatch(f"expected 1-D signal, got shape {x.shape}")
    min_pad = 3 * (2 * len(sos) + 1)
    if x.size <= min_pad:
        raise TooShortSignal(
            f"{x.size} samples, zero-phase filtering needs > {min_pad}")
    if out is None:
        out = np.empty_like(x)
    elif out.shape != x.shape or out.dtype != np.float64:
        raise ShapeMismatch(f"out {out.dtype}{out.shape} for float64 signal "
                            f"of shape {x.shape}")
    padlen = min(x.size - 1, max(min_pad, _settle_samples(sos)))
    n = x.size
    zi = signal.sosfilt_zi(sos)
    # The even extension is x[padlen:0:-1] + x + x[-2:-(padlen + 2):-1];
    # the right pad's source is saved before `out` may overwrite it.
    right = x[-2:-(padlen + 2):-1].copy()
    _, state = signal.sosfilt(sos, x[padlen:0:-1], zi=zi * x[padlen])
    for start in range(0, n, _FILTER_BLOCK):
        stop = min(start + _FILTER_BLOCK, n)
        out[start:stop], state = signal.sosfilt(sos, x[start:stop], zi=state)
    tail, _ = signal.sosfilt(sos, right, zi=state)
    _, state = signal.sosfilt(sos, tail[::-1], zi=zi * tail[-1])
    for stop in range(n, 0, -_FILTER_BLOCK):
        start = max(0, stop - _FILTER_BLOCK)
        block, state = signal.sosfilt(sos, out[start:stop][::-1], zi=state)
        out[start:stop] = block[::-1]
    return out


def resample(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Polyphase resampling with a Kaiser anti-aliasing low-pass.

    The rate ratio is taken as the closest rational with denominator at
    most 1000, which is exact for the usual PSG rates. Output length is
    ceil(n * fs_out / fs_in).
    """
    if fs_in <= 0 or fs_out <= 0:
        raise ConfigError(f"rates must be positive, got {fs_in}, {fs_out}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatch(f"expected 1-D signal, got shape {x.shape}")
    if fs_in == fs_out:
        return x.copy()
    ratio = Fraction(fs_out / fs_in).limit_denominator(1000)
    if ratio <= 0:
        raise ConfigError(f"degenerate rate ratio {fs_out}/{fs_in}")
    y = signal.resample_poly(x, ratio.numerator, ratio.denominator,
                             window=("kaiser", 8.0))
    expected = math.ceil(x.size * ratio.numerator / ratio.denominator)
    if y.size != expected:
        raise ShapeMismatch(
            f"resampler produced {y.size} samples, expected {expected}")
    return y


def _window_is_artifact(x: np.ndarray, fs: float,
                        cfg: ArtifactConfig) -> bool:
    """Amplitude or flatness violation inside one window of raw signal."""
    if np.isnan(x).any():
        return True
    if np.max(np.abs(x)) > cfg.amp_limit_uv:
        return True
    run_limit = int(round(cfg.flat_run_s * fs))
    if run_limit <= 1:
        raise ConfigError(
            f"flat_run_s {cfg.flat_run_s} spans under two samples at "
            f"{fs} Hz")
    same = np.diff(x) == 0.0
    if not same.any():
        return False
    # longest run of equal consecutive samples
    padded = np.concatenate([[False], same, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    longest = int((edges[1::2] - edges[0::2]).max()) + 1
    return longest >= run_limit


def segment_epochs(x: np.ndarray, valid: list[bool] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Cut a working-rate signal into 1-minute epochs: an (n_epochs,
    EPOCH_SAMPLES) float32 array and its bool validity mask, all True
    unless flags are given. A trailing partial minute is dropped."""
    x = np.asarray(x, dtype=np.float64)
    n_epochs = x.size // EPOCH_SAMPLES
    if valid is None:
        mask = np.ones(n_epochs, dtype=bool)
    elif len(valid) < n_epochs:
        raise ShapeMismatch(
            f"{len(valid)} validity flags for {n_epochs} epochs")
    else:
        mask = np.array(valid[:n_epochs], dtype=bool)
    epochs = x[:n_epochs * EPOCH_SAMPLES].reshape(n_epochs, EPOCH_SAMPLES)
    return epochs.astype(np.float32), mask


def preprocess_channel(samples: np.ndarray, fs_in: float, channel: str,
                       preprocess: PreprocessConfig = PreprocessConfig(),
                       artifact: ArtifactConfig = ArtifactConfig(),
                       ) -> tuple[tuple[np.ndarray, np.ndarray],
                                  PreprocessReport]:
    """Run the fixed conditioning chain on one raw channel; returns the
    epochs and their validity mask (see segment_epochs) with a report.

    Artifacts are scanned on the raw signal per whole minute, so amplitude
    excursions are judged before the band-pass can shrink them. Epochs
    whose raw minute was rejected come back invalid. Non-finite raw
    samples, which always reject their minute, are zeroed before the
    band-pass so they cannot spread into the valid minutes around them.

    A float64 `samples` is zeroed and band-passed in place, so no
    signal-sized array is allocated at the raw rate; pass a copy to keep
    it. Any other dtype is first converted to a new float64 array.
    """
    x = np.asarray(samples, dtype=np.float64)
    window = int(round(EPOCH_S * fs_in))
    n_windows = x.size // window
    rejected = tuple(
        i for i in range(n_windows)
        if _window_is_artifact(x[i * window:(i + 1) * window], fs_in,
                               artifact))
    if not np.isfinite(x).all():
        np.nan_to_num(x, copy=False, nan=0.0, posinf=0.0, neginf=0.0)

    sos = design_butter_bandpass(preprocess.low_hz, preprocess.high_hz,
                                 order=preprocess.order, fs=fs_in)
    filtered = filter_zero_phase(x, sos, out=x)
    at_target = resample(filtered, fs_in, TARGET_FS)

    flags = np.ones(n_windows, dtype=bool)
    flags[list(rejected)] = False
    epochs, valid = segment_epochs(at_target, valid=flags)
    if len(epochs) != n_windows:
        raise ShapeMismatch(
            f"{n_windows} raw minutes became {len(epochs)} epochs")

    report = PreprocessReport(channel=channel, n_epochs=len(epochs),
                              rejected=rejected)
    return (epochs, valid), report
