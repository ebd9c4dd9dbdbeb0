"""Sleep State Trend construction and rendering.

The per-channel quiet-sleep probabilities are fused into a single trend
with an uncertainty band, median-smoothed, thresholded into dichotomic
quiet-sleep intervals, and drawn as a deterministic SVG chart alongside
an optional amplitude-integrated EEG companion trend.

Missing entries (rejected epochs) are NaN throughout. An epoch where
every channel is missing is a Gap: it stays NaN in all derived series,
splits detected intervals, and breaks the plotted line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import dsp
from .errors import ConfigError, EvenWindow, LengthMismatch, ShapeMismatch
from .labels import EPOCH_S, GAP, Label


@dataclass(frozen=True)
class SstConfig:
    """How the trend is fused, smoothed and cut: `weights` maps channel
    names to fusion weights (equal weights when None). This is the one
    place these settings are checked, before any work is done."""

    threshold: float = 0.5
    smooth_window: int = 5
    weights: dict[str, float] | None = None

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"sst.threshold {self.threshold} must sit in "
                              f"(0, 1)")
        if self.smooth_window % 2 != 1 or self.smooth_window < 1:
            raise EvenWindow(f"sst.smooth_window {self.smooth_window} must "
                             f"be odd and positive")
        for channel, weight in (self.weights or {}).items():
            if not (math.isfinite(weight) and weight > 0):
                raise ConfigError(f"sst.weights.{channel}: {weight} must be "
                                  f"finite and positive")

    def channel_weights(self, channels: Sequence[str]) -> list[float]:
        """The fusion weight of each of `channels`, in order: equal
        weights when none are configured, else every channel needs one."""
        if self.weights is None:
            return [1.0] * len(channels)
        missing = sorted(set(channels) - set(self.weights))
        if missing:
            raise ConfigError(f"sst.weights: missing channel(s) {missing}")
        return [self.weights[c] for c in channels]


def decide(series: np.ndarray, threshold: float) -> list[str]:
    """Per-epoch decision: Gap where the value is NaN, quiet sleep at or
    above the threshold, active sleep below it."""
    return [GAP if not np.isfinite(value)
            else str(Label.QS) if value >= threshold
            else str(Label.AS)
            for value in np.asarray(series, dtype=float)]


def median_smooth(series: np.ndarray, window: int = SstConfig.smooth_window
                  ) -> np.ndarray:
    """Centered moving median. The window shrinks symmetrically near the
    edges; NaN entries are excluded from neighboring windows and stay NaN
    in the output.

    The smoothed value is always one of the window's observed samples.
    When a gap leaves an even number of them, the result is whichever of
    the two middle samples lies nearer the epoch's own raw value (the
    lower one on exact ties). Averaging the middles instead would invent
    probabilities that sit on neither side of a bimodal window, and one
    missing minute next to a state change could then flip a confidently
    classified neighbor.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    out = np.full(n, np.nan)
    half_max = window // 2
    for i in range(n):
        if not np.isfinite(series[i]):
            continue
        half = min(half_max, i, n - 1 - i)
        chunk = series[i - half:i + half + 1]
        vals = np.sort(chunk[np.isfinite(chunk)])
        k = vals.size
        if k % 2 == 1:
            out[i] = vals[k // 2]
        else:
            lo, hi = vals[k // 2 - 1], vals[k // 2]
            near_lo = abs(series[i] - lo) <= abs(series[i] - hi)
            out[i] = lo if near_lo else hi
    return out


@dataclass(frozen=True)
class SstTrace:
    p_mean: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    p_smoothed: np.ndarray
    decisions: tuple[str, ...]
    epoch_len_s: float = EPOCH_S

    def __post_init__(self):
        n = len(self.p_mean)
        for name in ("p_min", "p_max", "p_smoothed"):
            if len(getattr(self, name)) != n:
                raise LengthMismatch(f"{name} length != {n}")
        if len(self.decisions) != n:
            raise LengthMismatch("decisions length mismatch")
        ok = np.isfinite(self.p_mean)
        if not (np.all(self.p_min[ok] <= self.p_mean[ok] + 1e-12)
                and np.all(self.p_mean[ok] <= self.p_max[ok] + 1e-12)):
            raise ShapeMismatch("band must bracket the mean")

    def __len__(self) -> int:
        return len(self.p_mean)


def compute_sst(predictions: Mapping[str, np.ndarray],
                cfg: SstConfig = SstConfig()) -> SstTrace:
    """Fuse, band, smooth, and decide. The channels are taken in name
    order, and the fused trend is their weighted mean over the channels
    present at each epoch, the weights renormalized over those present.
    The decision is taken on the smoothed trend: quiet sleep when it
    reaches the threshold, Gap when no channel survived artifact
    rejection."""
    channels = sorted(predictions)
    values = np.asarray(np.column_stack([predictions[c] for c in channels]),
                        dtype=float)
    present = np.isfinite(values)
    if np.any(values[present] < 0.0) or np.any(values[present] > 1.0):
        raise ShapeMismatch("probabilities must sit in [0, 1]")
    weights = np.asarray(cfg.channel_weights(channels), dtype=float)
    totals = present @ weights
    any_present = present.any(axis=1)
    filled = np.where(present, values, 0.0)
    fused = np.full(len(values), np.nan)
    fused[any_present] = (filled @ weights)[any_present] / totals[any_present]
    p_min = np.full(len(values), np.nan)
    p_max = np.full(len(values), np.nan)
    p_min[any_present] = np.nanmin(values[any_present], axis=1)
    p_max[any_present] = np.nanmax(values[any_present], axis=1)
    smoothed = median_smooth(fused, cfg.smooth_window)
    return SstTrace(p_mean=fused, p_min=p_min, p_max=p_max,
                    p_smoothed=smoothed,
                    decisions=tuple(decide(smoothed, cfg.threshold)))


@dataclass(frozen=True)
class QsInterval:
    start_epoch: int
    end_epoch: int  # half-open

    def __post_init__(self):
        if self.end_epoch <= self.start_epoch:
            raise ConfigError("empty interval")


def _runs(mask: Sequence[bool]) -> list[tuple[int, int]]:
    """Half-open [start, end) spans of consecutive true entries."""
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def detect_dqs(trace: SstTrace) -> list[QsInterval]:
    """Maximal runs of quiet-sleep decisions. Gaps always terminate a
    run."""
    hits = [d == str(Label.QS) for d in trace.decisions]
    return [QsInterval(a, b) for a, b in _runs(hits)]


# samples of moving average per block of compute_aeeg, rounded down to
# whole minutes (at least one)
AEEG_BLOCK = 1 << 16


def compute_aeeg(samples: np.ndarray,
                 fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-integrated trend: band-pass 2-15 Hz, rectify, 0.5 s
    moving average, then the 10th and 90th percentile per 1-minute epoch.
    Returns (lower, upper) in µV; the trailing partial minute is dropped.

    A steady 10 µV 7 Hz tone comes out near (6.37, 6.37): rectification
    leaves a 14 Hz ripple whose cycles fit the 0.5 s window exactly, so
    the average flattens to the rectified mean 2A/pi.

    The average and the percentiles are made a block of minutes at a
    time, each block reading its kernel's halo from the neighbouring
    rectified samples, so only the rectified signal is full-length. The
    result is bitwise equal to one full-length `np.convolve(mode="same")`
    followed by `np.percentile` over every minute.

    A float64 `samples` is band-passed and rectified in place, so the
    only signal-sized array is the input; pass a copy to keep it. Any
    other dtype is first converted to a new float64 array.
    """
    samples = np.asarray(samples, dtype=float)
    spec = dsp.design_butter_bandpass(2.0, 15.0, order=2, fs=fs)
    rectified = dsp.filter_zero_phase(samples, spec, out=samples)
    np.abs(rectified, out=rectified)
    win = max(1, int(round(0.5 * fs)))
    kernel = np.ones(win) / win
    per_epoch = int(round(EPOCH_S * fs))
    n_epochs = len(rectified) // per_epoch
    minutes = max(1, AEEG_BLOCK // per_epoch)
    lower = np.empty(n_epochs)
    upper = np.empty(n_epochs)
    for first in range(0, n_epochs, minutes):
        last = min(first + minutes, n_epochs)
        start, stop = first * per_epoch, last * per_epoch
        # "same" mode centres the kernel: output i averages the inputs
        # i - win // 2 ... i + (win - 1) // 2
        lo = max(0, start - win // 2)
        hi = min(len(rectified), stop + (win - 1) // 2)
        smooth = np.convolve(rectified[lo:hi], kernel, mode="same")
        segs = smooth[start - lo:stop - lo].reshape(last - first, per_epoch)
        lower[first:last], upper[first:last] = np.percentile(
            segs, [10, 90], axis=1)
    return lower, upper


# CSV output ----------------------------------------------------------------

def write_sst_csv(trace: SstTrace, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch_index", "t_start_s", "p_mean", "p_min",
                         "p_max", "p_smoothed", "decision"])
        for i in range(len(trace)):
            writer.writerow([
                i, repr(i * trace.epoch_len_s),
                repr(float(trace.p_mean[i])), repr(float(trace.p_min[i])),
                repr(float(trace.p_max[i])),
                repr(float(trace.p_smoothed[i])), trace.decisions[i]])


def read_sst_csv(path: str | Path) -> SstTrace:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return SstTrace(
        p_mean=np.array([float(r["p_mean"]) for r in rows]),
        p_min=np.array([float(r["p_min"]) for r in rows]),
        p_max=np.array([float(r["p_max"]) for r in rows]),
        p_smoothed=np.array([float(r["p_smoothed"]) for r in rows]),
        decisions=tuple(r["decision"] for r in rows))


def write_dqs_csv(intervals: Sequence[QsInterval], path: str | Path,
                  epoch_len_s: float = EPOCH_S) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_s", "end_s"])
        for qs in intervals:
            writer.writerow([repr(qs.start_epoch * epoch_len_s),
                             repr(qs.end_epoch * epoch_len_s)])


# SVG rendering -------------------------------------------------------------

PX_PER_HOUR = 40.0
SVG_HEIGHT = 300
MARGIN_LEFT = 56.0
MARGIN_RIGHT = 12.0
SST_TOP = 14.0
SST_HEIGHT = 130.0
STRIP_HEIGHT = 12.0
STRIP_PAD = 4.0
AEEG_HEIGHT = 86.0
AEEG_MAX_UV = 100.0

_LABEL_FILL = {str(Label.QS): "#1f4e79", str(Label.AS): "#9dc3e6",
               str(Label.EXCLUDED): "#bfbfbf", GAP: "#bfbfbf"}


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _aeeg_y(uv: float, top: float, height: float) -> float:
    """Standard semilogarithmic display: linear up to 10 µV in the lower
    half, logarithmic 10-100 µV in the upper half."""
    uv = min(max(uv, 0.0), AEEG_MAX_UV)
    if uv <= 10.0:
        frac = 0.5 * uv / 10.0
    else:
        frac = 0.5 + 0.5 * np.log10(uv / 10.0)
    return top + height * (1.0 - frac)


def render_svg(trace: SstTrace, dqs: Sequence[QsInterval] = (),
               annotations: Mapping[str, Sequence[Label | str]] | None = None,
               aeeg: tuple[np.ndarray, np.ndarray] | None = None,
               threshold: float = SstConfig.threshold) -> str:
    """Deterministic SVG chart: the trend with its min/max shadow and
    threshold line, dichotomic QS bars, optional annotation strips, and
    an optional semilogarithmic companion trend below."""
    n = len(trace)
    hours = n * trace.epoch_len_s / 3600.0
    plot_w = max(PX_PER_HOUR * hours, 8.0)
    width = MARGIN_LEFT + plot_w + MARGIN_RIGHT

    def x_at(epoch: float) -> float:
        return MARGIN_LEFT + (plot_w * epoch / n if n else 0.0)

    def y_at(p: float) -> float:
        return SST_TOP + SST_HEIGHT * (1.0 - p)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {_fmt(width)} {SVG_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    # probability axis with gridline labels
    axis_y = SST_TOP + SST_HEIGHT
    parts.append(f'<g font-family="sans-serif" font-size="9" fill="#444">')
    for p in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 6)}" y="{_fmt(y_at(p) + 3)}" '
            f'text-anchor="end">{_fmt(p)}</text>')
    for h in range(int(hours) + 1):
        xh = x_at(h * 3600.0 / trace.epoch_len_s)
        parts.append(f'<text x="{_fmt(xh)}" y="{_fmt(axis_y + 10)}" '
                     f'text-anchor="middle">{h}h</text>')
    parts.append('</g>')
    parts.append(f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(SST_TOP)}" '
                 f'width="{_fmt(plot_w)}" height="{_fmt(SST_HEIGHT)}" '
                 f'fill="none" stroke="#888" stroke-width="0.5"/>')

    present = np.isfinite(trace.p_smoothed)
    centers = np.arange(n) + 0.5

    # min/max shadow, split at gaps, drawn per contiguous run
    for a, b in _runs(present):
        if b - a < 2:
            continue
        top = [f"{_fmt(x_at(centers[i]))},{_fmt(y_at(trace.p_max[i]))}"
               for i in range(a, b)]
        bottom = [f"{_fmt(x_at(centers[i]))},{_fmt(y_at(trace.p_min[i]))}"
                  for i in range(b - 1, a - 1, -1)]
        parts.append(f'<polygon points="{" ".join(top + bottom)}" '
                     f'fill="#c8c8c8" stroke="none"/>')

    # threshold
    ty = y_at(threshold)
    parts.append(f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(ty)}" '
                 f'x2="{_fmt(MARGIN_LEFT + plot_w)}" y2="{_fmt(ty)}" '
                 f'stroke="black" stroke-width="0.8" '
                 f'stroke-dasharray="4 3"/>')

    # smoothed trend, one path per run so gaps break the line
    for a, b in _runs(present):
        pts = [f"{_fmt(x_at(centers[i]))},"
               f"{_fmt(y_at(trace.p_smoothed[i]))}" for i in range(a, b)]
        if len(pts) == 1:
            cx, cy = pts[0].split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" '
                         f'fill="black"/>')
        else:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="black" stroke-width="1.2"/>')

    # DQS bars and annotation strips
    def strip(name: str, y: float, spans) -> None:
        """A labelled strip of (start epoch, end epoch, fill) bars."""
        parts.append(f'<text x="{_fmt(MARGIN_LEFT - 6)}" '
                     f'y="{_fmt(y + STRIP_HEIGHT - 3)}" '
                     f'font-family="sans-serif" font-size="9" fill="#444" '
                     f'text-anchor="end">{name}</text>')
        for a, b, fill in spans:
            parts.append(
                f'<rect x="{_fmt(x_at(a))}" y="{_fmt(y)}" '
                f'width="{_fmt(x_at(b) - x_at(a))}" '
                f'height="{_fmt(STRIP_HEIGHT)}" fill="{fill}"/>')

    strip_y = axis_y + 16.0
    strip("DQS", strip_y,
          [(qs.start_epoch, qs.end_epoch, "#1f4e79") for qs in dqs])
    for expert in sorted(annotations or {}):
        strip_y += STRIP_HEIGHT + STRIP_PAD
        labels = [str(v) for v in annotations[expert]]
        strip(expert, strip_y,
              [(a, b, _LABEL_FILL.get(value, "#e0e0e0"))
               for value in sorted(set(labels))
               for a, b in _runs([v == value for v in labels])])

    if aeeg is not None:
        lower, upper = aeeg
        m = len(lower)
        a_top = SVG_HEIGHT - AEEG_HEIGHT - 4.0
        parts.append(
            f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(a_top)}" '
            f'width="{_fmt(plot_w)}" height="{_fmt(AEEG_HEIGHT)}" '
            f'fill="none" stroke="#888" stroke-width="0.5"/>')
        parts.append('<g font-family="sans-serif" font-size="9" '
                     'fill="#444">')
        for uv in (0.0, 10.0, 100.0):
            yy = _aeeg_y(uv, a_top, AEEG_HEIGHT)
            parts.append(f'<text x="{_fmt(MARGIN_LEFT - 6)}" '
                         f'y="{_fmt(yy + 3)}" text-anchor="end">'
                         f'{_fmt(uv)}</text>')
        parts.append('</g>')
        if m >= 2:
            sx = [MARGIN_LEFT + plot_w * (i + 0.5) / m for i in range(m)]
            top_pts = [f"{_fmt(sx[i])},"
                       f"{_fmt(_aeeg_y(upper[i], a_top, AEEG_HEIGHT))}"
                       for i in range(m)]
            bot_pts = [f"{_fmt(sx[i])},"
                       f"{_fmt(_aeeg_y(lower[i], a_top, AEEG_HEIGHT))}"
                       for i in range(m - 1, -1, -1)]
            parts.append(f'<polygon points="{" ".join(top_pts + bot_pts)}" '
                         f'fill="#2e7d32" fill-opacity="0.85" '
                         f'stroke="none"/>')

    parts.append('</svg>')
    return "\n".join(parts) + "\n"
