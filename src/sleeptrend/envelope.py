"""Amplitude-envelope comparator for the trend output.

A deliberately simple reference method: band-pass the channel, take the
analytic-signal magnitude, and summarize each 1-minute epoch by the
envelope's mean and spread. Those two features are then correlated with
the trend and scored against ground-truth labels, giving a floor that a
trained classifier should clear comfortably.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dsp, metrics
from .errors import LengthMismatch, TooShortSignal, ZeroVariance
from .labels import Label

BAND_LOW_HZ = 1.0
BAND_HIGH_HZ = 30.0
FILTER_ORDER = 4


def analytic_signal(x: np.ndarray) -> np.ndarray:
    """Frequency-domain analytic signal: negative frequencies zeroed,
    positive doubled, DC and Nyquist kept as they are."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    spectrum = np.fft.fft(x)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1:n // 2] = 2.0
    else:
        gain[1:(n + 1) // 2] = 2.0
    return np.fft.ifft(spectrum * gain)


def analytic_envelope(samples: np.ndarray, fs: float) -> np.ndarray:
    """Band-limited amplitude envelope of one channel."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 64:
        raise TooShortSignal(f"{len(samples)} samples; envelope needs "
                             f"at least 64")
    sos = dsp.design_butter_bandpass(BAND_LOW_HZ, BAND_HIGH_HZ,
                                     order=FILTER_ORDER, fs=fs)
    filtered = dsp.filter_zero_phase(samples, sos)
    return np.abs(analytic_signal(filtered))


@dataclass(frozen=True)
class EnvelopeFeatures:
    env_mean: float
    env_std: float


def envelope_features(samples: np.ndarray,
                      fs: float) -> list[EnvelopeFeatures]:
    """Per-epoch mean and population standard deviation of the envelope;
    the trailing partial minute is dropped to stay aligned with the
    epoch segmentation."""
    env = analytic_envelope(samples, fs)
    per_epoch = int(round(dsp.EPOCH_S * fs))
    out = []
    for i in range(len(env) // per_epoch):
        seg = env[i * per_epoch:(i + 1) * per_epoch]
        out.append(EnvelopeFeatures(env_mean=float(seg.mean()),
                                    env_std=float(seg.std())))
    return out


def write_features_csv(features: Sequence[EnvelopeFeatures],
                       path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch_index", "env_mean_uv", "env_std_uv"])
        for i, feats in enumerate(features):
            writer.writerow([i, repr(feats.env_mean), repr(feats.env_std)])


def compare_to_sst(features: Sequence[EnvelopeFeatures], trace,
                   truth: Sequence | None = None) -> dict:
    """Pearson correlation of each feature against the fused trend, plus
    ROC AUC of each feature against ground-truth labels when provided."""
    if len(features) != len(trace):
        raise LengthMismatch(f"{len(features)} feature epochs vs "
                             f"{len(trace)} trend epochs")
    if truth is not None and len(truth) != len(features):
        raise LengthMismatch(f"{len(truth)} truth labels vs "
                             f"{len(features)} feature epochs")
    means = np.array([f.env_mean for f in features])
    stds = np.array([f.env_std for f in features])

    def safe_pearson(a, b):
        # A flat trend or flat feature has no defined correlation; report
        # the gap rather than fail the whole comparison.
        try:
            return metrics.pearson(a, b)
        except ZeroVariance:
            return None

    mask = np.isfinite(trace.p_mean)
    report = {
        "pearson_mean": safe_pearson(means[mask], trace.p_mean[mask]),
        "pearson_std": safe_pearson(stds[mask], trace.p_mean[mask]),
        "roc_mean": None,
        "roc_std": None,
    }
    if truth is not None:
        labeled = [(i, Label(str(label))) for i, label in enumerate(truth)
                   if str(label) in (str(Label.QS), str(Label.AS))]
        idx = [i for i, _ in labeled]
        y = [label for _, label in labeled]
        report["roc_mean"] = metrics.roc_auc(y, means[idx]).auc
        report["roc_std"] = metrics.roc_auc(y, stds[idx]).auc
    return report
