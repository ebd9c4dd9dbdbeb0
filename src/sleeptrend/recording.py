"""Recordings, bipolar derivations, and per-epoch sleep labels.

A Recording holds referential (or derived) channels in microvolts. Channels
keep their own sampling rate because EDF permits per-signal rates; after
resampling the pipeline works at one shared rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import edf
from .errors import (DataError, MissingChannel, NegativeDuration,
                     OverlappingIntervals)
from .labels import EPOCH_S, Label


@dataclass
class ChannelSignal:
    """One channel in microvolts at its native sampling rate."""

    label: str
    fs: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError(f"channel {self.label!r} must be 1-D")
        if self.fs <= 0:
            raise DataError(f"channel {self.label!r} has fs {self.fs}")


@dataclass
class Recording:
    subject_id: str
    duration_s: float
    channels: list[ChannelSignal] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for ch in self.channels:
            if ch.label in seen:
                raise DataError(f"duplicate channel label {ch.label!r}")
            seen.add(ch.label)
            expected = round(self.duration_s * ch.fs)
            if len(ch.samples) != expected:
                raise DataError(
                    f"channel {ch.label!r}: {len(ch.samples)} samples, "
                    f"expected {expected} for {self.duration_s} s at "
                    f"{ch.fs} Hz")

    @property
    def labels(self) -> list[str]:
        return [ch.label for ch in self.channels]

    @property
    def fs(self) -> float:
        """Common sampling rate; raises if channels disagree."""
        rates = {ch.fs for ch in self.channels}
        if len(rates) != 1:
            raise DataError(f"mixed sampling rates {sorted(rates)}")
        return rates.pop()

    def channel(self, label: str) -> ChannelSignal:
        for ch in self.channels:
            if ch.label == label:
                return ch
        raise MissingChannel(
            f"channel {label!r} not in {self.labels}")


def read_edf(path: str | Path, subject_id: str | None = None) -> Recording:
    """Load an EDF file. The subject id defaults to the patient field's
    first token, falling back to the file stem."""
    parsed = edf.read_edf(path)
    if subject_id is None:
        tokens = parsed.patient_id.split()
        subject_id = tokens[0] if tokens else Path(path).stem
    channels = [ChannelSignal(label=ch.label, fs=ch.fs, samples=ch.samples)
                for ch in parsed.channels]
    return Recording(subject_id=subject_id, duration_s=parsed.duration_s,
                     channels=channels)


def write_edf(rec: Recording, path: str | Path,
              record_duration_s: float = 1.0) -> None:
    """Debug dump of a recording as plain EDF."""
    n_records = round(rec.duration_s / record_duration_s)
    channels = [edf.EdfChannel(label=ch.label, fs=ch.fs, samples=ch.samples)
                for ch in rec.channels]
    edf.write_edf(path, edf.EdfFile(
        patient_id=rec.subject_id, recording_id="sleeptrend dump",
        start_date="01.01.00", start_time="00.00.00",
        record_duration_s=record_duration_s, n_records=n_records,
        channels=channels))


def derive_bipolar(rec: Recording,
                   pairs: Sequence[tuple[str, str]]) -> Recording:
    """Build bipolar derivations (anode minus cathode) from referential
    channels. Swapping a pair negates the derived signal exactly."""
    derived = []
    for a, b in pairs:
        ca = rec.channel(a)
        cb = rec.channel(b)
        if ca.fs != cb.fs:
            raise DataError(
                f"cannot derive {a}-{b}: rates {ca.fs} vs {cb.fs} differ")
        derived.append(ChannelSignal(label=f"{a}-{b}", fs=ca.fs,
                                     samples=ca.samples - cb.samples))
    return Recording(subject_id=rec.subject_id, duration_s=rec.duration_s,
                     channels=derived)


@dataclass(frozen=True)
class AnnotationTrack:
    """Quiet-sleep intervals [onset, onset+duration) in seconds, sorted and
    non-overlapping, annotated at 1 s resolution. Everything outside the
    intervals is active sleep."""

    intervals: tuple[tuple[float, float], ...]
    resolution_s: float = 1.0

    def __post_init__(self):
        prev_end = None
        for onset, duration in self.intervals:
            if duration < 0:
                raise NegativeDuration(
                    f"interval at {onset} s has duration {duration}")
            if prev_end is not None and onset < prev_end:
                raise OverlappingIntervals(
                    f"interval at {onset} s starts before {prev_end} s")
            prev_end = onset + duration

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[float, float]],
                  resolution_s: float = 1.0) -> "AnnotationTrack":
        return cls(intervals=tuple(sorted(rows)), resolution_s=resolution_s)


def read_annotations(path: str | Path) -> AnnotationTrack:
    """Read an onset_s,duration_s,label CSV; only QS rows define quiet
    sleep, any other label counts as not-QS and is dropped."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"onset_s", "duration_s", "label"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise DataError(
                f"{path}: expected columns {sorted(needed)}, "
                f"got {reader.fieldnames}")
        for row in reader:
            try:
                onset = float(row["onset_s"])
                duration = float(row["duration_s"])
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric row {row}") from exc
            if row["label"].strip() == Label.QS.value:
                rows.append((onset, duration))
    return AnnotationTrack.from_rows(rows)


def write_annotations(track: AnnotationTrack, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["onset_s", "duration_s", "label"])
        for onset, duration in track.intervals:
            writer.writerow([f"{onset:g}", f"{duration:g}", Label.QS.value])


def epoch_labels(track: AnnotationTrack, n_epochs: int,
                 epoch_s: float = EPOCH_S) -> list[Label]:
    """Label each epoch: QS when fully inside a quiet-sleep interval, AS
    when fully outside all of them, Excluded when an epoch straddles a
    state boundary."""
    labels = []
    for i in range(n_epochs):
        start = i * epoch_s
        end = start + epoch_s
        state = Label.AS
        for onset, duration in track.intervals:
            stop = onset + duration
            if onset <= start and end <= stop:
                state = Label.QS
                break
            if onset < end and stop > start:
                state = Label.EXCLUDED
                break
        labels.append(state)
    return labels
