"""Recordings, their EDF files, bipolar derivations, and per-epoch labels.

A Recording holds referential (or derived) channels in microvolts. Channels
keep their own sampling rate because EDF permits per-signal rates; after
resampling the pipeline works at one shared rate.

EDF files use the plain layout (Kemp et al., Electroencephalogr. Clin.
Neurophysiol. 82 (1992) 391-393): a 256 byte main header, ns field-major
256 byte signal subheaders, then data records of little-endian 16 bit
two's-complement samples. Physical values are recovered with the linear
map phys = scale * (digital - dig_min) + phys_min, in microvolts: a
signal's physical dimension must be uV, mV or V. The reader keeps the
int16 payload and each signal's map rather than float copies; the
microvolts are made when a channel is used. EDF+ annotation streams
are out of scope; a signal that cannot be read as a numeric waveform
raises UnsupportedTransducer. Files that declare an unknown record count
(-1) are rejected rather than guessed at.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (DataError, InconsistentRecordLength, MalformedHeader,
                     MissingChannel, NegativeDuration, OverlappingIntervals,
                     ShapeMismatch, UnsupportedTransducer)
from .labels import EPOCH_S, Label

HEADER_BYTES = 256
SIGNAL_HEADER_BYTES = 256
# (name, width) of each main header field, in file order
HEADER_FIELDS = (("version", 8), ("patient id", 80), ("recording id", 80),
                 ("start date", 8), ("start time", 8), ("header size", 8),
                 ("reserved", 44), ("record count", 8),
                 ("record duration", 8), ("signal count", 4))
# (name, width) of each signal header field; each is one field-major block
# of ns entries, in file order
SIGNAL_FIELDS = (("label", 16), ("transducer", 80), ("units", 8),
                 ("physical minimum", 8), ("physical maximum", 8),
                 ("digital minimum", 8), ("digital maximum", 8),
                 ("prefilter", 80), ("samples per record", 8),
                 ("reserved", 32))
DIG_MIN = -32767
DIG_MAX = 32767
# microvolts per unit of each accepted physical dimension
MICROVOLTS = {"uV": 1.0, "mV": 1e3, "V": 1e6}
RECORD_S = 1  # data record duration that write_edf uses
# samples per block of derive_bipolar: 256 KB of float64, so that a block
# and its scratch stay in a 1 MB L2 cache
DERIVE_BLOCK = 1 << 15


class ChannelSignal:
    """One channel in microvolts at its native sampling rate.

    A channel holds float64 samples, or, as read from an EDF file, the
    int16 digital values of its payload (one row per data record) with the
    linear map to microvolts, scale * (digital - dmin) + offset. A payload
    channel makes its microvolts when they are asked for: `samples` makes
    them all, `microvolts_into` one block of whole records.
    """

    def __init__(self, label: str, fs: float,
                 samples: np.ndarray | None = None, *,
                 digital: np.ndarray | None = None, dmin: int = 0,
                 scale: float = 1.0, offset: float = 0.0):
        self.label = label
        self.fs = fs
        self.dmin, self.scale, self.offset = dmin, scale, offset
        if (samples is None) == (digital is None):
            raise DataError(f"channel {label!r} needs either samples or "
                            f"digital values")
        if digital is None:
            self.samples = samples
        elif digital.dtype != np.int16 or digital.ndim != 2:
            raise DataError(f"channel {label!r}: digital values must be "
                            f"int16 records")
        else:
            self._samples, self._digital = None, digital
        if self.fs <= 0:
            raise DataError(f"channel {label!r} has fs {self.fs}")

    def __len__(self) -> int:
        return (self._samples if self._digital is None
                else self._digital).size

    @property
    def samples(self) -> np.ndarray:
        """The float64 microvolts; a new array for a payload channel."""
        if self._digital is None:
            return self._samples
        return self.microvolts_into(np.empty(len(self)), 0)

    @samples.setter
    def samples(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise DataError(f"channel {self.label!r} must be 1-D")
        self._samples = values
        self._digital = None

    @property
    def record_samples(self) -> int:
        """Samples per payload record; 1 for float samples."""
        return 1 if self._digital is None else self._digital.shape[1]

    def microvolts_into(self, out: np.ndarray, start: int) -> np.ndarray:
        """Write samples [start, start + len(out)) in microvolts into the
        float64 `out` and return it. For a payload channel, both bounds
        fall on whole records."""
        if self._digital is None:
            out[:] = self._samples[start:start + out.size]
            return out
        per_record = self._digital.shape[1]
        rows = self._digital[start // per_record:
                             (start + out.size) // per_record]
        np.copyto(out.reshape(rows.shape), rows)
        out -= self.dmin
        out *= self.scale
        out += self.offset
        return out


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
            if len(ch) != expected:
                raise DataError(
                    f"channel {ch.label!r}: {len(ch)} samples, "
                    f"expected {expected} for {self.duration_s} s at "
                    f"{ch.fs} Hz")

    @property
    def labels(self) -> list[str]:
        return [ch.label for ch in self.channels]

    def channel(self, label: str) -> ChannelSignal:
        for ch in self.channels:
            if ch.label == label:
                return ch
        raise MissingChannel(
            f"channel {label!r} not in {self.labels}")


def _text(raw: bytes) -> str:
    try:
        return raw.decode("ascii").rstrip()
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"non-ASCII header bytes: {raw[:16]!r}") from exc


def _number(raw: bytes, kind, what: str):
    text = _text(raw).strip()
    try:
        value = kind(text)
    except ValueError as exc:
        raise MalformedHeader(f"bad {what} field: {text!r}") from exc
    if not math.isfinite(value):  # float() also parses nan and inf
        raise MalformedHeader(f"bad {what} field: {text!r}")
    return value


def _split_fields(buf: bytes, layout, count: int) -> dict[str, list[bytes]]:
    """Slice field-major header bytes into each field's `count` entries."""
    out = {}
    pos = 0
    for name, width in layout:
        out[name] = [buf[pos + i * width:pos + (i + 1) * width]
                     for i in range(count)]
        pos += width * count
    return out


def read_edf(path: str | Path, subject_id: str | None = None) -> Recording:
    """Load an EDF file into microvolt channels that keep the file's int16
    payload. The subject id defaults to the patient field's first token,
    falling back to the file stem."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_BYTES:
        raise MalformedHeader(f"file is only {len(raw)} bytes")
    head = {name: entries[0] for name, entries
            in _split_fields(raw, HEADER_FIELDS, 1).items()}

    version = _text(head["version"])
    if version != "0":
        raise MalformedHeader(f"unsupported EDF version {version!r}")
    patient_id = _text(head["patient id"])
    for name in ("recording id", "start date", "start time"):
        _text(head[name])  # not kept, but must be ASCII
    header_bytes = _number(head["header size"], int, "header size")
    n_records = _number(head["record count"], int, "record count")
    record_duration = _number(head["record duration"], float,
                              "record duration")
    ns = _number(head["signal count"], int, "signal count")

    if ns <= 0:
        raise MalformedHeader(f"signal count {ns} must be positive")
    if header_bytes != HEADER_BYTES + ns * SIGNAL_HEADER_BYTES:
        raise MalformedHeader(
            f"header claims {header_bytes} bytes, expected "
            f"{HEADER_BYTES + ns * SIGNAL_HEADER_BYTES} for {ns} signals")
    if n_records <= 0:
        raise MalformedHeader(f"record count {n_records} must be positive")
    if record_duration <= 0:
        raise MalformedHeader(f"record duration {record_duration} invalid")
    if len(raw) < header_bytes:
        raise MalformedHeader("file truncated inside signal headers")

    table = _split_fields(raw[HEADER_BYTES:header_bytes], SIGNAL_FIELDS, ns)
    spr = [_number(b, int, "samples per record")
           for b in table["samples per record"]]
    if any(v <= 0 for v in spr):
        raise MalformedHeader(f"non-positive samples-per-record in {spr}")
    record_samples = sum(spr)

    payload_bytes = len(raw) - header_bytes
    expected = n_records * record_samples * 2
    if payload_bytes != expected:
        raise InconsistentRecordLength(
            f"payload is {payload_bytes} bytes, header implies {expected}")
    data = np.frombuffer(raw, dtype="<i2", offset=header_bytes).reshape(
        n_records, record_samples)

    channels = []
    col = 0
    for i in range(ns):
        label = _text(table["label"][i])
        if label.lower().startswith("edf annotations"):
            raise UnsupportedTransducer(
                "EDF+ annotation streams are not numeric signals")
        pmin = _number(table["physical minimum"][i], float,
                       "physical minimum")
        pmax = _number(table["physical maximum"][i], float,
                       "physical maximum")
        dmin = _number(table["digital minimum"][i], int, "digital minimum")
        dmax = _number(table["digital maximum"][i], int, "digital maximum")
        if dmax == dmin or pmax == pmin:
            raise UnsupportedTransducer(
                f"signal {label!r} has a degenerate value range")
        dimension = _text(table["units"][i]).strip()
        if dimension not in MICROVOLTS:
            raise UnsupportedTransducer(
                f"signal {label!r} has physical dimension {dimension!r}, "
                f"expected one of {sorted(MICROVOLTS)}")
        to_uv = MICROVOLTS[dimension]
        _text(table["transducer"][i])  # not kept, but must be ASCII
        _text(table["prefilter"][i])
        channels.append(ChannelSignal(
            label=label, fs=spr[i] / record_duration,
            digital=data[:, col:col + spr[i]], dmin=dmin,
            scale=(pmax - pmin) / (dmax - dmin) * to_uv,
            offset=pmin * to_uv))
        col += spr[i]

    if subject_id is None:
        tokens = patient_id.split()
        subject_id = tokens[0] if tokens else Path(path).stem
    return Recording(subject_id=subject_id,
                     duration_s=n_records * record_duration,
                     channels=channels)


def _field(value: str | float, width: int, what: str) -> bytes:
    """One header field: ASCII text, or a number as its shortest text."""
    if not isinstance(value, str):
        value = (str(int(value)) if value == int(value)
                 else f"{value:.10g}")
    if not value.isascii() or len(value) > width:
        raise MalformedHeader(
            f"{what} {value!r} is not ASCII text of at most {width} bytes")
    return value.encode("ascii").ljust(width)


def quantization_step(samples: np.ndarray) -> float:
    """Physical step per digital unit used by write_edf for this signal:
    the range +-ceil(max |x|), at least +-1, over the full digital span."""
    pmax = max(1.0, math.ceil(float(np.max(np.abs(samples)))))
    return 2.0 * pmax / (DIG_MAX - DIG_MIN)


def write_edf(rec: Recording, path: str | Path) -> None:
    """Write a recording as plain EDF in 1 s records of uV signals.

    Each signal is scaled to +-ceil(max |x|) over the full 16 bit digital
    span, so the round-trip error is at most half a quantization step.
    """
    ns = len(rec.channels)
    if ns == 0:
        raise DataError("cannot write an EDF with no signals")
    n_records = round(rec.duration_s / RECORD_S)
    spr = []
    for ch in rec.channels:
        per_record = ch.fs * RECORD_S
        if abs(per_record - round(per_record)) > 1e-9:
            raise DataError(
                f"fs {ch.fs} does not fit whole samples into a "
                f"{RECORD_S} s record")
        per_record = int(round(per_record))
        if not np.isfinite(ch.samples).all():
            raise DataError(f"channel {ch.label!r} has non-finite samples")
        if len(ch.samples) != per_record * n_records:
            raise ShapeMismatch(
                f"channel {ch.label!r} has {len(ch.samples)} samples, "
                f"expected {per_record * n_records}")
        spr.append(per_record)

    steps = [quantization_step(ch.samples) for ch in rec.channels]
    # the integer physical maximum each step was made from
    pmaxes = [round(step * (DIG_MAX - DIG_MIN) / 2) for step in steps]
    main = ("0", rec.subject_id, "sleeptrend dump", "01.01.00", "00.00.00",
            HEADER_BYTES + ns * SIGNAL_HEADER_BYTES, "", n_records,
            RECORD_S, ns)
    head = b"".join(_field(value, width, name)
                    for (name, width), value in zip(HEADER_FIELDS, main))
    columns = {"label": [ch.label for ch in rec.channels],
               "transducer": [""] * ns, "units": ["uV"] * ns,
               "physical minimum": [-pmax for pmax in pmaxes],
               "physical maximum": pmaxes,
               "digital minimum": [DIG_MIN] * ns,
               "digital maximum": [DIG_MAX] * ns,
               "prefilter": [""] * ns, "samples per record": spr,
               "reserved": [""] * ns}
    head += b"".join(_field(value, width, name)
                     for name, width in SIGNAL_FIELDS
                     for value in columns[name])

    body = np.empty((n_records, sum(spr)), dtype="<i2")
    col = 0
    for ch, per_record, step, pmax in zip(rec.channels, spr, steps, pmaxes):
        dig = np.round((ch.samples + pmax) / step) + DIG_MIN
        body[:, col:col + per_record] = np.clip(
            dig, DIG_MIN, DIG_MAX).reshape(n_records, per_record)
        col += per_record

    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(body.tobytes())


def check_pairs(rec: Recording, pairs: Sequence[tuple[str, str]]) -> None:
    """Raise unless every pair names two channels of one rate."""
    for a, b in pairs:
        ca = rec.channel(a)
        cb = rec.channel(b)
        if ca.fs != cb.fs:
            raise DataError(
                f"cannot derive {a}-{b}: rates {ca.fs} vs {cb.fs} differ")


def derive_bipolar(rec: Recording, pairs: Sequence[tuple[str, str]],
                   out: Sequence[np.ndarray] | None = None) -> Recording:
    """Build bipolar derivations (anode minus cathode) from referential
    channels. Swapping a pair negates the derived signal exactly.

    Each pair is made in blocks of whole records: the anode's microvolts
    go straight into the pair's buffer, and the cathode's, made in a
    small scratch block, are subtracted from them. The result is bitwise
    equal to subtracting the two channels' full `samples`. `out`, when
    given, holds each pair's float64 buffer, of its anode's length;
    otherwise each pair gets a new one.
    """
    check_pairs(rec, pairs)
    derived = []
    for i, (a, b) in enumerate(pairs):
        ca = rec.channel(a)
        cb = rec.channel(b)
        buf = np.empty(len(ca)) if out is None else out[i]
        if buf.shape != (len(ca),) or buf.dtype != np.float64:
            raise ShapeMismatch(f"buffer {buf.dtype}{buf.shape} for "
                                f"{len(ca)} float64 samples of {a}-{b}")
        unit = math.lcm(ca.record_samples, cb.record_samples)
        block = max(1, DERIVE_BLOCK // unit) * unit
        scratch = np.empty(min(block, buf.size))
        for start in range(0, buf.size, block):
            part = ca.microvolts_into(buf[start:start + block], start)
            part -= cb.microvolts_into(scratch[:part.size], start)
        derived.append(ChannelSignal(label=f"{a}-{b}", fs=ca.fs,
                                     samples=buf))
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
