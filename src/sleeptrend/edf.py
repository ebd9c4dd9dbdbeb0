"""Minimal EDF file reader and writer.

Implements the plain EDF layout: a 256 byte main header, ns field-major
256 byte signal subheaders, then data records of little-endian 16 bit
two's-complement samples. Physical values are recovered with the usual
linear map phys = scale * (digital - dig_min) + phys_min, and read in
microvolts: a signal's physical dimension must be uV, mV or V.

EDF+ annotation streams are out of scope; a signal that cannot be read as
a numeric waveform raises UnsupportedTransducer. Files that declare an
unknown record count (-1) are rejected rather than guessed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DataError, InconsistentRecordLength, MalformedHeader,
                     ShapeMismatch, UnsupportedTransducer)

HEADER_BYTES = 256
SIGNAL_HEADER_BYTES = 256
DIG_MIN = -32767
DIG_MAX = 32767
# microvolts per unit of each accepted physical dimension
MICROVOLTS = {"uV": 1.0, "mV": 1e3, "V": 1e6}


@dataclass
class EdfChannel:
    """One numeric signal in physical units."""

    label: str
    fs: float
    samples: np.ndarray
    units: str = "uV"
    transducer: str = ""
    prefilter: str = ""


@dataclass
class EdfFile:
    patient_id: str
    recording_id: str
    start_date: str
    start_time: str
    record_duration_s: float
    n_records: int
    channels: list[EdfChannel] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.n_records * self.record_duration_s


def _text(raw: bytes) -> str:
    try:
        return raw.decode("ascii").rstrip()
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"non-ASCII header bytes: {raw[:16]!r}") from exc


def _number(raw: bytes, kind, what: str):
    text = _text(raw).strip()
    try:
        return kind(text)
    except ValueError as exc:
        raise MalformedHeader(f"bad {what} field: {text!r}") from exc


def _field_block(buf: bytes, offset: int, width: int, ns: int) -> list[bytes]:
    """Slice one field-major block of the signal header table."""
    out = []
    for i in range(ns):
        start = offset + i * width
        out.append(buf[start:start + width])
    return out


def read_edf(path: str | Path) -> EdfFile:
    """Parse an EDF file into physical-unit channel arrays."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_BYTES:
        raise MalformedHeader(f"file is only {len(raw)} bytes")
    head = raw[:HEADER_BYTES]

    version = _text(head[0:8])
    if version != "0":
        raise MalformedHeader(f"unsupported EDF version {version!r}")
    patient_id = _text(head[8:88])
    recording_id = _text(head[88:168])
    start_date = _text(head[168:176])
    start_time = _text(head[176:184])
    header_bytes = _number(head[184:192], int, "header size")
    n_records = _number(head[236:244], int, "record count")
    record_duration = _number(head[244:252], float, "record duration")
    ns = _number(head[252:256], int, "signal count")

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

    table = raw[HEADER_BYTES:header_bytes]
    pos = 0
    labels = _field_block(table, pos, 16, ns); pos += 16 * ns
    transducers = _field_block(table, pos, 80, ns); pos += 80 * ns
    units = _field_block(table, pos, 8, ns); pos += 8 * ns
    phys_min = _field_block(table, pos, 8, ns); pos += 8 * ns
    phys_max = _field_block(table, pos, 8, ns); pos += 8 * ns
    dig_min = _field_block(table, pos, 8, ns); pos += 8 * ns
    dig_max = _field_block(table, pos, 8, ns); pos += 8 * ns
    prefilter = _field_block(table, pos, 80, ns); pos += 80 * ns
    spr_raw = _field_block(table, pos, 8, ns)

    spr = [_number(b, int, "samples per record") for b in spr_raw]
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
        label = _text(labels[i])
        if label.lower().startswith("edf annotations"):
            raise UnsupportedTransducer(
                "EDF+ annotation streams are not numeric signals")
        pmin = _number(phys_min[i], float, "physical minimum")
        pmax = _number(phys_max[i], float, "physical maximum")
        dmin = _number(dig_min[i], int, "digital minimum")
        dmax = _number(dig_max[i], int, "digital maximum")
        if dmax == dmin or pmax == pmin:
            raise UnsupportedTransducer(
                f"signal {label!r} has a degenerate value range")
        dimension = _text(units[i]).strip()
        if dimension not in MICROVOLTS:
            raise UnsupportedTransducer(
                f"signal {label!r} has physical dimension {dimension!r}, "
                f"expected one of {sorted(MICROVOLTS)}")
        to_uv = MICROVOLTS[dimension]
        scale = (pmax - pmin) / (dmax - dmin) * to_uv
        # scale * (digital - dmin) + pmin in uV, in place on a float64 copy
        samples = data[:, col:col + spr[i]].astype(np.float64).ravel()
        samples -= dmin
        samples *= scale
        samples += pmin * to_uv
        col += spr[i]
        channels.append(EdfChannel(
            label=label,
            fs=spr[i] / record_duration,
            samples=samples,
            transducer=_text(transducers[i]),
            prefilter=_text(prefilter[i]),
        ))

    return EdfFile(patient_id=patient_id, recording_id=recording_id,
                   start_date=start_date, start_time=start_time,
                   record_duration_s=record_duration, n_records=n_records,
                   channels=channels)


def _pad(text: str, width: int, what: str) -> bytes:
    if not text.isascii() or len(text) > width:
        raise MalformedHeader(
            f"{what} {text!r} is not ASCII text of at most {width} bytes")
    return text.encode("ascii").ljust(width)


def _num_text(value: float, width: int, what: str) -> bytes:
    if value == int(value):
        text = str(int(value))
    else:
        text = f"{value:.10g}"
    return _pad(text, width, what)


def quantization_step(samples: np.ndarray) -> float:
    """Physical step per digital unit used by write_edf for this signal."""
    pmax = max(1.0, math.ceil(float(np.max(np.abs(samples)))))
    return 2.0 * pmax / (DIG_MAX - DIG_MIN)


def write_edf(path: str | Path, edf: EdfFile) -> None:
    """Write channels back to disk, choosing a symmetric physical range.

    Each signal is scaled to +-ceil(max |x|) over the full 16 bit digital
    span, so the round-trip error is at most half a quantization step.
    """
    ns = len(edf.channels)
    if ns == 0:
        raise DataError("cannot write an EDF with no signals")
    spr = []
    for ch in edf.channels:
        per_record = ch.fs * edf.record_duration_s
        if abs(per_record - round(per_record)) > 1e-9:
            raise DataError(
                f"fs {ch.fs} does not fit whole samples into a "
                f"{edf.record_duration_s} s record")
        per_record = int(round(per_record))
        if not np.isfinite(ch.samples).all():
            raise DataError(f"channel {ch.label!r} has non-finite samples")
        if len(ch.samples) != per_record * edf.n_records:
            raise ShapeMismatch(
                f"channel {ch.label!r} has {len(ch.samples)} samples, "
                f"expected {per_record * edf.n_records}")
        spr.append(per_record)

    head = bytearray()
    head += _pad("0", 8, "version")
    head += _pad(edf.patient_id, 80, "patient id")
    head += _pad(edf.recording_id, 80, "recording id")
    head += _pad(edf.start_date, 8, "start date")
    head += _pad(edf.start_time, 8, "start time")
    head += _num_text(HEADER_BYTES + ns * SIGNAL_HEADER_BYTES, 8, "header size")
    head += _pad("", 44, "reserved")
    head += _num_text(edf.n_records, 8, "record count")
    head += _num_text(edf.record_duration_s, 8, "record duration")
    head += _num_text(ns, 4, "signal count")

    pmaxes = [max(1.0, math.ceil(float(np.max(np.abs(ch.samples)))))
              for ch in edf.channels]
    for ch in edf.channels:
        head += _pad(ch.label, 16, "label")
    for ch in edf.channels:
        head += _pad(ch.transducer, 80, "transducer")
    for ch in edf.channels:
        head += _pad(ch.units, 8, "units")
    for pmax in pmaxes:
        head += _num_text(-pmax, 8, "physical minimum")
    for pmax in pmaxes:
        head += _num_text(pmax, 8, "physical maximum")
    for _ in edf.channels:
        head += _num_text(DIG_MIN, 8, "digital minimum")
    for _ in edf.channels:
        head += _num_text(DIG_MAX, 8, "digital maximum")
    for ch in edf.channels:
        head += _pad(ch.prefilter, 80, "prefilter")
    for per_record in spr:
        head += _num_text(per_record, 8, "samples per record")
    for _ in edf.channels:
        head += _pad("", 32, "reserved")

    digitized = []
    for ch, pmax in zip(edf.channels, pmaxes):
        scale = 2.0 * pmax / (DIG_MAX - DIG_MIN)
        dig = np.round((ch.samples + pmax) / scale) + DIG_MIN
        digitized.append(np.clip(dig, DIG_MIN, DIG_MAX).astype("<i2"))

    body = np.empty((edf.n_records, sum(spr)), dtype="<i2")
    col = 0
    for dig, per_record in zip(digitized, spr):
        body[:, col:col + per_record] = dig.reshape(edf.n_records, per_record)
        col += per_record

    with open(path, "wb") as fh:
        fh.write(bytes(head))
        fh.write(body.tobytes())
