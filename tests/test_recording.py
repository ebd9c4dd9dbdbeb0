"""EDF round trips, bipolar derivations, and epoch labelling."""

import numpy as np
import pytest

from helpers import edf_signal_field, relayout_edf
from sleeptrend import recording
from sleeptrend.errors import (DataError, InconsistentRecordLength,
                               MalformedHeader, MissingChannel,
                               NegativeDuration, OverlappingIntervals,
                               ShapeMismatch, UnsupportedTransducer)
from sleeptrend.labels import Label
from sleeptrend.recording import (AnnotationTrack, ChannelSignal, Recording,
                                  derive_bipolar, epoch_labels,
                                  quantization_step, read_annotations,
                                  read_edf, write_annotations, write_edf)


def make_recording(seed=0, duration_s=120.0, fs=256.0, amp=80.0):
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    channels = [ChannelSignal(label=lab, fs=fs,
                              samples=amp * rng.standard_normal(n))
                for lab in ("F3", "F4", "P3", "P4")]
    return Recording(subject_id="s01", duration_s=duration_s,
                     channels=channels)


class TestEdfRoundTrip:
    def test_samples_within_one_quantization_step(self, tmp_path):
        rec = make_recording(seed=1)
        path = tmp_path / "s01.edf"
        write_edf(rec, path)
        back = read_edf(path)
        assert back.subject_id == "s01"
        assert back.duration_s == rec.duration_s
        assert back.labels == rec.labels
        for ch, orig in zip(back.channels, rec.channels):
            assert ch.fs == orig.fs
            step = quantization_step(orig.samples)
            assert np.max(np.abs(ch.samples - orig.samples)) <= step

    def test_write_is_deterministic(self, tmp_path):
        rec = make_recording(seed=2)
        write_edf(rec, tmp_path / "a.edf")
        write_edf(rec, tmp_path / "b.edf")
        assert (tmp_path / "a.edf").read_bytes() \
            == (tmp_path / "b.edf").read_bytes()

    def test_per_channel_rates_preserved(self, tmp_path):
        channels = [
            ChannelSignal(label="EEG", fs=256.0,
                          samples=np.sin(np.arange(2560) / 10.0) * 50),
            ChannelSignal(label="slow", fs=16.0,
                          samples=np.linspace(-40, 40, 160)),
        ]
        rec = Recording(subject_id="mix", duration_s=10.0, channels=channels)
        path = tmp_path / "mix.edf"
        write_edf(rec, path)
        back = read_edf(path)
        assert [ch.fs for ch in back.channels] == [256.0, 16.0]
        assert len(back.channel("slow").samples) == 160


    def test_scaling_matches_the_formula_on_an_asymmetric_range(
            self, tmp_path):
        # rewrite the physical/digital ranges of every signal so that the
        # read must apply scale * (digital - dmin) + pmin with dmin != -dmax
        path = tmp_path / "asym.edf"
        write_edf(make_recording(seed=6, duration_s=3.0), path)
        raw = bytearray(path.read_bytes())
        ns = 4
        offset = 256 + ns * (16 + 80 + 8)
        for value in (b"-312.5  ", b"187.25  ", b"-2048   ", b"30000   "):
            raw[offset:offset + 8 * ns] = value * ns
            offset += 8 * ns
        path.write_bytes(bytes(raw))
        header = 256 + ns * 256
        digital = np.frombuffer(bytes(raw[header:]), dtype="<i2").reshape(
            3, ns, 256)
        scale = (187.25 - -312.5) / (30000 - -2048)
        back = read_edf(path)
        for i, ch in enumerate(back.channels):
            expected = scale * (digital[:, i].ravel().astype(np.float64)
                                - -2048) + -312.5
            assert ch.samples.dtype == np.float64
            assert np.array_equal(ch.samples, expected)


class TestEdfRecordLayout:
    """Files with a layout write_edf does not produce."""

    def test_two_second_records_read_back_unchanged(self, tmp_path):
        channels = [
            ChannelSignal(label="EEG", fs=256.0,
                          samples=np.sin(np.arange(2560) / 10.0) * 50),
            ChannelSignal(label="slow", fs=16.0,
                          samples=np.linspace(-40, 40, 160)),
        ]
        path = tmp_path / "one.edf"
        write_edf(Recording("mix", 10.0, channels), path)
        one = read_edf(path)
        # the same samples per channel, regrouped into 2 s records
        relayout_edf(path, 2, {})
        raw = path.read_bytes()
        assert (raw[236:252], edf_signal_field(raw, "spr")) \
            == (b"5       2       ", ["512", "32"])
        back = read_edf(path)
        assert back.duration_s == 10.0
        for ch, orig in zip(back.channels, one.channels):
            assert ch.fs == orig.fs
            assert np.array_equal(ch.samples, orig.samples)

    @pytest.mark.parametrize("offset", [
        88,                           # recording id
        168,                          # start date
        176,                          # start time
        256 + 4 * 16,                 # first transducer
        256 + 4 * (16 + 80) - 80,     # last transducer
        256 + 4 * (16 + 80 + 8 * 5),  # first prefilter
    ])
    def test_non_ascii_unkept_text_rejected(self, tmp_path, offset):
        path = tmp_path / "ok.edf"
        write_edf(make_recording(seed=7, duration_s=2.0), path)
        raw = bytearray(path.read_bytes())
        raw[offset] = 0xB5
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader, match="non-ASCII"):
            read_edf(path)


def write_sine(path, units, amplitude=50.0, fs=256.0, duration_s=4.0):
    """A one-signal EDF whose 8-byte physical dimension field reads `units`."""
    t = np.arange(int(fs * duration_s)) / fs
    samples = amplitude * np.sin(2 * np.pi * 1.0 * t)
    write_edf(Recording("s01", duration_s, [
        ChannelSignal(label="F3", fs=fs, samples=samples)]), path)
    raw = bytearray(path.read_bytes())
    offset = 256 + 16 + 80  # one signal: past its label and transducer
    raw[offset:offset + 8] = units.encode("ascii").ljust(8)
    path.write_bytes(bytes(raw))
    return samples


class TestPhysicalDimension:
    def test_millivolts_read_as_microvolts(self, tmp_path):
        # a 50 uV sine written with dimension mV is a 50 mV sine
        samples = write_sine(tmp_path / "mv.edf", "mV")
        back = read_edf(tmp_path / "mv.edf")
        peak = np.max(np.abs(back.channels[0].samples))
        assert peak == pytest.approx(50_000.0, rel=1e-3)
        step = quantization_step(samples)
        assert np.max(np.abs(back.channels[0].samples - 1e3 * samples)) \
            <= 1e3 * step

    def test_volts_read_as_microvolts(self, tmp_path):
        write_sine(tmp_path / "v.edf", "V", amplitude=0.5)
        back = read_edf(tmp_path / "v.edf")
        peak = np.max(np.abs(back.channel("F3").samples))
        assert peak == pytest.approx(500_000.0, rel=1e-3)

    def test_microvolts_keep_the_plain_arithmetic(self, tmp_path):
        write_sine(tmp_path / "uv.edf", "uV")
        raw = (tmp_path / "uv.edf").read_bytes()
        digital = np.frombuffer(raw, dtype="<i2", offset=512)
        scale = (50 - -50) / (32767 - -32767)
        expected = (digital.astype(np.float64) + 32767) * scale + -50
        back = read_edf(tmp_path / "uv.edf")
        assert np.array_equal(back.channels[0].samples, expected)

    @pytest.mark.parametrize("units", ["", "uv", "nV", "MV", "degC"])
    def test_other_dimensions_rejected(self, tmp_path, units):
        write_sine(tmp_path / "x.edf", units)
        with pytest.raises(UnsupportedTransducer, match="dimension"):
            read_edf(tmp_path / "x.edf")


def write_valid(tmp_path):
    rec = make_recording(seed=3, duration_s=4.0)
    path = tmp_path / "ok.edf"
    write_edf(rec, path)
    return path


class TestEdfErrors:
    def test_bad_version(self, tmp_path):
        path = write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0:8] = b"9       "
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader):
            read_edf(path)

    def test_header_size_mismatch(self, tmp_path):
        path = write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[184:192] = b"9999    "
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader):
            read_edf(path)

    def test_non_numeric_field(self, tmp_path):
        path = write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[236:244] = b"many    "
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader):
            read_edf(path)

    @pytest.mark.parametrize("offset,value", [
        (244, b"nan     "),              # record duration
        (256 + 4 * 104, b"nan     "),    # first physical minimum
        (256 + 4 * 112, b"1e999   "),    # first physical maximum
    ])
    def test_non_finite_number(self, tmp_path, offset, value):
        path = write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 8] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader, match="bad"):
            read_edf(path)

    def test_truncated_payload(self, tmp_path):
        path = write_valid(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(InconsistentRecordLength):
            read_edf(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.edf"
        path.write_bytes(b"0")
        with pytest.raises(MalformedHeader):
            read_edf(path)

    def test_annotation_stream_rejected(self, tmp_path):
        path = write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[256:272] = b"EDF Annotations "
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedTransducer):
            read_edf(path)

    def test_degenerate_digital_range(self, tmp_path):
        path = write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        ns = 4
        # dig_min block sits after labels/transducers/units/phys blocks
        offset = 256 + ns * (16 + 80 + 8 + 8 + 8)
        raw[offset:offset + 8] = b"32767   "
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedTransducer):
            read_edf(path)


def one_channel(label="F3", fs=10.0, samples=None, duration_s=2.0):
    if samples is None:
        samples = np.zeros(round(duration_s * fs))
    return Recording("s01", duration_s, [
        ChannelSignal(label=label, fs=fs, samples=samples)])


class TestEdfWriteErrors:
    """write_edf raises the package's data errors, never a bare
    ValueError, so the command line maps every one to exit code 3."""

    def test_no_signals(self, tmp_path):
        with pytest.raises(DataError, match="no signals"):
            write_edf(Recording("s01", 2.0), tmp_path / "x.edf")

    def test_rate_does_not_fill_a_record(self, tmp_path):
        with pytest.raises(DataError, match="whole samples"):
            write_edf(one_channel(fs=100.5), tmp_path / "x.edf")

    def test_sample_count_disagrees_with_records(self, tmp_path):
        # 1.9 s at 10 Hz is 19 samples, but rounds to two 1 s records
        with pytest.raises(DataError, match="19 samples, expected 20"):
            write_edf(one_channel(duration_s=1.9), tmp_path / "x.edf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples(self, tmp_path, bad):
        samples = np.zeros(20)
        samples[7] = bad
        with pytest.raises(DataError, match="non-finite"):
            write_edf(one_channel(samples=samples), tmp_path / "x.edf")

    @pytest.mark.parametrize("label", ["F3-reference-electrode","F3\u00b5"])
    def test_header_text_does_not_fit(self, tmp_path, label):
        with pytest.raises(MalformedHeader, match="label"):
            write_edf(one_channel(label=label), tmp_path / "x.edf")


class TestRecordingTypes:
    def test_duplicate_labels_rejected(self):
        ch = ChannelSignal(label="F3", fs=10.0, samples=np.zeros(10))
        with pytest.raises(DataError):
            Recording(subject_id="x", duration_s=1.0, channels=[ch, ch])

    def test_length_must_match_duration(self):
        with pytest.raises(DataError):
            Recording(subject_id="x", duration_s=2.0, channels=[
                ChannelSignal(label="F3", fs=10.0, samples=np.zeros(10))])


class TestBipolar:
    def test_difference_and_antisymmetry(self):
        rec = make_recording(seed=4, duration_s=2.0)
        fwd = derive_bipolar(rec, [("F3", "P3"), ("F4", "P4")])
        rev = derive_bipolar(rec, [("P3", "F3")])
        assert fwd.labels == ["F3-P3", "F4-P4"]
        expected = rec.channel("F3").samples - rec.channel("P3").samples
        assert np.array_equal(fwd.channel("F3-P3").samples, expected)
        assert np.array_equal(rev.channel("P3-F3").samples, -expected)

    def test_missing_channel(self):
        rec = make_recording(seed=5, duration_s=2.0)
        with pytest.raises(MissingChannel):
            derive_bipolar(rec, [("F3", "Cz")])

    def test_rates_must_match(self, tmp_path):
        rec = Recording("s01", 2.0, [
            ChannelSignal("F3", 256.0, np.zeros(512)),
            ChannelSignal("P3", 128.0, np.zeros(256))])
        write_edf(rec, tmp_path / "x.edf")
        for source in (rec, read_edf(tmp_path / "x.edf")):
            with pytest.raises(DataError, match="rates"):
                derive_bipolar(source, [("F3", "P3")])

    def test_derives_into_given_buffers(self):
        rec = make_recording(seed=6, duration_s=2.0)
        pairs = [("F3", "P3"), ("F4", "P4")]
        buffers = [np.full(512, np.nan), np.full(512, np.nan)]
        derived = derive_bipolar(rec, pairs, buffers)
        expected = derive_bipolar(rec, pairs)
        for ch, buf, want in zip(derived.channels, buffers,
                                 expected.channels):
            assert ch.samples is buf
            assert np.array_equal(buf, want.samples)

    @pytest.mark.parametrize("buffer", [np.empty(511), np.empty(512, "f4"),
                                        np.empty((2, 256))])
    def test_buffer_must_fit_the_pair(self, buffer):
        rec = make_recording(seed=7, duration_s=2.0)
        with pytest.raises(ShapeMismatch):
            derive_bipolar(rec, [("F3", "P3")], [buffer])


def reference_bipolar(path, pairs):
    """The derivation as it was before the reader kept the payload: the
    header parsed at fixed offsets, every signal made float64 microvolts
    in full, then anode minus cathode."""
    raw = path.read_bytes()
    ns = int(raw[252:256])
    n_records = int(raw[236:244])
    labels, units = (edf_signal_field(raw, name)
                     for name in ("label", "units"))
    pmin, pmax = ([float(v) for v in edf_signal_field(raw, name)]
                  for name in ("pmin", "pmax"))
    dmin, dmax, spr = ([int(v) for v in edf_signal_field(raw, name)]
                       for name in ("dmin", "dmax", "spr"))
    data = np.frombuffer(raw, dtype="<i2", offset=256 + 256 * ns).reshape(
        n_records, sum(spr))
    uv = {}
    col = 0
    for i, label in enumerate(labels):
        to_uv = {"uV": 1.0, "mV": 1e3, "V": 1e6}[units[i]]
        x = data[:, col:col + spr[i]].astype(np.float64).ravel()
        x -= dmin[i]
        x *= (pmax[i] - pmin[i]) / (dmax[i] - dmin[i]) * to_uv
        x += pmin[i] * to_uv
        uv[label] = x
        col += spr[i]
    return {f"{a}-{b}": uv[a] - uv[b] for a, b in pairs}


class TestPayloadDerivation:
    """Pairs derived from the int16 payload, block by block, against the
    full float64 derivation."""

    PAIRS = [("F3", "P3"), ("F4", "P4"), ("F3", "F4"), ("P3", "P4"),
             ("P3", "F3")]

    @pytest.mark.parametrize("units", ["uV", "mV", "V"])
    @pytest.mark.parametrize("record_s", [1, 2])
    # 1800 leaves a partial last block of 10 s at 256 Hz: 1792 + 768
    # samples in 1 s records, 1536 + 1024 in 2 s records
    @pytest.mark.parametrize("block", [1800, recording.DERIVE_BLOCK])
    def test_bitwise_equal_to_the_float_derivation(
            self, tmp_path, monkeypatch, units, record_s, block):
        monkeypatch.setattr(recording, "DERIVE_BLOCK", block)
        path = tmp_path / "s01.edf"
        write_edf(make_recording(seed=8, duration_s=10.0), path)
        # asymmetric ranges, so that dmin != -dmax and pmin != -pmax
        relayout_edf(path, record_s, {
            "units": lambda _: units, "pmin": lambda _: "-312.5",
            "pmax": lambda _: "187.25", "dmin": lambda _: "-2048",
            "dmax": lambda _: "30000"})
        expected = reference_bipolar(path, self.PAIRS)
        derived = derive_bipolar(read_edf(path), self.PAIRS)
        assert derived.labels == list(expected)
        for ch in derived.channels:
            assert ch.samples.dtype == np.float64
            assert np.array_equal(ch.samples.view(np.int64),
                                  expected[ch.label].view(np.int64))

    def test_reader_keeps_the_payload(self, tmp_path):
        path = tmp_path / "s01.edf"
        write_edf(make_recording(seed=9, duration_s=3.0), path)
        rec = read_edf(path)
        ch = rec.channel("F3")
        assert ch.record_samples == 256 and len(ch) == 768
        # each read of `samples` makes new microvolts from the payload
        assert ch.samples is not ch.samples
        assert np.array_equal(ch.samples, ch.samples)


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        track = AnnotationTrack.from_rows([(120.0, 300.0), (900.0, 600.0)])
        path = tmp_path / "ann.csv"
        write_annotations(track, path)
        back = read_annotations(path)
        assert back.intervals == track.intervals

    def test_non_qs_rows_ignored(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("onset_s,duration_s,label\n"
                        "0,60,QS\n60,60,Artifact\n120,60,AS\n")
        track = read_annotations(path)
        assert track.intervals == ((0.0, 60.0),)

    def test_rows_sorted_on_load(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("onset_s,duration_s,label\n"
                        "600,60,QS\n0,60,QS\n")
        track = read_annotations(path)
        assert track.intervals == ((0.0, 60.0), (600.0, 60.0))

    def test_negative_duration(self):
        with pytest.raises(NegativeDuration):
            AnnotationTrack.from_rows([(0.0, -5.0)])

    def test_overlap(self):
        with pytest.raises(OverlappingIntervals):
            AnnotationTrack.from_rows([(0.0, 100.0), (60.0, 30.0)])

    def test_touching_intervals_allowed(self):
        track = AnnotationTrack.from_rows([(0.0, 60.0), (60.0, 60.0)])
        assert len(track.intervals) == 2

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("start,stop\n1,2\n")
        with pytest.raises(DataError):
            read_annotations(path)


class TestEpochLabels:
    def test_full_coverage_is_qs(self):
        track = AnnotationTrack.from_rows([(0.0, 120.0)])
        assert epoch_labels(track, 2) == [Label.QS, Label.QS]

    def test_partial_overlap_excluded(self):
        track = AnnotationTrack.from_rows([(0.0, 90.0)])
        assert epoch_labels(track, 3) == [Label.QS, Label.EXCLUDED, Label.AS]

    def test_boundary_alignment(self):
        track = AnnotationTrack.from_rows([(60.0, 60.0)])
        assert epoch_labels(track, 3) == [Label.AS, Label.QS, Label.AS]

    def test_interval_inside_epoch_excludes_it(self):
        track = AnnotationTrack.from_rows([(70.0, 10.0)])
        assert epoch_labels(track, 3) == [Label.AS, Label.EXCLUDED, Label.AS]

    def test_empty_track_is_all_as(self):
        track = AnnotationTrack.from_rows([])
        assert epoch_labels(track, 4) == [Label.AS] * 4
