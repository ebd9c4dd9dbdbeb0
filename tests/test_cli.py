"""Command line tests: config schema enforcement, exit codes, and an
end-to-end run of every subcommand on a tiny generated cohort, including
byte-level reproducibility of the cross-validation outputs."""

import csv
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import relayout_edf
from sleeptrend import cli, nn, pipeline, sst, threads, training
from sleeptrend.errors import ConfigError
from sleeptrend.recording import (ChannelSignal, Recording, derive_bipolar,
                                  epoch_labels, read_edf, write_edf)
from sleeptrend.sst import read_sst_csv

SMALL_SYNTH = {"seed": 7, "synth": {"n_subjects": 2, "duration_min": 12.0}}
SMALL_TRAIN = {"max_epochs": 2, "batch_size": 32}
README = Path(__file__).resolve().parents[1] / "README.md"

# every key a config document may set, as dotted paths
ACCEPTED_KEYS = {
    "seed", "jobs", "data_dir", "out_dir", "channel_pairs", "train_channels",
    "synth.n_subjects", "synth.duration_min", "synth.cycle_min",
    "synth.qs_fraction", "synth.as_rms_uv", "synth.burst_peak_uv",
    "synth.burst_s", "synth.ibi_peak_uv", "synth.ibi_s",
    "synth.artifact_rate_per_hour", "synth.jitter_s",
    "preprocess.low_hz", "preprocess.high_hz", "preprocess.order",
    "artifact.amp_limit_uv", "artifact.flat_run_s",
    "train.lr", "train.beta1", "train.beta2", "train.eps",
    "train.batch_size", "train.max_epochs", "train.early_stop_patience",
    "train.lr_factor", "train.lr_plateau", "train.inner_val_fraction",
    "sst.threshold", "sst.smooth_window", "sst.weights",
}


def write_config(directory, doc):
    path = Path(directory) / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def dotted_keys(doc, schema=cli.SCHEMA, prefix=""):
    """The dotted paths of a document's keys, down to the schema's
    leaves (so sst.weights is one key, whatever channels it names)."""
    keys = set()
    for key, value in doc.items():
        if isinstance(schema[key], dict):
            keys |= dotted_keys(value, schema[key], f"{prefix}{key}.")
        else:
            keys.add(prefix + key)
    return keys


def readme_reference():
    """README's "Configuration reference" block, without its comments."""
    section = README.read_text().split("## Configuration reference", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//[^\n]*", "", block))


class TestConfigSchema:
    def test_empty_document_is_valid(self):
        assert cli.validate_config({}) == {}

    def test_full_document_round_trips(self):
        doc = {
            "seed": 3, "jobs": 2, "data_dir": "d", "out_dir": "o",
            "channel_pairs": [["F3", "P3"]],
            "train_channels": ["F3-P3"],
            "synth": {"n_subjects": 1, "duration_min": 5.0,
                      "cycle_min": [40, 70], "qs_fraction": 0.3,
                      "artifact_rate_per_hour": 0.0, "jitter_s": 10.0},
            "preprocess": {"low_hz": 0.5, "high_hz": 30.0, "order": 4},
            "artifact": {"amp_limit_uv": 250.0, "flat_run_s": 1.0},
            "train": {"lr": 0.001, "max_epochs": 3},
            "sst": {"threshold": 0.5, "smooth_window": 5,
                    "weights": {"F3-P3": 1.0}},
        }
        out = cli.validate_config(doc)
        assert out["channel_pairs"] == (("F3", "P3"),)
        assert out["synth"]["cycle_min"] == (40.0, 70.0)
        assert out["sst"]["weights"] == {"F3-P3": 1.0}

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            cli.validate_config({"bogus": 1})

    def test_unknown_nested_key_names_its_path(self):
        with pytest.raises(ConfigError, match=r"synth\.bogus"):
            cli.validate_config({"synth": {"bogus": 1}})

    def test_wrong_scalar_type(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.validate_config({"seed": "zero"})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.validate_config({"seed": True})

    def test_range_must_be_a_pair(self):
        with pytest.raises(ConfigError, match=r"synth\.cycle_min"):
            cli.validate_config({"synth": {"cycle_min": [40]}})

    def test_channel_pairs_must_be_string_pairs(self):
        with pytest.raises(ConfigError, match=r"channel_pairs\[0\]"):
            cli.validate_config({"channel_pairs": [["F3", 4]]})

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="train"):
            cli.validate_config({"train": 5})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            cli.load_config(str(path))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            cli.load_config(str(tmp_path / "absent.json"))

    def test_accepted_key_set_is_pinned(self):
        assert len(ACCEPTED_KEYS) == 35
        assert dotted_keys(cli.SCHEMA) == ACCEPTED_KEYS

    def test_readme_reference_matches_schema(self):
        doc = readme_reference()
        validated = cli.validate_config(doc)
        assert dotted_keys(doc) == dotted_keys(cli.SCHEMA)
        # every section value shown is its dataclass default, except
        # sst.weights: an example, whose default None means equal weights
        for name, cls in cli.SECTIONS.items():
            for key, value in validated[name].items():
                if f"{name}.{key}" != "sst.weights":
                    assert value == getattr(cls(), key), f"{name}.{key}"

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            cli.validate_config({"jobs": jobs})


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "wrong": 0})
        code = cli.main(["synth", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_out_dir_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1})
        assert cli.main(["synth", "--config", cfg]) == 2

    def test_empty_data_dir_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = write_config(tmp_path, {"data_dir": str(empty)})
        code = cli.main(["preprocess", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_usage_error_from_argparse(self, capsys):
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Two 12-minute subjects written once for the whole module."""
    out = tmp_path_factory.mktemp("data")
    cfg = write_config(tmp_path_factory.mktemp("synth_cfg"), SMALL_SYNTH)
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def crossval_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("crossval")
    cfg = write_config(tmp_path_factory.mktemp("cv_cfg"),
                       {"seed": 7, "data_dir": str(data_dir),
                        "train": SMALL_TRAIN})
    assert cli.main(["crossval", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestSynthCommand:
    def test_file_inventory(self, data_dir):
        names = sorted(p.name for p in data_dir.iterdir())
        assert names == ["manifest.json",
                         "s01.e1.csv", "s01.e2.csv", "s01.edf",
                         "s01.truth.csv",
                         "s02.e1.csv", "s02.e2.csv", "s02.edf",
                         "s02.truth.csv"]

    def test_manifest_lists_every_output(self, data_dir):
        doc = json.loads((data_dir / "manifest.json").read_text())
        assert doc["command"] == "synth"
        listed = sorted(row["path"] for row in doc["outputs"])
        assert listed == sorted(p.name for p in data_dir.iterdir()
                                if p.name != "manifest.json")
        assert all(len(row["sha256"]) == 64 for row in doc["outputs"])

    def test_same_seed_same_bytes(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, SMALL_SYNTH)
        again = tmp_path / "again"
        assert cli.main(["synth", "--config", cfg,
                         "--out", str(again)]) == 0
        for path in data_dir.iterdir():
            if path.name == "manifest.json":
                continue
            assert (again / path.name).read_bytes() == path.read_bytes()

    def test_seed_flag_overrides_config(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, SMALL_SYNTH)
        other = tmp_path / "other"
        assert cli.main(["synth", "--config", cfg, "--seed", "8",
                         "--out", str(other)]) == 0
        assert (other / "s01.edf").read_bytes() \
            != (data_dir / "s01.edf").read_bytes()


class TestPreprocessCommand:
    def test_report_covers_every_channel(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, {"data_dir": str(data_dir)})
        out = tmp_path / "out"
        assert cli.main(["preprocess", "--config", cfg,
                         "--out", str(out)]) == 0
        rows = read_rows(out / "preprocess.csv")
        assert {r["subject"] for r in rows} == {"s01", "s02"}
        assert {r["channel"] for r in rows} \
            == {"F3-P3", "F4-P4", "F3-F4", "P3-P4"}
        assert all(r["n_epochs"] == "12" for r in rows)


class TestTrainCommand:
    def test_checkpoint_and_history(self, data_dir, tmp_path):
        cfg = write_config(tmp_path, {"seed": 7, "data_dir": str(data_dir),
                                      "train": SMALL_TRAIN})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        assert (out / "model.bin").exists()
        history = read_rows(out / "history.csv")
        assert len(history) == 2
        manifest = json.loads((out / "model.json").read_text())
        assert manifest["metadata"]["best_epoch"] >= 0

    def test_negative_seed_exits_2(self, data_dir, tmp_path, capsys):
        doc = {"data_dir": str(data_dir), "train": SMALL_TRAIN}
        flag = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", flag, "--seed", "-1",
                         "--out", str(tmp_path / "flag")]) == 2
        key = write_config(tmp_path, {**doc, "seed": -1})
        assert cli.main(["train", "--config", key,
                         "--out", str(tmp_path / "key")]) == 2
        assert "seed -1" in capsys.readouterr().err


class TestCrossvalCommand:
    def test_outputs_per_fold(self, crossval_dir):
        for sid in ("s01", "s02"):
            assert (crossval_dir / f"fold_{sid}.json").exists()
            assert (crossval_dir / f"fold_{sid}.bin").exists()
            assert (crossval_dir / f"fold_{sid}.sst.csv").exists()
            svg = (crossval_dir / f"fold_{sid}.svg").read_text()
            assert svg.startswith("<svg")

    def test_metrics_rows(self, crossval_dir):
        rows = read_rows(crossval_dir / "metrics.csv")
        channels = {"F3-P3", "F4-P4", "F3-F4", "P3-P4",
                    "combined", "smoothed"}
        for sid in ("s01", "s02"):
            assert {r["channel"] for r in rows
                    if r["subject"] == sid} == channels
        for row in rows:
            if row["accuracy"]:
                assert 0.0 <= float(row["accuracy"]) <= 1.0
            if row["auc"]:
                assert 0.0 <= float(row["auc"]) <= 1.0

    def test_summary_aggregates(self, crossval_dir):
        rows = read_rows(crossval_dir / "summary.csv")
        assert {r["channel"] for r in rows} >= {"combined", "smoothed"}
        for row in rows:
            assert float(row["min"]) <= float(row["median"]) \
                <= float(row["max"])

    def test_rerun_is_byte_identical(self, crossval_dir, data_dir,
                                     tmp_path):
        cfg = write_config(tmp_path, {"seed": 7, "data_dir": str(data_dir),
                                      "train": SMALL_TRAIN})
        again = tmp_path / "again"
        assert cli.main(["crossval", "--config", cfg,
                         "--out", str(again)]) == 0
        for name in ("metrics.csv", "summary.csv", "fold_s01.bin",
                     "fold_s02.bin", "fold_s01.sst.csv", "fold_s01.svg"):
            assert (again / name).read_bytes() \
                == (crossval_dir / name).read_bytes(), name


    def test_jobs_flag_below_one_exits_2(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, {"data_dir": str(data_dir),
                                      "train": SMALL_TRAIN})
        assert cli.main(["crossval", "--config", cfg, "--jobs", "0",
                         "--out", str(tmp_path / "out")]) == 2
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("sst_section, message", [
        ({"smooth_window": 4}, "sst.smooth_window 4"),
        ({"threshold": 1.0}, "sst.threshold 1.0"),
        ({"weights": {"F3-P3": -1.0}}, "sst.weights.F3-P3"),
        ({"weights": {"F3-P3": 1.0}}, "sst.weights: missing channel"),
        ({"weights": {"F3-P3": 0.0, "F4-P4": 1.0, "F3-F4": 1.0,
                      "P3-P4": 1.0}}, "sst.weights.F3-P3: 0.0"),
    ])
    def test_bad_sst_section_exits_2_before_training(
            self, data_dir, tmp_path, capsys, sst_section, message):
        cfg = write_config(tmp_path, {"seed": 7, "data_dir": str(data_dir),
                                      "train": SMALL_TRAIN,
                                      "sst": sst_section})
        out = tmp_path / "out"
        assert cli.main(["crossval", "--config", cfg, "--out",
                         str(out)]) == 2
        assert not list(out.glob("fold_*"))
        assert message in capsys.readouterr().err

    def test_patience_is_loso_default_unless_configured(
            self, data_dir, tmp_path, monkeypatch):
        seen = []

        class Spy(training.PlateauSchedule):
            def __init__(self, lr, patience, *args):
                seen.append(patience)
                super().__init__(lr, patience, *args)

        monkeypatch.setattr(training, "PlateauSchedule", Spy)
        tiny = {"max_epochs": 1, "batch_size": 32}
        for train, expected in ((tiny, training.LOSO_PATIENCE),
                                ({**tiny, "early_stop_patience": 1}, 1)):
            seen.clear()
            cfg = write_config(tmp_path, {"seed": 7, "data_dir": str(data_dir),
                                          "train": train})
            assert cli.main(["crossval", "--config", cfg, "--out",
                             str(tmp_path / f"patience_{expected}")]) == 0
            assert seen == [expected, expected]


class TestInferCommand:
    def test_zero_weight_exits_2_before_reading(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sst": {"weights": {"F3-P3": 0.0}}})
        out = tmp_path / "out"
        assert cli.main(["infer", "--config", cfg,
                         "--checkpoint", str(tmp_path / "none.json"),
                         "--recording", str(tmp_path / "none.edf"),
                         "--out", str(out)]) == 2
        assert "sst.weights.F3-P3: 0.0" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_trend_outputs(self, crossval_dir, data_dir, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "infer", "--checkpoint", str(crossval_dir / "fold_s01.json"),
            "--recording", str(data_dir / "s01.edf"), "--out", str(out)])
        assert code == 0
        trace = read_sst_csv(out / "sst.csv")
        assert len(trace) == 12
        finite = np.isfinite(trace.p_mean)
        assert finite.any()
        assert np.all(trace.p_min[finite] <= trace.p_mean[finite] + 1e-12)
        assert np.all(trace.p_mean[finite] <= trace.p_max[finite] + 1e-12)
        assert (out / "dqs.csv").exists()
        svg = (out / "sst.svg").read_text()
        assert svg.startswith("<svg")
        # annotation sidecars next to the EDF become strips in the chart
        assert "e1" in svg and "e2" in svg

    def test_corrupt_checkpoint_exits_3(self, crossval_dir, data_dir,
                                        tmp_path, capsys):
        manifest = (crossval_dir / "fold_s01.json").read_text()
        blob = (crossval_dir / "fold_s01.bin").read_bytes()
        no_blob_key = json.loads(manifest)
        del no_blob_key["blob"]
        unknown_kind = json.loads(manifest)
        unknown_kind["specs"][0]["kind"] = "conv2d"
        cases = {
            "zeroed_blob_tail": (manifest, blob[:-4] + b"\x00" * 4),
            "bad_json": (manifest[:len(manifest) // 2], blob),
            "no_blob_key": (json.dumps(no_blob_key), blob),
            "unknown_layer_kind": (json.dumps(unknown_kind), blob),
        }
        for name, (text, data) in cases.items():
            broken = tmp_path / name
            broken.mkdir()
            (broken / "fold_s01.json").write_text(text)
            (broken / "fold_s01.bin").write_bytes(data)
            code = cli.main([
                "infer", "--checkpoint", str(broken / "fold_s01.json"),
                "--recording", str(data_dir / "s01.edf"),
                "--out", str(tmp_path / "out")])
            assert code == 3, name
            assert "data error" in capsys.readouterr().err, name


def serial_infer(checkpoint, recording_path, out):
    """`infer` as its stages composed one after another: condition every
    channel, score each at batch 256, then the aEEG of a fresh derivation
    of the first pair."""
    model, _ = nn.load_checkpoint(checkpoint)
    recording = read_edf(recording_path, subject_id=recording_path.stem)
    epochs, _ = pipeline.preprocess_recording(recording)
    predictions = {channel: training.infer_channel(model, x, valid,
                                                   batch=256)
                   for channel, (x, valid) in epochs.items()}
    trace = sst.compute_sst(predictions)
    dqs = sst.detect_dqs(trace)
    first = derive_bipolar(recording, pipeline.BIPOLAR_PAIRS[:1]).channels[0]
    aeeg = sst.compute_aeeg(first.samples, fs=first.fs)
    strips = {name: epoch_labels(track, len(trace))
              for name, track in pipeline.scorer_tracks(
                  recording_path.parent, recording_path.stem).items()}
    out.mkdir(parents=True)
    sst.write_sst_csv(trace, out / "sst.csv")
    sst.write_dqs_csv(dqs, out / "dqs.csv")
    (out / "sst.svg").write_text(sst.render_svg(
        trace, dqs, annotations=strips, aeeg=aeeg,
        threshold=sst.SstConfig().threshold))


@pytest.fixture(scope="module")
def long_recording(tmp_path_factory):
    """One 80-minute subject with artifacts: more valid minutes per
    channel than one inference batch of `infer`."""
    out = tmp_path_factory.mktemp("long")
    cfg = write_config(tmp_path_factory.mktemp("long_cfg"), {
        "seed": 5, "synth": {"n_subjects": 1, "duration_min": 80.0,
                             "artifact_rate_per_hour": 6.0}})
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out / "s01.edf"


@pytest.fixture(scope="module")
def long_millivolt_recording(long_recording, tmp_path_factory):
    """The long recording stored in mV and in 2 s records, with the same
    physical range, so every sample is read through a factor of 1000."""
    out = tmp_path_factory.mktemp("long_mv")
    for path in long_recording.parent.glob(f"{long_recording.stem}.*"):
        shutil.copy(path, out / path.name)
    recording_path = out / long_recording.name
    relayout_edf(recording_path, 2, {
        "units": lambda _: "mV",
        "pmin": lambda v: f"{float(v) / 1000:g}",
        "pmax": lambda v: f"{float(v) / 1000:g}"})
    return recording_path


class TestInferSchedule:
    # five CPUs give each of the five tasks (the aEEG and four pairs) its
    # own thread
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_outputs_equal_the_serial_composition(
            self, monkeypatch, crossval_dir, long_recording,
            long_millivolt_recording, tmp_path, cpus):
        monkeypatch.setattr(pipeline, "_available_cpus", lambda: cpus)
        checkpoint = crossval_dir / "fold_s01.json"
        for recording_path in (long_recording, long_millivolt_recording):
            out = tmp_path / recording_path.parent.name
            serial_infer(checkpoint, recording_path, out / "serial")
            assert cli.main(["infer", "--checkpoint", str(checkpoint),
                             "--recording", str(recording_path),
                             "--out", str(out / "infer")]) == 0
            for name in ("sst.csv", "dqs.csv", "sst.svg"):
                assert (out / "infer" / name).read_bytes() \
                    == (out / "serial" / name).read_bytes(), name
            trace = read_sst_csv(out / "infer" / "sst.csv")
            # artifact minutes in the mix
            assert np.isnan(trace.p_mean).any()
            assert np.isfinite(trace.p_mean).any()

    @pytest.mark.skipif(threads.blas_threads() is None,
                        reason="numpy bundles no OpenBLAS")
    def test_blas_threads_limited_then_restored(
            self, monkeypatch, crossval_dir, data_dir, tmp_path):
        seen = []
        original = training.infer_channel

        def spy(*args, **kwargs):
            seen.append(threads.blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "infer_channel", spy)
        rng = np.random.default_rng(1)
        write_edf(Recording("m01", 120.0, [
            ChannelSignal(label, 256.0, rng.normal(0.0, 20.0, 120 * 256))
            for label in ("F3", "F4", "P3")]), tmp_path / "no_p4.edf")
        before = threads.blas_threads()
        threads.set_blas_threads(2)
        try:
            assert cli.main([
                "infer", "--checkpoint", str(crossval_dir / "fold_s01.json"),
                "--recording", str(data_dir / "s01.edf"),
                "--out", str(tmp_path / "ok")]) == 0
            assert seen == [1, 1, 1, 1]
            assert threads.blas_threads() == 2
            assert cli.main([
                "infer", "--checkpoint", str(crossval_dir / "fold_s01.json"),
                "--recording", str(tmp_path / "no_p4.edf"),
                "--out", str(tmp_path / "missing")]) == 3
            assert threads.blas_threads() == 2
        finally:
            threads.set_blas_threads(before)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """An untrained checkpoint and the bytes of a 3-minute EDF."""
    root = tmp_path_factory.mktemp("fuzz")
    model = nn.build_model(nn.reference_architecture(), input_len=3840)
    nn.save_checkpoint(model, root / "model.json")
    rng = np.random.default_rng(2)
    write_edf(Recording("f01", 180.0, [
        ChannelSignal(label, 256.0, rng.normal(0.0, 20.0, 180 * 256))
        for label in ("F3", "F4", "P3", "P4")]), root / "f01.edf")
    return root / "model.json", (root / "f01.edf").read_bytes()


HEADER_BYTES = 256 + 4 * 256


class TestInferFuzz:
    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(
               st.tuples(st.integers(0, HEADER_BYTES - 1),
                         st.one_of(st.sampled_from(b"0123456789 .-+eE"),
                                   st.integers(0, 255))),
               min_size=1, max_size=3),
           cut=st.one_of(st.none(), st.integers(0, 4 * HEADER_BYTES)))
    def test_mutated_header_exits_with_a_known_code(self, fuzz_inputs,
                                                     edits, cut):
        checkpoint, pristine = fuzz_inputs
        raw = bytearray(pristine)
        for offset, value in edits:
            raw[offset] = value
        if cut is not None:
            del raw[cut:]
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "f01.edf"
            path.write_bytes(bytes(raw))
            code = cli.main(["infer", "--checkpoint", str(checkpoint),
                             "--recording", str(path),
                             "--out", str(Path(work) / "out")])
        assert code in (0, 2, 3, 4)

    def test_rate_below_a_band_edge_exits_3(self, fuzz_inputs, tmp_path,
                                            capsys):
        # 256 samples per 14 s record is 18.3 Hz, too slow for the 30 Hz
        # band edge: the data is at fault, not the configuration
        checkpoint, pristine = fuzz_inputs
        raw = bytearray(pristine)
        raw[244:252] = b"14      "
        path = tmp_path / "f01.edf"
        path.write_bytes(bytes(raw))
        code = cli.main(["infer", "--checkpoint", str(checkpoint),
                         "--recording", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "requires fs >" in capsys.readouterr().err

    def test_rate_below_the_aeeg_band_exits_3(self, fuzz_inputs, tmp_path,
                                              capsys):
        # at 18.3 Hz an 8 Hz preprocessing band fits, so only the aEEG's
        # 15 Hz edge fails, in a pool task
        checkpoint, pristine = fuzz_inputs
        raw = bytearray(pristine)
        raw[244:252] = b"14      "
        path = tmp_path / "f01.edf"
        path.write_bytes(bytes(raw))
        cfg = write_config(tmp_path, {"preprocess": {"high_hz": 8.0}})
        code = cli.main(["infer", "--config", cfg,
                         "--checkpoint", str(checkpoint),
                         "--recording", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "high edge 15.0 Hz requires fs >" in capsys.readouterr().err


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "array",
            dict: "object"}[type(value)]


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


def manifest_fields(doc):
    """Every top-level key, and every field of each specs/arrays entry, as
    a path of keys and indices into the manifest."""
    paths = [(key,) for key in sorted(doc)]
    for table in ("specs", "arrays"):
        paths += [(table, i, key) for i, entry in enumerate(doc[table])
                  for key in sorted(entry)]
    return paths


class TestCheckpointFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_retyped_manifest_field_exits_with_a_known_code(
            self, fuzz_inputs, data):
        checkpoint, pristine = fuzz_inputs
        doc = json.loads(checkpoint.read_text())
        *parents, last = data.draw(st.sampled_from(manifest_fields(doc)))
        holder = doc
        for key in parents:
            holder = holder[key]
        holder[last] = data.draw(JSON_VALUES.filter(
            lambda v: json_type(v) != json_type(holder[last])))
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            (work / "model.json").write_text(json.dumps(doc))
            (work / "model.bin").write_bytes(
                checkpoint.with_suffix(".bin").read_bytes())
            (work / "f01.edf").write_bytes(pristine)
            code = cli.main(["infer", "--checkpoint", str(work / "model.json"),
                             "--recording", str(work / "f01.edf"),
                             "--out", str(work / "out")])
        assert code in (0, 2, 3, 4)


class TestEvalCommand:
    def test_scores_a_trend_file(self, crossval_dir, data_dir, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "eval", "--sst", str(crossval_dir / "fold_s01.sst.csv"),
            "--annotations", str(data_dir / "s01.truth.csv"),
            "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "eval.json").read_text())
        assert set(doc) == {"n_scored", "accuracy", "kappa", "f1", "auc"}
        assert 0 < doc["n_scored"] <= 12
        assert 0.0 <= doc["accuracy"] <= 1.0


class TestBaselineCommand:
    def test_envelope_report(self, crossval_dir, data_dir, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "baseline", "--recording", str(data_dir / "s01.edf"),
            "--sst", str(crossval_dir / "fold_s01.sst.csv"),
            "--annotations", str(data_dir / "s01.truth.csv"),
            "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "baseline.json").read_text())
        assert set(doc) == {"pearson_mean", "pearson_std",
                            "roc_mean", "roc_std"}
        assert len(read_rows(out / "envelope.csv")) == 12

    def test_mixed_rate_pair_exits_3(self, crossval_dir, tmp_path, capsys):
        rng = np.random.default_rng(0)
        recording = Recording("m01", 120.0, [
            ChannelSignal("F3", 256.0, rng.normal(0.0, 20.0, 120 * 256)),
            ChannelSignal("P3", 128.0, rng.normal(0.0, 20.0, 120 * 128))])
        write_edf(recording, tmp_path / "m01.edf")
        code = cli.main([
            "baseline", "--recording", str(tmp_path / "m01.edf"),
            "--sst", str(crossval_dir / "fold_s01.sst.csv"),
            "--out", str(tmp_path / "out")])
        assert code == 3
        assert "rates 256.0 vs 128.0 differ" in capsys.readouterr().err
