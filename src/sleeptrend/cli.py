"""Command line entry point.

One binary with subcommands covering the whole pipeline: generate data,
preprocess, train, cross-validate, render trends, evaluate, and compare
against the envelope baseline. Every run is reproducible from the config
document and seed; outputs are byte-stable, and the wall-clock timestamp
lives only in the run manifest.

Exit codes: 0 success, 2 config error, 3 data error, 4 anything else.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from . import envelope, nn, pipeline, sst, synth, threads, training
from .dsp import ArtifactConfig, PreprocessConfig
from .errors import ConfigError, DataError, SingleClassLabels, ZeroVariance
from .labels import Label
from .metrics import confusion, median_range, report, roc_auc
from .recording import (derive_bipolar, epoch_labels, read_annotations,
                        read_edf)
from .training import TrainConfig


# ---------------------------------------------------------------------------
# config schema

def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _v_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _v_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _v_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _v_range(value, path: str) -> tuple[float, float]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value)):
        _fail(path, "expected a [low, high] pair of numbers")
    return (float(value[0]), float(value[1]))


def _v_channel_pairs(value, path: str) -> tuple[tuple[str, str], ...]:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of [anode, cathode] pairs")
    pairs = []
    for i, pair in enumerate(value):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)):
            _fail(f"{path}[{i}]", "expected an [anode, cathode] string pair")
        pairs.append((pair[0], pair[1]))
    return tuple(pairs)


def _v_str_list(value, path: str) -> tuple[str, ...]:
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, str) for v in value)):
        _fail(path, "expected a non-empty list of strings")
    return tuple(value)


def _v_weights(value, path: str) -> dict[str, float]:
    if not isinstance(value, dict) or not value:
        _fail(path, "expected a {channel: weight} object")
    return {key: _v_number(weight, f"{path}.{key}")
            for key, weight in value.items()}


def _v_jobs(value, path: str) -> int:
    if _v_int(value, path) < 1:
        _fail(path, f"expected at least 1 worker, got {value}")
    return value


# Each section is one dataclass; its fields, bar the top-level seed, are
# the section's keys, checked by the rule for the field's type.
SECTIONS = {
    "synth": synth.SynthConfig,
    "preprocess": PreprocessConfig,
    "artifact": ArtifactConfig,
    "train": TrainConfig,
    "sst": sst.SstConfig,
}

_FIELD_RULES = {
    int: _v_int,
    float: _v_number,
    tuple[float, float]: _v_range,
    dict[str, float] | None: _v_weights,
}


def _section_schema(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: _FIELD_RULES[hints[f.name]] for f in fields(cls)
            if f.name != "seed"}


SCHEMA = {
    "seed": _v_int,
    "jobs": _v_jobs,
    "data_dir": _v_str,
    "out_dir": _v_str,
    "channel_pairs": _v_channel_pairs,
    "train_channels": _v_str_list,
    **{name: _section_schema(cls) for name, cls in SECTIONS.items()},
}


def validate_config(doc, schema: Mapping = SCHEMA, path: str = "") -> dict:
    """Check a parsed JSON document against the nested schema. Unknown
    keys are rejected with their dotted path."""
    where = path or "config"
    if not isinstance(doc, dict):
        _fail(where, f"expected an object, got {type(doc).__name__}")
    out = {}
    for key, value in doc.items():
        dotted = f"{path}.{key}" if path else key
        if key not in schema:
            _fail(dotted, "unknown key")
        rule = schema[key]
        if isinstance(rule, dict):
            out[key] = validate_config(value, rule, dotted)
        else:
            out[key] = rule(value, dotted)
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return validate_config(doc)


# ---------------------------------------------------------------------------
# config accessors

def _section(cfg: dict, name: str, **defaults):
    """One config section as its dataclass. The section's keys override
    `defaults`, which override the class's own; a class with a seed field
    takes the top-level seed."""
    cls = SECTIONS[name]
    if "seed" in cfg and any(f.name == "seed" for f in fields(cls)):
        defaults["seed"] = cfg["seed"]
    return cls(**{**defaults, **cfg.get(name, {})})


def _pairs(cfg: dict) -> tuple[tuple[str, str], ...]:
    return cfg.get("channel_pairs", pipeline.BIPOLAR_PAIRS)


def _out_dir(cfg: dict, args) -> Path:
    out = args.out or cfg.get("out_dir")
    if out is None:
        raise ConfigError("no output directory: pass --out or set out_dir")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _data_dir(cfg: dict) -> Path:
    data = cfg.get("data_dir")
    if data is None:
        raise ConfigError("data_dir is required for this command")
    return Path(data)


# ---------------------------------------------------------------------------
# shared output helpers

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: dict,
                    outputs: Sequence[Path]) -> None:
    """The one file allowed to differ between identical runs."""
    rows = [{"path": str(Path(p).relative_to(out_dir)),
             "sha256": _sha256(Path(p))}
            for p in sorted(set(map(Path, outputs)))]
    _write_json(out_dir / "manifest.json",
                {"command": command, "config": cfg,
                 "created_unix": round(time.time(), 3), "outputs": rows})


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]):
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics assembly

def _score_series(reference: Sequence[Label], probs: np.ndarray,
                  threshold: float) -> dict:
    """Agreement of one probability series against reference labels.

    Epochs with NaN probability become gaps and drop out of the counts;
    AUC is None when only one class remains."""
    probs = np.asarray(probs, dtype=float)
    finite = np.isfinite(probs)
    cm = confusion(reference, sst.decide(probs, threshold))
    if cm.total == 0:
        return {"n_scored": 0, **dict.fromkeys(METRIC_COLUMNS)}
    scored = report(cm)
    usable = [i for i in range(len(probs)) if finite[i]
              and reference[i] in (Label.QS, Label.AS)]
    try:
        auc = roc_auc([reference[i] for i in usable], probs[usable]).auc
    except (SingleClassLabels, ZeroVariance):
        auc = None
    return {"n_scored": cm.total, "accuracy": scored.accuracy,
            "kappa": scored.kappa, "f1": scored.f1, "auc": auc}


METRIC_COLUMNS = ("accuracy", "kappa", "f1", "auc")


def _fold_rows(subject_id: str, reference: Sequence[Label],
               predictions: Mapping[str, np.ndarray], trace: sst.SstTrace,
               threshold: float) -> list[list]:
    rows = []
    for name, series in [*sorted(predictions.items()),
                         ("combined", trace.p_mean),
                         ("smoothed", trace.p_smoothed)]:
        scores = _score_series(reference, series, threshold)
        rows.append([subject_id, name, scores["n_scored"],
                     *[scores[m] for m in METRIC_COLUMNS]])
    return rows


def _summary_rows(fold_rows: Sequence[Sequence]) -> list[list]:
    """Median and range of each metric per channel across folds."""
    by_channel: dict[str, dict[str, list[float]]] = {}
    for row in fold_rows:
        channel = row[1]
        for metric, value in zip(METRIC_COLUMNS, row[3:]):
            if value is not None:
                by_channel.setdefault(channel, {}).setdefault(
                    metric, []).append(value)
    rows = []
    for channel in sorted(by_channel):
        for metric in METRIC_COLUMNS:
            values = by_channel[channel].get(metric)
            if values:
                mid, low, high = median_range(values)
                rows.append([channel, metric, mid, low, high])
    return rows


def _reference_labels(subject: training.SubjectData,
                      truth) -> list[Label]:
    """Ground truth when available, else the first scorer."""
    if truth is not None:
        return epoch_labels(truth, subject.n_epochs)
    first = sorted(subject.labels)[0]
    return list(subject.labels[first])


# ---------------------------------------------------------------------------
# commands

def cmd_synth(cfg: dict, args) -> int:
    out_dir = _out_dir(cfg, args)
    synth_cfg = _section(cfg, "synth")
    generated = synth.generate(synth_cfg)
    paths = synth.write_dataset(generated, out_dir, synth_cfg.jitter_s)
    _write_manifest(out_dir, "synth", cfg, paths)
    print(f"wrote {len(paths)} files for {synth_cfg.n_subjects} "
          f"subject(s) under {out_dir}")
    return 0


def cmd_preprocess(cfg: dict, args) -> int:
    out_dir = _out_dir(cfg, args)
    data_dir = _data_dir(cfg)
    rows = []
    for subject_id in pipeline.discover_subjects(data_dir):
        recording = read_edf(data_dir / f"{subject_id}.edf",
                             subject_id=subject_id)
        _, reports = pipeline.preprocess_recording(
            recording, _pairs(cfg), _section(cfg, "preprocess"),
            _section(cfg, "artifact"))
        for channel in sorted(reports):
            rep = reports[channel]
            rows.append([subject_id, channel, rep.n_epochs,
                         len(rep.rejected),
                         ";".join(str(i) for i in rep.rejected)])
    if not rows:
        raise DataError(f"no EDF files in {data_dir}")
    path = out_dir / "preprocess.csv"
    _write_csv(path, ["subject", "channel", "n_epochs", "n_rejected",
                      "rejected_epochs"], rows)
    _write_manifest(out_dir, "preprocess", cfg, [path])
    print(f"wrote {path}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    out_dir = _out_dir(cfg, args)
    subjects, _ = pipeline.load_cohort(
        _data_dir(cfg), _pairs(cfg), _section(cfg, "preprocess"),
        _section(cfg, "artifact"))
    dataset = training.build_dataset(subjects,
                                     channels=cfg.get("train_channels"))
    model, history = training.train(dataset, _section(cfg, "train"))
    checkpoint = out_dir / "model.json"
    nn.save_checkpoint(model, checkpoint,
                       metadata={"best_epoch": history.best_epoch,
                                 "stop_epoch": history.stop_epoch})
    history_path = out_dir / "history.csv"
    training.write_history(history, history_path)
    blob = checkpoint.with_suffix(".bin")
    _write_manifest(out_dir, "train", cfg,
                    [checkpoint, blob, history_path])
    print(f"trained on {len(dataset)} samples; "
          f"checkpoint at {checkpoint}")
    return 0


def cmd_crossval(cfg: dict, args) -> int:
    out_dir = _out_dir(cfg, args)
    sst_cfg = _section(cfg, "sst")
    train_cfg = _section(cfg, "train",
                         early_stop_patience=training.LOSO_PATIENCE)
    subjects, truths = pipeline.load_cohort(
        _data_dir(cfg), _pairs(cfg), _section(cfg, "preprocess"),
        _section(cfg, "artifact"))
    # every held-out channel is predicted, so each needs a fusion weight
    sst_cfg.channel_weights(sorted({channel for subject in subjects
                                    for channel in subject.epochs}))
    folds = training.loso(subjects, train_cfg, out_dir=out_dir,
                          jobs=cfg.get("jobs", 1),
                          train_channels=cfg.get("train_channels"))

    outputs = []
    metric_rows = []
    by_id = {s.subject_id: s for s in subjects}
    for fold in folds:
        subject = by_id[fold.held_out_subject]
        trace = sst.compute_sst(fold.predictions, sst_cfg)
        dqs = sst.detect_dqs(trace)
        reference = _reference_labels(subject, truths[subject.subject_id])
        metric_rows.extend(_fold_rows(subject.subject_id, reference,
                                      fold.predictions, trace,
                                      sst_cfg.threshold))

        base = out_dir / f"fold_{fold.held_out_subject}"
        sst.write_sst_csv(trace, base.with_suffix(".sst.csv"))
        svg = sst.render_svg(trace, dqs, annotations=subject.labels,
                             threshold=sst_cfg.threshold)
        base.with_suffix(".svg").write_text(svg)
        outputs += [base.with_suffix(".sst.csv"), base.with_suffix(".svg"),
                    fold.checkpoint, fold.checkpoint.with_suffix(".bin")]

    metrics_path = out_dir / "metrics.csv"
    _write_csv(metrics_path, ["subject", "channel", "n_scored",
                              *METRIC_COLUMNS], metric_rows)
    summary_path = out_dir / "summary.csv"
    _write_csv(summary_path, ["channel", "metric", "median", "min", "max"],
               _summary_rows(metric_rows))
    _write_manifest(out_dir, "crossval", cfg,
                    outputs + [metrics_path, summary_path])
    print(f"cross-validated {len(folds)} fold(s); metrics at {metrics_path}")
    return 0


def cmd_infer(cfg: dict, args) -> int:
    # The calling thread scores channels while the pool conditions the
    # rest, so a second BLAS thread would only spin on a busy CPU.
    with threads.blas_limited(1):
        out_dir = _out_dir(cfg, args)
        sst_cfg = _section(cfg, "sst")
        model, _ = nn.load_checkpoint(args.checkpoint)
        recording_path = Path(args.recording)
        aeeg = None

        def first_aeeg(channel):
            nonlocal aeeg
            aeeg = sst.compute_aeeg(channel.samples, fs=channel.fs)

        scored = sorted(
            (i, report.channel, training.infer_channel(model, x, valid))
            for i, (x, valid), report in pipeline.condition_recording(
                read_edf(recording_path, subject_id=recording_path.stem),
                _pairs(cfg), _section(cfg, "preprocess"),
                _section(cfg, "artifact"), raw_first=first_aeeg))
        predictions = {label: probs for _, label, probs in scored}
        trace = sst.compute_sst(predictions, sst_cfg)
        dqs = sst.detect_dqs(trace)

        tracks = pipeline.scorer_tracks(recording_path.parent,
                                        recording_path.stem)
        strips = {name: epoch_labels(track, len(trace))
                  for name, track in tracks.items()}

        sst_path = out_dir / "sst.csv"
        dqs_path = out_dir / "dqs.csv"
        svg_path = out_dir / "sst.svg"
        sst.write_sst_csv(trace, sst_path)
        sst.write_dqs_csv(dqs, dqs_path)
        svg_path.write_text(sst.render_svg(trace, dqs, annotations=strips,
                                           aeeg=aeeg,
                                           threshold=sst_cfg.threshold))
        _write_manifest(out_dir, "infer", cfg,
                        [sst_path, dqs_path, svg_path])
    print(f"wrote trend for {recording_path.stem} under {out_dir}")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    out_dir = _out_dir(cfg, args)
    threshold = _section(cfg, "sst").threshold
    trace = sst.read_sst_csv(args.sst)
    track = read_annotations(args.annotations)
    reference = epoch_labels(track, len(trace))
    scores = _score_series(reference, trace.p_smoothed, threshold)
    path = out_dir / "eval.json"
    _write_json(path, scores)
    _write_manifest(out_dir, "eval", cfg, [path])
    print(f"wrote {path}")
    return 0


def cmd_baseline(cfg: dict, args) -> int:
    out_dir = _out_dir(cfg, args)
    recording_path = Path(args.recording)
    recording = read_edf(recording_path, subject_id=recording_path.stem)
    first = derive_bipolar(recording, _pairs(cfg)[:1]).channels[0]
    features = envelope.envelope_features(first.samples, first.fs)
    trace = sst.read_sst_csv(args.sst)
    truth = None
    if args.annotations:
        truth = epoch_labels(read_annotations(args.annotations),
                             len(features))
    comparison = envelope.compare_to_sst(features, trace, truth)

    features_path = out_dir / "envelope.csv"
    envelope.write_features_csv(features, features_path)
    report_path = out_dir / "baseline.json"
    _write_json(report_path, comparison)
    _write_manifest(out_dir, "baseline", cfg, [features_path, report_path])
    print(f"wrote {report_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleeptrend",
        description="single-channel neonatal sleep-state trends")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int, help="parallel fold workers")

    common(sub.add_parser("synth", help="generate a synthetic dataset"))
    common(sub.add_parser("preprocess", help="artifact and filter report"))
    common(sub.add_parser("train", help="train one model on a data dir"))
    common(sub.add_parser("crossval",
                          help="leave-one-subject-out evaluation"))

    infer = sub.add_parser("infer", help="render the trend for one EDF")
    common(infer)
    infer.add_argument("--checkpoint", required=True)
    infer.add_argument("--recording", required=True)

    ev = sub.add_parser("eval", help="score a trend against annotations")
    common(ev)
    ev.add_argument("--sst", required=True)
    ev.add_argument("--annotations", required=True)

    base = sub.add_parser("baseline",
                          help="envelope features compared to a trend")
    common(base)
    base.add_argument("--recording", required=True)
    base.add_argument("--sst", required=True)
    base.add_argument("--annotations")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "crossval": cmd_crossval,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "baseline": cmd_baseline,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        flags = {"seed": args.seed, "jobs": args.jobs}
        cfg = {**load_config(args.config),
               **validate_config({key: value for key, value in flags.items()
                                  if value is not None})}
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
