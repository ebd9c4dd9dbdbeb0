"""Per-layer metrics from the spans of one traced run.

Layers are the sleeptrend modules. Three kinds of figure:

- `<module>.<function>.ms`: median time of one call, counting its child
  spans, over the traced operations. A function the operation never calls
  is timed in set-up instead, which `setup_s` covers: the `synth` layer on
  both workloads, and on `infer-3h` the training that fits the
  checkpoint. Calls made by the output checks never count.
- `<...>.calls` and `<module>.self_ms`: per operation, from the spans of
  the traced operations only. Self time is a span's time minus the time
  of its child spans.
- `training.loso.pickle_mb` is computed: the bytes `loso(jobs>1)` pickles
  into its fold tasks (`sid, subjects, cfg, out_dir, train_channels`).
"""

from __future__ import annotations

import pickle
import statistics
from collections import defaultdict

from kernels import kernel_counts
from tracer import Span, self_ms

# name -> unit; every name is emitted by every workload
PER_LAYER = {
    "nn.forward.train.ms": "ms",
    "nn.backward.ms": "ms",
    "nn.forward.infer.ms": "ms",
    "nn.forward.calls": "count",
    "nn.train_step.gflops": "GFLOP/s",
    "nn.forward.infer.gflops": "GFLOP/s",
    "nn.self_ms": "ms",
    "training.train.ms": "ms",
    "training.train.epoch_ms": "ms",
    "training.build_dataset.ms": "ms",
    "training.dataset_arrays.ms": "ms",
    "training.adam_step.ms": "ms",
    "training.infer_channel.ms": "ms",
    "training.val_loss": "nats",
    "training.self_ms": "ms",
    "dsp.filter_zero_phase.ms": "ms",
    "dsp.resample.ms": "ms",
    "dsp.segment_epochs.ms": "ms",
    "dsp.preprocess_channel.self_ms": "ms",
    "dsp.design_butter_bandpass.calls": "count",
    "dsp.rejected_frac": "fraction",
    "dsp.self_ms": "ms",
    "pipeline.load_cohort.ms": "ms",
    "pipeline.preprocess_recording.ms": "ms",
    "pipeline.self_ms": "ms",
    "recording.read_edf.ms": "ms",
    "recording.derive_bipolar.ms": "ms",
    "recording.self_ms": "ms",
    "sst.compute_sst.ms": "ms",
    "sst.detect_dqs.ms": "ms",
    "sst.render_svg.ms": "ms",
    "sst.self_ms": "ms",
    "cli.self_ms": "ms",
    "synth.generate.ms": "ms",
    "synth.write_dataset.ms": "ms",
}

# Figures of a function or layer that only one workload's operation runs.
# The other workload would report 0 on every run, so these are printed
# with the traced run's details instead of as metrics, as null where the
# operation does not run them.
SINGLE_WORKLOAD = {
    "training.loso.ms": "ms",
    "training.adam_step.calls": "count",
    "training.split_train_val.calls": "count",
    "training.loso.pickle_mb": "MB",
    "nn.load_checkpoint.ms": "ms",
    "sst.compute_aeeg.ms": "ms",
    "metrics.confusion.ms": "ms",
    "metrics.roc_auc.ms": "ms",
    "metrics.self_ms": "ms",
}
# tracer phases of set-up work: before the first operation, and the inputs
# made between operations
SETUP_PHASES = ("setup", "input")


# A figure with nothing to measure is None: on crossval-j2 the training
# runs in forked workers, out of the tracer's sight.

def _median_ms(spans: list[Span]) -> float | None:
    return statistics.median(s.ms for s in spans) if spans else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _gflops(spans: list[Span], flops_per_sample: dict[str, int]
            ) -> float | None:
    """Achieved GFLOP/s over calls whose FLOPs are known per sample."""
    timed = [s for s in spans if s.name in flops_per_sample]
    seconds = sum(s.ms for s in timed) / 1e3
    flops = sum(s.tags["batch"] * flops_per_sample[s.name] for s in timed)
    return _ratio(flops / 1e9, seconds)


def pickle_mb(loso_span: Span) -> list[float]:
    """Size of each fold task `loso(jobs>1)` submits, in MB."""
    subjects, cfg, out_dir, channels = loso_span.tags["fold_task_args"]
    return [len(pickle.dumps((s.subject_id, list(subjects), cfg, out_dir,
                              channels))) / 1e6 for s in subjects]


def layer_metrics(spans: list[Span], n_ops: int, specs, input_len: int
                  ) -> tuple[dict, dict]:
    """(metrics, details): the PER_LAYER figures, then the
    SINGLE_WORKLOAD figures with the computed kernel counts."""
    in_op: dict[str, list[Span]] = defaultdict(list)
    in_setup: dict[str, list[Span]] = defaultdict(list)
    op_own: dict[str, list[float]] = defaultdict(list)
    op_self: dict[str, float] = defaultdict(float)
    for span, ms in zip(spans, self_ms(spans)):
        if span.phase == "op":
            in_op[span.name].append(span)
            op_own[span.name].append(ms)
            op_self[span.name.split(".")[0]] += ms
        elif span.phase in SETUP_PHASES:
            in_setup[span.name].append(span)

    def timed(name: str) -> list[Span]:
        return in_op[name] or in_setup[name]

    kernels = kernel_counts(specs, input_len)
    fwd = kernels["fwd_flops_per_sample"]
    out = {name: _median_ms(timed(name[:-3]))
           for name in [*PER_LAYER, *SINGLE_WORKLOAD]
           if name.endswith(".ms")}
    for layer in ("nn", "training", "dsp", "pipeline", "recording", "sst",
                  "cli"):
        out[f"{layer}.self_ms"] = op_self[layer] / n_ops
    out["metrics.self_ms"] = (op_self["metrics"] / n_ops
                              if "metrics" in op_self else None)
    out["nn.forward.calls"] = (len(in_op["nn.forward.train"])
                               + len(in_op["nn.forward.infer"])) / n_ops
    out["nn.train_step.gflops"] = _gflops(
        timed("nn.forward.train") + timed("nn.backward"),
        {"nn.forward.train": fwd, "nn.backward": 2 * fwd})
    out["nn.forward.infer.gflops"] = _gflops(timed("nn.forward.infer"),
                                             {"nn.forward.infer": fwd})
    trains = timed("training.train")
    out["training.train.epoch_ms"] = _ratio(
        sum(s.ms for s in trains), sum(s.tags["epochs"] for s in trains))
    out["training.val_loss"] = _ratio(
        sum(s.tags["val_loss"] for s in trains), len(trains))
    out["dsp.design_butter_bandpass.calls"] = (
        len(in_op["dsp.design_butter_bandpass"]) / n_ops)
    for name in ("training.adam_step", "training.split_train_val"):
        out[f"{name}.calls"] = (len(in_op[name]) / n_ops if in_op[name]
                                else None)
    channel_spans = in_op["dsp.preprocess_channel"]
    out["dsp.rejected_frac"] = _ratio(
        sum(s.tags["rejected"] for s in channel_spans),
        sum(s.tags["epochs"] for s in channel_spans))
    preprocess = op_own["dsp.preprocess_channel"]
    out["dsp.preprocess_channel.self_ms"] = (statistics.median(preprocess)
                                             if preprocess else None)
    fold_tasks = [pickle_mb(s) for s in in_op["training.loso"]]
    out["training.loso.pickle_mb"] = (sum(fold_tasks[-1]) if fold_tasks
                                      else None)

    metrics = {name: {"value": out[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    details = {name: {"value": out[name], "unit": unit}
               for name, unit in SINGLE_WORKLOAD.items()}
    details["training.loso.fold_task_mb"] = (fold_tasks[-1] if fold_tasks
                                             else None)
    details["kernels"] = kernels
    return metrics, details
