"""Spans around the public functions of each sleeptrend module.

The tracer wraps module attributes from outside the program: every module
of the package that holds a reference to a target function gets the
wrapper, so calls made through `from .x import f` are seen as well. Each
call records a span with its parent, so a layer's self time is its spans'
time minus the time of their child spans.

Spans from processes forked by the program (`loso(jobs>1)`) stay in those
processes and are not reported.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# module -> public functions timed as spans
TARGETS = {
    "cli": ("main",),
    "synth": ("generate", "write_dataset"),
    "pipeline": ("load_cohort", "preprocess_recording"),
    "recording": ("read_edf", "derive_bipolar"),
    "dsp": ("preprocess_channel", "design_butter_bandpass",
            "filter_zero_phase", "resample", "segment_epochs"),
    "training": ("loso", "train", "build_dataset", "dataset_arrays",
                 "split_train_val", "adam_step", "infer_channel"),
    "nn": ("forward", "backward", "load_checkpoint"),
    "sst": ("compute_sst", "detect_dqs", "compute_aeeg", "render_svg"),
    "metrics": ("confusion", "roc_auc"),
}


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    phase: str
    t0: float
    t1: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _forward_name(args, kwargs) -> str:
    return "nn.forward." + _arg(args, kwargs, 2, "mode", "infer")


def _tag_forward(args, kwargs, result) -> dict:
    return {"batch": int(result.probs.shape[0])}


def _tag_backward(args, kwargs, result) -> dict:
    return {"batch": int(_arg(args, kwargs, 1, "trace").probs.shape[0])}


def _tag_preprocess_channel(args, kwargs, result) -> dict:
    _, report = result
    return {"epochs": report.n_epochs, "rejected": len(report.rejected)}


def _tag_train(args, kwargs, result) -> dict:
    _, history = result
    return {"epochs": len(history.train_loss),
            "val_loss": history.val_loss[-1]}


def _tag_loso(args, kwargs, result) -> dict:
    # The fold tasks loso(jobs>1) would pickle; sized after the run so
    # pickling costs no traced time.
    return {"fold_task_args": (_arg(args, kwargs, 0, "subjects"),
                               _arg(args, kwargs, 1, "cfg"),
                               _arg(args, kwargs, 2, "out_dir"),
                               _arg(args, kwargs, 4, "train_channels"))}


NAMERS: dict[str, Callable] = {"nn.forward": _forward_name}
TAGGERS: dict[str, Callable] = {
    "nn.forward": _tag_forward,
    "nn.backward": _tag_backward,
    "dsp.preprocess_channel": _tag_preprocess_channel,
    "training.train": _tag_train,
    "training.loso": _tag_loso,
}


class Tracer:
    """Records spans while installed; `phase` labels the spans opened
    until it is changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        namer = NAMERS.get(name)
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(namer(args, kwargs) if namer else name,
                        self._stack[-1] if self._stack else None,
                        self.phase, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
            if tagger:
                span.tags = tagger(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._patched:
            return
        package = sys.modules["sleeptrend"]
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sleeptrend" or key.startswith("sleeptrend.")]
        for module_name, functions in TARGETS.items():
            module = getattr(package, module_name)
            for attr in functions:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, key, value))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.ms for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.ms
    return own
