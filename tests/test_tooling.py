"""The benchmark harness under perfbench/ looks program functions up by
name; a rename in the package must fail here, not only in its self-test."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
TARGETS = tracer.TARGETS


@pytest.mark.parametrize("module_name", sorted(TARGETS))
def test_trace_targets_resolve(module_name):
    module = importlib.import_module(f"sleeptrend.{module_name}")
    for attr in TARGETS[module_name]:
        assert callable(getattr(module, attr, None)), \
            f"sleeptrend.{module_name}.{attr}"


def test_output_checks_import():
    checks = load("checks")
    assert callable(checks.epoch_labels)
    assert callable(checks.read_annotations)


# The tracer's namers and taggers read some arguments by position; each
# position must still name the parameter the tracer asks for by keyword.
POSITIONAL_READS = [
    ("_tag_loso", "training", "loso",
     {0: "subjects", 1: "cfg", 2: "out_dir", 4: "train_channels"}),
    ("_tag_backward", "nn", "backward", {1: "trace"}),
    ("_forward_name", "nn", "forward", {2: "mode"}),
]


class Probe(str):
    """A distinct argument per parameter: a string (for the mode) whose
    `probs` has as many rows as its position (for the batch tag)."""

    def __new__(cls, position):
        probe = super().__new__(cls, f"arg{position}")
        probe.probs = np.empty((position, 2))
        return probe


@pytest.mark.parametrize("helper, module_name, function, reads",
                         POSITIONAL_READS,
                         ids=[read[0] for read in POSITIONAL_READS])
def test_positional_reads_name_the_same_parameters(helper, module_name,
                                                   function, reads):
    module = importlib.import_module(f"sleeptrend.{module_name}")
    names = list(inspect.signature(getattr(module, function)).parameters)
    assert {pos: names[pos] for pos in reads} == reads
    read = getattr(tracer, helper)
    # a tagger also takes the call's result, a namer does not
    result = (None,) * (len(inspect.signature(read).parameters) - 2)
    args = tuple(Probe(i) for i in range(len(names)))
    by_position = read(args, {}, *result)
    by_name = read((), dict(zip(names, args)), *result)
    assert by_position == by_name
