"""The benchmark harness under perfbench/ looks program functions up by
name; a rename in the package must fail here, not only in its self-test."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


TARGETS = load("tracer").TARGETS


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
