"""Every per-layer metric BENCHMARK.json names still names a callable that
the benchmark's tracer wraps; a renamed or private callable would make a
traced run exit with "names no traced callable". Reads the benchmark
files and changes neither."""

import importlib
import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STATS = {"calls", "total_s", "self_s", "points"}


def _tracer():
    # executed from its source so that no bytecode is written next to it
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


TRACER = _tracer()
TRACED = {name for layer in TRACER.LAYERS
          for name, *_ in TRACER._public_callables(importlib.import_module(f"fractalis.{layer}"))}
LAYER_METRICS = [m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("trace.")]


@pytest.mark.parametrize("metric", LAYER_METRICS)
def test_per_layer_metric_names_a_traced_callable(metric):
    callable_name, stat = metric.rsplit(".", 1)
    assert callable_name in TRACED
    counted = TRACER.RESULT_COUNTS.get(callable_name, (None,))[0]
    assert stat in STATS or stat == counted
