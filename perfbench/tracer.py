"""Outside-in tracer for one fractalis CLI command.

Usage: ``python tracer.py SPANS_OUT CLI_ARG...``

Imports ``fractalis.cli``, wraps the public callables of every layer (the
modules of the package) in timing wrappers, runs
``fractalis.cli.main(CLI_ARG...)`` and, when the command ends, writes the
recorded spans to SPANS_OUT (``.npy``). The program itself is not changed:
the wrappers replace each callable on its module or class, and every name
another module imported by ``from ... import`` is rebound as well, since a
wrapper on the defining module alone would be bypassed there.

``summarize`` turns the spans into per-callable ``calls``, ``total_s``
(outermost spans only, so recursion is not counted twice), ``self_s`` (a
span minus the time its child spans cover), ``points`` (summed size of the
coordinate arrays passed to ``eval_arrays``) and the work counters in
``RESULT_COUNTS``.

All spans are recorded on one stack, which assumes the command runs on
one thread (FRACTALIS_THREADS unset).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "fractal_core", "_fields", "field_expr", "net",
          "operator_props", "lp_space", "approx")

# work counters read from a callable's result: span name -> (stat, attribute)
RESULT_COUNTS = {
    "fractal_core.solve_fixed_point_grid": ("sweeps", "iterations"),
    "operator_props.neumann_inverse": ("outer_iterations", "iterations"),
}

# span columns: name index, parent span (-1 at the top), start, end,
# 1 if no enclosing span has the same name, points, result counter
_COLUMNS = 7


class Recorder:
    """Keeps spans in memory; one list per span, in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[int, int] = {}

    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records one span per call."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, open_count = self.spans, self._stack, self._open
        open_count[name_id] = 0
        takes_coords = name.endswith(".eval_arrays")
        counter = RESULT_COUNTS.get(name, (None, None))[1]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            points = 0
            if takes_coords and len(args) > 1:
                points = int(np.size(args[1][0]))
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0,
                    0 if open_count[name_id] else 1, points, 0]
            stack.append(len(spans))
            spans.append(span)
            open_count[name_id] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_count[name_id] -= 1
                stack.pop()
            if counter is not None:
                span[6] = getattr(result, counter)
            return result

        return functools.update_wrapper(traced, fn)

    def save(self, path: str) -> None:
        table = np.array(self.spans, dtype=float).reshape(-1, _COLUMNS)
        with open(path, "wb") as fh:
            np.save(fh, table)
            np.save(fh, np.array(self.names))


def _public_callables(module):
    """(qualified name, owner, attribute, callable) for the public
    functions of ``module`` and the public methods and ``__call__`` of its
    public classes; exceptions are skipped. Names start with the module
    name without its leading underscore (``_fields`` is ``fields``)."""
    layer = module.__name__.rsplit(".", 1)[-1].lstrip("_")
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for meth, fn in vars(obj).items():
                if (meth == "__call__" or not meth.startswith("_")) and inspect.isfunction(fn):
                    yield f"{layer}.{attr}.{meth}", obj, meth, fn
        elif callable(obj):
            yield f"{layer}.{attr}", module, attr, obj


def install(recorder: Recorder) -> None:
    """Wrap every layer's public callables and rebind imported names."""
    modules = [importlib.import_module(f"fractalis.{layer}") for layer in LAYERS]
    originals = {}
    for module in modules:
        for name, owner, attr, fn in list(_public_callables(module)):
            wrapped = recorder.wrap(name, fn)
            setattr(owner, attr, wrapped)
            originals[id(fn)] = (fn, wrapped)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fractalis" and not mod_name.startswith("fractalis."):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def summarize(path) -> dict:
    """Per-callable stats from a spans file written by a traced command."""
    with open(path, "rb") as fh:
        table = np.load(fh)
        names = [str(n) for n in np.load(fh)]
    name_id = table[:, 0].astype(int)
    parent = table[:, 1].astype(int)
    duration = table[:, 3] - table[:, 2]
    child_time = np.zeros(len(table))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    n = len(names)
    stats = {
        "calls": np.bincount(name_id, minlength=n),
        "total_s": np.bincount(name_id, weights=duration * table[:, 4], minlength=n),
        "self_s": np.bincount(name_id, weights=self_time, minlength=n),
        "points": np.bincount(name_id, weights=table[:, 5], minlength=n),
        "counter": np.bincount(name_id, weights=table[:, 6], minlength=n),
    }
    out = {}
    for i, name in enumerate(names):
        for stat in ("calls", "total_s", "self_s", "points"):
            out[f"{name}.{stat}"] = float(stats[stat][i])
        if name in RESULT_COUNTS:
            out[f"{name}.{RESULT_COUNTS[name][0]}"] = float(stats["counter"][i])
    return out


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    import fractalis.cli

    recorder = Recorder()
    install(recorder)
    try:
        return fractalis.cli.main(cli_args)
    finally:
        recorder.save(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
