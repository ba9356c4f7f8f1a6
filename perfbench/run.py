"""Benchmark of the fractalis command line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs as a closed loop with one client: one op is a fresh
``python -m fractalis.cli ...`` process on inputs generated from ``--seed``
(see ``workloads.py``), timed from spawn to exit, which is what a CLI user
pays on every call. Ops start until ``--seconds`` would be exceeded; at
least one op runs. FRACTALIS_THREADS is unset and the BLAS thread counts
are pinned to 1, so an op uses one core. Every op's exit code and output are
checked; an op fails on a wrong exit code, a failed output check or a
timeout.

Before the loop (untimed) the run generates the inputs and computes the
reference values of the output checks. ``setup_s`` is the median wall
time of ``import fractalis.cli`` in a fresh interpreter, timed once after
each op.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``op_s_p50`` (median op wall time), ``points_per_s`` (result rows written
by passing ops -- CSV rows, or CHECK lines for verify -- over the summed
op wall time), ``peak_rss_mb`` (median of the ops' peak resident set, from
``wait4``) and ``setup_s``.

``--trace 1`` alternates untraced ops with ops run under ``tracer.py`` and
reports the per-layer metrics named in BENCHMARK.json: medians over the
traced ops of ``<layer>.<callable>.<stat>`` (the ``_fields`` module is
named ``fields``, since a metric name starts with a letter), plus the
tracing overhead (traced against untraced ``op_s_p50``) and the coverage
``(cli.main.total_s + setup_s) / traced op wall time``.

The last line of stdout is the result object; the line before it holds
the op count, the failure ratio, the tail percentile when a run has enough
ops for one, and run metadata. Exits 2 without a result when the checkout
has no ``src/fractalis``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_TIMEOUT_S = 20.0
OP_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FRACTALIS_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


@dataclass
class Spawned:
    """Outcome of one child process."""

    wall_s: float
    exit_code: int
    maxrss_kb: int
    timed_out: bool


def spawn(argv, cwd, env, stdout, stderr, timeout: float = OP_TIMEOUT_S) -> Spawned:
    """Run ``argv`` to completion, timed from spawn to exit; kill it after
    ``timeout`` seconds. Peak RSS comes from the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    reaped = False
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            os.close(pidfd)
    finally:
        if not reaped:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(wall, proc.returncode, usage.ru_maxrss, not ready)


def time_import(env, work: Path) -> float:
    """Wall time of ``import fractalis.cli`` in a fresh interpreter."""
    argv = [sys.executable, "-c", "import fractalis.cli"]
    with open(work / "import.err", "wb") as err:
        got = spawn(argv, work, env, subprocess.DEVNULL, err, IMPORT_TIMEOUT_S)
    if got.timed_out or got.exit_code != 0:
        detail = (work / "import.err").read_text(errors="replace").strip()
        raise SystemExit(f"perfbench: import fractalis.cli failed: {detail}")
    return got.wall_s


def tail_percentile(values):
    """Highest of a few standard percentiles with at least ten samples
    beyond it, as (percentile, value), or None when the run is too short."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(values, pct))
    return None


def metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            sha = got.stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((SRC / "fractalis").glob("*.py")))
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: env.get(k) for k in ("FRACTALIS_THREADS",) + THREAD_VARS},
        "git_sha": sha,
        "src_lines": src_lines,
    }


def run_ops(prep, work: Path, seconds: float, trace: bool):
    """The closed loop. Returns one record per op. Each op is followed by
    one timed import, so the ``setup_s`` samples see the same machine
    conditions as the ops."""
    from workloads import OutputChecker

    env = child_env()
    checker = OutputChecker(prep.full_check)
    stdout_path, stderr_path = work / "op.out", work / "op.err"
    spans_path = work / "spans.npy"
    records = []
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        traced = trace and len(records) % 2 == 1
        if traced:
            argv = [sys.executable, str(TRACER), str(spans_path), *prep.args]
        else:
            argv = [sys.executable, "-m", "fractalis.cli", *prep.args]
        if prep.out_path is not None:
            prep.out_path.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            got = spawn(argv, work, env, out, err)
        if got.timed_out:
            error = f"timed out after {OP_TIMEOUT_S:g} s"
        elif got.exit_code != 0:
            stderr_tail = stderr_path.read_text(errors="replace").strip()[-300:]
            error = f"exit code {got.exit_code}: {stderr_tail}"
        else:
            try:
                error = checker.check((prep.out_path or stdout_path).read_bytes())
            except OSError as exc:
                error = f"cannot read output: {exc}"
        layers = summarize(spans_path) if traced and spans_path.exists() else None
        records.append({"wall_s": got.wall_s, "maxrss_kb": got.maxrss_kb,
                        "error": error, "traced": traced, "layers": layers,
                        "import_s": time_import(env, work)})
        now = time.perf_counter()
        # stop when one more op like this one would end after the deadline
        if (now - start) + (now - op_start) > seconds and len(records) >= (2 if trace else 1):
            return records


def end_to_end(records, prep, setup_s: float) -> dict:
    walls = [r["wall_s"] for r in records]
    passed = sum(r["error"] is None for r in records)
    return {
        "op_s_p50": statistics.median(walls),
        "points_per_s": prep.points * passed / sum(walls),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in records) / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(records, setup_s: float, names) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    summaries = [r["layers"] for r in traced if r["layers"] is not None]
    if not summaries:
        raise SystemExit("perfbench: no traced op wrote its spans")
    known = set().union(*summaries)
    traced_p50 = statistics.median(r["wall_s"] for r in traced)
    plain_p50 = statistics.median(r["wall_s"] for r in plain)
    out = {
        "trace.op_s_p50": traced_p50,
        "trace.untraced_op_s_p50": plain_p50,
        "trace.overhead": traced_p50 / plain_p50,
        "trace.coverage": statistics.median(
            (r["layers"]["cli.main.total_s"] + setup_s) / r["wall_s"]
            for r in traced if r["layers"] is not None),
    }
    for name in names:
        if name in out:
            continue
        callable_name = name.rsplit(".", 1)[0]
        if not any(k.startswith(callable_name + ".") for k in known):
            raise SystemExit(f"perfbench: {name} names no traced callable")
        out[name] = statistics.median(s.get(name, 0.0) for s in summaries)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fractalis" / "cli.py").is_file():
        print(f"perfbench: no fractalis sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WHY:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WHY)}")

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        time_import(child_env(), work)  # untimed: writes the bytecode cache
        prep = workloads.prepare(args.workload, work, args.seed)
        records = run_ops(prep, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = statistics.median(r["import_s"] for r in records)

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(records, setup_s, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(records, prep, setup_s)
    failures = [r["error"] for r in records if r["error"] is not None]
    walls = [r["wall_s"] for r in records]
    tail = tail_percentile(walls)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(records), "fail_ratio": len(failures) / len(records),
        "op_s": walls,
        "tail": None if tail is None else {"percentile": tail[0], "op_s": tail[1]},
        "failures": failures[:3],
        "metadata": metadata(),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
