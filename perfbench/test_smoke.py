"""Smoke test of the benchmark.

Run from the repository root with ``python -m pytest perfbench``; it is
not part of the tier-1 suite (pytest's testpaths is ``tests``). One short
run per workload and mode (``--seconds 1`` runs the fewest ops a mode
allows) must print every metric BENCHMARK.json names and pass every output
check. About 70 s on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from fractalis.fractal_core import solve_fixed_point_grid  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    got = _bench(ROOT, workload, trace)
    assert got.returncode == 0, got.stderr
    *_, detail, last = got.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], json.loads(detail)["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    assert json.loads(detail)["fail_ratio"] == 0.0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got_metric = result["metrics"][m["name"]]
        assert got_metric["unit"] == m["unit"]
        assert np.isfinite(got_metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    got = _bench(tmp_path, WORKLOADS[0], 0)
    assert got.returncode != 0
    assert got.stdout == ""


def test_workload_reasons_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def _csv(rows) -> bytes:
    lines = ["x1,x2,x3,value,error_bound"]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_eval_check_accepts_oracle_values_and_rejects_a_wrong_one(tmp_path):
    prep = workloads.prepare("eval-3d", tmp_path, 3)
    cfg = json.loads((tmp_path / "eval-3d.json").read_text())
    pts = np.asarray(cfg["run"]["points"])
    oracle = solve_fixed_point_grid(workloads._blend_config(cfg), 17)
    values = np.zeros(len(pts))
    values[-17**3:] = oracle.grid.values.ravel(order="F")
    rows = np.column_stack([pts, values, np.full(len(pts), 1e-10)])
    good = _csv(rows)
    assert workloads.OutputChecker(prep.full_check).check(good) is None
    rows[-2, 3] += 1e-6
    assert workloads.OutputChecker(prep.full_check).check(_csv(rows)) is not None
    assert workloads.OutputChecker(prep.full_check).check(good[:-40]) is not None
    assert workloads.OutputChecker(prep.full_check).check(good + b"\xff,x\n") is not None


def test_verify_check_rejects_a_failed_check(tmp_path):
    prep = workloads.prepare("verify-2d", tmp_path, 3)
    lines = [f"CHECK {name} lhs=0 rhs=1 PASS" for name in workloads.VERIFY_CHECKS]
    good = "\n".join(lines + ["VERIFY PASS"]) + "\n"
    assert workloads.OutputChecker(prep.full_check).check(good.encode()) is None
    bad = good.replace("linearity lhs=0 rhs=1 PASS", "linearity lhs=2 rhs=1 FAIL")
    assert workloads.OutputChecker(prep.full_check).check(bad.encode()) is not None
    missing = good.replace(f"{lines[3]}\n", "")
    assert workloads.OutputChecker(prep.full_check).check(missing.encode()) is not None


def test_checker_requires_identical_bytes_across_ops():
    checker = workloads.OutputChecker(lambda data: None)
    assert checker.check(b"a") is None
    assert checker.check(b"a") is None
    assert checker.check(b"b") is not None
