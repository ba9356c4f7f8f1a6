"""Check that two checkouts of fractalis give the same bytes.

Usage::

    python3 tools/same_bytes.py CHECKOUT_A CHECKOUT_B

Runs a fixed list of CLI commands with each checkout's ``src`` and compares
their stdout, stderr, exit code and CSV output byte for byte:

- ``surface``, ``eval`` and ``verify`` on each of the four benchmark inputs
  (``perfbench/workloads.py`` of this checkout, seed 0; ``eval`` gets a few
  points on the command line when the input lists none);
- ``norms`` and ``approx --epsilon 0.05`` on the ``verify-2d`` input;
- ``surface --resolution 513`` on the ``verify-2d`` input, whose
  nonuniform net keeps the grid off the orbit path;
- ``verify --resolution 33`` on the ``verify-2d`` input, whose 33^2
  grid is small enough for the chain to stack 30 levels of the open mesh
  in one batch (at 129^2 a grid level fills a batch alone);
- ``verify --seed 7`` on the ``verify-2d`` input, whose seeded sample
  fields (``operator_norm``, ``linearity``, the complex pair) differ from
  seed 0's;
- ``eval`` of ``EVAL_2D_POINTS`` seeded points on the ``verify-2d`` input,
  more than one slab of ``_SLAB_POINTS``;
- ``surface`` of the node-data construction on the ``verify-2d`` input's
  nonuniform net (seeded values, delta = ``FIF_2D_DELTA``), which runs the
  chain on the open mesh;
- ``surface`` of ``WIDE_RANGE_2D``, node data whose surface holds zeros,
  values below 1e-5 and values of 1e16 and more in magnitude, which the
  CSV writer formats one at a time (``cli._texts``);
- ``verify`` on the 3-D blend config of ROADMAP.md, and on the same
  config with the non-constant scale field of ``VERIFY_3D_ALPHA``, whose
  sup|alpha| is a 129^3 grid estimate;
- ``eval`` of the malformed point ``0.3`` on ``VERIFY_3D_ALPHA``, which
  exits 2 with one error line;
- ``verify`` on the ``verify-2d`` input with ``verify.inverse`` set to
  ``skip``;
- ``norms`` on the ``fif-surface-3d`` input (the node-data construction);
- ``verify`` and ``norms`` on ``EXPLICIT_2D``, a 2-D config with an
  explicit base, where ``verify`` skips the operator checks;
- ``verify`` and ``norms`` on ``MULTIPLICATION_2D``, a 2-D multiplication
  operator, where ``verify`` skips ``fixed_point`` and ``validate_operator``
  calls the multiplier at the box corners;
- ``verify`` on ``INVERSE_FAIL``, whose required Neumann inversion fails
  (exit 1);
- ``eval`` at ``BASELINE_4D_POINT`` on ``BASELINE_4D``, the 4-D blend
  config of ROADMAP.md, whose gap is 0 and whose polynomial constants come
  in closed form, with no 129^4 grid;
- ``norms`` on ``POLY_2D``, polynomial fields on the nonuniform
  ``verify-2d`` net, whose scale sup and base gap peak off every grid: the
  closed-form bounds print above the grid maxima a checkout without them
  prints;
- ``verify`` on ``ORBIT_2D``, a uniform 3x3-cell net at a net-compatible
  resolution with a scale of 0.55, above the cell ratio 1/3, whose checks
  sample the exact orbit where the float chain drifts by rounding.

Together these reach every check of the ``verify`` battery, both of its
operator-free and multiplication SKIPs, the ``inverse_rate`` SKIP, the
``inverse`` SKIP of ``verify.inverse`` set to ``skip`` and a failed
inversion, and ``norms`` on node data, on an explicit base and under blend
and multiplication operators. They do not reach the ``bounded_below``
SKIP, nor the ``inverse`` SKIP of a contraction bound of 1 or more under
``auto``.

The two sides of a command run one after the other, each in its own
working directory with the same relative output name, with BLAS on one
thread. Each command's wall times are printed. When a command's outputs
differ, it names the outputs that differ and goes on to the next command,
after printing:

- whether the exit codes match, and whether the ``CHECK`` names and
  verdicts (and the ``VERIFY`` and ``APPROX`` verdicts) match;
- the max |delta| of each numeric CSV column, and for a CSV with ``value``
  and ``error_bound`` columns the largest |delta value| / error_bound;
- the |delta| of each ``CHECK`` lhs and rhs and of each ``NORM`` and
  ``APPROX`` value that differs.

Exits 0 when everything matches, 1 when any command differs, and 2 when a
path is not a checkout.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
INPUTS = ("surface-2d", "eval-3d", "verify-2d", "fif-surface-3d")
VERIFY_3D = {
    "box": {"bounds": [[0, 1], [0, 1], [0, 1]]},
    "net": {"knots": [[0, 0.5, 1], [0, 0.5, 1], [0, 0.5, 1]]},
    "fields": {"f": "x1*x2+x3^2", "alpha": 0.3},
    "operator": {"kind": "blend", "t": 0.5},
    "run": {"resolution": 17},
}
VERIFY_3D_ALPHA = {**VERIFY_3D,
                   "fields": {"f": "x1*x2+x3^2", "alpha": "0.2+0.1*x1*x2*x3"}}
# scale-field construction with an explicit base: verify skips the
# operator checks
EXPLICIT_2D = {
    "box": {"bounds": [[0, 1], [0, 1]]},
    "net": {"knots": [[0, 1 / 3, 2 / 3, 1], [0, 1 / 3, 2 / 3, 1]]},
    "fields": {"f": "sin(2*x1)*x2+x1", "alpha": "0.3-0.1*x1*x2",
               "s": "sin(2*x1)*x2+x1+x1*(1-x1)*x2*(1-x2)"},
    "run": {"resolution": 33, "seed": 0, "p": [1, 2]},
}
# a multiplication operator: validate_operator calls b at the box corners
# (the one decision the CLI makes from a scalar field call), and verify
# skips fixed_point
MULTIPLICATION_2D = {
    "box": {"bounds": [[0, 1], [0, 1]]},
    "net": {"knots": [[0, 0.5, 1], [0, 0.4, 1]]},
    "fields": {"f": "sin(2*x1)*x2+x1", "alpha": 0.3},
    "operator": {"kind": "multiplication", "b": "1+x1*(1-x1)*x2*(1-x2)"},
    "run": {"resolution": 33, "seed": 0, "p": [1, 2]},
}
# the 4-D blend config of ROADMAP.md, and the point eval takes there
BASELINE_4D = {
    "box": {"bounds": [[0, 1]] * 4},
    "net": {"knots": [[0, 0.5, 1]] * 4},
    "fields": {"f": "x1*x2+x3*x4", "alpha": 0.3},
    "operator": {"kind": "blend", "t": 0.5},
}
BASELINE_4D_POINT = "0.3,0.4,0.5,0.6"
# polynomial fields on the verify-2d net: sup|alpha| peaks at x1 = 1/sqrt(3)
# and the gap inside cells, off every uniform grid
POLY_2D = {
    "box": {"bounds": [[0, 1], [0, 2]]},
    "net": {"knots": [[0, 0.3, 0.6, 1], [0, 1, 2]]},
    "fields": {"f": "x1^3*x2-2*x1*x2^2+x2^3", "alpha": "0.3*x1*(1-x1^2)+0.1*x2"},
    "operator": {"kind": "blend", "t": 0.6},
    "run": {"resolution": 33, "p": [1, 2]},
}
# a uniform 3x3-cell net, a 31^2 grid (30 divisible by 3) and a scale above
# the cell ratio 1/3: the one input on which the checks' orbit samples and
# the float chain's differ in the printed digits
ORBIT_2D = {
    "box": {"bounds": [[0, 1], [0, 1]]},
    "net": {"knots": [[0, 1 / 3, 2 / 3, 1], [0, 1 / 3, 2 / 3, 1]]},
    "fields": {"f": "sin(3*x1)*cos(x2)+x1*x2", "alpha": 0.55},
    "operator": {"kind": "blend", "t": 0.6},
    "run": {"resolution": 31, "seed": 0, "p": [1, 2]},
}
# a required inversion whose contraction bound is 1.5: verify exits 1
INVERSE_FAIL = {
    "box": {"bounds": [[0, 1]]},
    "net": {"knots": [[0, 0.5, 1]]},
    "fields": {"f": "x1^2", "alpha": 0.6},
    "operator": {"kind": "blend", "t": 1.0},
    "run": {"resolution": 65, "seed": 0},
    "verify": {"inverse": "require"},
}
# node data spanning 24 decades: the surface has zeros, |v| < 1e-5 and
# |v| >= 1e16, the values the CSV writer formats one at a time
WIDE_RANGE_2D = {
    "box": {"bounds": [[0, 1], [0, 1]]},
    "net": {"knots": [[0, 0.5, 1], [0, 0.5, 1]]},
    "fif": {"delta": 0.05,
            "values": [[0, 1e-7, -3e-9], [2.5e17, 0, 1.5], [-1e-6, 4e16, 0]]},
    "run": {"resolution": 33},
}
# seeded points of the verify-2d eval, in run.points of a copy of its input
EVAL_2D_POINTS = 40_000
# vertical scale of the node-data surface on the verify-2d net
FIF_2D_DELTA = -0.45
# eval points for the inputs without run.points: box corners, knots and
# interior points
EVAL_POINTS = {
    "surface-2d": ["0,0", "0.5,0.5", "0.123,0.987", "1,1"],
    "verify-2d": ["0,0", "0.3,1", "0.77,1.31", "1,2"],
    "fif-surface-3d": ["0,0,0", "0.5,0.25,1", "0.31,0.72,0.05", "1,1,1"],
}


def write_inputs(work: Path) -> dict:
    """The config path of each benchmark input and of the extra configs."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import prepare

    configs = {}
    for name in INPUTS:
        args = prepare(name, work, SEED).args
        configs[name] = args[args.index("--config") + 1]
    for name, cfg in (("verify-3d", VERIFY_3D), ("verify-3d-alpha", VERIFY_3D_ALPHA),
                      ("explicit-2d", EXPLICIT_2D),
                      ("multiplication-2d", MULTIPLICATION_2D),
                      ("inverse-fail", INVERSE_FAIL), ("wide-range-2d", WIDE_RANGE_2D),
                      ("baseline-4d", BASELINE_4D), ("poly-2d", POLY_2D),
                      ("orbit-2d", ORBIT_2D)):
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg))
        configs[name] = str(path)
    cfg = json.loads(Path(configs["verify-2d"]).read_text())
    path = work / "verify-2d-inverse-skip.json"
    path.write_text(json.dumps({**cfg, "verify": {"inverse": "skip"}}))
    configs["verify-2d-inverse-skip"] = str(path)
    shape = [len(knots) for knots in cfg["net"]["knots"]]
    values = np.random.default_rng(SEED).uniform(-1.0, 1.0, size=shape)
    path = work / "fif-2d.json"
    path.write_text(json.dumps({"box": cfg["box"], "net": cfg["net"],
                                "fif": {"delta": FIF_2D_DELTA, "values": values.tolist()}}))
    configs["fif-2d"] = str(path)
    lo, hi = np.array(cfg["box"]["bounds"], dtype=float).T
    pts = np.random.default_rng(SEED).uniform(lo, hi, size=(EVAL_2D_POINTS, lo.size))
    cfg["run"]["points"] = pts.tolist()
    path = work / "eval-2d-points.json"
    path.write_text(json.dumps(cfg))
    configs["eval-2d-points"] = str(path)
    return configs


def commands(configs: dict) -> list:
    """(label, CLI arguments, CSV file name or None) of every command."""
    out = []
    for name in INPUTS:
        cfg = ["--config", configs[name]]
        out.append((f"surface {name}", ["surface", *cfg, "--out", "out.csv"], "out.csv"))
        out.append((f"eval {name}",
                    ["eval", *cfg, "--out", "out.csv", *EVAL_POINTS.get(name, [])],
                    "out.csv"))
        out.append((f"verify {name}", ["verify", *cfg], None))
    cfg = ["--config", configs["verify-2d"]]
    out.append(("norms verify-2d", ["norms", *cfg], None))
    out.append(("approx verify-2d", ["approx", *cfg, "--epsilon", "0.05"], None))
    out.append(("surface verify-2d at 513",
                ["surface", *cfg, "--resolution", "513", "--out", "out.csv"], "out.csv"))
    out.append(("verify verify-2d at 33", ["verify", *cfg, "--resolution", "33"], None))
    out.append(("verify verify-2d with seed 7", ["verify", *cfg, "--seed", "7"], None))
    out.append((f"eval verify-2d at {EVAL_2D_POINTS} points",
                ["eval", "--config", configs["eval-2d-points"], "--out", "out.csv"],
                "out.csv"))
    out.append(("surface fif-2d",
                ["surface", "--config", configs["fif-2d"], "--out", "out.csv"], "out.csv"))
    out.append(("surface wide-range-2d",
                ["surface", "--config", configs["wide-range-2d"], "--out", "out.csv"],
                "out.csv"))
    for name in ("verify-2d-inverse-skip", "verify-3d", "verify-3d-alpha"):
        out.append((f"verify {name}", ["verify", "--config", configs[name]], None))
    out.append(("eval verify-3d-alpha at a malformed point",
                ["eval", "--config", configs["verify-3d-alpha"], "0.3"], None))
    out.append(("norms fif-surface-3d",
                ["norms", "--config", configs["fif-surface-3d"]], None))
    for name in ("explicit-2d", "multiplication-2d"):
        for cmd in ("verify", "norms"):
            out.append((f"{cmd} {name}", [cmd, "--config", configs[name]], None))
    out.append(("verify inverse-fail",
                ["verify", "--config", configs["inverse-fail"]], None))
    out.append(("eval baseline-4d",
                ["eval", "--config", configs["baseline-4d"], "--out", "out.csv",
                 BASELINE_4D_POINT], "out.csv"))
    out.append(("norms poly-2d", ["norms", "--config", configs["poly-2d"]], None))
    out.append(("verify orbit-2d", ["verify", "--config", configs["orbit-2d"]], None))
    return out


def run(checkout: Path, args: list, csv: str | None, cwd: Path):
    """Outputs of one command and its wall time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(checkout / "src")
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS"), "1"))
    cwd.mkdir(parents=True, exist_ok=True)
    if csv is not None:
        (cwd / csv).unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fractalis.cli", *args], cwd=cwd,
                          env=env, capture_output=True)
    wall = time.perf_counter() - start
    data = None
    if csv is not None and (cwd / csv).exists():
        data = (cwd / csv).read_bytes()
    outputs = {"exit code": proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr, "csv": data}
    return outputs, wall


def records(stdout: bytes):
    """The verdicts and the numeric values of a command's stdout: the
    (kind, name, verdict) of each CHECK, VERIFY and APPROX verdict line in
    order, and by name the value of each CHECK lhs and rhs and of each NORM
    and APPROX line."""
    verdicts, values = [], {}
    for line in stdout.decode(errors="replace").splitlines():
        kind, _, rest = line.partition(" ")
        words = rest.split()
        if kind == "CHECK" and words:
            verdict = next((w for w in words[1:] if w in ("PASS", "FAIL", "SKIP")), None)
            verdicts.append((kind, words[0], verdict))
            for word in words[1:]:
                side, eq, number = word.partition("=")
                if eq and side in ("lhs", "rhs"):
                    values[f"CHECK {words[0]} {side}"] = float(number)
        elif kind in ("VERIFY", "APPROX") and words in (["PASS"], ["FAIL"]):
            verdicts.append((kind, "", words[0]))
        elif kind in ("NORM", "APPROX") and len(words) == 2:
            try:
                values[f"{kind} {words[0]}"] = float(words[1])
            except ValueError:
                pass
    return verdicts, values


def delta(a: float, b: float) -> float:
    """|a - b|, 0 when both are NaN or equal infinities."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)


def read_csv(data: bytes):
    """Header and float rows of a CSV output."""
    header, *rows = data.decode().splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def report(a: dict, b: dict) -> list:
    """Lines that say how two outputs of one command differ."""
    lines = [f"exit codes match: {a['exit code'] == b['exit code']}"]
    (verdicts_a, values_a), (verdicts_b, values_b) = records(a["stdout"]), records(b["stdout"])
    lines.append(f"CHECK names and verdicts match: {verdicts_a == verdicts_b}")
    if values_a.keys() != values_b.keys():
        lines.append("CHECK/NORM/APPROX names differ")
    for name in [name for name in values_a if name in values_b]:
        d = delta(values_a[name], values_b[name])
        if d:
            lines.append(f"{name}: max |delta| {d:.3e}")
    if a["csv"] is not None and b["csv"] is not None and a["csv"] != b["csv"]:
        (head_a, rows_a), (head_b, rows_b) = read_csv(a["csv"]), read_csv(b["csv"])
        if head_a != head_b or rows_a.shape != rows_b.shape:
            lines.append("csv headers or row counts differ")
        else:
            diff = np.abs(rows_a - rows_b)
            diff[(rows_a == rows_b) | (np.isnan(rows_a) & np.isnan(rows_b))] = 0.0
            lines.append("csv max |delta|: " + ", ".join(
                f"{name} {d:.3e}" for name, d in zip(head_a, diff.max(axis=0))))
            if {"value", "error_bound"} <= set(head_a):
                moved = diff[:, head_a.index("value")]
                bound = rows_a[:, head_a.index("error_bound")]
                ratio = np.max(np.divide(moved, bound, out=np.where(moved > 0, np.inf, 0.0),
                                         where=bound > 0))
                lines.append(f"csv max |delta value| / error_bound: {ratio:.3e}")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_bytes.py CHECKOUT_A CHECKOUT_B", file=sys.stderr)
        return 2
    sides = [Path(p).resolve() for p in argv]
    for side in sides:
        if not (side / "src" / "fractalis").is_dir():
            print(f"error: {side} has no src/fractalis", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        (work / "inputs").mkdir()
        cmds = commands(write_inputs(work / "inputs"))
        differing = 0
        for label, args, csv in cmds:
            results = [run(side, args, csv, work / f"side{n}")
                       for n, side in enumerate(sides)]
            (a, wall_a), (b, wall_b) = results
            print(f"{label}: {wall_a:.2f} s / {wall_b:.2f} s", flush=True)
            keys = [key for key in a if a[key] != b[key]]
            if keys:
                differing += 1
                print(f"DIFFERENT: {label}: {', '.join(keys)}")
                for line in report(a, b):
                    print(f"  {line}")
    if differing:
        print(f"DIFFERENT: {differing} of {len(cmds)} commands")
        return 1
    print(f"SAME BYTES: {len(cmds)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
