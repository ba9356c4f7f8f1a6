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
- ``eval`` of ``EVAL_2D_POINTS`` seeded points on the ``verify-2d`` input,
  more than one slab of ``_SLAB_POINTS``;
- ``verify`` on the 3-D blend config of ROADMAP.md.

The two sides of a command run one after the other, each in its own
working directory with the same relative output name, with BLAS on one
thread. Each command's wall times are printed. Exits 0 when everything
matches, 1 at the first difference, which it names, and 2 when a path is
not a checkout.
"""

from __future__ import annotations

import json
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
# seeded points of the verify-2d eval, in run.points of a copy of its input
EVAL_2D_POINTS = 40_000
# eval points for the inputs without run.points: box corners, knots and
# interior points
EVAL_POINTS = {
    "surface-2d": ["0,0", "0.5,0.5", "0.123,0.987", "1,1"],
    "verify-2d": ["0,0", "0.3,1", "0.77,1.31", "1,2"],
    "fif-surface-3d": ["0,0,0", "0.5,0.25,1", "0.31,0.72,0.05", "1,1,1"],
}


def write_inputs(work: Path) -> dict:
    """The config path of each benchmark input and of the 3-D config."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from workloads import prepare

    configs = {}
    for name in INPUTS:
        args = prepare(name, work, SEED).args
        configs[name] = args[args.index("--config") + 1]
    path = work / "verify-3d.json"
    path.write_text(json.dumps(VERIFY_3D))
    configs["verify-3d"] = str(path)
    cfg = json.loads(Path(configs["verify-2d"]).read_text())
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
    out.append((f"eval verify-2d at {EVAL_2D_POINTS} points",
                ["eval", "--config", configs["eval-2d-points"], "--out", "out.csv"],
                "out.csv"))
    out.append(("verify verify-3d", ["verify", "--config", configs["verify-3d"]], None))
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
        for label, args, csv in cmds:
            results = [run(side, args, csv, work / f"side{n}")
                       for n, side in enumerate(sides)]
            (a, wall_a), (b, wall_b) = results
            print(f"{label}: {wall_a:.2f} s / {wall_b:.2f} s", flush=True)
            for key in a:
                if a[key] != b[key]:
                    print(f"DIFFERENT: {label}: {key}")
                    return 1
    print(f"SAME BYTES: {len(cmds)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
