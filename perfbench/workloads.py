"""Seeded inputs, reference values and output checks of the benchmark workloads.

``prepare(name, workdir, seed)`` writes the inputs one workload's command
reads, computes its reference values in this process (outside any timed
region) and returns a ``Prepared`` with the command line and an output
checker. The program under test sees only the generated files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The library is imported from the checkout's src/ (run.py puts it on the
# path) and used only to compute reference values.
from fractalis._fields import box_axes
from fractalis.field_expr import parse_field
from fractalis.fractal_core import solve_fixed_point_grid
from fractalis.net import build_net
from fractalis.operator_props import blend_operator, make_operator_config

# The reason each workload is in the benchmark; BENCHMARK.json carries the
# same text.
WHY = {
    "surface-2d": "513^2 surface on a uniform 2x2 net: half the chain "
                  "(FractalField, NetInterpolant, FieldExpr), half CSV "
                  "writing in cli; make_config ~0.1%",
    "eval-3d": "eval at 24,913 scattered and grid points on the 3-D 2x2x2 "
               "blend config: the 129^3 sup grid in make_config dominates "
               "time and peak memory",
    "verify-2d": "19-check verify on a nonuniform 2-D net: 35 small config "
                 "builds, nested fields, grid solver under neumann_inverse, "
                 "quadrature; no CSV, no orbit shortcut",
    "fif-surface-3d": "65^3 surface of the node-data construction: "
                      "DeltaFifField shares cell location and inverse step "
                      "with the chain; the writer takes most of the time",
}

VERIFY_CHECKS = (
    "interpolation", "boundary_consistency", "perturbation_gap",
    "jacobian_sum", "scale_sequence", "lp_gap_p1", "lp_gap_p2",
    "operator_norm", "bounded_below", "linearity", "fixed_point",
    "inverse_residual", "inverse_norm", "inverse_rate", "operator_sequence",
    "vanishing_invariance", "complex_gap_p1", "complex_gap_p2",
    "complex_l2_identity",
)


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Prepared:
    """One workload, ready to run: CLI arguments after ``fractalis.cli``,
    the output file the command writes (None: its stdout is the output),
    the number of result rows one op writes, and the full output check."""

    args: list
    out_path: Path | None
    points: int
    full_check: Callable[[bytes], None]


class OutputChecker:
    """Checks each op's output. The first op's bytes get the full check;
    every later op must write the same bytes."""

    def __init__(self, full_check: Callable[[bytes], None]):
        self.full_check = full_check
        self.first_digest = None
        self.first_error = None

    def check(self, data: bytes) -> str | None:
        """None when the output is correct, else the reason it is not."""
        digest = hashlib.sha256(data).digest()
        if self.first_digest is None:
            self.first_digest = digest
            try:
                self.full_check(data)
            except (CheckFailed, ValueError) as exc:  # ValueError: not ASCII or not numbers
                self.first_error = str(exc) or type(exc).__name__
            return self.first_error
        if digest != self.first_digest:
            return "output bytes differ from the first op of this run"
        return self.first_error


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(data: bytes, header: list) -> np.ndarray:
    text = data.decode("ascii")
    first, _, body = text.partition("\n")
    _require(first == ",".join(header), f"CSV header {first!r}")
    _require(body.endswith("\n"), "CSV does not end with a newline")
    rows = body.count("\n")
    values = np.fromstring(body.replace("\n", ","), dtype=float, sep=",")
    _require(values.size == rows * len(header), "CSV rows are ragged or not numeric")
    return values.reshape(rows, len(header))


def _grid_points(bounds, resolution) -> np.ndarray:
    """Grid points in the CLI's row order (first axis fastest)."""
    mesh = np.meshgrid(*box_axes(bounds, resolution), indexing="ij")
    return np.stack([m.reshape(-1, order="F") for m in mesh], axis=1)


def _node_rows(resolution: int, cells: int, dim: int) -> np.ndarray:
    """Row indices of the net nodes in a grid listed first axis fastest."""
    step = (resolution - 1) // cells
    idx = np.arange(cells + 1) * step
    mesh = np.meshgrid(*[idx] * dim, indexing="ij")
    return sum(m * resolution**q for q, m in enumerate(mesh)).ravel(order="F")


def _blend_config(cfg: dict):
    """The certified config the CLI builds for a fields + blend section."""
    net = build_net(cfg["box"]["bounds"], cfg["net"]["knots"])
    f = parse_field(cfg["fields"]["f"], net.dim)
    alpha = cfg["fields"]["alpha"]
    alpha = parse_field(alpha, net.dim) if isinstance(alpha, str) else float(alpha)
    return make_operator_config(net, f, alpha, blend_operator(cfg["operator"]["t"]))


def _surface_2d(work: Path, seed: int) -> Prepared:
    res, tol = 513, 1e-8
    cfg = {
        "box": {"bounds": [[0, 1], [0, 1]]},
        "net": {"knots": [[0, 0.5, 1], [0, 0.5, 1]]},
        "fields": {"f": "sin(3*x1)*cos(2*x2)+x1*x2", "alpha": "0.3+0.2*x1*x2"},
        "operator": {"kind": "blend", "t": 0.6},
        "run": {"resolution": res, "tol": tol, "seed": seed},
    }
    config = work / "surface-2d.json"
    config.write_text(json.dumps(cfg))
    out = work / "surface-2d.csv"
    pts = _grid_points(cfg["box"]["bounds"], res)
    oracle = solve_fixed_point_grid(_blend_config(cfg), res).grid.values.ravel(order="F")

    def full_check(data: bytes) -> None:
        rows = _read_csv(data, ["x1", "x2", "value", "error_bound"])
        _require(rows.shape[0] == res * res, f"{rows.shape[0]} rows, expected {res * res}")
        _require(np.array_equal(rows[:, :2], pts), "grid points differ from the 513^2 grid")
        bound = rows[:, 3]
        _require(np.all(bound <= tol), f"error_bound {bound.max():.3e} above tol {tol:g}")
        err = np.abs(rows[:, 2] - oracle)
        _require(np.all(err <= bound + 1e-9),
                 f"value off the grid oracle by {err.max():.3e}")

    return Prepared(["surface", "--config", str(config), "--out", str(out)],
                    out, res * res, full_check)


def _eval_3d(work: Path, seed: int) -> Prepared:
    grid_res, scattered = 17, 20_000
    cfg = {
        "box": {"bounds": [[0, 1], [0, 1], [0, 1]]},
        "net": {"knots": [[0, 0.5, 1]] * 3},
        "fields": {"f": "x1*x2+x3^2", "alpha": 0.3},
        "operator": {"kind": "blend", "t": 0.5},
        "run": {"resolution": grid_res},
    }
    rng = np.random.default_rng(seed)
    grid = _grid_points(cfg["box"]["bounds"], grid_res)
    pts = np.concatenate([rng.uniform(0.0, 1.0, size=(scattered, 3)), grid])
    cfg["run"]["points"] = pts.tolist()
    config = work / "eval-3d.json"
    config.write_text(json.dumps(cfg))
    out = work / "eval-3d.csv"
    oracle = solve_fixed_point_grid(_blend_config(cfg), grid_res).grid.values.ravel(order="F")
    nodes = scattered + _node_rows(grid_res, 2, 3)
    x = pts[nodes]
    node_f = x[:, 0] * x[:, 1] + x[:, 2] ** 2

    def full_check(data: bytes) -> None:
        rows = _read_csv(data, ["x1", "x2", "x3", "value", "error_bound"])
        _require(rows.shape[0] == len(pts), f"{rows.shape[0]} rows, expected {len(pts)}")
        _require(np.array_equal(rows[:, :3], pts), "rows are not the input points in order")
        err = np.abs(rows[nodes, 3] - node_f)
        _require(np.all(err <= 1e-9), f"node value off f by {err.max():.3e}")
        on_grid = rows[scattered:]
        err = np.abs(on_grid[:, 3] - oracle)
        _require(np.all(err <= on_grid[:, 4] + 1e-9),
                 f"grid value off the grid oracle by {err.max():.3e}")

    return Prepared(["eval", "--config", str(config), "--out", str(out)],
                    out, len(pts), full_check)


def _verify_2d(work: Path, seed: int) -> Prepared:
    cfg = {
        "box": {"bounds": [[0, 1], [0, 2]]},
        "net": {"knots": [[0, 0.3, 0.6, 1], [0, 1, 2]]},
        "fields": {"f": "sin(3*x1)*cos(x2)+x1*x2", "alpha": "0.2+0.1*x1*x2"},
        "operator": {"kind": "blend", "t": 0.6},
        "run": {"resolution": 129, "seed": seed, "p": [1, 2]},
    }
    config = work / "verify-2d.json"
    config.write_text(json.dumps(cfg))

    def full_check(data: bytes) -> None:
        lines = data.decode("ascii").splitlines()
        _require(lines[-1:] == ["VERIFY PASS"], f"last line {lines[-1:]!r}")
        checks = [ln.split() for ln in lines if ln.startswith("CHECK ")]
        names = tuple(parts[1] for parts in checks)
        _require(names == VERIFY_CHECKS, f"CHECK names {names}")
        failed = [parts[1] for parts in checks if parts[-1] != "PASS"]
        _require(not failed, f"checks not passed: {failed}")

    return Prepared(["verify", "--config", str(config), "--p", "1,2",
                     "--resolution", "129"],
                    None, len(VERIFY_CHECKS), full_check)


def _fif_surface_3d(work: Path, seed: int) -> Prepared:
    res = 65
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, 3, 3))
    cfg = {
        "box": {"bounds": [[0, 1], [0, 1], [0, 1]]},
        "net": {"knots": [[0, 0.5, 1]] * 3},
        "fif": {"delta": 0.4, "values": values.tolist()},
        "run": {"resolution": res},
    }
    config = work / "fif-surface-3d.json"
    config.write_text(json.dumps(cfg))
    out = work / "fif-surface-3d.csv"
    nodes = _node_rows(res, 2, 3)
    node_values = values.ravel(order="F")

    def full_check(data: bytes) -> None:
        rows = _read_csv(data, ["x1", "x2", "x3", "value", "error_bound"])
        _require(rows.shape[0] == res**3, f"{rows.shape[0]} rows, expected {res**3}")
        err = np.abs(rows[nodes, 3] - node_values)
        _require(np.all(err <= 1e-9), f"node value off the node data by {err.max():.3e}")

    return Prepared(["surface", "--config", str(config), "--out", str(out)],
                    out, res**3, full_check)


_BUILDERS = {
    "surface-2d": _surface_2d,
    "eval-3d": _eval_3d,
    "verify-2d": _verify_2d,
    "fif-surface-3d": _fif_surface_3d,
}


def prepare(name: str, work: Path, seed: int) -> Prepared:
    """Write the inputs of workload ``name`` for ``seed`` into ``work``."""
    return _BUILDERS[name](work, seed)
