"""Command line behavior: CSV shape, determinism, exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fractalis import (
    ConstantField,
    FractalField,
    as_field,
    blend_operator,
    build_net,
    make_config,
    make_operator_config,
    parse_field,
)
from fractalis import fractal_core
from fractalis._fields import box_axes
from fractalis.cli import _row_blocks, _texts, main


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "box": {"bounds": [[0.0, 1.0]]},
        "net": {"knots": [[0.0, 0.5, 1.0]]},
        "fields": {"f": "x1", "alpha": 0.5, "s": "x1^2"},
        "run": {"resolution": 9, "seed": 0},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def blend_config(tmp_path, name="blend.json"):
    return write_config(
        tmp_path, name=name,
        fields={"f": "x1^2", "alpha": 0.4},
        operator={"kind": "blend", "t": 1.0},
        run={"resolution": 129, "seed": 0, "epsilon": 0.1},
        verify={"inverse": "require"},
    )


def test_surface_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["surface", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,value,error_bound"
    assert len(lines) == 10
    row = lines[3].split(",")
    assert float(row[0]) == 0.25
    assert float(row[1]) == 0.375
    assert float(row[2]) <= 1e-8


def test_surface_rows_follow_grid_order(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        box={"bounds": [[0.0, 1.0], [0.0, 2.0]]},
        net={"knots": [[0.0, 0.5, 1.0], [0.0, 1.0, 2.0]]},
        fields={"f": "x1 + x2", "alpha": 0.3, "s": "(x1 + x2) * x1 * (1 - x1) + x1 + x2"},
        run={"resolution": 3, "seed": 0},
    )
    assert main(["surface", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,x2,value,error_bound"
    pts = [tuple(float(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
    # first axis varies fastest
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == (0.5, 0.0)
    assert pts[3] == (0.0, 1.0)
    assert len(pts) == 9


def test_eval_points(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", cfg, "0.25", "0.75", "0.125"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values == [0.375, 0.875, 0.28125]


def test_eval_uses_config_points(tmp_path, capsys):
    cfg = write_config(tmp_path, run={"points": [[0.25]], "seed": 0})
    assert main(["eval", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(",")[1]) == 0.375


def test_surface_deterministic(tmp_path):
    cfg = blend_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["surface", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["surface", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, points", [("surface", []), ("eval", ["0.25", "0.7"])])
def test_csv_to_a_text_stdout_is_the_out_file_text(tmp_path, command, points):
    # a stdout without a byte buffer, as under redirect_stdout, gets the text
    # that --out writes as bytes
    cfg = blend_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out), *points]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main([command, "--config", cfg, *points]) == 0
    assert text.getvalue() == out.read_text()


def test_verify_passes_and_lists_checks(tmp_path, capsys):
    cfg = blend_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "VERIFY PASS" in out
    for name in ("interpolation", "boundary_consistency", "perturbation_gap",
                 "jacobian_sum", "linearity", "inverse_residual",
                 "operator_norm", "complex_l2_identity"):
        assert f"CHECK {name}" in out
    assert "FAIL" not in out


def _printed_checks(out):
    """(name, verdict) of each CHECK line, then ("VERIFY", verdict)."""
    return [(line.split()[1], line.split()[2 if "SKIP" in line else -1])
            if line.startswith("CHECK ") else tuple(line.split())
            for line in out.splitlines()]


def test_verify_explicit_base_skips_operator_checks(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg, "--p", "1,2.5"]) == 0
    checks = _printed_checks(capsys.readouterr().out)
    assert checks == [(name, "PASS") for name in (
        "interpolation", "boundary_consistency", "perturbation_gap", "jacobian_sum",
        "scale_sequence", "lp_gap_p1", "lp_gap_p2.5")] + [(name, "SKIP") for name in (
        "operator_norm", "bounded_below", "linearity", "fixed_point", "inverse",
        "operator_sequence", "vanishing_invariance", "complex_gap",
        "complex_l2_identity")] + [("VERIFY", "PASS")]


def test_verify_required_inverse_fails_without_contraction(tmp_path, capsys):
    # scale 0.6 with a full blend pushes the contraction bound to 1.5; the
    # required inversion cannot run and the battery reports failure
    cfg = write_config(
        tmp_path,
        fields={"f": "x1^2", "alpha": 0.6},
        operator={"kind": "blend", "t": 1.0},
        run={"resolution": 65, "seed": 0},
        verify={"inverse": "require"},
    )
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "VERIFY FAIL" in out
    assert "\nCHECK inverse_residual lhs=nan rhs=nan FAIL (" in out


def _verify_2d_config(tmp_path, **overrides):
    """The verify-2d benchmark input: a nonuniform 2-D net under a blend."""
    return write_config(tmp_path, name="verify-2d.json",
                        box={"bounds": [[0, 1], [0, 2]]},
                        net={"knots": [[0, 0.3, 0.6, 1], [0, 1, 2]]},
                        fields={"f": "sin(3*x1)*cos(x2)+x1*x2", "alpha": "0.2+0.1*x1*x2"},
                        operator={"kind": "blend", "t": 0.6},
                        **{"run": {"resolution": 17, "seed": 0, "p": [1, 2]}, **overrides})


def test_verify_takes_one_grid_sup_of_alpha(tmp_path, capsys, monkeypatch):
    # the run's fractal operator takes sup|alpha| once; every check reuses it
    original = fractal_core._scale_sup
    grid_sups = []

    def counted(alpha, net, resolution=129):
        if not isinstance(as_field(alpha), ConstantField):
            grid_sups.append(resolution)
        return original(alpha, net, resolution)

    for name, module in list(sys.modules.items()):
        if name.startswith("fractalis") and getattr(module, "_scale_sup", None) is original:
            monkeypatch.setattr(module, "_scale_sup", counted)
    cfg = _verify_2d_config(tmp_path, run={"resolution": 129, "seed": 0, "p": [1, 2]})
    assert main(["verify", "--config", cfg]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out
    assert grid_sups == [129]


def test_verify_chains_each_field_once_on_the_shared_grid(tmp_path, capsys, monkeypatch):
    # on the verify-2d input the checks sample F of many fields on the
    # 129^2 grid (the quadrature axes are the same grid): the battery's
    # operator builds one field per f, each field is chained there at most
    # once, each family of fields that one check applies F to is chained
    # in one walk, and the CHECK lines are those of fields built anew for
    # every check and chained alone
    from fractalis import cli
    from fractalis.operator_props import FractalOperator

    cfg = _verify_2d_config(tmp_path, run={"resolution": 129, "seed": 0, "p": [1, 2]})
    # fields are recorded weakly: a strong reference would keep them shared
    batteries, chained, repeats, configured = [], weakref.WeakSet(), [], []
    walks, per_check = [], {}
    checks, chains, config = cli._checks, fractal_core._chains, FractalOperator.config
    samples = fractal_core._samples

    def recorded(b):
        batteries.append(b)
        for name, outcome in checks(b):
            per_check[name] = walks[sum(map(len, per_check.values())):]
            yield name, outcome

    def counted(fields, coords, top_cells=None):
        if np.broadcast(*coords).shape == (129, 129):
            walks.append(len(fields))
            for field in fields:
                if field in chained:
                    repeats.append(field.config.f)
                chained.add(field)
        return chains(fields, coords, top_cells)

    def configuring(self, f):
        configured.append((self, f))
        return config(self, f)

    monkeypatch.setattr(cli, "_checks", recorded)
    monkeypatch.setattr(fractal_core, "_chains", counted)
    monkeypatch.setattr(FractalOperator, "config", configuring)
    assert main(["verify", "--config", cfg]) == 0
    shared = capsys.readouterr().out
    battery = batteries[0]
    assert battery.field in chained
    assert repeats == []
    fs = [f for F, f in configured if F is battery.problem.F]
    assert len(fs) == len({id(f) for f in fs})
    # six scales, six blend weights, the four sample polynomials (the
    # fifth sample is f, whose F is kept) and the rotated complex pair
    assert {name: per_check[name] for name in (
        "scale_sequence", "operator_sequence", "operator_norm", "complex_l2_identity")} == {
        "scale_sequence": [6], "operator_sequence": [6], "operator_norm": [4],
        "complex_l2_identity": [2]}

    def alone(fields, coords):
        return [FractalField._chain(field, coords) for field in fields]

    for name, module in list(sys.modules.items()):
        if name.startswith("fractalis") and getattr(module, "_samples", None) is samples:
            monkeypatch.setattr(module, "_samples", alone)
    monkeypatch.setattr(FractalOperator, "__call__",
                        lambda self, f, tol=1e-10: FractalField(self.config(f), tol=tol))
    assert main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out == shared


@pytest.mark.parametrize("argv, overrides, names", [
    (["--p", "0.5"], {}, "exponent"),
    ([], {"run": {"resolution": 17, "seed": 0, "p": [1, "x"]}}, "exponent"),
    ([], {"verify": {"inverse": "bogus"}}, "verify.inverse"),
    (["--tol", "-1"], {}, "--tol"),
], ids=["p-flag", "run-p", "verify-inverse", "tol-flag"])
def test_verify_bad_input_exits_two_before_any_check(tmp_path, capsys, argv,
                                                     overrides, names):
    cfg = _verify_2d_config(tmp_path, **overrides)
    assert main(["verify", "--config", cfg, "--resolution", "17", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names in err


@pytest.mark.parametrize("command", ["verify", "norms"])
@pytest.mark.parametrize("argv, names", [
    (["--p", "0.5", "--resolution", "1"], "resolution"),
    (["--p", "0.5"], "exponent"),
    (["--tol", "-1"], "--tol"),
], ids=["p-and-resolution", "p", "tol"])
def test_node_data_bad_input_exits_two_before_any_output(tmp_path, capsys, command,
                                                         argv, names):
    cfg = write_config(tmp_path, fields={}, fif={"delta": 0.4, "values": [0.0, 1.0, 0.5]})
    assert main([command, "--config", cfg, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names in err


@pytest.mark.parametrize("argv, flag", [
    (["surface", "--seed", "-1"], "--seed"),
    (["eval", "--resolution", "1", "--seed", "-5"], "--resolution"),
    (["approx", "--epsilon", "0.1", "--tol", "-1", "--seed", "-3"], "--tol"),
    (["norms", "--seed", "-1"], "--seed"),
], ids=["surface-seed", "eval-resolution-seed", "approx-tol-seed", "norms-seed"])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, argv, flag):
    cfg = blend_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " in captured.err and flag in captured.err


def test_norms_lp_gap_ok_is_verify_verdict(tmp_path, capsys):
    cfg = _verify_2d_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    checks = {ln.split()[1]: ln.split() for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("CHECK lp_gap_")}
    assert main(["norms", "--config", cfg]) == 0
    norms = dict(ln.split()[1:] for ln in capsys.readouterr().out.splitlines())
    for p in ("1", "2"):
        words = checks[f"lp_gap_p{p}"]
        assert norms[f"lp_gap_ok_p{p}"] == ("1" if words[-1] == "PASS" else "0")
        assert words[2] == f"lhs={float(norms[f'lp_gap_p{p}']):.9e}"


def test_verify_delta_construction(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        fif={"delta": 0.4, "values": [0.0, 1.0, 0.5]},
        run={"seed": 0},
    )
    # fields are still present; construction defaults to the fif section
    assert main(["verify", "--config", cfg]) == 0
    assert _printed_checks(capsys.readouterr().out) == [
        ("interpolation", "PASS"), ("boundary_consistency", "PASS"),
        ("jacobian_sum", "PASS"), ("VERIFY", "PASS")]
    # the seed is read before the first line is printed
    assert main(["verify", "--config", cfg, "--seed", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_norms_lines(tmp_path, capsys):
    cfg = blend_config(tmp_path)
    assert main(["norms", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for name in ("alpha_sup", "base_gap_sup", "chain_depth",
                 "operator_norm_upper", "inverse_rate_bound"):
        assert f"NORM {name}" in out


def test_norms_integral_block(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["norms", "--config", cfg, "--p", "1,2",
                 "--resolution", "257"]) == 0
    out = capsys.readouterr().out
    for p in ("1", "2"):
        for name in ("lp_f", "lp_perturbed", "lp_base_gap", "lp_gap",
                     "lp_gap_bound"):
            assert f"NORM {name}_p{p} " in out
        assert f"NORM lp_gap_ok_p{p} 1" in out
    # certified inequality holds numerically on the printed values
    vals = {}
    for line in out.splitlines():
        _, name, val = line.split(" ", 2)
        vals[name] = val
    gap = float(vals["lp_gap_p2"])
    bound = float(vals["lp_gap_bound_p2"])
    assert gap <= bound * 1.05 + 1e-8
    # the base gap of f=x1 against s=x1^2 integrates to 1/6
    assert abs(float(vals["lp_base_gap_p1"]) - 1.0 / 6.0) < 1e-4


def test_large_exponents_keep_integral_norms_finite_and_positive(tmp_path, capsys):
    # the gap x(1-x)/10 is at most 0.025, so its 400th power underflows, and
    # |f| reaches 2.1, so its 4194305th power overflows, unless the
    # integral norms scale by the maximum first
    cfg = write_config(tmp_path, fields={"f": "0.1*x1 + 2", "alpha": 0.5,
                                         "s": "0.1*x1^2 + 2"})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--config", cfg, "--p", "400"]) == 0
        out = capsys.readouterr().out
        assert main(["norms", "--config", cfg, "--p", "400,4194305"]) == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("CHECK lp_gap_p400 "))
    assert float(line.split()[2].removeprefix("lhs=")) > 0.0
    vals = dict(ln.split()[1:] for ln in capsys.readouterr().out.splitlines())
    assert float(vals["lp_gap_p400"]) > 0.0
    assert all(math.isfinite(float(v)) for v in vals.values())


def test_surface_per_axis_resolution(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        box={"bounds": [[0.0, 1.0], [0.0, 2.0]]},
        net={"knots": [[0.0, 0.5, 1.0], [0.0, 1.0, 2.0]]},
        fields={"f": "x1 + x2", "alpha": 0.3,
                "s": "(x1 + x2) * x1 * (1 - x1) + x1 + x2"},
        run={"seed": 0},
    )
    assert main(["surface", "--config", cfg, "--resolution", "9,5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 9 * 5
    # first axis runs fastest: rows 0..8 share x2 = 0
    x1 = [float(ln.split(",")[0]) for ln in lines[1:10]]
    x2 = [float(ln.split(",")[1]) for ln in lines[1:10]]
    assert x1 == [0.125 * i for i in range(9)]
    assert x2 == [0.0] * 9


def test_verify_multiple_exponents(tmp_path, capsys):
    cfg = blend_config(tmp_path)
    assert main(["verify", "--config", cfg, "--p", "1,2"]) == 0
    out = capsys.readouterr().out
    for name in ("lp_gap_p1", "lp_gap_p2", "complex_gap_p1", "complex_gap_p2"):
        assert f"CHECK {name}" in out
    assert "VERIFY PASS" in out


def test_approx_command(tmp_path, capsys):
    cfg = blend_config(tmp_path)
    out_csv = tmp_path / "surf.csv"
    assert main(["approx", "--config", cfg, "--epsilon", "0.2",
                 "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "APPROX PASS" in out
    assert out_csv.read_text().startswith("x1,value,error_bound")


def test_usage_errors_exit_two(tmp_path, capsys):
    good = write_config(tmp_path)
    cases = [
        ["verify", "--config", str(tmp_path / "missing.json")],
        ["eval", "--config", good, "0.1,0.2"],      # arity mismatch
        ["eval", "--config", good],                 # no points anywhere
        ["surface", "--config", good, "--resolution", "9,5"],   # 2 axes for 1D
        ["surface", "--config", good, "--resolution", "1"],     # below 2
        ["verify", "--config", good, "--p", "0.5"],             # exponent < 1
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()

    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{nope")
    assert main(["verify", "--config", str(bad_json)]) == 2
    capsys.readouterr()

    both = write_config(tmp_path, name="both.json",
                        operator={"kind": "blend", "t": 0.5})
    assert main(["verify", "--config", both]) == 2
    capsys.readouterr()

    unknown_op = write_config(tmp_path, name="op.json",
                              fields={"f": "x1", "alpha": 0.3},
                              operator={"kind": "mystery"})
    assert main(["verify", "--config", unknown_op]) == 2
    capsys.readouterr()


def test_analytic_failures_exit_one(tmp_path, capsys):
    # well-formed requests the construction cannot satisfy
    good = write_config(tmp_path)
    assert main(["eval", "--config", good, "2.5"]) == 1    # outside the box
    capsys.readouterr()

    inadmissible = write_config(tmp_path, name="alpha1.json",
                                fields={"f": "x1", "alpha": 1.0, "s": "x1^2"})
    assert main(["eval", "--config", inadmissible, "0.25"]) == 1
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fractalis.cli", "eval", "--config", cfg, "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "0.375" in proc.stdout


def test_module_entry_point_keeps_exit_codes_and_writes_whole_csvs(tmp_path):
    # the entry point freezes the collector before the interpreter exits:
    # exit codes are main's, and each CSV is the one main writes in process
    cfg = write_config(tmp_path)
    runs = [(0, ["surface", "--config", cfg, "--out", "surface.csv"]),
            (0, ["eval", "--config", cfg, "--out", "eval.csv", "0.25", "0.7", "1"]),
            (1, ["eval", "--config", cfg, "--out", "outside.csv", "1.5"]),
            (2, ["eval", "--config", cfg, "--bogus"])]
    # the child runs in tmp_path, so it finds the package by absolute path
    src = str(Path(fractal_core.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    for code, argv in runs:
        proc = subprocess.run([sys.executable, "-m", "fractalis.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True)
        assert proc.returncode == code, proc.stderr
    for _, argv in runs[:2]:
        at = argv.index("--out") + 1
        reference = tmp_path / f"reference-{argv[at]}"
        assert main([*argv[:at], str(reference), *argv[at + 1:]]) == 0
        data = (tmp_path / argv[at]).read_bytes()
        assert data == reference.read_bytes() and data.endswith(b"\n")
    assert not (tmp_path / "outside.csv").exists()


def test_surface_and_eval_import_only_what_they_run():
    code = ("import sys, fractalis.cli; print(sorted(m for m in sys.modules if m in "
            "('fractalis.approx', 'fractalis.lp_space', 'numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _reference_csv(header, rows):
    """The row-at-a-time formatting the streamed writer must reproduce."""
    lines = [",".join(header)]
    lines.extend(",".join(format(float(v), ".17g") for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _grid_rows(axes, values, bound):
    shape = values.shape
    for rev in itertools.product(*[range(n) for n in reversed(shape)]):
        idx = tuple(reversed(rev))  # first axis fastest
        yield tuple(a[i] for a, i in zip(axes, idx)) + (values[idx], bound)


SPECIALS = [-0.0, 1e-300, 1e17, -1e17, 5e-324, 0.1, 1.0 / 3.0]


def _grid_text(axes, values, bound, rows):
    """The writer's rows of a grid, first axis fastest, as ``surface``
    passes them: each axis with the stride of the axes before it."""
    strides = np.cumprod([1] + [len(a) for a in axes[:-1]])
    columns = [*zip(axes, strides), (values.ravel(order="F"), 1)]
    return b"".join(_row_blocks(columns, bound, rows=rows)).decode("ascii")


@pytest.mark.parametrize("shape", [(7,), (4, 3), (3, 2, 4)])
def test_grid_writer_matches_reference_formatting(shape):
    rng = np.random.default_rng(len(shape))
    axes = [rng.standard_normal(n) for n in shape]
    axes[0][:3] = [-0.0, 1e-300, 1e17]
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    values.flat[:len(SPECIALS)] = SPECIALS
    n = values.size
    for bound in (1e-300, 3.0000000000000004e-9):
        want = _reference_csv([], _grid_rows(axes, values, bound))[1:]
        for rows in (5, n, 8192):  # partial last block, one block, big block
            assert _grid_text(axes, values, bound, rows) == want


def test_point_writer_matches_reference_formatting():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((10, 2))
    pts[:3, 0] = [-0.0, 1e-300, 1e17]
    values = rng.standard_normal(10)
    values[:len(SPECIALS)] = SPECIALS
    rows = [tuple(p) + (v, 1e17) for p, v in zip(pts, values)]
    columns = [(pts[:, 0], 1), (pts[:, 1], 1), (values, 1)]
    for block_rows in (3, 4, 10, 8192):  # partial last blocks, one block, big block
        text = b"".join(_row_blocks(columns, 1e17, rows=block_rows)).decode("ascii")
        assert text == _reference_csv([], rows)[1:]


def _kernel_values(rng):
    """Over 10**6 doubles for the text kernel, shuffled so that every
    slice mixes in-range values with values that go through ``_format``."""
    bits = rng.integers(0, 2**64, size=40_000, dtype=np.uint64).view(float)
    lo, hi = np.array([1e-5, 1e16]).view(np.uint64)
    in_range = rng.integers(lo, hi, size=350_000, dtype=np.uint64).view(float)
    scaled = rng.standard_normal(120_000) * 10.0 ** rng.integers(-9, 19, size=120_000)
    tiny = rng.integers(0, 2**52, size=10_000, dtype=np.uint64).view(float)  # subnormals
    powers = 10.0 ** np.arange(-8, 19)
    near = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(6):
            step = np.nextafter(step, direction)
            near.append(step)
    edges = []
    for edge in (1e-5, 1e16):
        up = down = np.float64(edge)
        for _ in range(8):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            edges += [up, down]
    # ties of the 17th digit: 10**(16 - k) + j / 2**(k + 1) times 10**k ends in .5 for odd j
    ties = [10.0 ** (16 - k) + np.arange(-4000, 4000) / 2.0 ** (k + 1) for k in range(1, 6)]
    x = np.concatenate([bits, in_range, scaled, tiny, -tiny, [0.0, -0.0, 1e16, 1e-5],
                        *near, edges, *ties])
    x = np.concatenate([x, -x])
    return x[rng.permutation(x.size)]


def test_text_kernel_matches_percent_17g():
    x = _kernel_values(np.random.default_rng(19))
    finite = x[np.isfinite(x)]
    assert finite.size >= 10**6
    assert np.count_nonzero((np.abs(finite) >= 1e-5) & (np.abs(finite) < 1e16)) >= 5 * 10**5
    for start in range(0, x.size, 2**16):
        part = x[start:start + 2**16]
        texts = _texts(part)
        rows = np.concatenate([texts, np.full((part.size, 1), ord("\n"), np.uint8)], axis=1)
        got = rows[rows != 0].tobytes().decode("ascii")
        want = "".join("%.17g\n" % v for v in part.tolist())
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(part.tolist(), got.splitlines(),
                                                want.splitlines()) if g != w]
            raise AssertionError(f"{len(bad)} texts differ, first: {bad[:5]}")


def _mixed_net_config(tmp_path, name="mixed.json", x1_knots=(0.0, 0.5, 1.0)):
    return write_config(
        tmp_path, name=name,
        box={"bounds": [[0.0, 1.0], [-0.5, 1.0]]},
        net={"knots": [list(x1_knots), [-0.5, 0.0, 0.5, 1.0]]},
        fields={"f": "sin(3*x1)*cos(2*x2)+x1*x2", "alpha": "0.2+0.05*x1*x2"},
        operator={"kind": "blend", "t": 0.6},
        run={"seed": 0},
    )


@pytest.mark.parametrize("knots,resolution", [
    ((0.0, 0.5, 1.0), "9,7"),        # net-compatible: the orbit path
    ((0.0, 0.3, 0.6, 1.0), "9,7"),   # nonuniform first axis: the chain
])
def test_surface_bytes_match_reference_on_stdout_and_out(tmp_path, capsys, knots,
                                                         resolution):
    cfg = _mixed_net_config(tmp_path, x1_knots=knots)
    assert main(["surface", "--config", cfg, "--resolution", resolution]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "surf.csv"
    assert main(["surface", "--config", cfg, "--resolution", resolution,
                 "--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode("ascii")

    with open(cfg) as fh:
        spec = json.load(fh)
    net = build_net(spec["box"]["bounds"], spec["net"]["knots"])
    config = make_operator_config(net, parse_field(spec["fields"]["f"], 2),
                                  parse_field(spec["fields"]["alpha"], 2),
                                  blend_operator(0.6))
    field = FractalField(config, tol=1e-8)
    axes = box_axes(net.box, (9, 7))
    values = field.eval_arrays(np.meshgrid(*axes, indexing="ij"))
    want = _reference_csv(["x1", "x2", "value", "error_bound"],
                          _grid_rows(axes, values, field.error_bound))
    if knots == (0.0, 0.5, 1.0):
        # the orbit path is exact; the chain may differ by float drift
        got = np.array([[float(v) for v in ln.split(",")]
                        for ln in stdout.splitlines()[1:]])
        ref = np.array([[float(v) for v in ln.split(",")]
                        for ln in want.splitlines()[1:]])
        np.testing.assert_array_equal(got[:, [0, 1, 3]], ref[:, [0, 1, 3]])
        assert np.max(np.abs(got[:, 2] - ref[:, 2])) <= field.error_bound + 1e-12
    else:
        assert stdout == want


def test_surface_on_stdout_is_the_out_file_byte_for_byte(tmp_path):
    cfg = _mixed_net_config(tmp_path, x1_knots=(0.0, 0.3, 0.6, 1.0))
    out = tmp_path / "surf.csv"
    args = ["surface", "--config", cfg, "--resolution", "17,9"]
    assert main(args + ["--out", str(out)]) == 0
    proc = subprocess.run([sys.executable, "-m", "fractalis.cli", *args], capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == out.read_bytes()
    net = build_net([[0.0, 1.0], [-0.5, 1.0]], [[0.0, 0.3, 0.6, 1.0], [-0.5, 0.0, 0.5, 1.0]])
    config = make_operator_config(net, parse_field("sin(3*x1)*cos(2*x2)+x1*x2", 2),
                                  parse_field("0.2+0.05*x1*x2", 2), blend_operator(0.6))
    field = FractalField(config, tol=1e-8)
    axes = box_axes(net.box, (17, 9))
    values = field.eval_arrays(np.meshgrid(*axes, indexing="ij", sparse=True))
    want = _reference_csv(["x1", "x2", "value", "error_bound"],
                          _grid_rows(axes, values, field.error_bound))
    assert proc.stdout == want.encode("ascii")


@pytest.mark.parametrize("slab", [None, 1000])
def test_eval_bytes_match_reference_on_stdout_and_out(tmp_path, capsys, monkeypatch,
                                                      slab):
    if slab is not None:   # 5000 points in five slabs, as one call
        monkeypatch.setattr(fractal_core, "_SLAB_POINTS", slab)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(5000, 1))
    pts[:2, 0] = [-0.0, 1e-300]
    cfg = write_config(tmp_path, run={"points": pts.tolist()})
    assert main(["eval", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "eval.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode("ascii")
    net = build_net([[0.0, 1.0]], [[0.0, 0.5, 1.0]])
    field = FractalField(make_config(net, parse_field("x1", 1), 0.5,
                                     parse_field("x1^2", 1)), tol=1e-10)
    values = field.eval_arrays([pts[:, 0]])
    rows = [(p, v, field.error_bound) for p, v in zip(pts[:, 0], values)]
    assert stdout == _reference_csv(["x1", "value", "error_bound"], rows)


def test_surface_chain_fallback_matches_flattened_chain(tmp_path):
    cfg = _mixed_net_config(tmp_path, x1_knots=(0.0, 0.3, 0.6, 1.0))
    out = tmp_path / "a.csv"
    assert main(["surface", "--config", cfg, "--resolution", "17", "--out", str(out)]) == 0
    net = build_net([[0.0, 1.0], [-0.5, 1.0]], [[0.0, 0.3, 0.6, 1.0], [-0.5, 0.0, 0.5, 1.0]])
    config = make_operator_config(net, parse_field("sin(3*x1)*cos(2*x2)+x1*x2", 2),
                                  parse_field("0.2+0.05*x1*x2", 2), blend_operator(0.6))
    field = FractalField(config, tol=1e-8)
    axes = box_axes(net.box, 17)
    flat = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
    values = field.eval_arrays(flat).reshape(17, 17)
    assert out.read_text() == _reference_csv(["x1", "x2", "value", "error_bound"],
                                             _grid_rows(axes, values, field.error_bound))


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_tol_flag_exits_two(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    for cmd in (["surface"], ["eval", "0.25"], ["norms"]):
        assert main(cmd[:1] + ["--config", cfg, f"--tol={value}"] + cmd[1:]) == 2
        assert "--tol" in _one_line_error(capsys)


@pytest.mark.parametrize("value", [0, -1, "abc", True, None])
def test_bad_run_tol_exits_two(tmp_path, capsys, value):
    cfg = write_config(tmp_path, run={"resolution": 9, "tol": value})
    assert main(["surface", "--config", cfg]) == 2
    assert "run.tol" in _one_line_error(capsys)


def test_tol_flag_is_used(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["surface", "--config", cfg, "--tol", "0.01"]) == 0
    bounds = [float(ln.split(",")[-1])
              for ln in capsys.readouterr().out.splitlines()[1:]]
    assert 1e-8 < bounds[0] <= 0.01


@pytest.mark.parametrize("argv,run_eps", [
    (["--epsilon", "0"], None),
    (["--epsilon", "-0.1"], None),
    (["--epsilon", "inf"], None),
    ([], 0),
    ([], -1),
])
def test_bad_epsilon_exits_two(tmp_path, capsys, argv, run_eps):
    cfg = write_config(tmp_path, fields={"f": "x1^2", "alpha": 0.4},
                       operator={"kind": "blend", "t": 1.0},
                       run={"resolution": 33, "epsilon": run_eps})
    assert main(["approx", "--config", cfg] + argv) == 2
    assert "epsilon" in _one_line_error(capsys)


def test_missing_epsilon_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, fields={"f": "x1^2", "alpha": 0.4},
                       operator={"kind": "blend", "t": 1.0}, run={"resolution": 33})
    assert main(["approx", "--config", cfg]) == 2
    assert "no epsilon given" in _one_line_error(capsys)


@pytest.mark.parametrize("points", [
    [[0.1, "a"]],          # non-numeric coordinate (2-D config)
    [[0.25], ["a"]],       # non-numeric entry
    [[0.25], [None]],
    [0.25],                # bare number instead of a point
    [[0.25], [0.1, 0.2]],  # wrong length
    [[0.25], []],
    [],
    "0.25",
    {"x1": 0.25},
    [[[0.25]]],
])
def test_malformed_run_points_exit_two(tmp_path, capsys, points):
    cfg = write_config(tmp_path, run={"points": points})
    assert main(["eval", "--config", cfg]) == 2
    _one_line_error(capsys)


def test_box_edge_slack_and_nan(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", cfg, repr(1.0 + 5e-13)]) == 0
    capsys.readouterr()
    for bad in (1.0 + 2e-12, -2e-12, float("nan")):
        assert main(["eval", "--config", cfg, "--", "0.5", repr(bad), "0.25"]) == 1
        err = _one_line_error(capsys)
        assert f"({bad!r},)" in err
    points = write_config(tmp_path, name="pts.json",
                          run={"points": [[0.5], [1.0 + 5e-13], [1.0 + 2e-12], [2.0]]})
    assert main(["eval", "--config", points]) == 1
    assert f"({1.0 + 2e-12!r},)" in _one_line_error(capsys)


def test_eval_checks_points_before_building_the_field(tmp_path, capsys, monkeypatch):
    from fractalis import cli

    def refuse(*args, **kwargs):
        raise AssertionError("built the evaluator before checking the points")

    monkeypatch.setattr(cli._Problem, "evaluator", refuse)
    cfg = write_config(tmp_path, box={"bounds": [[0.0, 1.0]] * 2},
                       net={"knots": [[0.0, 0.5, 1.0]] * 2},
                       fields={"f": "x1*x2", "alpha": "0.2+0.1*x1*x2"},
                       operator={"kind": "blend", "t": 0.5})
    assert main(["eval", "--config", cfg, "0.3"]) == 2
    assert "'0.3' must have 2 coordinates" in _one_line_error(capsys)
    assert main(["eval", "--config", cfg, "0.3,1.5"]) == 1
    assert "(0.3, 1.5) outside box" in _one_line_error(capsys)


@pytest.mark.parametrize("section", [[1, 2], "skip", 3])
def test_non_object_verify_section_exits_two(tmp_path, capsys, section):
    cfg = write_config(tmp_path, fields={"f": "x1^2", "alpha": 0.4},
                       operator={"kind": "blend", "t": 1.0}, verify=section)
    assert main(["verify", "--config", cfg]) == 2
    assert "verify section" in _one_line_error(capsys)


def test_resolution_cap_exits_two_before_sampling(tmp_path, capsys, monkeypatch):
    from fractalis import cli

    def refuse(*args, **kwargs):
        raise AssertionError("sampled a grid over the cap")

    monkeypatch.setattr(cli, "sample_grid", refuse)
    monkeypatch.setattr(cli, "mesh_eval", refuse)
    cfg = _mixed_net_config(tmp_path)
    side = 100_000
    assert side**2 > cli.MAX_GRID_POINTS
    for argv in (["surface", "--resolution", str(side)],
                 ["surface", "--resolution", f"{side},{side}"],
                 ["verify", "--resolution", f"{side},2"],      # one shared side^2 grid
                 ["norms", "--resolution", str(side)]):
        assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 2, argv
        assert "grid points" in _one_line_error(capsys)
    from_run = write_config(tmp_path, name="run.json",
                            box={"bounds": [[0.0, 1.0]] * 2},
                            net={"knots": [[0.0, 0.5, 1.0]] * 2},
                            run={"resolution": [side, side]})
    assert main(["surface", "--config", from_run]) == 2
    assert str(side**2) in _one_line_error(capsys)


def test_resolution_cap_boundary():
    from argparse import Namespace

    from fractalis import cli

    problem = cli._Problem({"box": {"bounds": [[0.0, 1.0]] * 2},
                            "net": {"knots": [[0.0, 0.5, 1.0]] * 2},
                            "fields": {"f": "x1", "alpha": 0.5, "s": "x1"}})
    side = 2**11
    assert side * side == cli.MAX_GRID_POINTS
    assert problem.resolution(Namespace(resolution=str(side))) == side
    assert problem.resolution(Namespace(resolution=f"{side},{side}")) == (side, side)
    for raw in (str(side + 1), f"{side},{side + 1}"):
        with pytest.raises(cli.UsageError):
            problem.resolution(Namespace(resolution=raw))
    with pytest.raises(cli.UsageError):
        problem.scalar_resolution(Namespace(resolution=f"{side + 1},2"))


def test_eval_takes_negative_exponent_coordinates(tmp_path, capsys):
    cfg = write_config(tmp_path, box={"bounds": [[-1.0, 1.0]]},
                       net={"knots": [[-1.0, 0.0, 1.0]]},
                       fields={"f": "x1", "alpha": 0.5, "s": "x1"})
    points = ["0.5", "-2e-12", "-1E-1", "-.25", "-1e+0"]
    assert main(["eval", "--config", cfg, *points]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [float(p) for p in points]
    # outside the box: an analytic failure, no longer an argument error
    unit = write_config(tmp_path, name="unit.json")
    assert main(["eval", "--config", unit, "0.5", "-2e-12"]) == 1
    assert "outside box" in _one_line_error(capsys)
    plane = write_config(tmp_path, name="plane.json",
                         box={"bounds": [[-1.0, 1.0]] * 2},
                         net={"knots": [[-1.0, 0.0, 1.0]] * 2},
                         fields={"f": "x1*x2", "alpha": 0.5, "s": "x1*x2"})
    assert main(["eval", "--config", plane, "-0.5,-2.5e-1", "0.5,-1e-3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["-0.5", "-0.25"], ["0.5", "-0.001"]]
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", plane, "--bogus", "0.5,0.5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_norms_unreachable_tolerance_exits_one_before_output(tmp_path, capsys):
    cfg = write_config(tmp_path, fields={"f": "sin(7*x1)+x1", "alpha": 0.97},
                       operator={"kind": "blend", "t": 0.6},
                       run={"resolution": 9, "tol": 1e-300})
    assert main(["norms", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "chain depth" in err


@pytest.mark.parametrize("value, flag", [("abc", []), (-1, []), (float("inf"), []),
                                         (None, []), (0, ["--seed", "-1"])])
def test_bad_seed_exits_two(tmp_path, capsys, value, flag):
    cfg = write_config(tmp_path, run={"resolution": 9, "seed": value})
    assert main(["verify", "--config", cfg] + flag) == 2
    assert "seed" in _one_line_error(capsys)


@pytest.mark.parametrize("overrides", [
    {"net": {"knots": [[0.0, [0.5], 1.0]]}},
    {"box": {"bounds": [[None, 1.0]]}},
    {"fields": True},
    {"fields": {"f": "x1", "alpha": 0.3}, "operator": {"kind": "blend", "t": [0.5]}},
    {"fields": {"f": float("nan"), "alpha": 0.3, "s": "x1^2"}},
    {"fields": {}, "fif": {"delta": None, "values": [0.0, 1.0, 0.0]}},
    {"fields": {}, "fif": {"delta": 0.3, "values": [0.0, {}, 0.0]}},
    {"fields": {}, "fif": 1.5},
    {"run": {"resolution": float("inf")}},
    {"run": {"resolution": 9, "p": float("nan")}},
])
def test_malformed_sections_exit_two(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["norms", "--config", cfg]) == 2
    _one_line_error(capsys)


def test_infinite_tail_constant_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, fields={},
                       fif={"delta": 0.5, "values": [0.0, 1e308, 0.0]})
    assert main(["eval", "--config", cfg, "0.25"]) == 1
    assert "not finite" in _one_line_error(capsys)
