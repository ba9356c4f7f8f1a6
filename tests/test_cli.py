"""Command line behavior: CSV shape, determinism, exit codes."""

import itertools
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fractalis import (
    FractalField,
    blend_operator,
    build_net,
    make_config,
    make_operator_config,
    parse_field,
)
from fractalis._fields import box_axes
from fractalis.cli import _grid_blocks, _point_blocks, main


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


def test_surface_deterministic_and_thread_invariant(tmp_path, monkeypatch):
    cfg = blend_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["surface", "--config", cfg, "--out", str(out1)]) == 0
    monkeypatch.setenv("FRACTALIS_THREADS", "3")
    assert main(["surface", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def test_verify_explicit_base_skips_operator_checks(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "CHECK operator_norm SKIP" in out
    assert "VERIFY PASS" in out


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


def test_verify_delta_construction(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        fif={"delta": 0.4, "values": [0.0, 1.0, 0.5]},
        run={"seed": 0},
    )
    # fields are still present; construction defaults to the fif section
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "CHECK interpolation" in out


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


def test_bad_thread_env_exits_two(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("FRACTALIS_THREADS", "0")
    assert main(["surface", "--config", cfg]) == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "fractalis.cli", "eval", "--config", cfg, "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "0.375" in proc.stdout


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


@pytest.mark.parametrize("shape", [(7,), (4, 3), (3, 2, 4)])
def test_grid_writer_matches_reference_formatting(shape):
    rng = np.random.default_rng(len(shape))
    axes = [rng.standard_normal(n) for n in shape]
    axes[0][:3] = [-0.0, 1e-300, 1e17]
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    values.flat[:len(SPECIALS)] = SPECIALS
    for bound in (1e-300, 3.0000000000000004e-9):
        text = "".join(_grid_blocks(axes, values, bound))
        want = _reference_csv([], _grid_rows(axes, values, bound))
        assert text == want[1:]  # the reference starts with an empty header


def test_point_writer_matches_reference_formatting():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((10, 2))
    pts[:3, 0] = [-0.0, 1e-300, 1e17]
    values = rng.standard_normal(10)
    values[:len(SPECIALS)] = SPECIALS
    rows = [tuple(p) + (v, 1e17) for p, v in zip(pts, values)]
    for block_rows in (3, 10, 4096):  # partial last block, one block, big block
        text = "".join(_point_blocks(pts, values, 1e17, rows=block_rows))
        assert text == _reference_csv([], rows)[1:]


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

    spec = json.loads(open(cfg).read())
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


def test_eval_bytes_match_reference_on_stdout_and_out(tmp_path, capsys):
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


def test_surface_chain_fallback_is_thread_invariant(tmp_path, monkeypatch):
    cfg = _mixed_net_config(tmp_path, x1_knots=(0.0, 0.3, 0.6, 1.0))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["surface", "--config", cfg, "--resolution", "17", "--out", str(out1)]) == 0
    monkeypatch.setenv("FRACTALIS_THREADS", "3")
    assert main(["surface", "--config", cfg, "--resolution", "17", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
