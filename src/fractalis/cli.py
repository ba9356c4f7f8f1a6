"""Command line front end.

Subcommands: ``surface`` samples a construction on a uniform grid to CSV,
``eval`` evaluates at explicit points, ``verify`` runs the bound and
consistency battery and reports one CHECK line per item, ``approx`` runs
the perturbed-polynomial procedure, ``norms`` prints the constants of the
construction (the scale sup and the base gap are grid estimates unless
alpha is constant). Configuration is a JSON file; all output is
deterministic for a fixed config and seed. Exit codes: 0 success, 1 a
check or tolerance failed, 2 usage or configuration error.

``surface`` takes the exact orbit path on a net-compatible grid and the
open mesh on every other grid (see ``fractal_core.sample_grid``), for
either construction; ``eval`` evaluates its points in slices of
``_SLAB_POINTS`` (see ``fractal_core._eval_chunked``). A resolution may
ask for at most MAX_GRID_POINTS grid points.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from ._fields import (
    MAX_GRID_POINTS,
    ConstantField,
    NetInterpolant,
    box_axes,
    grid_sup_norm,
    mesh_eval,
)
from .approx import ApproximationError, epsilon_approximate
from .field_expr import FieldDomainError, FieldParseError, parse_field
from .fractal_core import (
    AdmissibilityError,
    CheckReport,
    DeltaFifField,
    FractalField,
    IterationError,
    ToleranceError,
    _eval_chunked,
    boundary_consistency_check,
    interpolation_check,
    make_config,
    make_delta_fif,
    sample_grid,
)
from .lp_space import (
    ComplexFieldPair,
    complex_l2_identity_check,
    complex_perturbation_gap,
    lp_perturbation_gap,
    quadrature_rule,
)
from .net import build_net, jacobian_sum, node_arrays
from .operator_props import (
    OperatorSpec,
    _inverse_norm_bound,
    _rate_bound,
    _sup_gap,
    alpha_sequence_convergence,
    blend_operator,
    bounded_below_check,
    fixed_point_check,
    fractal_operator,
    identity_operator,
    linearity_check,
    multiplication_operator,
    neumann_inverse,
    operator_norm_check,
    operator_sequence_convergence,
    vanishing_invariance_check,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


class PointOutsideBoxError(Exception):
    """Evaluation point not in the domain box; maps to exit code 1."""


def _positive(raw, what: str) -> float:
    """``raw`` as a positive finite float, else a UsageError."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if isinstance(raw, bool) or not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"{what} must be a positive finite number, got {raw!r}")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config root must be an object")
    return cfg


def _build_net(cfg: dict):
    try:
        box = cfg["box"]["bounds"]
        knots = cfg["net"]["knots"]
    except (KeyError, TypeError) as exc:
        raise UsageError("config needs box.bounds and net.knots") from exc
    try:
        return build_net(box, knots)
    except (TypeError, ValueError) as exc:  # TypeError: not lists of numbers
        raise UsageError(f"bad net: {exc}") from exc


def _field_from(spec, arity: int, what: str):
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        if not math.isfinite(spec):
            raise UsageError(f"{what} must be finite, got {spec!r}")
        return ConstantField(float(spec))
    if isinstance(spec, str):
        try:
            return parse_field(spec, arity)
        except FieldParseError as exc:
            raise UsageError(f"bad expression for {what}: {exc}") from exc
    raise UsageError(f"{what} must be a number or an expression string")


def _operator_from(cfg: dict, net) -> OperatorSpec | None:
    spec = cfg.get("operator")
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError("operator must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "identity":
        return identity_operator()
    if kind == "blend":
        if "t" not in spec:
            raise UsageError("blend operator needs 't'")
        try:
            return blend_operator(float(spec["t"]))
        except (TypeError, ValueError) as exc:
            raise UsageError(str(exc)) from exc
    if kind == "multiplication":
        if "b" not in spec:
            raise UsageError("multiplication operator needs 'b'")
        return multiplication_operator(_field_from(spec["b"], net.dim, "operator.b"))
    raise UsageError(f"unknown operator kind {kind!r}")


class _Problem:
    """Parsed configuration: net plus either a scale-field construction
    (explicit base or operator) or node data for the delta construction."""

    def __init__(self, cfg: dict):
        self.net = _build_net(cfg)
        run = cfg.get("run", {})
        if not isinstance(run, dict):
            raise UsageError("run section must be an object")
        self.run = run
        verify = cfg.get("verify", {})
        if not isinstance(verify, dict):
            raise UsageError("verify section must be an object")
        self.verify = verify

        fields = cfg.get("fields") or {}
        if not isinstance(fields, dict):
            raise UsageError("fields section must be an object")
        self.f = self.alpha = self.s = None
        if fields:
            if "f" not in fields or "alpha" not in fields:
                raise UsageError("fields section needs f and alpha")
            self.f = _field_from(fields["f"], self.net.dim, "fields.f")
            self.alpha = _field_from(fields["alpha"], self.net.dim, "fields.alpha")
            if "s" in fields:
                self.s = _field_from(fields["s"], self.net.dim, "fields.s")
        self.op = _operator_from(cfg, self.net)
        if self.s is not None and self.op is not None:
            raise UsageError("give either fields.s or an operator section, not both")

        self.fif = None
        fif = cfg.get("fif")
        if fif is not None:
            if not isinstance(fif, dict) or "delta" not in fif or "values" not in fif:
                raise UsageError("fif section must be an object with delta and values")
            try:
                self.fif = make_delta_fif(self.net, fif["values"], float(fif["delta"]))
            except (TypeError, ValueError) as exc:  # TypeError: not numbers
                raise UsageError(f"bad fif section: {exc}") from exc

        construction = run.get("construction")
        if construction is None:
            construction = "delta" if self.fif is not None else "alpha"
        if construction not in ("alpha", "delta"):
            raise UsageError("run.construction must be 'alpha' or 'delta'")
        if construction == "delta" and self.fif is None:
            raise UsageError("run.construction is 'delta' but there is no fif section")
        if construction == "alpha" and self.f is None:
            raise UsageError("the scale-field construction needs a fields section")
        self.construction = construction

    def resolution(self, args):
        """Grid resolution: a single count or one per axis, at most
        MAX_GRID_POINTS points in all."""
        raw = getattr(args, "resolution", None)
        if raw:
            parts = str(raw).split(",")
        elif "resolution" in self.run:
            got = self.run["resolution"]
            parts = got if isinstance(got, list) else [got]
        else:
            return {1: 257, 2: 129}.get(self.net.dim, 33)
        try:
            values = [int(t) for t in parts]
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"bad resolution {raw or self.run['resolution']!r}: "
                             f"{exc}") from exc
        if any(v < 2 for v in values):
            raise UsageError("resolution must be >= 2 per axis")
        if len(values) == 1:
            return self._capped(values[0])
        if len(values) != self.net.dim:
            raise UsageError(f"resolution needs 1 or {self.net.dim} values, "
                             f"got {len(values)}")
        return self._capped(tuple(values))

    def scalar_resolution(self, args) -> int:
        """Finest axis count; checks and quadrature use one shared grid."""
        res = self.resolution(args)
        return self._capped(max(res)) if isinstance(res, tuple) else res

    def _capped(self, res):
        """``res`` if its grid has at most MAX_GRID_POINTS points."""
        counts = res if isinstance(res, tuple) else (res,) * self.net.dim
        total = math.prod(counts)
        if total > MAX_GRID_POINTS:
            raise UsageError(f"resolution {','.join(map(str, counts))} asks for "
                             f"{total} grid points, more than {MAX_GRID_POINTS}")
        return res

    def positive(self, args, name: str, default: float | None = None) -> float:
        """``--name``, else ``run.name``, else ``default``: positive and finite."""
        if getattr(args, name, None) is not None:
            return _positive(getattr(args, name), f"--{name}")
        if name in self.run:
            return _positive(self.run[name], f"run.{name}")
        if default is None:
            raise UsageError(f"no {name} given (--{name} or run.{name})")
        return default

    def seed(self, args) -> int:
        raw = getattr(args, "seed", None)
        if raw is None:
            raw = self.run.get("seed", 0)
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError):
            value = -1
        if value < 0:
            raise UsageError(f"seed must be a non-negative integer, got {raw!r}")
        return value

    def p_values(self, args) -> list:
        raw = getattr(args, "p", None)
        if raw:
            parts = str(raw).split(",")
        else:
            got = self.run.get("p", 2)
            parts = got if isinstance(got, list) else [got]
        try:
            values = [float(t) for t in parts]
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad integral-norm exponent list: {exc}") from exc
        for v in values:
            if not (math.isfinite(v) and v >= 1):
                raise UsageError(f"integral-norm exponent must be finite and >= 1, "
                                 f"got {v:g}")
        return values

    @functools.cached_property
    def F(self):
        """The fractal operator of the operator section, built on first read."""
        return fractal_operator(self.net, self.alpha, self.op)

    def evaluator(self, tol: float):
        if self.construction == "delta":
            return DeltaFifField(self.fif, tol=tol)
        if self.op is not None:
            return self.F(self.f, tol=tol)
        if self.s is None:
            raise UsageError("fields section needs s or an operator section")
        return FractalField(make_config(self.net, self.f, self.alpha, self.s), tol=tol)


def _format(v: float) -> str:
    return format(float(v), ".17g")


def _write_csv(out_path, header, blocks) -> None:
    """Write the header line, then each block of complete rows as it is
    produced, to ``out_path`` or to stdout."""
    fh = open(out_path, "w", encoding="utf-8", newline="") if out_path else sys.stdout
    try:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _header(dim: int) -> list:
    return [f"x{q + 1}" for q in range(dim)] + ["value", "error_bound"]


def _grid_blocks(axes, values, bound):
    """CSV rows of a grid, first axis fastest, one block per line of the
    first axis. Coordinates and the bound are formatted once; values go
    through ``%.17g``, which gives the same text as ``_format``."""
    x1 = [_format(v) for v in axes[0]]
    outer = [[_format(v) for v in a] for a in axes[1:]]
    tail = f"%.17g,{_format(bound)}\n"
    lines = values.reshape(len(x1), -1, order="F")
    # np.ndindex runs its last index fastest, so reversed axes put x2 fastest
    for col, rev in enumerate(np.ndindex(*(len(o) for o in reversed(outer)))):
        mid = "".join(o[i] + "," for o, i in zip(outer, reversed(rev)))
        args = [None] * (2 * len(x1))
        args[0::2] = x1
        args[1::2] = lines[:, col].tolist()
        yield (("%s," + mid + tail) * len(x1)) % tuple(args)


def _point_blocks(pts, values, bound, rows: int = 4096):
    """CSV rows of scattered points in input order, ``rows`` per block."""
    row = "%.17g," * (pts.shape[1] + 1) + _format(bound) + "\n"
    for start in range(0, len(values), rows):
        chunk = np.column_stack([pts[start:start + rows], values[start:start + rows]])
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def _write_surface(out_path, field, resolution) -> None:
    axes, values = sample_grid(field, resolution)
    _write_csv(out_path, _header(len(axes)), _grid_blocks(axes, values, field.error_bound))


def cmd_surface(args) -> int:
    problem = _Problem(_load_config(args.config))
    resolution = problem.resolution(args)
    field = problem.evaluator(problem.positive(args, "tol", 1e-8))
    _write_surface(args.out, field, resolution)
    return 0


def _parse_points(args, problem) -> np.ndarray:
    k = problem.net.dim
    raw = []
    if args.points:
        for text in args.points:
            parts = text.split(",")
            if len(parts) != k:
                raise UsageError(f"point {text!r} must have {k} coordinates")
            try:
                raw.append([float(t) for t in parts])
            except ValueError as exc:
                raise UsageError(f"bad point {text!r}: {exc}") from exc
    elif "points" in problem.run:
        raw = _config_points(problem.run["points"], k)
    else:
        raise UsageError("no points given (positional arguments or run.points)")
    pts = np.asarray(raw, dtype=float)
    bad = problem.net.box.first_outside(pts)
    if bad is not None:
        where = tuple(float(v) for v in pts[bad])
        raise PointOutsideBoxError(
            f"point {where} outside box {problem.net.box.bounds}"
        )
    return pts


def _config_points(entries, k: int) -> np.ndarray:
    """``run.points`` as an (n, k) array: a non-empty list whose entries
    are lists of k JSON numbers."""
    try:
        pts = np.array(entries) if isinstance(entries, list) else None
    except ValueError:  # ragged nesting
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1:] != (k,) or pts.dtype.kind not in "iuf":
        for entry in entries if isinstance(entries, list) else ():
            if not (isinstance(entry, list) and len(entry) == k and all(
                    isinstance(t, (int, float)) and not isinstance(t, bool)
                    for t in entry)):
                raise UsageError(f"config point {entry!r} must be a list of "
                                 f"{k} numbers")
        raise UsageError(f"run.points must be a non-empty list of points, "
                         f"each a list of {k} numbers")
    return pts


def cmd_eval(args) -> int:
    problem = _Problem(_load_config(args.config))
    tol = problem.positive(args, "tol", 1e-10)
    pts = _parse_points(args, problem)
    field = problem.evaluator(tol)
    coords = [pts[:, q] for q in range(problem.net.dim)]
    values = _eval_chunked(field, coords)
    _write_csv(args.out, _header(problem.net.dim),
               _point_blocks(pts, values, field.error_bound))
    return 0


def _sample_polynomials(net, rng, count: int):
    """Seeded low-degree tensor polynomials used as generic test fields."""
    out = []
    axes_vars = [f"x{q + 1}" for q in range(net.dim)]
    for _ in range(count):
        c = rng.uniform(-1.0, 1.0, size=3)
        parts = [f"{c[0]:.6f}"]
        for v in axes_vars:
            parts.append(f"{c[1]:.6f}*{v}")
            parts.append(f"{c[2]:.6f}*{v}^2")
        out.append(parse_field(" + ".join(parts), net.dim))
    return out


def _knot_product(net):
    """Product over axes and knots of (x_q - knot), divided by its max on a
    65-point grid: zero at every net node."""
    raw = " * ".join(f"(x{q + 1} - {float(t)!r})"
                     for q, part in enumerate(net.axes) for t in part.knots)
    scale = max(1e-12, grid_sup_norm(parse_field(raw, net.dim), net.box, 65))
    return parse_field(f"({raw}) / {scale!r}", net.dim)


class _Battery:
    """What one ``verify`` or ``norms`` run reads, all checked before the
    first output line: the seed (``verify``), the tolerance, the shared
    grid and the exponents, and for the scale-field construction the
    ``verify.inverse`` mode and inverse tolerance (``verify``). The field
    comes last; under an operator section it builds the run's one fractal
    operator, ``problem.F``, which every operator check takes."""

    def __init__(self, problem, args, tol_default: float):
        self.problem = problem
        verify = args.command == "verify"
        if verify:
            self.seed = problem.seed(args)
            self.rng = np.random.default_rng(self.seed)
        self.eval_tol = problem.positive(args, "tol", tol_default)
        self.res = problem.scalar_resolution(args)
        self.ps = problem.p_values(args)
        if problem.construction == "alpha":
            self.q_res = self.res if self.res % 2 == 1 else self.res + 1
            self.rule = quadrature_rule(problem.net.box, self.q_res)
            if verify:
                self.inverse = problem.verify.get("inverse", "auto")
                if self.inverse not in ("auto", "require", "skip"):
                    raise UsageError("verify.inverse must be auto, require or skip")
                self.inverse_tol = problem.positive(args, "tol", 1e-6)
        self.field = problem.evaluator(self.eval_tol)


def _checks(b: _Battery):
    """The verify battery in print order: ``(name, outcome)`` with outcome
    a ``CheckReport``, a SKIP reason or the exception the check failed
    with. The node-data construction stops after ``jacobian_sum``; without
    an operator section the operator checks are skipped."""
    net, field, op = b.problem.net, b.field, b.problem.op
    delta = b.problem.construction == "delta"
    cfg = b.problem.fif if delta else field.config
    yield "interpolation", interpolation_check(field, net, cfg.values if delta else cfg.f,
                                               tol=1e-9)
    yield "boundary_consistency", boundary_consistency_check(cfg, seed=b.seed)
    if not delta:
        # the gap-form perturbation bounds work for explicit bases and operators alike
        yield "perturbation_gap", _sup_gap(field, box_axes(net.box, b.res))
    jac = abs(jacobian_sum(net) - 1.0)
    yield "jacobian_sum", CheckReport("jacobian_sum", jac, 1e-12, jac <= 1e-12, {})
    if delta:
        return

    res, eval_tol = b.res, b.eval_tol
    base = op if op is not None else cfg.s
    yield "scale_sequence", alpha_sequence_convergence(
        net, cfg.f, base, [0.5 / n for n in range(1, 7)], resolution=res, eval_tol=eval_tol)
    for p in b.ps:
        yield f"lp_gap_p{p:g}", lp_perturbation_gap(field, b.rule, p)
    if op is None:
        for name in ("operator_norm", "bounded_below", "linearity", "fixed_point",
                     "inverse", "operator_sequence", "vanishing_invariance",
                     "complex_gap", "complex_l2_identity"):
            yield name, "needs an operator section"
        return

    F = b.problem.F
    a = F.alpha_sup
    samples = _sample_polynomials(net, b.rng, 4) + [cfg.f]
    yield "operator_norm", operator_norm_check(F, samples, resolution=res, eval_tol=eval_tol)

    norm_d, norm_idd = F.norms
    if a * norm_d < 1.0:
        yield "bounded_below", bounded_below_check(F, cfg.f, resolution=res,
                                                   eval_tol=eval_tol)
    else:
        yield "bounded_below", "needs sup|alpha|*||D|| < 1"

    g1, g2 = _sample_polynomials(net, b.rng, 2)
    c1, c2 = float(b.rng.uniform(-2, 2)), float(b.rng.uniform(-2, 2))
    yield "linearity", linearity_check(F, g1, g2, c1, c2, seed=b.seed, eval_tol=eval_tol)

    if op.kind == "multiplication":
        yield "fixed_point", "multiplication base maps fix only the zero field"
    else:
        nodes = node_arrays(net)
        interp = NetInterpolant(nodes, mesh_eval(cfg.f, nodes))
        yield "fixed_point", fixed_point_check(F, interp, resolution=res, eval_tol=eval_tol)

    rate = _rate_bound(a, norm_idd)
    if b.inverse == "skip":
        yield "inverse", "disabled in config"
    elif rate >= 1.0 and b.inverse == "auto":
        yield "inverse", f"contraction bound {rate:.6g} >= 1"
    else:
        try:
            inv = neumann_inverse(F, cfg.f, resolution=res, tol=b.inverse_tol,
                                  require_precondition=(b.inverse == "require"))
        except (AdmissibilityError, IterationError) as exc:
            yield "inverse_residual", exc
        else:
            # the three verdicts on the inversion, read off its result
            residual = inv.residuals[-1]
            yield "inverse_residual", CheckReport("inverse_residual", residual, b.inverse_tol,
                                                  residual <= b.inverse_tol, {})
            yield "inverse_norm", CheckReport(
                "inverse_norm", inv.recovered_norm, inv.inverse_norm_bound * inv.target_norm,
                inv.norm_bound_ok, {})
            if math.isfinite(inv.measured_rate):
                limit = 1.1 * inv.rate_bound
                yield "inverse_rate", CheckReport("inverse_rate", inv.measured_rate, limit,
                                                  inv.measured_rate <= limit, {})
            else:
                yield "inverse_rate", "too few iterations to estimate"

    yield "operator_sequence", operator_sequence_convergence(
        F, cfg.f, [1.0 / n for n in range(1, 7)], resolution=res, eval_tol=eval_tol)

    # two nesting levels keep the cost near depth^2 while still exercising
    # a genuinely nested application
    yield "vanishing_invariance", vanishing_invariance_check(F, _knot_product(net), r_max=2,
                                                             eval_tol=eval_tol)

    pair = ComplexFieldPair(real=cfg.f, imag=_sample_polynomials(net, b.rng, 1)[0])
    for p in b.ps:
        yield f"complex_gap_p{p:g}", complex_perturbation_gap(F, pair, p, resolution=b.q_res,
                                                              eval_tol=eval_tol)
    yield "complex_l2_identity", complex_l2_identity_check(F, pair, resolution=b.q_res,
                                                           eval_tol=eval_tol)


def cmd_verify(args) -> int:
    ok = True
    for name, outcome in _checks(_Battery(_Problem(_load_config(args.config)), args, 1e-9)):
        if isinstance(outcome, str):
            print(f"CHECK {name} SKIP {outcome}")
        elif isinstance(outcome, Exception):
            print(f"CHECK {name} lhs=nan rhs=nan FAIL ({outcome})")
            ok = False
        else:
            print(f"CHECK {name} lhs={outcome.lhs:.9e} rhs={outcome.rhs:.9e} "
                  f"{'PASS' if outcome.passed else 'FAIL'}")
            ok &= outcome.passed
    print(f"VERIFY {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_approx(args) -> int:
    problem = _Problem(_load_config(args.config))
    if problem.construction != "alpha" or problem.f is None:
        raise UsageError("approx needs the scale-field construction")
    if problem.op is None:
        raise UsageError("approx needs an operator section")
    epsilon = problem.positive(args, "epsilon")
    result = epsilon_approximate(problem.net, problem.f, problem.op, epsilon,
                                 resolution=problem.scalar_resolution(args))
    print(f"APPROX degree {','.join(str(d) for d in result.poly.degrees)}")
    print(f"APPROX alpha {_format(result.alpha)}")
    print(f"APPROX fit_error {_format(result.components['fit_error'])}")
    print(f"APPROX perturbation_error "
          f"{_format(result.components['perturbation_error'])}")
    print(f"APPROX total_error {_format(result.error)}")
    print(f"APPROX epsilon {_format(result.epsilon)}")
    print(f"APPROX {'PASS' if result.passed else 'FAIL'}")
    if args.out:
        _write_surface(args.out, result.fractal, problem.resolution(args))
    return 0 if result.passed else 1


def cmd_norms(args) -> int:
    problem = _Problem(_load_config(args.config))
    b = _Battery(problem, args, 1e-8)
    if problem.construction == "delta":
        fif = problem.fif
        print(f"NORM delta {_format(fif.delta)}")
        print(f"NORM data_sup {_format(float(np.max(np.abs(fif.values))))}")
        print(f"NORM jacobian_sum {_format(jacobian_sum(problem.net))}")
        return 0
    field = b.field
    a = field.config.alpha_sup
    print(f"NORM alpha_sup {_format(a)}")
    print(f"NORM base_gap_sup {_format(field.config.fs_gap)}")
    print(f"NORM tail_constant {_format(field.tail_constant)}")
    print(f"NORM chain_depth {field.depth}")
    print(f"NORM truncation_bound {_format(field.error_bound)}")
    print(f"NORM jacobian_sum {_format(jacobian_sum(problem.net))}")
    if problem.op is not None:
        norm_d, norm_idd = problem.F.norms
        print(f"NORM operator_norm_d {_format(norm_d)}")
        print(f"NORM operator_norm_id_minus_d {_format(norm_idd)}")
        rate = _rate_bound(a, norm_idd)
        print(f"NORM operator_norm_upper {_format(1.0 + rate)}")
        print(f"NORM inverse_rate_bound {_format(rate)}")
        print(f"NORM inverse_precondition {'1' if rate < 1.0 else '0'}")
        if a * norm_d < 1.0:
            print(f"NORM inverse_norm_bound {_format(_inverse_norm_bound(a, norm_d))}")

    # integral norms of the germ, the perturbation and their gap, with the
    # gap bound and verify's lp_gap verdict, one block per requested exponent
    for p in b.ps:
        rep = lp_perturbation_gap(field, b.rule, p)
        print(f"NORM lp_f_p{p:g} {_format(rep.details['lp_f'])}")
        print(f"NORM lp_perturbed_p{p:g} {_format(rep.details['lp_perturbed'])}")
        print(f"NORM lp_base_gap_p{p:g} {_format(rep.details['base_gap'])}")
        print(f"NORM lp_gap_p{p:g} {_format(rep.lhs)}")
        print(f"NORM lp_gap_bound_p{p:g} {_format(rep.details['bound'])}")
        print(f"NORM lp_gap_ok_p{p:g} {'1' if rep.passed else '0'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    import re

    parser = argparse.ArgumentParser(
        prog="fractalis",
        description="Build, evaluate and verify fractal interpolants on a box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--resolution": dict(help="grid resolution: a single count or one per axis, "
                                  "comma separated (e.g. 129 or 65,33)"),
        "--tol": dict(type=float, help="evaluation / check tolerance"),
        "--seed": dict(type=int, help="seed for sampled checks"),
        "--p": dict(help="integral-norm exponent(s), comma separated"),
        "--epsilon": dict(type=float, help="target sup-norm accuracy"),
        "--out": dict(help="output CSV path (default stdout)"),
    }
    # each subcommand takes only the flags it reads
    for name, func, text, names in (
            ("surface", cmd_surface, "sample the interpolant on a uniform grid",
             ("--resolution", "--tol", "--out")),
            ("eval", cmd_eval, "evaluate at explicit points", ("--tol", "--out")),
            ("verify", cmd_verify, "run the bound and consistency battery",
             ("--resolution", "--tol", "--seed", "--p")),
            ("approx", cmd_approx, "perturbed-polynomial approximation",
             ("--resolution", "--out", "--epsilon")),
            ("norms", cmd_norms, "print the constants of the construction",
             ("--resolution", "--tol", "--p"))):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    p = sub.choices["eval"]
    # argparse's own matcher misses exponents and commas, so it would take
    # points such as -2e-12 or -0.5,0.5 for unknown options
    number = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    p._negative_number_matcher = re.compile(rf"^-{number}(?:,-?{number})*$")
    p.add_argument("points", nargs="*",
                   help="points as comma-separated coordinates, e.g. 0.25,0.5")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FieldParseError, FieldDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AdmissibilityError, ApproximationError, IterationError,
            PointOutsideBoxError, ToleranceError) as exc:
        # analytic failures: the request was well formed but the
        # construction or a certified bound cannot satisfy it
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
