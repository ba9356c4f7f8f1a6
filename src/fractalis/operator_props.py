"""The perturbation map as a linear operator, with certified bounds.

Fixing the net, the scale field alpha and a base-map D, the assignment
f -> (fixed point of h = f + alpha * ((h - Df) o Q)) is a bounded linear
operator on continuous fields. This module builds base maps, estimates
the norms the bounds need, and turns the classical inequalities into
numeric checks:

* the perturbation distance ||Ff - f|| <= a/(1-a) * ||f - Df||,
* the norm bound ||F|| <= 1 + a*||Id-D||/(1-a),
* lower boundedness ||f|| <= (1+a)/(1 - a*||D||) * ||Ff||,
* Neumann inversion when a < 1/(1 + ||Id-D||), with the inverse norm
  bounded by (1+a)/(1 - a*||D||),
* stability of D-fixed points, convergence as the scale or the base map
  degenerates, and invariance of the node-vanishing subspace,

where a = sup|alpha|. Norms written ||.|| are sup norms; measured values
are tensor-grid estimates and every report carries the evaluation margin
used in its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import (
    BlendField,
    ConstantField,
    LinCombField,
    NetInterpolant,
    ProductField,
    as_field,
    box_axes,
    grid_sup_norm,
    mesh_eval,
    mesh_eval_with_base,
    mesh_like,
)
from .fractal_core import (
    AdmissibilityError,
    CheckReport,
    FractalConfig,
    FractalField,
    GridFunction,
    IterationError,
    _scale_sup,
    make_config,
    solve_fixed_point_grid,
)
from .net import Net, node_arrays, node_points

__all__ = [
    "OperatorSpec",
    "BoundsReport",
    "NeumannResult",
    "ConvergenceStep",
    "identity_operator",
    "multiplication_operator",
    "blend_operator",
    "validate_operator",
    "apply_operator",
    "operator_norms",
    "make_operator_config",
    "apply_fractal_operator",
    "perturbation_gap",
    "linearity_check",
    "operator_norm_upper",
    "operator_norm_check",
    "bounded_below_check",
    "neumann_inverse",
    "fixed_point_check",
    "alpha_sequence_convergence",
    "operator_sequence_convergence",
    "vanishing_invariance_check",
]


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """Base map D used to build s = Df.

    kind "identity": Df = f. kind "multiplication": Df = b*f with b = 1 at
    the box corners. kind "blend": Df = (1-t)*f + t*(node interpolant of
    f), t in [0, 1]; agrees with f at every net node. ``apply_operator``
    builds the blend base as a ``BlendField``, which the chain and the gap
    measurements form from f values they already hold.
    """

    kind: str
    b: object = None
    t: float = 0.0


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """One inequality instance: lhs <= rhs up to the evaluation margin."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    details: dict


@dataclass(frozen=True, eq=False)
class ConvergenceStep:
    parameter: float
    error: float
    bound: float
    passed: bool


@dataclass(frozen=True, eq=False)
class NeumannResult:
    """Outcome of inverting the perturbation operator by residual
    iteration on a uniform grid."""

    grid: object
    iterations: int
    residuals: tuple
    rate_bound: float
    measured_rate: float
    precondition_ok: bool
    inverse_norm_bound: float
    recovered_norm: float
    target_norm: float
    norm_bound_ok: bool


def identity_operator() -> OperatorSpec:
    return OperatorSpec(kind="identity")


def multiplication_operator(b) -> OperatorSpec:
    """Df = b*f; b must equal 1 at the box corners (validated per net)."""
    return OperatorSpec(kind="multiplication", b=as_field(b))


def blend_operator(t: float) -> OperatorSpec:
    """Df = (1-t)*f + t*(multilinear node interpolant of f)."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"blend weight must lie in [0, 1], got {t}")
    return OperatorSpec(kind="blend", t=t)


def validate_operator(op: OperatorSpec, net: Net) -> None:
    if op.kind == "identity":
        return
    if op.kind == "blend":
        if not 0.0 <= op.t <= 1.0:
            raise ValueError(f"blend weight must lie in [0, 1], got {op.t}")
        return
    if op.kind == "multiplication":
        b = as_field(op.b)
        for corner in net.box.corners():
            bv = float(b(corner))
            if abs(bv - 1.0) > 1e-10:
                raise AdmissibilityError(
                    f"multiplier must equal 1 at box corners, got {bv} at {tuple(corner)}"
                )
        return
    raise ValueError(f"unknown operator kind {op.kind!r}")


def apply_operator(op: OperatorSpec, f, net: Net):
    """The field Df.

    For the blend operator this is a ``BlendField``: the ``LinCombField``
    of (1-t)*f and t*(node interpolant of f on ``net``), value for value,
    which ``with_base`` forms from f values a caller already holds, with
    one evaluation of f per point instead of two.
    """
    f = as_field(f)
    if op.kind == "identity":
        return f
    if op.kind == "multiplication":
        return ProductField(as_field(op.b), f)
    if op.kind == "blend":
        nodes = node_arrays(net)
        interp = NetInterpolant(nodes, mesh_eval(f, nodes))
        return BlendField((1.0 - op.t, op.t), (f, interp), net)
    raise ValueError(f"unknown operator kind {op.kind!r}")


def operator_norms(op: OperatorSpec, net: Net, resolution: int = 129):
    """Upper bounds (norm of D, norm of Id - D) entering the estimates.

    Multiplication: grid sups of |b| and |1 - b|. Blend: ||D|| <= 1 since
    node interpolation is a positive unit-norm map; for Id - D the bound
    is t, its norm on the node-vanishing subspace, where the interpolant
    term drops out and (Id - D)f = t*f pointwise. That subspace is where
    inversion residuals live (Id minus the perturbation operator lands in
    it), so it is the norm the Neumann analysis runs on.
    """
    if op.kind == "identity":
        return 1.0, 0.0
    if op.kind == "multiplication":
        b = as_field(op.b)
        norm_d = grid_sup_norm(b, net.box, resolution)
        one_minus = LinCombField((1.0, -1.0), (ConstantField(1.0), b))
        return norm_d, grid_sup_norm(one_minus, net.box, resolution)
    if op.kind == "blend":
        return 1.0, float(op.t)
    raise ValueError(f"unknown operator kind {op.kind!r}")


def _require_contraction(a: float) -> None:
    """AdmissibilityError unless a = sup|alpha| < 1, which the bounds need."""
    if not a < 1.0:
        raise AdmissibilityError(f"operator bounds need sup|alpha| < 1, got {a}")


def _rate_bound(a: float, norm_idd: float) -> float:
    """a*||Id-D||/(1-a): Neumann rate, norm bound minus one, norm-form factor."""
    _require_contraction(a)
    return a * norm_idd / (1.0 - a)


def _inverse_norm_bound(a: float, norm_d: float) -> float:
    """(1+a)/(1 - a*||D||): the lower-bound and inverse-norm factor, for a*||D|| < 1."""
    _require_contraction(a)
    return (1.0 + a) / (1.0 - a * norm_d)


def make_operator_config(net: Net, f, alpha, op: OperatorSpec,
                         sup_resolution: int = 129) -> FractalConfig:
    """FractalConfig with base field s = Df."""
    f = as_field(f)
    validate_operator(op, net)
    return make_config(net, f, alpha, apply_operator(op, f, net), sup_resolution)


def apply_fractal_operator(net: Net, f, alpha, op: OperatorSpec,
                           tol: float = 1e-10) -> FractalField:
    """The perturbed field as an evaluable field, F(f)."""
    return FractalField(make_operator_config(net, f, alpha, op), tol=tol)


def _sup_gap(field: FractalField, axes) -> BoundsReport:
    """||Ff - f|| <= a/(1-a) * ||f - s|| for the perturbed ``field`` of a
    config, with sup norms taken as maxima over the tensor grid of
    ``axes``. The margin is the field's certified truncation bound; the
    verdict allows 1e-12 more for rounding. The details carry the scale
    sup, ||f - s|| and the grid sups of f and Ff.
    """
    cfg = field.config
    f_vals, s_vals = mesh_eval_with_base(cfg.f, cfg.s, axes)
    pert_vals = mesh_eval(field, axes)
    lhs = float(np.max(np.abs(pert_vals - f_vals)))
    gap = float(np.max(np.abs(f_vals - s_vals)))
    a = cfg.alpha_sup
    rhs = a / (1.0 - a) * gap
    return BoundsReport(
        name="perturbation_gap",
        lhs=lhs,
        rhs=rhs,
        margin=field.error_bound,
        passed=lhs <= rhs + field.error_bound + 1e-12,
        details={
            "alpha_sup": a,
            "base_gap": gap,
            "f_sup": float(np.max(np.abs(f_vals))),
            "perturbed_sup": float(np.max(np.abs(pert_vals))),
        },
    )


def perturbation_gap(net: Net, f, alpha, op: OperatorSpec,
                     resolution: int = 257, eval_tol: float = 1e-10) -> BoundsReport:
    """Check ||Ff - f|| <= a/(1-a) * ||f - Df|| on a tensor grid.

    The margin is the certified truncation bound of the evaluator. The
    details carry the cruder norm-form variant of the same estimate,
    ||Ff|| - ||f|| <= a*||Id-D||/(1-a) * ||f||, which is also verified.
    """
    cfg = make_operator_config(net, f, alpha, op)
    rep = _sup_gap(FractalField(cfg, tol=eval_tol), box_axes(net.box, resolution))
    a, f_sup = rep.details["alpha_sup"], rep.details["f_sup"]
    _, norm_idd = operator_norms(op, net)
    norm_lhs = rep.details["perturbed_sup"] - f_sup
    norm_rhs = _rate_bound(a, norm_idd) * f_sup
    norm_ok = norm_lhs <= norm_rhs + rep.margin + 1e-12 * max(1.0, norm_rhs)
    rep.details.update(norm_form_lhs=norm_lhs, norm_form_rhs=norm_rhs,
                       norm_form_passed=norm_ok)
    return rep


def linearity_check(net: Net, alpha, op: OperatorSpec, f1, f2,
                    c1: float, c2: float, n_points: int = 200,
                    seed: int = 0, tol: float = 1e-8,
                    eval_tol: float = 1e-10):
    """Compare F(c1*f1 + c2*f2) with c1*F(f1) + c2*F(f2) at random points.

    All three fields are evaluated at a common chain depth so the
    discrepancy reflects rounding plus truncation, not depth skew.
    """
    f1, f2 = as_field(f1), as_field(f2)
    combo = LinCombField((float(c1), float(c2)), (f1, f2))
    cfg1 = make_operator_config(net, f1, alpha, op)
    cfg2 = make_operator_config(net, f2, alpha, op)
    cfgc = make_operator_config(net, combo, alpha, op)
    depth = max(
        FractalField(cfg1, tol=eval_tol).depth,
        FractalField(cfg2, tol=eval_tol).depth,
        FractalField(cfgc, tol=eval_tol).depth,
    )
    g1 = FractalField(cfg1, tol=eval_tol, depth=depth)
    g2 = FractalField(cfg2, tol=eval_tol, depth=depth)
    gc = FractalField(cfgc, tol=eval_tol, depth=depth)

    rng = np.random.default_rng(seed)
    pts = np.empty((n_points, net.dim))
    for q, (lo, hi) in enumerate(net.box.bounds):
        pts[:, q] = lo + (hi - lo) * rng.random(n_points)
    coords = [pts[:, q] for q in range(net.dim)]
    lhs_vals = mesh_like(gc, coords)
    rhs_vals = c1 * mesh_like(g1, coords) + c2 * mesh_like(g2, coords)
    err = float(np.max(np.abs(lhs_vals - rhs_vals)))
    # the three truncations are certified, so they extend the allowance
    margin = gc.error_bound + abs(c1) * g1.error_bound + abs(c2) * g2.error_bound
    return CheckReport(
        name="linearity",
        max_error=err,
        tol=tol,
        passed=err <= tol + margin,
        details={"depth": depth, "margin": margin, "n_points": n_points},
    )


def operator_norm_upper(net: Net, alpha, op: OperatorSpec,
                        resolution: int = 129) -> float:
    """Norm bound 1 + a*||Id-D||/(1-a); AdmissibilityError if sup|alpha| >= 1."""
    a = _scale_sup(alpha, net, resolution)
    _, norm_idd = operator_norms(op, net, resolution)
    return 1.0 + _rate_bound(a, norm_idd)


def operator_norm_check(net: Net, alpha, op: OperatorSpec, samples,
                        resolution: int = 257, eval_tol: float = 1e-10,
                        slack: float = 1e-6) -> BoundsReport:
    """Empirical ratios ||Ff|| / ||f|| over sample fields stay below the
    norm bound; grid sups on both sides, hence the relative slack."""
    samples = list(samples)
    upper = operator_norm_upper(net, alpha, op)
    axes = box_axes(net.box, resolution)
    worst = 0.0
    margin = 0.0
    for f in samples:
        field = apply_fractal_operator(net, f, alpha, op, tol=eval_tol)
        f_sup = float(np.max(np.abs(mesh_eval(as_field(f), axes))))
        if f_sup == 0.0:
            continue
        ratio = float(np.max(np.abs(mesh_eval(field, axes)))) / f_sup
        margin = max(margin, field.error_bound / f_sup)
        worst = max(worst, ratio)
    passed = worst <= upper * (1.0 + slack) + margin
    return BoundsReport(
        name="operator_norm",
        lhs=worst,
        rhs=upper,
        margin=margin,
        passed=passed,
        details={"n_samples": len(samples)},
    )


def bounded_below_check(net: Net, f, alpha, op: OperatorSpec,
                        resolution: int = 257, eval_tol: float = 1e-10,
                        slack: float = 1e-6) -> BoundsReport:
    """Check ||f|| <= (1+a)/(1 - a*||D||) * ||Ff||, valid for a*||D|| < 1."""
    norm_d, _ = operator_norms(op, net)
    cfg = make_operator_config(net, f, alpha, op)
    a = cfg.alpha_sup
    if a * norm_d >= 1.0:
        raise AdmissibilityError(
            f"lower bound needs sup|alpha|*||D|| < 1, got {a * norm_d}"
        )
    field = FractalField(cfg, tol=eval_tol)
    axes = box_axes(net.box, resolution)
    lhs = float(np.max(np.abs(mesh_eval(cfg.f, axes))))
    pert_sup = float(np.max(np.abs(mesh_eval(field, axes))))
    factor = _inverse_norm_bound(a, norm_d)
    rhs = factor * pert_sup
    margin = factor * field.error_bound
    passed = lhs <= rhs * (1.0 + slack) + margin
    return BoundsReport(
        name="bounded_below",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        passed=passed,
        details={"factor": factor, "alpha_sup": a, "norm_d": norm_d},
    )


def _solver_config(net: Net, f, alpha, s, alpha_sup: float, axes) -> FractalConfig:
    # internal: grid-solver configs, admissible by construction (D keeps the
    # corner values of f; neumann_inverse checks sup|alpha| < 1 once, in
    # _rate_bound). The gap estimate is taken on the solver grid.
    gap = float(np.max(np.abs(np.subtract(*mesh_eval_with_base(f, s, axes)))))
    return FractalConfig(net=net, f=f, alpha=alpha, s=s, alpha_sup=alpha_sup, fs_gap=gap)


def neumann_inverse(net: Net, alpha, op: OperatorSpec, target,
                    resolution, tol: float = 1e-6, max_outer: int = 500,
                    inner_tol: float | None = None,
                    require_precondition: bool = True,
                    norm_slack: float = 1e-3) -> NeumannResult:
    """Solve F(f) = target by the residual iteration f <- f + (target - Ff).

    The iteration is the Neumann series for F^{-1}: the error contracts
    by at least rate_bound = a*||Id-D||/(1-a) per step, which must be
    below 1 (equivalently a < 1/(1 + ||Id-D||)). Each application of F is
    computed to ``inner_tol`` by grid fixed-point sweeps; residual ratios
    are measured only while both residuals sit safely above that noise
    floor. The recovered field is also checked against the inverse norm
    bound (1+a)/(1 - a*||D||). AdmissibilityError when sup|alpha| >= 1.
    """
    alpha = as_field(alpha)
    target = as_field(target)
    validate_operator(op, net)
    norm_d, norm_idd = operator_norms(op, net)
    a = _scale_sup(alpha, net)
    rate_bound = _rate_bound(a, norm_idd)
    pre_ok = rate_bound < 1.0
    if require_precondition and not pre_ok:
        raise AdmissibilityError(
            f"inversion needs sup|alpha| < 1/(1 + ||Id-D||) = "
            f"{1.0 / (1.0 + norm_idd):.6g}, got {a}"
        )
    if inner_tol is None:
        inner_tol = tol * 1e-3

    axes = box_axes(net.box, resolution)
    g_vals = mesh_eval(target, axes)
    f_vals = g_vals.copy()
    residuals = []
    for iteration in range(1, max_outer + 1):
        current = NetInterpolant(axes, f_vals)
        s = apply_operator(op, current, net)
        cfg = _solver_config(net, current, alpha, s, a, axes)
        solved = solve_fixed_point_grid(cfg, resolution, tol=inner_tol)
        ff_vals = solved.grid.values
        residual = float(np.max(np.abs(g_vals - ff_vals)))
        residuals.append(residual)
        if residual <= tol:
            break
        f_vals = f_vals + (g_vals - ff_vals)
    else:
        raise IterationError(
            f"no convergence to residual {tol:.3e} in {max_outer} iterations "
            f"(last residual {residuals[-1]:.3e})",
            residuals[-1],
        )

    floor = max(tol, 100.0 * inner_tol)
    ratios = [
        residuals[i + 1] / residuals[i]
        for i in range(1, len(residuals) - 1)
        if residuals[i + 1] > floor and residuals[i] > floor
    ]
    measured = float(np.exp(np.mean(np.log(ratios)))) if ratios else math.nan

    inv_bound = _inverse_norm_bound(a, norm_d) if a * norm_d < 1.0 else math.inf
    recovered_norm = float(np.max(np.abs(f_vals)))
    target_norm = float(np.max(np.abs(g_vals)))
    norm_ok = recovered_norm <= inv_bound * target_norm * (1.0 + norm_slack) + 1e-12

    f_vals = np.array(f_vals)
    f_vals.setflags(write=False)
    return NeumannResult(
        grid=GridFunction(axes=tuple(axes), values=f_vals),
        iterations=iteration,
        residuals=tuple(residuals),
        rate_bound=rate_bound,
        measured_rate=measured,
        precondition_ok=pre_ok,
        inverse_norm_bound=inv_bound,
        recovered_norm=recovered_norm,
        target_norm=target_norm,
        norm_bound_ok=norm_ok,
    )


def fixed_point_check(net: Net, f, alpha, op: OperatorSpec,
                      resolution: int = 257, eval_tol: float = 1e-10,
                      tol: float = 1e-8):
    """Fields with Df = f are fixed by the perturbation operator.

    The report's tolerance widens when Df only approximately equals f,
    following the a/(1-a) scaling of the exact statement.
    """
    cfg = make_operator_config(net, f, alpha, op)
    rep = _sup_gap(FractalField(cfg, tol=eval_tol), box_axes(net.box, resolution))
    limit = max(tol, rep.rhs + rep.margin + 1e-12)
    return CheckReport(
        name="fixed_point",
        max_error=rep.lhs,
        tol=limit,
        passed=rep.lhs <= limit,
        details={"d_gap": rep.details["base_gap"], "margin": rep.margin},
    )


def alpha_sequence_convergence(net: Net, f, base, scales,
                               resolution: int = 257,
                               eval_tol: float = 1e-10):
    """Errors ||f^(a_n) - f|| for a vanishing sequence of constant scales.

    ``base`` is either an OperatorSpec or an explicit base field s; the
    per-step bound is a_n/(1-a_n) * ||f - s||, so the errors decay to 0
    with the scales. Returns one ConvergenceStep per scale.
    """
    f = as_field(f)
    if isinstance(base, OperatorSpec):
        validate_operator(base, net)
        s = apply_operator(base, f, net)
    else:
        s = as_field(base)
    axes = box_axes(net.box, resolution)
    steps = []
    for a_n in scales:
        cfg = make_config(net, f, float(a_n), s)
        rep = _sup_gap(FractalField(cfg, tol=eval_tol), axes)
        steps.append(ConvergenceStep(
            parameter=cfg.alpha_sup, error=rep.lhs, bound=rep.rhs, passed=rep.passed,
        ))
    return tuple(steps)


def operator_sequence_convergence(net: Net, f, alpha, blend_weights,
                                  resolution: int = 257,
                                  eval_tol: float = 1e-10):
    """Errors for base maps degenerating to the identity.

    Uses the blend family D_t, which keeps node values of f for every t
    and satisfies D_t f -> f as t -> 0; the errors obey the per-step
    bound a/(1-a) * ||f - D_t f|| and vanish with t.
    """
    axes = box_axes(net.box, resolution)
    steps = []
    for t in blend_weights:
        cfg = make_operator_config(net, f, alpha, blend_operator(t))
        rep = _sup_gap(FractalField(cfg, tol=eval_tol), axes)
        steps.append(ConvergenceStep(
            parameter=float(t), error=rep.lhs, bound=rep.rhs, passed=rep.passed,
        ))
    return tuple(steps)


def vanishing_invariance_check(net: Net, alpha, op: OperatorSpec, f0,
                               r_max: int = 3, eval_tol: float = 1e-9,
                               tol: float = 1e-8):
    """Iterates of the operator keep node-vanishing fields node-vanishing.

    Starting from a field that is 0 at every net node, apply the operator
    r_max times and record the largest node value seen across iterates;
    the interpolation property makes the true values exactly 0, so the
    measurement exposes only evaluator error.
    """
    pts = node_points(net)
    coords = [pts[:, q] for q in range(net.dim)]
    current = as_field(f0)
    start = float(np.max(np.abs(mesh_like(current, coords))))
    if start > 1e-12:
        raise ValueError(f"seed field must vanish at the net nodes, max {start}")
    worst = start
    for _ in range(r_max):
        cfg = make_operator_config(net, current, alpha, op)
        current = FractalField(cfg, tol=eval_tol)
        worst = max(worst, float(np.max(np.abs(mesh_like(current, coords)))))
    return CheckReport(
        name="vanishing_invariance",
        max_error=worst,
        tol=tol,
        passed=worst <= tol,
        details={"iterates": r_max},
    )
