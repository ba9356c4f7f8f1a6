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

where a = sup|alpha|. Norms written ||.|| are sup norms, and measured values
are tensor-grid estimates. Each check returns a ``CheckReport``.
``fractal_operator`` fixes (net, alpha, D) once, with sup|alpha| taken
once, and every check takes that ``FractalOperator``.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from ._fields import (
    BlendField,
    ConstantField,
    LinCombField,
    NetInterpolant,
    ProductField,
    _open_mesh,
    as_field,
    box_axes,
    grid_sup_norm,
    mesh_eval,
    mesh_like,
    with_gaps,
)
from .fractal_core import (
    AdmissibilityError,
    CheckReport,
    FractalConfig,
    FractalField,
    IterationError,
    _GridSweep,
    _blend_configs,
    _config,
    _samples,
    _scale_sup,
    make_config,
)
from .net import Net, node_arrays, node_points

__all__ = [
    "OperatorSpec",
    "NeumannResult",
    "identity_operator",
    "multiplication_operator",
    "blend_operator",
    "validate_operator",
    "apply_operator",
    "operator_norms",
    "fractal_operator",
    "make_operator_config",
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
    builds the blend base as a ``BlendField``, whose gap f - s the chain and
    the gap measurements form from f values they already hold.
    """

    kind: str
    b: object = None
    t: float = 0.0


@dataclass(frozen=True, eq=False)
class NeumannResult:
    """Outcome of inverting the perturbation operator by residual
    iteration on a uniform grid."""

    grid: NetInterpolant
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
    of (1-t)*f and t*(node interpolant of f on ``net``), value for value;
    ``with_gap`` forms its gap t*(f - I f) from f values a caller already
    holds, with one evaluation of f per point instead of two.
    """
    f = as_field(f)
    if op.kind == "identity":
        return f
    if op.kind == "multiplication":
        return ProductField(as_field(op.b), f)
    if op.kind == "blend":
        nodes = node_arrays(net)
        interp = NetInterpolant(nodes, mesh_eval(f, nodes))
        return BlendField((1.0 - op.t, op.t), (f, interp))
    raise ValueError(f"unknown operator kind {op.kind!r}")


def operator_norms(op: OperatorSpec, net: Net):
    """Upper bounds (norm of D, norm of Id - D) entering the estimates.

    Multiplication: sups of |b| and |1 - b| over a grid of 129 points per
    axis. Blend: ||D|| <= 1 since node interpolation is a positive
    unit-norm map; for Id - D the bound is t, its norm on the
    node-vanishing subspace, where the interpolant term drops out and
    (Id - D)f = t*f pointwise. That subspace is where
    inversion residuals live (Id minus the perturbation operator lands in
    it), so it is the norm the Neumann analysis runs on.
    """
    if op.kind == "identity":
        return 1.0, 0.0
    if op.kind == "multiplication":
        b = as_field(op.b)
        norm_d = grid_sup_norm(b, net.box, 129)
        one_minus = LinCombField((1.0, -1.0), (ConstantField(1.0), b))
        return norm_d, grid_sup_norm(one_minus, net.box, 129)
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


@dataclass(frozen=True, eq=False)
class FractalOperator:
    """The fractal operator f -> F(f) of a net, a scale field alpha and a
    base map D, with a = sup|alpha| taken once (``alpha_sup``: exact for a
    constant alpha, a certified upper bound for a polynomial one, else the
    maximum over a grid of ``sup_resolution`` points per axis; see
    ``fractal_core._scale_sup``). Not exported: the constructor trusts
    ``alpha_sup``, so build it with ``fractal_operator``, which validates D
    and takes the sup. a >= 1 is not refused here but by each use that
    needs a contraction.

    F(f) is built once per field object f and tolerance for as long as
    some caller holds it: the operator keeps a weak reference to each such
    ``FractalField``, and with the field its last grid sample, so that
    checks applying F to the same f share one chain per grid. A field
    nobody holds any more is let go, sample and all; the references go
    with the operator, and a copy made with ``dataclasses.replace`` starts
    with none. A number or a plain callable is not a field object; each
    call builds its F(f) anew."""

    net: Net
    alpha: object
    op: OperatorSpec
    alpha_sup: float
    sup_resolution: int = 129

    @functools.cached_property
    def norms(self):
        """(||D||, ||Id - D||) from ``operator_norms``, taken on first read."""
        return operator_norms(self.op, self.net)

    def config(self, f) -> FractalConfig:
        """The FractalConfig of f with base field s = Df and this operator's
        scale sup; AdmissibilityError as ``make_config``."""
        f = as_field(f)
        return _config(self.net, f, self.alpha, apply_operator(self.op, f, self.net),
                       self.alpha_sup, self.sup_resolution)

    @functools.cached_property
    def _applied(self) -> weakref.WeakValueDictionary:
        """F(f) by (id(f), tol) while it is held. F(f) holds f, so that no
        other object can take f's id while its entry is here."""
        return weakref.WeakValueDictionary()

    def __call__(self, f, tol: float = 1e-10) -> FractalField:
        """F(f) as an evaluable field, the same one for the same f and tol
        while it is held."""
        if as_field(f) is not f:
            return FractalField(self.config(f), tol=tol)
        key = (id(f), tol)
        field = self._applied.get(key)
        if field is None:
            field = self._applied[key] = FractalField(self.config(f), tol=tol)
        return field


def fractal_operator(net: Net, alpha, op: OperatorSpec,
                     sup_resolution: int = 129) -> FractalOperator:
    """Validate D on ``net`` and take sup|alpha| once."""
    validate_operator(op, net)
    alpha = as_field(alpha)
    return FractalOperator(net=net, alpha=alpha, op=op,
                           alpha_sup=_scale_sup(alpha, net, sup_resolution),
                           sup_resolution=sup_resolution)


def make_operator_config(net: Net, f, alpha, op: OperatorSpec,
                         sup_resolution: int = 129) -> FractalConfig:
    """FractalConfig with base field s = Df: ``fractal_operator(...).config(f)``."""
    return fractal_operator(net, alpha, op, sup_resolution).config(f)


def _sup_gap(field: FractalField, axes) -> CheckReport:
    """||Ff - f|| <= a/(1-a) * ||f - s|| for the perturbed ``field`` of a
    config: ``_sup_gaps`` of the one field."""
    return _sup_gaps([field], axes)[0]


def _sup_gaps(fields, axes) -> list:
    """||Ff - f|| <= a/(1-a) * ||f - s|| for the perturbed field of each
    config, with sup norms taken as maxima over the tensor grid of
    ``axes``: the fields (one net) are sampled in one chain walk, and f and
    f - s of all of them are evaluated together (``with_gaps``). Each
    report's ``rhs`` is that ``bound`` plus the ``margin``, the field's
    certified truncation bound; the verdict allows 1e-12 more for rounding.
    The details also carry the scale sup, ||f - s|| and the grid sups of f
    and Ff.
    """
    mesh = _open_mesh(axes)
    perturbed = _samples(fields, mesh)
    gaps = with_gaps([(fld.config.f, fld.config.s) for fld in fields], mesh)
    reports = []
    for field, pert_vals, (f_vals, gap_vals) in zip(fields, perturbed, gaps):
        lhs = float(np.max(np.abs(pert_vals - f_vals)))
        gap = float(np.max(np.abs(gap_vals)))
        a = field.config.alpha_sup
        bound = a / (1.0 - a) * gap
        rhs = bound + field.error_bound
        reports.append(CheckReport(
            name="perturbation_gap",
            lhs=lhs,
            rhs=rhs,
            passed=lhs <= rhs + 1e-12,
            details={
                "bound": bound,
                "margin": field.error_bound,
                "alpha_sup": a,
                "base_gap": gap,
                "f_sup": float(np.max(np.abs(f_vals))),
                "perturbed_sup": float(np.max(np.abs(pert_vals))),
            },
        ))
    return reports


def perturbation_gap(F: FractalOperator, f, resolution: int = 257,
                     eval_tol: float = 1e-10) -> CheckReport:
    """Check ||Ff - f|| <= a/(1-a) * ||f - Df|| on a tensor grid.

    The margin is the certified truncation bound of the evaluator. The
    details carry the cruder norm-form variant of the same estimate,
    ||Ff|| - ||f|| <= a*||Id-D||/(1-a) * ||f||, which is also verified.
    """
    rep = _sup_gap(F(f, tol=eval_tol), box_axes(F.net.box, resolution))
    a, f_sup = rep.details["alpha_sup"], rep.details["f_sup"]
    _, norm_idd = F.norms
    norm_lhs = rep.details["perturbed_sup"] - f_sup
    norm_rhs = _rate_bound(a, norm_idd) * f_sup
    norm_ok = norm_lhs <= norm_rhs + rep.details["margin"] + 1e-12 * max(1.0, norm_rhs)
    rep.details.update(norm_form_lhs=norm_lhs, norm_form_rhs=norm_rhs,
                       norm_form_passed=norm_ok)
    return rep


def linearity_check(F: FractalOperator, f1, f2,
                    c1: float, c2: float, n_points: int = 200,
                    seed: int = 0, tol: float = 1e-8,
                    eval_tol: float = 1e-10):
    """Compare F(c1*f1 + c2*f2) with c1*F(f1) + c2*F(f2) at random points.

    All three fields are evaluated at a common chain depth so the
    discrepancy reflects rounding plus truncation, not depth skew.
    """
    f1, f2 = as_field(f1), as_field(f2)
    combo = LinCombField((float(c1), float(c2)), (f1, f2))
    net = F.net
    cfg1, cfg2, cfgc = F.config(f1), F.config(f2), F.config(combo)
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
    return CheckReport(name="linearity", lhs=err, rhs=tol, passed=err <= tol + margin,
                       details={"depth": depth, "margin": margin, "n_points": n_points})


def operator_norm_upper(F: FractalOperator) -> float:
    """Norm bound 1 + a*||Id-D||/(1-a); AdmissibilityError if sup|alpha| >= 1."""
    return 1.0 + _rate_bound(F.alpha_sup, F.norms[1])


def operator_norm_check(F: FractalOperator, samples, resolution: int = 257,
                        eval_tol: float = 1e-10, slack: float = 1e-6) -> CheckReport:
    """Empirical ratios ||Ff|| / ||f|| over sample fields stay below the
    norm bound ``rhs``; grid sups on both sides, hence the relative slack,
    and the truncation bounds relative to ||f|| widen it by ``margin``.
    The F(f) of the samples are sampled in one chain walk."""
    samples = list(samples)
    upper = operator_norm_upper(F)
    axes = box_axes(F.net.box, resolution)
    fields = [F(f, tol=eval_tol) for f in samples]
    f_sups = [float(np.max(np.abs(mesh_eval(as_field(f), axes)))) for f in samples]
    # the fields of the nonzero samples, sampled in one chain walk
    nonzero = [(fld, f_sup) for fld, f_sup in zip(fields, f_sups) if f_sup != 0.0]
    perturbed = _samples([fld for fld, _ in nonzero], _open_mesh(axes))
    worst = 0.0
    margin = 0.0
    for (field, f_sup), pert_vals in zip(nonzero, perturbed):
        ratio = float(np.max(np.abs(pert_vals))) / f_sup
        margin = max(margin, field.error_bound / f_sup)
        worst = max(worst, ratio)
    return CheckReport(name="operator_norm", lhs=worst, rhs=upper,
                       passed=worst <= upper * (1.0 + slack) + margin,
                       details={"margin": margin, "n_samples": len(samples)})


def bounded_below_check(F: FractalOperator, f, resolution: int = 257,
                        eval_tol: float = 1e-10, slack: float = 1e-6) -> CheckReport:
    """Check ||f|| <= (1+a)/(1 - a*||D||) * ||Ff||, valid for a*||D|| < 1.

    ``rhs`` is that ``bound`` plus the truncation ``margin`` scaled by the
    same factor; the verdict also allows the relative slack on the bound."""
    norm_d, _ = F.norms
    a = F.alpha_sup
    if a * norm_d >= 1.0:
        raise AdmissibilityError(
            f"lower bound needs sup|alpha|*||D|| < 1, got {a * norm_d}"
        )
    field = F(f, tol=eval_tol)
    axes = box_axes(F.net.box, resolution)
    lhs = float(np.max(np.abs(mesh_eval(field.config.f, axes))))
    pert_sup = float(np.max(np.abs(mesh_eval(field, axes))))
    factor = _inverse_norm_bound(a, norm_d)
    bound = factor * pert_sup
    margin = factor * field.error_bound
    return CheckReport(name="bounded_below", lhs=lhs, rhs=bound + margin,
                       passed=lhs <= bound * (1.0 + slack) + margin,
                       details={"bound": bound, "margin": margin, "factor": factor,
                                "alpha_sup": a, "norm_d": norm_d})


def neumann_inverse(F: FractalOperator, target, resolution, tol: float = 1e-6,
                    max_outer: int = 500, inner_tol: float | None = None,
                    require_precondition: bool = True,
                    norm_slack: float = 1e-3) -> NeumannResult:
    """Solve F(f) = target by the residual iteration f <- f + (target - Ff).

    The iteration is the Neumann series for F^{-1}: the error contracts
    by at least rate_bound = a*||Id-D||/(1-a) per step, which must be
    below 1 (equivalently a < 1/(1 + ||Id-D||)). Each application of F is
    computed to ``inner_tol`` by grid fixed-point sweeps, the iteration of
    ``solve_fixed_point_grid``, whose grid-fixed parts (the preimage mesh,
    its cells and weights, and alpha on the grid) are prepared once per
    inversion; residual ratios are measured only while both residuals sit
    safely above that noise floor. The recovered field is also checked
    against the inverse norm bound (1+a)/(1 - a*||D||). AdmissibilityError
    when sup|alpha| >= 1.
    """
    net, alpha, op, a = F.net, F.alpha, F.op, F.alpha_sup
    target = as_field(target)
    norm_d, norm_idd = F.norms
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
    sweep = _GridSweep(net, alpha, axes)
    g_vals = mesh_eval(target, axes)
    f_vals = g_vals.copy()
    residuals = []
    for iteration in range(1, max_outer + 1):
        current = NetInterpolant(axes, f_vals)
        ff_vals = sweep.solve(current, apply_operator(op, current, net), a,
                              tol=inner_tol).grid.values
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

    return NeumannResult(
        grid=NetInterpolant(axes, f_vals),
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


def fixed_point_check(F: FractalOperator, f, resolution: int = 257,
                      eval_tol: float = 1e-10, tol: float = 1e-8):
    """Fields with Df = f are fixed by the perturbation operator.

    The report's tolerance widens when Df only approximately equals f,
    following the a/(1-a) scaling of the exact statement.
    """
    rep = _sup_gap(F(f, tol=eval_tol), box_axes(F.net.box, resolution))
    limit = max(tol, rep.rhs + 1e-12)
    return CheckReport(name="fixed_point", lhs=rep.lhs, rhs=limit, passed=rep.lhs <= limit,
                       details={"d_gap": rep.details["base_gap"],
                                "margin": rep.details["margin"]})


def alpha_sequence_convergence(net: Net, f, base, scales,
                               resolution: int = 257,
                               eval_tol: float = 1e-10):
    """Errors ||f^(a_n) - f|| for a vanishing sequence of constant scales.

    ``base`` is either an OperatorSpec or an explicit base field s; the
    per-step bound is a_n/(1-a_n) * ||f - s||, so the errors decay to 0
    with the scales. The gap f - s does not depend on the scale, so the
    config is built once and each scale replaces its alpha; the fields of
    all scales share f and s, and are sampled in one chain walk, which
    evaluates f and f - s once per level for all of them. See
    ``_sequence_report`` for the report.
    """
    f = as_field(f)
    if isinstance(base, OperatorSpec):
        validate_operator(base, net)
        s = apply_operator(base, f, net)
    else:
        s = as_field(base)
    cfg = make_config(net, f, float(scales[0]), s)
    fields = []
    for a_n in map(float, scales):
        if not abs(a_n) < 1.0:
            make_config(net, f, a_n, s)  # raises make_config's AdmissibilityError
        scaled = replace(cfg, alpha=ConstantField(a_n), alpha_sup=abs(a_n))
        fields.append(FractalField(scaled, tol=eval_tol))
    return _sequence_report("scale_sequence", _sup_gaps(fields, box_axes(net.box, resolution)))


def _sequence_report(name: str, steps) -> CheckReport:
    """One report of a convergence sequence: ``lhs`` and ``rhs`` are the
    last step's error and bound, and it passes when every step passes. The
    steps' ``_sup_gap`` reports are ``details["steps"]``."""
    return CheckReport(name=name, lhs=steps[-1].lhs, rhs=steps[-1].details["bound"],
                       passed=all(st.passed for st in steps),
                       details={"steps": tuple(steps)})


def operator_sequence_convergence(F: FractalOperator, f, blend_weights,
                                  resolution: int = 257,
                                  eval_tol: float = 1e-10):
    """Errors for base maps degenerating to the identity.

    Uses the blend family D_t, which keeps node values of f for every t
    and satisfies D_t f -> f as t -> 0; the errors obey the per-step
    bound a/(1-a) * ||f - D_t f|| and vanish with t. Only F's net, alpha
    and sup|alpha| are used: F.op is not read, each D_t takes its place.

    All D_t share one node interpolant I f, and their configs one gap
    G = sup |f - I f|, scaled by t (``fractal_core._blend_configs``): each
    config's gap is the number a config of its own would take, bit for
    bit. The fields of all t are sampled in one chain walk, which
    evaluates f and I f once per level for all of them. See
    ``_sequence_report`` for the report.
    """
    f = as_field(f)
    weights = [blend_operator(t).t for t in blend_weights]
    nodes = node_arrays(F.net)
    interp = NetInterpolant(nodes, mesh_eval(f, nodes))
    fields = [FractalField(cfg, tol=eval_tol)
              for cfg in _blend_configs(F.net, f, F.alpha, interp, weights,
                                        F.alpha_sup, F.sup_resolution)]
    return _sequence_report("operator_sequence",
                            _sup_gaps(fields, box_axes(F.net.box, resolution)))


def vanishing_invariance_check(F: FractalOperator, f0, r_max: int = 3,
                               eval_tol: float = 1e-9, tol: float = 1e-8):
    """Iterates of the operator keep node-vanishing fields node-vanishing.

    Starting from a field that is 0 at every net node, apply the operator
    r_max times and record the largest node value seen across iterates;
    the interpolation property makes the true values exactly 0, so the
    measurement exposes only evaluator error.
    """
    pts = node_points(F.net)
    coords = [pts[:, q] for q in range(F.net.dim)]
    current = as_field(f0)
    start = float(np.max(np.abs(mesh_like(current, coords))))
    if start > 1e-12:
        raise ValueError(f"seed field must vanish at the net nodes, max {start}")
    worst = start
    for _ in range(r_max):
        current = F(current, tol=eval_tol)
        worst = max(worst, float(np.max(np.abs(mesh_like(current, coords)))))
    return CheckReport(name="vanishing_invariance", lhs=worst, rhs=tol, passed=worst <= tol,
                       details={"iterates": r_max})
