"""Integral norms and the complexified perturbation operator.

Composite trapezoid tensor quadrature supplies L^p norms, 1 <= p < inf,
over the box. The perturbation inequality transfers verbatim from sup to
L^p norms because one sweep of the cell maps preserves integral mass (the
per-axis contraction magnitudes sum to 1 on each axis), and the operator
extends to complex-valued fields componentwise. The constant
M = 2^(1/2 + 1/p) controls the complex extension; for p >= 2 it sharpens
to 2^(1/2 - 1/p), which is 1 at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import _open_mesh, as_field, box_axes, mesh_eval, with_gap
from .fractal_core import CheckReport, FractalField, _samples
from .operator_props import FractalOperator

__all__ = [
    "QuadratureRule",
    "quadrature_rule",
    "lp_norm",
    "m_constant",
    "refined_m_constant",
    "ComplexFieldPair",
    "complexify_apply",
    "lp_perturbation_gap",
    "complex_perturbation_gap",
    "complex_l2_identity_check",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Composite trapezoid rule on a tensor grid, stored per axis.

    Integration contracts the value array one axis at a time, so the full
    tensor weight array is never materialized.
    """

    axes: tuple
    axis_weights: tuple

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    def integrate_values(self, values) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.shape}")
        out = values
        for w in reversed(self.axis_weights):
            out = out @ w
        return float(out)

    def integrate(self, field) -> float:
        return self.integrate_values(mesh_eval(field, self.axes))

    @property
    def weight_sum(self) -> float:
        return math.prod(float(np.sum(w)) for w in self.axis_weights)


def quadrature_rule(box, resolution) -> QuadratureRule:
    """Build the rule; per-axis point counts must be odd and >= 3 so the
    grids refine dyadically and contain every axis midpoint."""
    axes = box_axes(box, resolution)
    weights = []
    for a in axes:
        if a.size < 3 or a.size % 2 == 0:
            raise ValueError(f"per-axis resolution must be odd and >= 3, got {a.size}")
        h = (a[-1] - a[0]) / (a.size - 1)
        w = np.full(a.size, h)
        w[0] = w[-1] = h / 2.0
        weights.append(w)
    return QuadratureRule(axes=tuple(axes), axis_weights=tuple(weights))


def _abs_values(field, axes) -> np.ndarray:
    if isinstance(field, ComplexFieldPair):
        return np.hypot(mesh_eval(field.real, axes), mesh_eval(field.imag, axes))
    return np.abs(mesh_eval(field, axes))


def lp_norm(field, rule: QuadratureRule, p: float) -> float:
    """(integral of |field|^p)^(1/p) under the rule; accepts real fields,
    grid value arrays of the rule's shape, or ComplexFieldPair. Scaled by
    the largest |value| m first, so large p neither underflows nor overflows.
    """
    if p < 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    if isinstance(field, np.ndarray):
        vals = np.abs(field)
    else:
        vals = _abs_values(field, rule.axes)
    m = float(np.max(vals))
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float(rule.integrate_values((vals / m) ** p) ** (1.0 / p))


def m_constant(p: float) -> float:
    """M = 2^(1/2 + 1/p)."""
    if p < 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    return 2.0 ** (0.5 + 1.0 / p)


def refined_m_constant(p: float) -> float:
    """2^(1/2 - 1/p), valid for p >= 2; equals 1 at p = 2."""
    if p < 2:
        raise ValueError(f"refined constant needs p >= 2, got {p}")
    return 2.0 ** (0.5 - 1.0 / p)


@dataclass(frozen=True, eq=False)
class ComplexFieldPair:
    """Complex-valued field stored as (real part, imaginary part)."""

    real: object
    imag: object

    def __call__(self, point) -> complex:
        return complex(float(self.real(point)), float(self.imag(point)))

    def scaled(self, c: complex) -> "ComplexFieldPair":
        """Multiply by a complex scalar, staying in pair form."""
        from ._fields import LinCombField

        c = complex(c)
        re = LinCombField((c.real, -c.imag), (as_field(self.real), as_field(self.imag)))
        im = LinCombField((c.imag, c.real), (as_field(self.real), as_field(self.imag)))
        return ComplexFieldPair(real=re, imag=im)


def complexify_apply(F: FractalOperator, pair: ComplexFieldPair,
                     tol: float = 1e-10) -> ComplexFieldPair:
    """Apply the perturbation operator componentwise: F(f1 + i f2) =
    F(f1) + i F(f2)."""
    return ComplexFieldPair(real=F(pair.real, tol=tol), imag=F(pair.imag, tol=tol))


def _volume(rule: QuadratureRule) -> float:
    return math.prod(float(a[-1] - a[0]) for a in rule.axes)


def lp_perturbation_gap(field: FractalField, rule: QuadratureRule, p: float,
                        slack: float = 0.05) -> CheckReport:
    """Check ||Ff - f||_p <= a/(1-a) * ||f - s||_p for the perturbed
    ``field`` of a config, both sides by quadrature under ``rule``.

    Quadrature on both sides, hence the relative slack; a margin folds the
    evaluator's sup-norm truncation bound into the L^p scale. ``rhs`` is
    the threshold lhs is compared against; ``details`` holds the bare
    ``bound`` a/(1-a) * ||f - s||_p and the norms ``lp_f`` of f and
    ``lp_perturbed`` of Ff."""
    cfg = field.config
    f_vals, gap_vals = with_gap(cfg.f, cfg.s, _open_mesh(rule.axes))
    h_vals = mesh_eval(field, rule.axes)
    lhs = lp_norm(h_vals - f_vals, rule, p)
    gap = lp_norm(gap_vals, rule, p)
    a = cfg.alpha_sup
    bound = a / (1.0 - a) * gap
    margin = field.error_bound * _volume(rule) ** (1.0 / p)
    limit = bound * (1.0 + slack) + margin + 1e-8
    return CheckReport(
        name="lp_perturbation_gap",
        lhs=lhs,
        rhs=limit,
        passed=lhs <= limit,
        details={"p": p, "alpha_sup": a, "base_gap": gap, "bound": bound,
                 "lp_f": lp_norm(f_vals, rule, p), "lp_perturbed": lp_norm(h_vals, rule, p)},
    )


def complex_perturbation_gap(F: FractalOperator, pair: ComplexFieldPair, p: float,
                             resolution: int = 513, eval_tol: float = 1e-10,
                             slack: float = 0.05) -> CheckReport:
    """Check ||F_C(f) - f||_p <= M * a * ||F_C(f) - D_C(f)||_p with
    M = 2^(1/2 + 1/p) and D_C acting componentwise. ``rhs`` is the
    threshold lhs is compared against: that bound with a relative slack
    and the truncation bounds in the L^p scale."""
    rule = quadrature_rule(F.net.box, resolution)
    fld_re, fld_im = F(pair.real, tol=eval_tol), F(pair.imag, tol=eval_tol)
    cfg_re, cfg_im = fld_re.config, fld_im.config
    pert_re = mesh_eval(fld_re, rule.axes)
    pert_im = mesh_eval(fld_im, rule.axes)
    f_re, g_re = with_gap(cfg_re.f, cfg_re.s, _open_mesh(rule.axes))
    f_im, g_im = with_gap(cfg_im.f, cfg_im.s, _open_mesh(rule.axes))
    # pert - s = (pert - f) + (f - s)
    d_re = pert_re - f_re
    d_im = pert_im - f_im
    diff = np.hypot(d_re, d_im)
    gap = np.hypot(d_re + g_re, d_im + g_im)
    lhs = lp_norm(diff, rule, p)
    a = F.alpha_sup
    bound = m_constant(p) * a * lp_norm(gap, rule, p)
    bound_sup = math.hypot(fld_re.error_bound, fld_im.error_bound)
    margin = (1.0 + m_constant(p) * a) * bound_sup * _volume(rule) ** (1.0 / p)
    limit = bound * (1.0 + slack) + margin + 1e-8
    return CheckReport(name="complex_perturbation_gap", lhs=lhs, rhs=limit,
                       passed=lhs <= limit,
                       details={"p": p, "m_constant": m_constant(p), "alpha_sup": a})


def complex_l2_identity_check(F: FractalOperator, pair: ComplexFieldPair,
                              resolution: int = 257,
                              eval_tol: float = 1e-10,
                              tol: float = 1e-6) -> CheckReport:
    """Two L^2 identities of the componentwise complex extension.

    First, the squared norm splits: ||F_C(f)||_2^2 equals
    ||F(f1)||_2^2 + ||F(f2)||_2^2. Second, complex homogeneity:
    F_C(i*f) = i*F_C(f) pointwise on the quadrature grid, which pushes a
    sign and a swap through two independently built perturbations. Both
    are compared in relative terms against ``tol``. The four fields F(f1),
    F(f2) and those of the rotated pair are sampled in one chain walk
    (those with a kept sample of the grid are not chained again).
    """
    rule = quadrature_rule(F.net.box, resolution)
    pert = complexify_apply(F, pair, tol=eval_tol)
    pert_rot = complexify_apply(F, pair.scaled(1j), tol=eval_tol)
    re_vals, im_vals, rot_re, rot_im = _samples(
        [pert.real, pert.imag, pert_rot.real, pert_rot.imag], _open_mesh(rule.axes))

    total_sq = rule.integrate_values(np.hypot(re_vals, im_vals) ** 2)
    split_sq = rule.integrate_values(re_vals**2) + rule.integrate_values(im_vals**2)
    scale = max(1.0, abs(total_sq))
    err_split = abs(total_sq - split_sq) / scale

    # i * (re + i im) = -im + i re
    scale_pt = max(1.0, float(np.max(np.hypot(re_vals, im_vals))))
    err_rot = float(
        max(np.max(np.abs(rot_re + im_vals)), np.max(np.abs(rot_im - re_vals)))
    ) / scale_pt

    err = max(err_split, err_rot)
    return CheckReport(name="complex_l2_identity", lhs=err, rhs=tol, passed=err <= tol,
                       details={"split_error": err_split, "homogeneity_error": err_rot})
