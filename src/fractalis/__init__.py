"""Fractal interpolation and perturbation of continuous fields on a box.

The package builds two related constructions over a rectangular net: the
scale-field perturbation of a continuous field (an attractor-type fixed
point that agrees with the field at every net node) and the classical
multi-axis interpolant driven by a single vertical factor. On top of the
evaluators it ships certified truncation bounds, a grid fixed-point oracle,
operator-level bound checks, integral-norm inequalities with explicit
constants, and polynomial / hat-basis approximation utilities.

The names of ``approx`` and ``lp_space`` load their module on first use
(``__getattr__``), so that the command line's ``surface`` and ``eval``
import neither, nor ``numpy.polynomial``.
"""

import importlib

from ._fields import (
    BlendField,
    CallableField,
    ConstantField,
    LinCombField,
    NetInterpolant,
    ProductField,
    as_field,
    grid_sup_norm,
)
from .field_expr import (
    FieldDomainError,
    FieldExpr,
    FieldParseError,
    parse_field,
)
from .fractal_core import (
    AdmissibilityError,
    ApproximationError,
    CheckReport,
    DeltaFif,
    DeltaFifField,
    FractalConfig,
    FractalField,
    IterationError,
    ToleranceError,
    boundary_consistency_check,
    interpolation_check,
    make_config,
    make_delta_fif,
    required_depth,
    sample_grid,
    solve_fixed_point_grid,
)
from .net import (
    AxisPartition,
    Box,
    CellMap,
    Net,
    build_net,
    cell_map,
    jacobian_sum,
    node_arrays,
    node_points,
)
from .operator_props import (
    NeumannResult,
    OperatorSpec,
    alpha_sequence_convergence,
    apply_operator,
    blend_operator,
    bounded_below_check,
    fixed_point_check,
    fractal_operator,
    identity_operator,
    linearity_check,
    make_operator_config,
    multiplication_operator,
    neumann_inverse,
    operator_norm_check,
    operator_norm_upper,
    operator_norms,
    operator_sequence_convergence,
    perturbation_gap,
    validate_operator,
    vanishing_invariance_check,
)

# names loaded with their module on first use
_LAZY = {
    "approx": (
        "EpsilonApproxResult",
        "HatField",
        "SchauderResult",
        "TensorPolynomial",
        "epsilon_approximate",
        "faber_schauder",
        "fractal_basis_reconstruct",
        "poly_fit_least_squares",
        "schauder_coefficients",
    ),
    "lp_space": (
        "ComplexFieldPair",
        "QuadratureRule",
        "complex_l2_identity_check",
        "complex_perturbation_gap",
        "complexify_apply",
        "lp_norm",
        "lp_perturbation_gap",
        "m_constant",
        "quadrature_rule",
        "refined_m_constant",
    ),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"

__all__ = [
    "AdmissibilityError",
    "ApproximationError",
    "AxisPartition",
    "Box",
    "BlendField",
    "CallableField",
    "CellMap",
    "CheckReport",
    "ComplexFieldPair",
    "ConstantField",
    "DeltaFif",
    "DeltaFifField",
    "EpsilonApproxResult",
    "FieldDomainError",
    "FieldExpr",
    "FieldParseError",
    "FractalConfig",
    "FractalField",
    "HatField",
    "IterationError",
    "LinCombField",
    "Net",
    "NetInterpolant",
    "NeumannResult",
    "OperatorSpec",
    "ProductField",
    "QuadratureRule",
    "SchauderResult",
    "TensorPolynomial",
    "ToleranceError",
    "alpha_sequence_convergence",
    "apply_operator",
    "as_field",
    "blend_operator",
    "boundary_consistency_check",
    "bounded_below_check",
    "build_net",
    "cell_map",
    "complex_l2_identity_check",
    "complex_perturbation_gap",
    "complexify_apply",
    "epsilon_approximate",
    "faber_schauder",
    "fixed_point_check",
    "fractal_basis_reconstruct",
    "fractal_operator",
    "grid_sup_norm",
    "identity_operator",
    "interpolation_check",
    "jacobian_sum",
    "linearity_check",
    "lp_norm",
    "lp_perturbation_gap",
    "m_constant",
    "make_config",
    "make_delta_fif",
    "make_operator_config",
    "multiplication_operator",
    "neumann_inverse",
    "node_arrays",
    "node_points",
    "operator_norm_check",
    "operator_norm_upper",
    "operator_norms",
    "operator_sequence_convergence",
    "parse_field",
    "perturbation_gap",
    "poly_fit_least_squares",
    "quadrature_rule",
    "refined_m_constant",
    "required_depth",
    "sample_grid",
    "schauder_coefficients",
    "solve_fixed_point_grid",
    "validate_operator",
    "vanishing_invariance_check",
]
