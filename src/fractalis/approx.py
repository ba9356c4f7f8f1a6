"""Approximation by perturbed polynomials and a perturbed hat basis.

Dense subsets of the continuous fields stay dense after an invertible
perturbation operator. Two constructive instances:

* given epsilon, fit a tensor polynomial within epsilon/2 of the target,
  then choose the constant scale a < (eps/2) / (eps/2 + ||Id-D||*||p||)
  so the perturbed polynomial lands within epsilon of the target;
* on [0, 1], transport the hat-function basis e_n through the operator:
  g = sum_n b_n F(e_n) with b_n the hat coefficients of F^{-1}(g), found
  by Neumann inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as _P

from ._fields import LinCombField, _Field, _flatten, as_field, box_axes, mesh_eval
from .fractal_core import ApproximationError, FractalField
from .net import Net
from .operator_props import (
    FractalOperator,
    OperatorSpec,
    fractal_operator,
    neumann_inverse,
    operator_norms,
    validate_operator,
)

__all__ = [
    "ApproximationError",
    "TensorPolynomial",
    "poly_fit_least_squares",
    "EpsilonApproxResult",
    "epsilon_approximate",
    "HatField",
    "faber_schauder",
    "schauder_coefficients",
    "SchauderResult",
    "fractal_basis_reconstruct",
]


@dataclass(frozen=True, eq=False)
class TensorPolynomial(_Field):
    """Dense tensor of raw monomial coefficients.

    coeffs[i1, ..., ik] multiplies x1^i1 * ... * xk^ik; evaluation runs a
    nested Horner scheme one axis at a time.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1)
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def degrees(self) -> tuple:
        return tuple(d - 1 for d in self.coeffs.shape)

    def eval_arrays(self, coords) -> np.ndarray:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays")
        shape, flat = _flatten(coords)
        c = _P.polyval(flat[0], self.coeffs, tensor=True)
        for x in flat[1:]:
            c = _P.polyval(x, c, tensor=False)
        return np.asarray(c, dtype=float).reshape(shape)


def _scaled_axis(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (2.0 * a - (lo + hi)) / (hi - lo)


def poly_fit_least_squares(field, box, degrees, resolution=None) -> TensorPolynomial:
    """Least-squares tensor-polynomial fit of ``field`` on a uniform grid.

    The Vandermonde system is assembled in box coordinates scaled to
    [-1, 1] per axis for conditioning, solved densely, and the
    coefficients are mapped back to raw monomials in the original
    coordinates through per-axis binomial expansion. Raises
    ApproximationError when the system is rank deficient.
    """
    field = as_field(field)
    bounds = getattr(box, "bounds", box)
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    degrees = [int(d) for d in degrees]
    if len(degrees) != len(bounds):
        raise ValueError("one degree per axis required")
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    if resolution is None:
        resolution = [max(9, 4 * (d + 1) + 1) for d in degrees]
    axes = box_axes(bounds, resolution)
    for a, d in zip(axes, degrees):
        if a.size < d + 1:
            raise ValueError(f"resolution {a.size} too small for degree {d}")

    design = None
    for a, d, (lo, hi) in zip(axes, degrees, bounds):
        v = np.vander(_scaled_axis(a, lo, hi), d + 1, increasing=True)
        design = v if design is None else np.kron(design, v)
    vals = mesh_eval(field, axes).ravel()
    n_coef = math.prod(d + 1 for d in degrees)
    coef, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < n_coef:
        raise ApproximationError(
            f"rank-deficient fit: rank {rank} < {n_coef} coefficients"
        )
    c = coef.reshape(tuple(d + 1 for d in degrees))

    # push u = a*x + b monomials back to x monomials, one axis at a time
    for q, (d, (lo, hi)) in enumerate(zip(degrees, bounds)):
        a_lin = 2.0 / (hi - lo)
        b_lin = -(lo + hi) / (hi - lo)
        m = np.zeros((d + 1, d + 1))
        for i in range(d + 1):
            for j in range(i + 1):
                m[i, j] = math.comb(i, j) * a_lin**j * b_lin ** (i - j)
        c = np.moveaxis(np.tensordot(m, np.moveaxis(c, q, 0), axes=(0, 0)), 0, q)
    c = np.ascontiguousarray(c)
    c.setflags(write=False)
    return TensorPolynomial(coeffs=c)


@dataclass(frozen=True, eq=False)
class EpsilonApproxResult:
    poly: TensorPolynomial
    alpha: float
    fractal: FractalField
    error: float
    epsilon: float
    components: dict
    passed: bool


def epsilon_approximate(net: Net, f, op: OperatorSpec, epsilon: float,
                        max_degree: int = 10, resolution: int = 257,
                        safety: float = 0.9,
                        eval_tol: float = 1e-10) -> EpsilonApproxResult:
    """Perturbed-polynomial approximation of ``f`` within ``epsilon``.

    Fits polynomials of growing degree until the sup distance drops under
    epsilon/2, then sets the constant scale to ``safety`` times the
    critical value (eps/2) / (eps/2 + ||Id-D||*||p||), which keeps the
    perturbation distance strictly under epsilon/2. The result records
    both triangle legs; ``passed`` is the measured total under epsilon.
    """
    f = as_field(f)
    validate_operator(op, net)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    axes = box_axes(net.box, resolution)
    f_vals = mesh_eval(f, axes)

    poly = None
    fit_err = math.inf
    err = math.inf
    for degree in range(0, max_degree + 1):
        candidate = poly_fit_least_squares(f, net.box, [degree] * net.dim)
        p_vals = mesh_eval(candidate, axes)
        err = float(np.max(np.abs(f_vals - p_vals)))
        if err < epsilon / 2.0:
            poly, fit_err = candidate, err
            break
    else:
        raise ApproximationError(
            f"no polynomial of degree <= {max_degree} comes within "
            f"{epsilon / 2.0} of the target (best {err:.3e})"
        )

    _, norm_idd = operator_norms(op, net)
    p_sup = float(np.max(np.abs(p_vals)))
    x = norm_idd * p_sup
    alpha = safety * (epsilon / 2.0) / (epsilon / 2.0 + x)
    pert_bound = alpha / (1.0 - alpha) * x

    fractal = fractal_operator(net, alpha, op)(poly, tol=eval_tol)
    h_vals = mesh_eval(fractal, axes)
    pert_err = float(np.max(np.abs(h_vals - p_vals)))
    total = float(np.max(np.abs(f_vals - h_vals)))
    passed = total < epsilon
    return EpsilonApproxResult(
        poly=poly,
        alpha=alpha,
        fractal=fractal,
        error=total,
        epsilon=epsilon,
        components={
            "fit_error": fit_err,
            "perturbation_error": pert_err,
            "perturbation_bound": pert_bound,
            "norm_id_minus_d": norm_idd,
            "poly_sup": p_sup,
            "degree": poly.degrees,
        },
        passed=passed,
    )


@dataclass(frozen=True, eq=False)
class HatField(_Field):
    """Piecewise-linear tent on [0, 1]: 0 outside (left, right), 1 at the
    peak. The two leading basis members are the constant 1 (left=right=
    peak sentinel handled by ``faber_schauder``) and the ramp x."""

    left: float
    peak: float
    right: float

    def eval_arrays(self, coords) -> np.ndarray:
        x = np.asarray(coords[0], dtype=float)
        half = self.peak - self.left
        return np.maximum(0.0, 1.0 - np.abs(x - self.peak) / half)


@dataclass(frozen=True, eq=False)
class _RampField(_Field):
    def eval_arrays(self, coords) -> np.ndarray:
        return np.asarray(coords[0], dtype=float)


def faber_schauder(n: int):
    """n-th member of the hat basis on [0, 1], n >= 1.

    e_1 = 1, e_2 = x; for n >= 3, write n - 2 = 2^(l-1) + m - 1 with
    1 <= m <= 2^(l-1): the tent has support [(m-1), m] / 2^(l-1) and peak
    (2m - 1) / 2^l. Dyadic endpoints are exact in floating point.
    """
    if n < 1:
        raise ValueError(f"basis index must be >= 1, got {n}")
    if n == 1:
        from ._fields import ConstantField

        return ConstantField(1.0)
    if n == 2:
        return _RampField()
    idx = n - 2
    level = idx.bit_length()  # l >= 1
    m = idx - 2 ** (level - 1) + 1
    denom = float(2 ** (level - 1))
    left = (m - 1) / denom
    right = m / denom
    peak = (2 * m - 1) / float(2**level)
    return HatField(left=left, peak=peak, right=right)


def schauder_coefficients(g, n_terms: int) -> np.ndarray:
    """Hat-basis coefficients of a function on [0, 1].

    a_1 = g(0), a_2 = g(1) - g(0); for tents, the residual midpoint value
    a_n = g(peak) - (g(left) + g(right)) / 2. Partial sums over full
    dyadic blocks interpolate g at that block's dyadic points.
    """
    g = as_field(g)
    out = np.empty(n_terms)
    if n_terms >= 1:
        out[0] = g((0.0,))
    if n_terms >= 2:
        out[1] = g((1.0,)) - g((0.0,))
    for n in range(3, n_terms + 1):
        tent = faber_schauder(n)
        gl = g((tent.left,))
        gr = g((tent.right,))
        gp = g((tent.peak,))
        out[n - 1] = gp - (gl + gr) / 2.0
    return out


@dataclass(frozen=True, eq=False)
class SchauderResult:
    coefficients: np.ndarray
    partial_errors: tuple
    inverse_residual: float
    rate_bound: float


def fractal_basis_reconstruct(F: FractalOperator, g, n_terms: int = 33,
                              resolution: int = 1025, inversion_tol: float = 1e-7,
                              check_resolution: int = 257,
                              eval_tol: float = 1e-9) -> SchauderResult:
    """Expand ``g`` in the perturbed hat basis F(e_n) on [0, 1].

    Inverts the operator on a grid, reads the hat coefficients b_n off
    the preimage, and measures ||g - sum_{n<=m} b_n F(e_n)||_inf for every
    m up to n_terms; by linearity the partial sum equals F applied to the
    hat partial sum of the preimage, which is how it is evaluated.
    """
    if F.net.dim != 1 or F.net.box.bounds != ((0.0, 1.0),):
        raise ValueError("hat-basis reconstruction runs on the unit interval")
    g = as_field(g)
    inverted = neumann_inverse(F, g, resolution=resolution, tol=inversion_tol)
    coeffs = schauder_coefficients(inverted.grid, n_terms)

    axes = box_axes(F.net.box, check_resolution)
    g_vals = mesh_eval(g, axes)
    scale = max(1.0, float(np.max(np.abs(g_vals))))
    errors = []
    for m in range(1, n_terms + 1):
        partial = LinCombField(
            tuple(float(c) for c in coeffs[:m]),
            tuple(faber_schauder(n) for n in range(1, m + 1)),
        )
        field = F(partial, tol=eval_tol)
        err = float(np.max(np.abs(g_vals - mesh_eval(field, axes)))) / scale
        errors.append((m, err))
    return SchauderResult(
        coefficients=coeffs,
        partial_errors=tuple(errors),
        inverse_residual=inverted.residuals[-1],
        rate_bound=inverted.rate_bound,
    )
