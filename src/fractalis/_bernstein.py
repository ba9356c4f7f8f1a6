"""Certified bounds for polynomial fields, from Bernstein coefficients.

A polynomial of degree n_q in x_q, written in the tensor Bernstein basis
of a box, takes its values in the hull of its coefficients, and its
coefficients at the box's vertices are its values there (J. Garloff,
"Convergent bounds for the range of multivariate polynomials", LNCS 212,
1986). So the largest |coefficient| bounds sup |p| over the box from
above, and the vertex coefficients bound it from below. Bisection (de
Casteljau's algorithm at 1/2) narrows the two: ``_branch_and_bound``
splits every box whose bound still matters until the upper bound is
within ``_REL`` of the lower one, is at most ``_FLOOR`` times the size of
the coefficients it was formed from (a gap that is 0 up to rounding), or
the box budget is spent. The bound it returns holds at any stop.

Two constants of the perturbation bound come out this way:

- ``sup_bound``: sup |alpha| of a polynomial alpha over the box;
- ``gap_bound``: sup |f - s| over the box, where f is a polynomial and s
  an explicit polynomial (s = f, the identity, among them), or the blend
  base (1 - t)*f + t*I f, whose gap t*(f - I f) is a polynomial on each
  cell of the grid of the node interpolant I f.

Either gives None for any other field, and the caller takes a grid
maximum instead.

Each axis takes the exact change of basis of its whole length once, and
the cells of a grid are cut out of that by de Casteljau's algorithm at
the ratios of the knots (``_to_cells``): a cell costs four integer
ratios and float arithmetic, and no exact change of basis of its own.

Rounding. The exact coefficients (``FieldExpr.polynomial``), the exact
per-axis changes of basis (``fractions``) and the exact ratios of the
cuts are rounded to doubles once, and every array of coefficients
travels with a bound on its distance to the exact one. Sums and products
are error-free transformations (Knuth's two-sum, Dekker's two-product on
Veltkamp halves), so the bounds take in the exact rounding error of each
step. Where every step is exact, the bounds stay 0 and the result is
exact; elsewhere the result is rounded up past them, so the float
returned is at least the exact sup. Inputs whose steps these
transformations do not cover exactly (overflow, or products near the
subnormal range) give None.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from ._fields import ConstantField, NetInterpolant, _blends
from .field_expr import FieldExpr

__all__ = ["sup_bound", "gap_bound", "mul_up"]

# stop when the upper bound is within 1% of the largest vertex value
_REL = 0.01
# ... or at most this share of the coefficients it was formed from
_FLOOR = 2.0**-40
# at most this many coefficients in the cells or boxes of one round, and
# this many rounds of bisection
_BUDGET = 2**16
_MAX_ROUNDS = 64


class _Uncovered(ArithmeticError):
    """A step that the error-free transformations do not cover exactly."""


def sup_bound(field, box) -> float | None:
    """A certified upper bound of sup |field| over ``box`` (duck-typed
    bounds) when ``field`` is a polynomial, else None."""
    bounds = getattr(box, "bounds", box)
    coeffs = _coefficients(field, len(bounds))
    if coeffs is None:
        return None
    return _guarded(lambda: _poly_bound(coeffs, bounds))


def gap_bound(f, s, box) -> float | None:
    """A certified upper bound of sup |f - s| over ``box`` when f is a
    polynomial and s an explicit polynomial or the blend base of f
    (``BlendField``), else None. A blend's gap is t*(f - I f), as
    ``with_gaps`` forms it, with t its weight of I f and I f the
    interpolant of its table."""
    bounds = getattr(box, "bounds", box)
    coeffs = _coefficients(f, len(bounds))
    if coeffs is None:
        return None
    if _blends(f, s):
        interp = s.fields[1]
        if not (isinstance(interp, NetInterpolant) and interp.dim == len(bounds) and all(
                (a[0], a[-1]) == tuple(b) for a, b in zip(interp.axes, bounds))):
            return None
        unit = _guarded(lambda: _interp_gap(coeffs, interp))
        return None if unit is None else mul_up(abs(s.weights[1]), unit)
    other = _coefficients(s, len(bounds))
    if other is None:
        return None
    shape = np.maximum(coeffs.shape, other.shape)
    diff = np.full(shape, Fraction(0), dtype=object)
    diff[tuple(map(slice, coeffs.shape))] += coeffs
    diff[tuple(map(slice, other.shape))] -= other
    return _guarded(lambda: _poly_bound(diff, bounds))


def mul_up(t: float, x: float) -> float:
    """t*x rounded up, for t, x >= 0: the product itself when it is exact
    (an error term that overflows to NaN counts as inexact)."""
    with np.errstate(all="ignore"):
        p, e = _two_prod(np.float64(t), np.float64(x))
    exact = e <= 0 and (p >= 2.0**-969 or t == 0 or x == 0)
    return float(p if exact else np.nextafter(p, np.inf))


def _coefficients(field, dim: int):
    """The exact coefficient tensor of a polynomial field on ``dim``
    variables (a polynomial ``FieldExpr`` or a ``ConstantField``), or None."""
    if isinstance(field, ConstantField):
        if not math.isfinite(field.value):
            return None
        return np.full((1,) * dim, Fraction(field.value), dtype=object)
    if isinstance(field, FieldExpr) and field.arity == dim:
        return field.polynomial()
    return None


def _guarded(bound):
    """``bound()``, or None where its steps are not covered exactly."""
    try:
        with np.errstate(all="ignore"):
            return bound()
    except (_Uncovered, OverflowError):
        return None


def _poly_bound(coeffs, bounds) -> float:
    """Certified sup |p| over the box of ``bounds`` for the exact tensor
    ``coeffs`` of p: 0 for the zero polynomial."""
    if not any(coeffs.flat):
        return 0.0
    V, E = _to_cells(coeffs, [list(b) for b in bounds], [n - 1 for n in coeffs.shape])
    return _branch_and_bound(V, E, float(np.max(np.abs(V))))


def _interp_gap(coeffs, interp: NetInterpolant) -> float:
    """Certified sup |f - I f| over the cells of the grid of ``interp``,
    for the exact tensor ``coeffs`` of f: on each cell, I f is multilinear,
    and its Bernstein coefficients of f's degrees (at least 1 per axis)
    are the lerps of the cell's corner values at k/n on each axis."""
    degrees = [max(n - 1, 1) for n in coeffs.shape]
    knots = [a.tolist() for a in interp.axes]
    if math.prod((len(k) - 1) * (n + 1) for k, n in zip(knots, degrees)) > _BUDGET:
        raise _Uncovered("too many cells")
    f_v, f_e = _to_cells(coeffs, knots, degrees)
    i_v, i_e = interp.values, np.zeros(interp.values.shape)
    for n in degrees:
        # each cell reads the values at its two ends along the axis; of
        # degree 1, they are its coefficients
        ends = [np.stack([a[..., :-1], a[..., 1:]], axis=-1)
                for a in (np.moveaxis(i_v, 0, -1), np.moveaxis(i_e, 0, -1))]
        i_v, i_e = ends if n == 1 else _dot(*(a[..., None, :] for a in ends), *_lerps(n))
    i_v, i_e = _cells_first(i_v, len(degrees)), _cells_first(i_e, len(degrees))
    _require_finite(i_v, i_e)
    d, e = _two_sum(f_v, -i_v)
    scale = max(float(np.max(np.abs(f_v))), float(np.max(np.abs(i_v))))
    return _branch_and_bound(d, _up(f_e + i_e + np.abs(e), f_e, i_e, e), scale)


def _to_cells(coeffs, knots, degrees):
    """Bernstein coefficients of the exact tensor ``coeffs`` on each cell
    of the tensor grid of ``knots`` (increasing doubles, the box's two ends
    for the box alone), with ``degrees`` per axis (at least the
    polynomial's): arrays of values and error bounds, shaped
    (cells, n_1 + 1, ..., n_k + 1), the cells in C order of their axes.
    Each axis changes basis on its whole length, then cuts its cells out."""
    V, E = _rounded(coeffs)
    for ends, n in zip(knots, degrees):
        W, dW = _basis(ends[0], ends[-1], V.shape[0] - 1, n)
        V, E = _dot(*(np.moveaxis(a, 0, -1)[..., None, :] for a in (V, E)), W, dW)
        V, E = V[..., None, :], E[..., None, :]  # the axis as one cell
        if len(ends) > 2:
            low, high = _cut_weights(ends)
            V, E = _cut(V, E, *low, right=True)
            V, E = _cut(V, E, *high, right=False)
    _require_finite(V, E)
    return _cells_first(V, len(degrees)), _cells_first(E, len(degrees))


def _cut_weights(knots):
    """The weights (1 - tau, tau) of the two cuts that give each cell
    [k_i, k_(i+1)] of an axis with the double ``knots``, ``_ratios``: at
    its low end on the whole axis [k_0, k_m], then at its high end on the
    part [k_i, k_m] right of that. Formed in integers over the common
    denominator of the knots (a power of two)."""
    ratios = [float(k).as_integer_ratio() for k in knots]
    D = max(q for _, q in ratios)
    K = [p * (D // q) for p, q in ratios]
    first, last = K[0], K[-1]
    low = [(last - a, a - first, last - first) for a in K[:-1]]
    high = [(last - b, b - a, last - a) for a, b in zip(K[:-1], K[1:])]
    return _ratios(low), _ratios(high)


def _ratios(rows):
    """The doubles nearest to p/r and q/r for integer rows (p, q, r), as a
    (rows, 2) array, and bounds on their distance to them: 0 where the
    ratio is a double, else one ulp (int / int rounds to nearest)."""
    values, errors = [], []
    for p, q, r in rows:
        for n in (p, q):
            v = n / r
            a, b = v.as_integer_ratio()
            values.append(v)
            errors.append(0.0 if a * r == b * n else math.ulp(v))
    return np.array(values).reshape(-1, 2), np.array(errors).reshape(-1, 2)


def _cut(V, E, w, dw, right: bool):
    """The Bernstein coefficients of one part of each cell, cut by de
    Casteljau's algorithm on the last axis of ``V`` (within ``E``; cells on
    the axis before it, or one cell for all): the part right of tau, or
    left of it, with ``w`` the (cells, 2) weights (1 - tau, tau) within
    ``dw``. Each level of the algorithm lerps neighbours; the left part
    takes the first coefficient of each level, the right part the last."""
    V = np.broadcast_to(V, V.shape[:-2] + w.shape[:1] + V.shape[-1:])
    E = np.broadcast_to(E, V.shape)
    w, dw = w[:, None, :], dw[:, None, :]
    end = -1 if right else 0
    ends = [(V[..., end], E[..., end])]
    for _ in range(V.shape[-1] - 1):
        V, E = _dot(*(np.stack([a[..., :-1], a[..., 1:]], axis=-1) for a in (V, E)), w, dw)
        ends.append((V[..., end], E[..., end]))
    if right:
        ends.reverse()
    return tuple(np.stack(part, axis=-1) for part in zip(*ends))


@functools.lru_cache(maxsize=64)
def _basis(lo: float, hi: float, d: int, n: int):
    """The (n + 1, d + 1) matrix from the monomial coefficients of a
    polynomial of degree d <= n in x to its Bernstein coefficients of
    degree n on [lo, hi], ``_rounded``: x = lo + h*u with h = hi - lo, so
    x^i = sum_j C(i, j) lo^(i - j) h^j u^j, and
    u^j = sum_{k >= j} C(k, j) / C(n, j) * B_k(u). Entry (k, i) is formed
    in integers over the denominator N * D^i, with lo = a / D and hi = b / D
    (D a power of two) and N the lcm of the C(n, j)."""
    (a, p), (b, q) = float(lo).as_integer_ratio(), float(hi).as_integer_ratio()
    D = max(p, q)
    a, h = a * (D // p), b * (D // q) - a * (D // p)
    N = math.lcm(*(math.comb(n, j) for j in range(n + 1)))
    exact = np.empty((n + 1, d + 1), dtype=object)
    for k in range(n + 1):
        for i in range(d + 1):
            num = sum(math.comb(k, j) * (N // math.comb(n, j)) * math.comb(i, j)
                      * a ** (i - j) * h**j for j in range(min(i, k) + 1))
            exact[k, i] = Fraction(num, N * D**i)
    return _rounded(exact)


@functools.lru_cache(maxsize=None)
def _lerps(n: int):
    """The (n + 1, 2) weights (1 - k/n, k/n), ``_rounded``: the Bernstein
    coefficients of degree n of a linear function from its end values."""
    return _rounded(np.array([[Fraction(n - k, n), Fraction(k, n)] for k in range(n + 1)]))


def _cells_first(a, k: int):
    """(C_1, n_1 + 1, ..., C_k, n_k + 1) -> (C_1 * ... * C_k, n_1 + 1, ..., n_k + 1)."""
    a = a.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
    return a.reshape((-1,) + a.shape[k:])


def _rounded(exact):
    """Doubles nearest to an object array of Fractions (read-only), and
    bounds on their distance to it: 0 where the Fraction is a double."""
    flat = exact.ravel().tolist()
    values = [float(q) for q in flat]
    errors = [0.0 if v.as_integer_ratio() == (q.numerator, q.denominator)
              else _float_up(abs(q - Fraction(v))) for q, v in zip(flat, values)]
    out = np.array(values).reshape(exact.shape), np.array(errors).reshape(exact.shape)
    for a in out:
        a.setflags(write=False)
    return out


def _float_up(q: Fraction) -> float:
    """A double >= the Fraction q >= 0, within one ulp of it."""
    x = float(q)
    return math.nextafter(x, math.inf) if Fraction(x) < q else x


def _up(err, *inputs):
    """``err``, a float sum of non-negative terms, widened to cover the
    rounding of that sum and of the products in it: by a relative 2^-40,
    and by 2^-1000 absolute, which covers terms lost to underflow, unless
    ``err`` and the ``inputs`` that formed it are all 0 (nothing to round)."""
    if not (err.any() or any(a.any() for a in inputs)):
        return np.zeros(err.shape)
    return err * (1.0 + 2.0**-40) + 2.0**-1000


def _require_finite(*arrays):
    """_Uncovered unless every entry is finite: an overflow anywhere in
    the steps before leaves an infinity or a NaN in their results."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise _Uncovered("overflow")


def _two_sum(a, b):
    """s = fl(a + b) and e with s + e == a + b exactly (Knuth), where the
    sum does not overflow."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _veltkamp(a):
    """Veltkamp's split of doubles into halves of at most 26 significant
    bits, big + small == a exactly (also the CSV writer's, ``cli._scaled``)."""
    c = a * 134217729.0  # 2**27 + 1
    big = c - (c - a)
    return big, a - big


def _two_prod(a, b):
    """p = fl(a*b) and e with p + e == a*b exactly (Dekker, on Veltkamp
    halves, broadcast), where |a*b| is not below 2^-969 and no step
    overflows (one that does leaves e infinite or NaN)."""
    p = a * b
    a_big, a_small = _veltkamp(a)
    b_big, b_small = _veltkamp(b)
    return p, ((a_big * b_big - p) + a_big * b_small + a_small * b_big) + a_small * b_small


def _dot(x, ex, w, dw):
    """Sums over the last axis of x*w (broadcast against each other), and
    bounds on their distance to the exact sums, where the exact inputs lie
    within ``ex`` of x and ``dw`` of w."""
    p, ep = _two_prod(x, w)
    if ((np.abs(p) < 2.0**-969) & (x != 0) & (w != 0)).any():
        raise _Uncovered("underflow")
    err = np.abs(ep).sum(axis=-1)
    if ex.any() or dw.any():
        err = err + (np.abs(w) * ex + dw * (np.abs(x) + ex)).sum(axis=-1)
    s = p[..., 0]
    for j in range(1, p.shape[-1]):
        s, e = _two_sum(s, p[..., j])
        err += np.abs(e)
    return s, _up(err, ex, dw)


def _halves(V, E, axis: int):
    """The coefficients of the two halves of each box along ``axis`` (de
    Casteljau at 1/2): the left halves, then the right ones, on axis 0."""
    x, ex = np.moveaxis(V, axis, -1), np.moveaxis(E, axis, -1)
    left, right = [(x[..., 0], ex[..., 0])], [(x[..., -1], ex[..., -1])]
    for _ in range(1, x.shape[-1]):
        s, e = _two_sum(x[..., :-1], x[..., 1:])
        _require_finite(s)
        if ((np.abs(s) < 2.0**-1021) & (s != 0)).any():
            raise _Uncovered("underflow")
        ex = _up((ex[..., :-1] + ex[..., 1:] + np.abs(e)) * 0.5, ex, e)
        x = s * 0.5
        left.append((x[..., 0], ex[..., 0]))
        right.append((x[..., -1], ex[..., -1]))
    halves = [np.concatenate([np.stack([pair[i] for pair in part], axis=-1)
                              for part in (left, right[::-1])])
              for i in (0, 1)]
    return tuple(np.moveaxis(h, -1, axis) for h in halves)


def _branch_and_bound(V, E, scale: float) -> float:
    """An upper bound of max |p| over the boxes whose Bernstein
    coefficients are ``V`` (within ``E``), boxes on axis 0.

    Each round bounds each box by its largest |coefficient| + error,
    rounded up, and the max from below by the largest vertex value seen.
    Boxes bounded within ``_REL`` of that value are set aside; of the
    others, those with the largest bounds are bisected, as many as keep the
    boxes within ``_BUDGET`` coefficients, and the rest wait for a later
    round. A box is bisected along the axis of degree 2 or more with the
    largest second difference of its coefficients (bisecting an axis of
    degree 1 leaves the bound as it is). The result is the largest bound of
    all boxes, those set aside included."""
    sizes = V.shape[1:]
    vertices = (slice(None),) + tuple(slice(None, None, max(n - 1, 1)) for n in sizes)
    splittable = [q for q, n in enumerate(sizes) if n > 2]
    kept, lower, rounds = 0.0, 0.0, 0
    while True:
        upper = _rounded_up(np.abs(V), E).reshape(len(V), -1).max(axis=1)
        lower = max(lower, float(np.max(np.abs(V[vertices]) - E[vertices])))
        top = max(kept, float(upper.max()))
        live = upper > lower * (1.0 + _REL)
        # each bisection adds one box
        room = _BUDGET // V[0].size - int(live.sum())
        if (top <= lower * (1.0 + _REL) or top <= _FLOOR * scale or not splittable
                or rounds == _MAX_ROUNDS or room < 1):
            return top
        rounds += 1
        kept = max(kept, float(upper[~live].max(initial=0.0)))
        V, E, upper = V[live], E[live], upper[live]
        split = np.zeros(len(V), dtype=bool)
        split[np.argsort(-upper, kind="stable")[:room]] = True
        waiting = V[~split], E[~split]
        V, E = V[split], E[split]
        curvature = np.stack([np.abs(np.diff(V, 2, axis=q + 1)).reshape(len(V), -1).max(axis=1)
                              for q in splittable])
        choice = np.asarray(splittable)[np.argmax(curvature, axis=0)]
        parts = [_halves(V[choice == q], E[choice == q], q + 1)
                 for q in splittable if np.any(choice == q)] + [waiting]
        V = np.concatenate([v for v, _ in parts])
        E = np.concatenate([e for _, e in parts])


def _rounded_up(a, b):
    """a + b rounded up: the float sum, moved up one step where it fell
    below the exact sum."""
    s, e = _two_sum(a, b)
    return np.where(e > 0, np.nextafter(s, np.inf), s)
