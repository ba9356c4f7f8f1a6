"""Internal field adapters, multilinear interpolation and grid helpers.

A *field* is duck-typed: callable on a point (sequence of k floats) and,
when it can, exposing ``eval_arrays(coords)`` for elementwise evaluation
over coordinate arrays that broadcast against one another; the result has
their broadcast shape. A field has one evaluator, ``eval_arrays``: a call
at a point is ``eval_arrays`` at that one point (``_Field``), so the two
cannot disagree. Only a plain callable is evaluated point by point
(``CallableField``). ``mesh_eval`` is the one tensor-grid evaluator: it
passes the open mesh (one array per axis, each spanning its own axis) so
that per-axis work, such as the cell search of ``NetInterpolant``, runs
on the axis values only. The chain evaluators of ``fractal_core`` keep
such coordinates as they are along the walk (a batch of several levels
stacks them on a new leading axis), or walk the exact orbit on the open
mesh of a net-compatible grid (``fractal_core._samples``). Only the
evaluators that work point by point flatten them (``_flatten``, in
``CallableField`` and ``TensorPolynomial``).
``_multilinear`` is the multilinear kernel of the node interpolant: nested
per-axis lerps, which on an open mesh contract the table one axis at a
time, each take on the axis values, and on other shapes, such as scattered
points, reduce corners gathered from the raveled table pairwise along one
axis after another.

Grid maxima (``grid_sup_norm``, and through ``_grid_max`` the gap that
``make_config`` takes for fields that are not polynomials) are taken over
slabs of at most ``_SLAB_POINTS`` points, so that a slab's arrays stay in
a core's cache and no array of the whole grid is formed; scattered points
are evaluated in slices of the same size (``fractal_core._eval_chunked``).

``with_gaps`` gives f and the gap f - s to a base field s together, for
a list of (f, s) pairs at the same coordinates, with each distinct field
object evaluated once: for the blend base ``BlendField`` the gap is
t*(f - I f), formed from f's values, and blends of the same f and I f
share f - I f. Inside the chain, every ``NetInterpolant`` on the net's
knots takes the cells the chain has located.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_field",
    "ConstantField",
    "CallableField",
    "LinCombField",
    "ProductField",
    "NetInterpolant",
    "BlendField",
    "mesh_eval",
    "grid_sup_norm",
    "box_axes",
]


# Largest grid, in total points, that a requested resolution may ask for:
# the CLI's cap (surface and verify hold a few dozen float arrays of that
# size at once). It is only that cap; grid maxima run in slabs of
# _SLAB_POINTS whatever the grid's size.
MAX_GRID_POINTS = 2**22

# Points per slab of a grid maximum, and per slice of a pointwise
# evaluation: a slab's few float arrays (256 KiB each) fit in a core's L2
# cache together.
_SLAB_POINTS = 2**15


def _open_mesh(axes):
    """One coordinate array per axis, each spanning its own axis of the
    tensor grid of ``axes`` and broadcasting against the others."""
    return np.meshgrid(*[np.asarray(a, dtype=float) for a in axes],
                       indexing="ij", sparse=True)


def mesh_eval(field, axes) -> np.ndarray:
    """Evaluate ``field`` on the tensor grid spanned by ``axes``.

    The field gets the open mesh, one coordinate array per axis shaped to
    broadcast against the others, and must return the grid shape; any
    other shape raises ValueError.
    """
    return _checked(field, _open_mesh(axes))


def _checked(field, coords) -> np.ndarray:
    """``mesh_like``, held to the broadcast shape of ``coords``: any other
    result shape raises ValueError naming the field's type."""
    out = mesh_like(field, coords)
    shape = np.broadcast(*coords).shape
    if out.shape != shape:
        raise ValueError(f"{type(field).__name__}.eval_arrays returned shape "
                         f"{out.shape} for coordinates of shape {shape}")
    return out


def with_gap(f, s, coords, cells=None, net=None):
    """The values of f and of the gap f - s to the base field s at
    ``coords``: ``with_gaps`` of the one pair."""
    return with_gaps([(f, s)], coords, cells, net)[0]


def with_gaps(pairs, coords, cells=None, net=None) -> list:
    """``(f values, gap f - s)`` of each ``(f, s)`` of ``pairs`` at the same
    ``coords``, each of the broadcast shape (ValueError otherwise), with
    each distinct field object evaluated once; the same f and s give the
    same arrays.

    For a ``BlendField`` of its f the gap is t*(f - I f), formed from f's
    values: f - I f is taken once per f and I f, into a new array (the
    values of I f may be another pair's f, or the read-only kept sample of
    a ``FractalField``), and scaled by each blend's t, in place for the
    last blend that reads it. ``cells``
    are the 0-based cells of ``coords`` in ``net``, as the chain locates
    them; every field here that is a ``NetInterpolant`` on the knots of
    ``net`` (a blend's I f, the node-data f) takes them in place of its own
    search."""
    pairs = list(pairs)
    distinct = list({(id(f), id(s)): (f, s) for f, s in pairs}.values())
    # the blends still to read each f - I f, by the ids of f and I f
    readers = {}
    for f, s in distinct:
        if _blends(f, s):
            readers.setdefault((id(f), id(s.fields[1])), set()).add(id(s))
    values, diffs, gaps = {}, {}, {}

    def at(field):
        if id(field) not in values:
            values[id(field)] = _located(field, coords, cells, net)
        return values[id(field)]

    for f, s in distinct:
        f_vals = at(f)
        if _blends(f, s):
            key = (id(f), id(s.fields[1]))
            if key not in diffs:
                diffs[key] = np.subtract(f_vals, at(s.fields[1]))
            readers[key].discard(id(s))
            gap = np.multiply(diffs[key], s.weights[1],
                              out=None if readers[key] else diffs[key])
        else:
            gap = f_vals - at(s)
        gaps[(id(f), id(s))] = (f_vals, gap)
    return [gaps[(id(f), id(s))] for f, s in pairs]


def _blends(f, s) -> bool:
    """Whether s is a ``BlendField`` of f, whose gap is t*(f - I f)."""
    return isinstance(s, BlendField) and s.fields[0] is f


def _located(field, coords, cells, net) -> np.ndarray:
    """``_checked(field, coords)``, where a NetInterpolant on the knots of
    ``net`` takes the ``cells`` located in it, which its search would find."""
    if cells is not None and isinstance(field, NetInterpolant) and field._on_knots(net):
        return field.eval_arrays(coords, cells)
    return _checked(field, coords)


def _grid_max(values, axes) -> float:
    """Max of ``values(slab_axes)`` over the tensor grid of ``axes``, taken
    over slabs of at most _SLAB_POINTS points. A max does not depend on the
    split, so the result is that of one dense evaluation, while memory stays
    at a few slab-sized arrays and a slab's work stays in cache.

    A slab spans the trailing axes whole, from the first axis j on whose
    grid fits in _SLAB_POINTS, takes as many entries of axis j - 1 as fit,
    and one entry of each axis before it.
    """
    sizes = [a.size for a in axes]
    j = next(j for j in range(1, len(axes) + 1)
             if math.prod(sizes[j:]) <= _SLAB_POINTS)
    step = _SLAB_POINTS // math.prod(sizes[j:])
    return float(np.max([
        np.max(values([*(a[i:i + 1] for a, i in zip(axes, head)),
                       axes[j - 1][i:i + step], *axes[j:]]))
        for head in itertools.product(*map(range, sizes[:j - 1]))
        for i in range(0, sizes[j - 1], step)]))


def box_axes(box, resolution):
    """Uniform per-axis sample arrays over ``box`` (duck-typed bounds)."""
    bounds = getattr(box, "bounds", box)
    if np.ndim(resolution) == 0:
        resolution = [int(resolution)] * len(bounds)
    if len(resolution) != len(bounds):
        raise ValueError("one resolution per axis required")
    if any(int(r) < 2 for r in resolution):
        raise ValueError("resolution must be >= 2 per axis")
    return [np.linspace(float(lo), float(hi), int(r)) for (lo, hi), r in zip(bounds, resolution)]


def grid_sup_norm(field, box, resolution) -> float:
    """Max of |field| over a uniform tensor grid on ``box``."""
    return _grid_max(lambda axes: np.abs(mesh_eval(field, axes)),
                     box_axes(box, resolution))


class _Field:
    """Base of the fields that evaluate on arrays: a call at a point is
    ``eval_arrays`` at that one point."""

    def __call__(self, point) -> float:
        return float(self.eval_arrays([np.asarray([float(t)]) for t in point])[0])


@dataclass(frozen=True)
class ConstantField(_Field):
    value: float

    def eval_arrays(self, coords) -> np.ndarray:
        return np.full(np.broadcast(*coords).shape, self.value, dtype=float)


@dataclass(frozen=True)
class CallableField:
    """Wrap a plain scalar callable, evaluated point by point."""

    fn: object

    def __call__(self, point) -> float:
        return float(self.fn(point))

    def eval_arrays(self, coords) -> np.ndarray:
        shape, flat = _flatten(coords)
        out = np.fromiter(
            (float(self.fn(p)) for p in zip(*flat)), dtype=float, count=flat[0].size
        )
        return out.reshape(shape)


@dataclass(frozen=True)
class LinCombField(_Field):
    """Pointwise weighted sum of fields."""

    weights: tuple
    fields: tuple

    def eval_arrays(self, coords) -> np.ndarray:
        out = np.zeros(np.broadcast(*coords).shape, dtype=float)
        for w, f in zip(self.weights, self.fields):
            out += w * mesh_like(f, coords)
        return out


@dataclass(frozen=True)
class ProductField(_Field):
    """Pointwise product of two fields."""

    left: object
    right: object

    def eval_arrays(self, coords) -> np.ndarray:
        out = mesh_like(self.left, coords) * mesh_like(self.right, coords)
        return _full_shape(out, coords)


def mesh_like(field, coords) -> np.ndarray:
    """Evaluate a field on prebuilt coordinate arrays that broadcast
    against one another; a plain callable is evaluated point by point
    (``CallableField``)."""
    return np.asarray(as_field(field).eval_arrays(coords), dtype=float)


def _flatten(coords):
    """The broadcast shape of ``coords`` and the coordinate arrays
    broadcast to it and flattened, for evaluators that work on points."""
    coords = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords])
    return coords[0].shape, [c.ravel() for c in coords]


def _full_shape(out, coords) -> np.ndarray:
    """``out`` broadcast up to the broadcast shape of ``coords``, as a new
    array when it has to grow."""
    shape = np.broadcast(*coords).shape
    if out.shape == shape:
        return out
    return np.broadcast_to(out, shape).copy()


class NetInterpolant(_Field):
    """Multilinear interpolation of values tabulated on a tensor grid.

    ``axes`` are strictly increasing 1-d coordinate arrays (two or more
    entries each, nonuniform allowed); ``values`` has shape
    ``(len(axes[0]), ..., len(axes[-1]))``. Exact on the grid points and
    on any function that is affine separately in each variable. Weights
    are nonnegative and sum to one, so interpolation never overshoots the
    local cell values.
    """

    def __init__(self, axes, values):
        self.axes = [np.ascontiguousarray(a, dtype=float) for a in axes]
        for a in self.axes:
            if a.ndim != 1 or a.size < 2 or np.any(np.diff(a) <= 0):
                raise ValueError("axes must be strictly increasing with >= 2 entries")
        values = np.asarray(values, dtype=float)
        if values.shape != tuple(a.size for a in self.axes):
            raise ValueError(
                f"values shape {values.shape} does not match axes "
                f"{tuple(a.size for a in self.axes)}"
            )
        self.values = values.copy()
        self.values.setflags(write=False)
        self.dim = len(self.axes)
        self._steps = [np.diff(a) for a in self.axes]
        self._knots_of = (None, False)

    def eval_arrays(self, coords, cells=None) -> np.ndarray:
        """Values at ``coords``. ``cells``, when given, are the 0-based
        cell indices of the coordinates on each axis, as the chain has
        located them on the same knots; they replace the search here,
        which finds the same cells (interior knots go right)."""
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays")
        return _multilinear(self.values, *_cell_weights(self.axes, self._steps, coords, cells))

    def _on_knots(self, net) -> bool:
        """Whether the axes are the knots of ``net``; decided once per net
        (the last one asked about is kept)."""
        if self._knots_of[0] is not net:
            self._knots_of = (net, self.dim == net.dim and all(
                a.tolist() == list(part.knots) for a, part in zip(self.axes, net.axes)))
        return self._knots_of[1]


# Axes with at most this many interior knots locate cells by counting, one
# comparison per knot; longer axes binary-search their interior knots.
# Measured on 2 cores (numpy 2.4), per axis and call: on 24,913 scattered
# points counting wins at every count up to about 48 (8 knots: 158 against
# 597 us); on the 129^2 points of a mesh, which the search walks in order,
# counting wins up to 4 knots (63 against 80 us) and loses by about 12% at
# 8 (120 against 107 us), so 8 bounds what it can lose on ordered points.
_COUNTED_KNOTS = 8


def _cells_of(knots, t) -> np.ndarray:
    """The 0-based cells of the coordinates ``t`` on an axis with the
    increasing ``knots``: the number of interior knots at or below each
    coordinate. So interior knots go right, the last cell is closed on both
    sides, a coordinate off the axis takes the end cell on its side, and
    NaN, which is below no knot, the last cell: the cells of
    ``searchsorted(knots, t, "right") - 1`` clipped to the axis, without a
    binary search over all the knots. This is the package's one rule of
    cell location."""
    inner = knots[1:-1]
    if inner.size > _COUNTED_KNOTS:
        return np.searchsorted(inner, t, side="right")
    out = np.full(np.shape(t), inner.size, dtype=np.intp)
    for k in inner.tolist():
        out -= t < k
    return out


def _cell_weights(axes, steps, coords, cells=None):
    """The 0-based cells and the lerp weights theta of ``coords`` on the
    tensor grid of ``axes`` (``steps`` their differences), the arguments
    of ``_multilinear``. ``cells``, when given, replace the search."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    if cells is None:
        cells = [_cells_of(a, t) for a, t in zip(axes, coords)]
    thetas = []
    for a, step, t, i in zip(axes, steps, coords, cells):
        theta = t - a[i]
        theta /= step[i]
        thetas.append(theta)
    return cells, thetas


@dataclass(frozen=True, eq=False)
class BlendField(LinCombField):
    """The blend base (1 - t)*f + t*I f, with I f the node interpolant of
    f on a net: the ``LinCombField`` of weights (1 - t, t) and fields
    (f, I f), which it is operation for operation. ``with_gap`` forms the
    gap f - s = t*(f - I f) from f's values instead."""


def _multilinear(table, lows, thetas) -> np.ndarray:
    """Nested per-axis lerps of ``table``: along each axis q in turn, axis 0
    innermost, v = (1 - theta_q)*lo + theta_q*hi, where lo and hi are the
    entries ``lows[q]`` and ``lows[q] + 1`` of axis q. ``lows`` (index
    arrays, in range) and ``thetas`` broadcast against one another, and the
    result has their broadcast shape; it ends with ``+= 0.0``, so that no
    -0.0 comes out.

    On an open mesh (``lows[q]`` and ``thetas[q]`` each span only axis q)
    the table is contracted one axis at a time, each take on the axis
    values, so that only the last axis is grid-sized. Other layouts, such
    as scattered points, gather corners from the raveled table and reduce
    them pairwise along axis 0, then axis 1 and so on, as they come, so
    that O(k) point-sized arrays are alive at once. Both do the same arithmetic
    on the same values, so they give the same bits. The takes use mode
    "clip", which writes into ``out`` directly where the default mode goes
    through a copy; every index is in range, so nothing is clipped.
    """
    k = len(lows)
    shape = np.broadcast(*lows, *thetas).shape
    # an open mesh: each array spans its own axis q only, so its size is
    # its extent on axis q, which is the grid's
    if len(shape) == k and all(
            a.ndim == k and a.size == a.shape[q] == shape[q] != 0
            for q in range(k) for a in (lows[q], thetas[q])):
        out = _contract_axes(table, lows, thetas)
    else:
        out = _contract_points(table, lows, thetas, shape)
    out += 0.0
    return out


def _contract_axes(table, lows, thetas) -> np.ndarray:
    """``_multilinear`` on an open mesh: one contraction per axis. The high
    ends of axis 0 are taken from the table shifted by one entry, a
    contiguous view; on the other axes such a view is not contiguous, and
    ``np.take`` would copy it whole, so they take at the index plus one."""
    for q, (low, th) in enumerate(zip(lows, thetas)):
        index = low.ravel()
        lo = table.take(index, axis=q, mode="clip")
        lo *= 1.0 - th
        if q == 0:
            hi = table[1:].take(index, axis=0, mode="clip")
        else:
            hi = table.take(index + 1, axis=q, mode="clip")
        hi *= th
        lo += hi
        table = lo
        del hi  # one grid-sized array fewer alive during the next takes
    return table


def _contract_points(table, lows, thetas, shape) -> np.ndarray:
    """``_multilinear`` on any layout. The 2^k corners, gathered from the
    raveled table at the flat index of the low corner plus the corner's
    offset, come in the order of their bits, axis 0 lowest; each corner
    that ends a pair on axis q is reduced with the value waiting for it,
    so that at most k values wait at once. Spent arrays are reused."""
    flat = table.ravel()
    strides = [math.prod(table.shape[q + 1:]) for q in range(len(lows))]
    low = np.zeros(shape, dtype=np.intp)
    for c, stride in zip(lows, strides):
        low += c * stride
    waiting, free = [], []
    for e in range(2 ** len(lows)):
        offset = sum(stride for q, stride in enumerate(strides) if e >> q & 1)
        value = flat[offset:].take(low, out=free.pop() if free else np.empty(shape),
                                   mode="clip")
        q = 0
        while e >> q & 1:  # value is the high end of axis q
            lo = waiting.pop()
            weight = np.subtract(1.0, thetas[q], out=free.pop() if free else np.empty(shape))
            lo *= weight
            value *= thetas[q]
            lo += value
            free += [weight, value]
            value = lo
            q += 1
        waiting.append(value)
    return waiting.pop()


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)`` bit for bit, signed zeros included (a value
    equal to a bound is kept), and NaN propagates; without ``np.clip``'s
    wrapper, which costs a few times the ufuncs on the small arrays of a
    chain step."""
    return np.minimum(hi, np.maximum(lo, x))


def as_field(obj):
    """Coerce numbers and callables into the field protocol."""
    if isinstance(obj, (int, float)):
        return ConstantField(float(obj))
    if callable(obj):
        if hasattr(obj, "eval_arrays"):
            return obj
        return CallableField(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a field")
