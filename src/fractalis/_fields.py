"""Internal field adapters, multilinear interpolation and grid helpers.

A *field* is duck-typed: callable on a point (sequence of k floats) and,
when it can, exposing ``eval_arrays(coords)`` for elementwise evaluation
over coordinate arrays that broadcast against one another; the result has
their broadcast shape. Everything here provides both paths so downstream
code never needs to branch. ``mesh_eval`` is the one tensor-grid
evaluator: it passes the open mesh (one array per axis, each spanning its
own axis) so that per-axis work, such as the cell search of
``NetInterpolant``, runs on the axis values only. The chain evaluators of
``fractal_core`` keep such coordinates as they are at every level. Only
the evaluators that work point by point flatten them (``_flatten``, in
``CallableField`` and ``TensorPolynomial``), and ``sample_grid``'s
threaded fallback hands the chain the flattened grid points.
``_multilinear`` is the one 2^k-corner kernel, of the node interpolant and
of the node-data blend.

``with_base`` gives f and a base field s together, with f evaluated once:
the blend base ``BlendField`` forms s from f's values.
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
    "tensor_mesh",
    "mesh_eval",
    "grid_sup_norm",
    "box_axes",
]


# Largest dense grid, in total points. The CLI caps a requested resolution
# at it (surface and verify hold a few dozen float arrays of that size at
# once), and grid maxima over larger grids run in slabs of at most it.
MAX_GRID_POINTS = 2**22


def tensor_mesh(axes):
    """Full coordinate mesh (indexing 'ij') from per-axis 1-d arrays."""
    return np.meshgrid(*[np.asarray(a, dtype=float) for a in axes], indexing="ij")


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


def mesh_eval_with_base(f, s, axes):
    """``with_base`` on the tensor grid spanned by ``axes``."""
    return with_base(f, s, _open_mesh(axes))


def _checked(field, coords) -> np.ndarray:
    """``mesh_like``, held to the broadcast shape of ``coords``: any other
    result shape raises ValueError naming the field's type."""
    out = mesh_like(field, coords)
    shape = np.broadcast(*coords).shape
    if out.shape != shape:
        raise ValueError(f"{type(field).__name__}.eval_arrays returned shape "
                         f"{out.shape} for coordinates of shape {shape}")
    return out


def with_base(f, s, coords, cells=None, net=None):
    """The values of f and of the base field s at ``coords``, each of the
    broadcast shape (ValueError otherwise), with f evaluated once: a
    ``BlendField`` of this f forms s from f's values. ``cells`` are the
    0-based cells of ``coords`` in ``net``, as the chain locates them; a
    blend on that net reuses them for its node interpolant."""
    f_vals = _checked(f, coords)
    if isinstance(s, BlendField) and s.fields[0] is f:
        return f_vals, s.from_f_values(f_vals, coords,
                                       cells if net is s.net else None)
    return f_vals, _checked(s, coords)


def _grid_max(values, axes) -> float:
    """Max of ``values(slab_axes)`` over the tensor grid of ``axes``, taken
    over slabs of at most MAX_GRID_POINTS points; a max does not depend on
    the split, so memory stays bounded at the same result.

    A slab spans the trailing axes whole, from the first axis j on whose
    grid fits in MAX_GRID_POINTS, takes as many entries of axis j - 1 as
    fit, and one entry of each axis before it.
    """
    sizes = [a.size for a in axes]
    j = next(j for j in range(1, len(axes) + 1)
             if math.prod(sizes[j:]) <= MAX_GRID_POINTS)
    step = MAX_GRID_POINTS // math.prod(sizes[j:])
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


@dataclass(frozen=True)
class ConstantField:
    value: float

    def __call__(self, point) -> float:
        return self.value

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
class LinCombField:
    """Pointwise weighted sum of fields."""

    weights: tuple
    fields: tuple

    def __call__(self, point) -> float:
        return float(sum(w * f(point) for w, f in zip(self.weights, self.fields)))

    def eval_arrays(self, coords) -> np.ndarray:
        out = np.zeros(np.broadcast(*coords).shape, dtype=float)
        for w, f in zip(self.weights, self.fields):
            out += w * mesh_like(f, coords)
        return out


@dataclass(frozen=True)
class ProductField:
    """Pointwise product of two fields."""

    left: object
    right: object

    def __call__(self, point) -> float:
        return float(self.left(point)) * float(self.right(point))

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


class NetInterpolant:
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

    def __call__(self, point) -> float:
        coords = [np.asarray([float(t)]) for t in point]
        return float(self.eval_arrays(coords)[0])

    def eval_arrays(self, coords, cells=None) -> np.ndarray:
        """Values at ``coords``. ``cells``, when given, are the 0-based
        cell indices of the coordinates on each axis, as the chain has
        located them on the same knots; they replace the search here,
        which finds the same cells (interior knots go right)."""
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays")
        coords = [np.asarray(c, dtype=float) for c in coords]
        if cells is None:
            cells = [np.clip(np.searchsorted(a, t, side="right") - 1, 0, a.size - 2)
                     for a, t in zip(self.axes, coords)]
        ends = [(i, i + 1) for i in cells]
        thetas = [(t - a[i]) / (a[j] - a[i])
                  for a, t, (i, j) in zip(self.axes, coords, ends)]
        return _multilinear(thetas, lambda e, mask: self.values[
            tuple(end[bit] for bit, end in zip(mask, ends))])


@dataclass(frozen=True, eq=False)
class BlendField(LinCombField):
    """The blend base (1 - t)*f + t*I f, with I f the node interpolant of
    f on ``net``: the ``LinCombField`` of weights (1 - t, t) and fields
    (f, I f), which it is operation for operation. ``with_base`` forms it
    from f's values instead of evaluating f a second time."""

    net: object

    def from_f_values(self, f_vals, coords, cells=None) -> np.ndarray:
        """``eval_arrays(coords)`` given ``f_vals``, f at ``coords``;
        ``cells`` are handed to the node interpolant. The interpolant term
        is formed before the sum's buffer, which lowers the peak memory;
        the sum adds in ``LinCombField``'s order."""
        term = self.weights[1] * self.fields[1].eval_arrays(coords, cells)
        out = np.zeros(np.broadcast(*coords).shape, dtype=float)
        out += self.weights[0] * f_vals
        out += term
        return out


def _multilinear(thetas, corner) -> np.ndarray:
    """Sum over the 2^k corner bit masks, in ``itertools.product`` order e,
    of the weight prod_q (theta_q if bit_q else 1 - theta_q) times
    ``corner(e, mask)``, on the broadcast shape of the thetas."""
    factors = [(1.0 - th, th) for th in thetas]
    out = np.zeros(np.broadcast(*thetas).shape, dtype=float)
    for e, mask in enumerate(itertools.product((0, 1), repeat=len(thetas))):
        weight = factors[0][mask[0]]
        for bit, pair in zip(mask[1:], factors[1:]):
            weight = weight * pair[bit]
        out += weight * corner(e, mask)
    return out


def as_field(obj):
    """Coerce numbers and callables into the field protocol."""
    if isinstance(obj, (int, float)):
        return ConstantField(float(obj))
    if callable(obj):
        if hasattr(obj, "eval_arrays"):
            return obj
        return CallableField(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a field")
