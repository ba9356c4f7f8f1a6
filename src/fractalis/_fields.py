"""Internal field adapters, multilinear interpolation and grid helpers.

A *field* is duck-typed: callable on a point (sequence of k floats) and,
when it can, exposing ``eval_arrays(coords)`` for elementwise evaluation
over equal-shaped coordinate arrays. Everything here provides both paths
so downstream code never needs to branch. ``_multilinear`` is the one
2^k-corner kernel, of the node interpolant and of the node-data blend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_field",
    "ConstantField",
    "CallableField",
    "LinCombField",
    "ProductField",
    "NetInterpolant",
    "tensor_mesh",
    "mesh_eval",
    "grid_sup_norm",
    "box_axes",
]


def tensor_mesh(axes):
    """Full coordinate mesh (indexing 'ij') from per-axis 1-d arrays."""
    return np.meshgrid(*[np.asarray(a, dtype=float) for a in axes], indexing="ij")


def mesh_eval(field, axes) -> np.ndarray:
    """Evaluate ``field`` on the tensor grid spanned by ``axes``."""
    return mesh_like(field, tensor_mesh(axes))


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
    return float(np.max(np.abs(mesh_eval(field, box_axes(box, resolution)))))


@dataclass(frozen=True)
class ConstantField:
    value: float

    def __call__(self, point) -> float:
        return self.value

    def eval_arrays(self, coords) -> np.ndarray:
        return np.full(np.shape(coords[0]), self.value, dtype=float)


@dataclass(frozen=True)
class CallableField:
    """Wrap a plain scalar callable, evaluated point by point."""

    fn: object

    def __call__(self, point) -> float:
        return float(self.fn(point))

    def eval_arrays(self, coords) -> np.ndarray:
        shape = np.shape(coords[0])
        flat = [np.asarray(c, dtype=float).ravel() for c in coords]
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
        out = np.zeros(np.shape(coords[0]), dtype=float)
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
        return mesh_like(self.left, coords) * mesh_like(self.right, coords)


def mesh_like(field, coords) -> np.ndarray:
    """Evaluate a field on prebuilt coordinate arrays of equal shape; a
    plain callable is evaluated point by point (``CallableField``)."""
    return np.asarray(as_field(field).eval_arrays(coords), dtype=float)


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

    def eval_arrays(self, coords) -> np.ndarray:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinate arrays")
        shape = np.shape(coords[0])
        lows = []
        thetas = []
        for a, c in zip(self.axes, coords):
            t = np.asarray(c, dtype=float).ravel()
            i = np.searchsorted(a, t, side="right") - 1
            i = np.clip(i, 0, a.size - 2)
            lows.append(i)
            thetas.append((t - a[i]) / (a[i + 1] - a[i]))
        out = _multilinear(thetas, lambda e, mask: self.values[
            tuple(i + bit for bit, i in zip(mask, lows))])
        return out.reshape(shape)


def _multilinear(thetas, corner) -> np.ndarray:
    """Sum over the 2^k corner bit masks, in ``itertools.product`` order e,
    of the weight prod_q (theta_q if bit_q else 1 - theta_q) times
    ``corner(e, mask)``."""
    out = np.zeros(np.shape(thetas[0]), dtype=float)
    for e, mask in enumerate(itertools.product((0, 1), repeat=len(thetas))):
        weight = np.ones_like(out)
        for bit, th in zip(mask, thetas):
            weight = weight * (th if bit else 1.0 - th)
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
