"""Boxes, axis partitions and the affine cell maps they induce.

A net on a k-dimensional box is a tensor grid of knots, at least three per
axis so every cell map is a strict contraction. Each axis carries one
affine map per cell, oriented by cell parity: odd cells keep the axis
orientation, even cells reverse it, so the images of consecutive maps meet
at shared knots with matching endpoint values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._fields import _cells_of, _clip

__all__ = [
    "Box",
    "AxisPartition",
    "Net",
    "CellMap",
    "build_net",
    "cell_map",
    "axis_coefficients",
    "node_arrays",
    "node_points",
    "jacobian_sum",
]

# slack for classifying a point as inside a closed interval
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box, bounds[q] = (low, high) with low < high."""

    bounds: tuple

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            return False
        return self.first_outside([point]) is None

    def first_outside(self, points) -> int | None:
        """Row index of the first row of the (n, k) array ``points`` that
        ``contains`` rejects (a NaN coordinate counts as outside), or None
        when every row is inside."""
        pts = np.asarray(points, dtype=float)
        lo = np.array([b[0] for b in self.bounds]) - _EDGE_TOL
        hi = np.array([b[1] for b in self.bounds]) + _EDGE_TOL
        outside = np.flatnonzero(~np.all((pts >= lo) & (pts <= hi), axis=1))
        return int(outside[0]) if outside.size else None

    def corners(self) -> np.ndarray:
        """All 2^k corners, one row per corner."""
        out = np.array(list(itertools.product(*self.bounds)), dtype=float)
        return out


@dataclass(frozen=True)
class AxisPartition:
    """Strictly increasing knots spanning one axis of the box."""

    knots: tuple

    @property
    def n_cells(self) -> int:
        return len(self.knots) - 1

    @property
    def lo(self) -> float:
        return self.knots[0]

    @property
    def hi(self) -> float:
        return self.knots[-1]


@dataclass(frozen=True)
class Net:
    """A box together with one partition per axis."""

    box: Box
    axes: tuple

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def cells_per_axis(self) -> tuple:
        return tuple(ax.n_cells for ax in self.axes)

    def all_cells(self):
        """Iterate 1-based cell multi-indices, axis 1 fastest."""
        ranges = [range(1, n + 1) for n in self.cells_per_axis]
        for rev in itertools.product(*reversed(ranges)):
            yield tuple(reversed(rev))

    @cached_property
    def _knot_arrays(self) -> tuple:
        """The knots of each axis as a read-only float array, converted on
        first read; the cell search of every chain step reads them."""
        out = tuple(np.asarray(part.knots, dtype=float) for part in self.axes)
        for a in out:
            a.setflags(write=False)
        return out


@dataclass(frozen=True)
class CellMap:
    """Affine map t -> a*t + b from the full axis interval onto one cell.

    Orientation follows cell parity: for odd j the map sends (lo, hi) to
    the cell endpoints in order, for even j in reversed order, hence a < 0.
    Always a strict contraction, |a| < 1.
    """

    axis: int
    j: int
    a: float
    b: float


def build_net(bounds, knots_per_axis) -> Net:
    """Validate and assemble a Net.

    Each axis needs at least three strictly increasing knots whose first
    and last entries equal the box bounds; two cells per axis is the
    minimum for which every oriented cell map is a strict contraction.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    for q, (lo, hi) in enumerate(bounds, start=1):
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(f"axis {q}: bounds must satisfy low < high, got ({lo}, {hi})")
    if len(knots_per_axis) != len(bounds):
        raise ValueError("one knot sequence per axis required")
    axes = []
    for q, ((lo, hi), knots) in enumerate(zip(bounds, knots_per_axis), start=1):
        knots = tuple(float(t) for t in knots)
        if len(knots) < 3:
            raise ValueError(f"axis {q}: at least 3 knots required, got {len(knots)}")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError(f"axis {q}: knots must be strictly increasing")
        if knots[0] != lo or knots[-1] != hi:
            raise ValueError(f"axis {q}: knots must span the bounds ({lo}, {hi})")
        axes.append(AxisPartition(knots))
    return Net(Box(bounds), tuple(axes))


def cell_map(net: Net, axis: int, j: int) -> CellMap:
    """The oriented affine map of cell ``j`` (1-based) on ``axis`` (1-based).

    Coefficients come from solving the two endpoint conditions directly:
    odd j maps (lo, hi) to (knot[j-1], knot[j]), even j to (knot[j],
    knot[j-1]).
    """
    part = net.axes[axis - 1]
    if not 1 <= j <= part.n_cells:
        raise ValueError(f"cell index {j} outside 1..{part.n_cells} on axis {axis}")
    lo, hi = part.lo, part.hi
    left, right = part.knots[j - 1], part.knots[j]
    if j % 2 == 1:
        y_lo, y_hi = left, right
    else:
        y_lo, y_hi = right, left
    a = (y_hi - y_lo) / (hi - lo)
    b = (hi * y_lo - lo * y_hi) / (hi - lo)
    if abs(a) >= 1.0:
        raise ValueError(
            f"cell {j} on axis {axis} yields |a| = {abs(a)} >= 1; refine the partition"
        )
    return CellMap(axis, j, a, b)


@lru_cache(maxsize=None)
def axis_coefficients(net: Net):
    """Per-axis arrays (a, b) of cell-map coefficients, 0-based by cell.

    Cached on the (immutable) net; used by the vectorized evaluators.
    """
    out = []
    for q in range(1, net.dim + 1):
        maps = [cell_map(net, q, j) for j in range(1, net.axes[q - 1].n_cells + 1)]
        a = np.array([m.a for m in maps])
        b = np.array([m.b for m in maps])
        a.setflags(write=False)
        b.setflags(write=False)
        out.append((a, b))
    return tuple(out)


def _locate_arrays(net: Net, coords):
    """0-based cell index arrays, one per axis (``_cells_of``): interior
    knots go right, and the last cell is closed on both sides."""
    return [_cells_of(knots, t) for knots, t in zip(net._knot_arrays, coords)]


def _inverse_step(net: Net, coords, cells):
    """Preimages of the coordinate arrays under the maps of the 0-based
    ``cells``, clipped to the box."""
    coeffs = axis_coefficients(net)
    return [_preimage(t, a[c], b[c], lo, hi)
            for t, (a, b), c, (lo, hi) in zip(coords, coeffs, cells, net.box.bounds)]


def _preimage(y, a, b, lo, hi):
    """Preimage (y - b) / a under the cell map t -> a*t + b, clipped to the
    axis interval [lo, hi] against float drift."""
    return _clip((y - b) / a, lo, hi)


def node_arrays(net: Net):
    """Knot array per axis."""
    return [np.asarray(part.knots, dtype=float) for part in net.axes]


def node_points(net: Net) -> np.ndarray:
    """All grid nodes as rows, axis 1 varying fastest."""
    mesh = np.meshgrid(*node_arrays(net), indexing="ij")
    return np.stack([m.reshape(-1, order="F") for m in mesh], axis=1)


def jacobian_sum(net: Net) -> float:
    """Sum over all cells of the product of per-axis |a| coefficients.

    The per-axis |a| values on one axis sum to 1 by construction, so this
    total equals 1 up to rounding; it is the change-of-variables mass that
    one full sweep of the cell maps preserves.
    """
    coeffs = axis_coefficients(net)
    total = 0.0
    for cell in net.all_cells():
        total += math.prod(abs(float(coeffs[q][0][j - 1])) for q, j in enumerate(cell))
    return total
