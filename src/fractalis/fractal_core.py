"""Construction and evaluation of fractal interpolants on a box.

One construction, the self-referential perturbation of a continuous field
f by a scale field alpha and a base field s: the unique fixed point h of
``h(x) = f(x) + alpha(x) * (h(Q x) - s(Q x))`` where Q maps a point back
through the inverse of its cell's affine maps. The delta-interpolant of
node data z is its special case F(I z) (``_fif_config``): f the node
interpolant I z, alpha the constant delta and s the multilinear
interpolant of z's box-corner values.

It is evaluated by unrolling the fixed-point equation along the chain
x, Qx, Q^2 x, ...; the running product of scale factors damps the tail
geometrically, which gives a certified truncation bound at every call.
``_chain_walk`` is the one chain step (cell location, then the inverse
cell map), where the chain's float drift enters. ``FractalField._chain``
is the one sum along that walk, and ``FractalField._orbit`` the same sum
as an exact walk over grid indices (for ``sample_grid``). The chain runs
on coordinate arrays as they come, broadcasting against one another: on an
open mesh, cell location, inverse steps and the per-axis work of each
field run on the axis values, and only the sums are grid-sized. Where the
inverse cell maps are exact in floating point (dyadic knots and bounds),
truncated values are exact at the net nodes for every depth >= 1: node
chains land on box corners after one step, and f - s vanishes there by
the corner compatibility conditions. Elsewhere that step lands within
rounding of a corner, and node values carry the chain's drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import (
    ConstantField,
    NetInterpolant,
    _SLAB_POINTS,
    _checked,
    _grid_max,
    _open_mesh,
    as_field,
    box_axes,
    grid_sup_norm,
    mesh_eval,
    mesh_like,
    with_gap,
)
from .net import Net, _inverse_step, _locate_arrays, node_arrays, node_points

__all__ = [
    "AdmissibilityError",
    "ToleranceError",
    "IterationError",
    "FractalConfig",
    "DeltaFif",
    "CheckReport",
    "FixedPointResult",
    "make_config",
    "required_depth",
    "FractalField",
    "make_delta_fif",
    "DeltaFifField",
    "solve_fixed_point_grid",
    "interpolation_check",
    "boundary_consistency_check",
    "sample_grid",
]

MAX_DEPTH = 64

# relative slack for the corner compatibility test
_CORNER_TOL = 1e-10


class AdmissibilityError(ValueError):
    """Scale field or base field violates the construction's hypotheses."""


class ToleranceError(RuntimeError):
    """Requested tolerance needs a chain deeper than MAX_DEPTH."""


class IterationError(RuntimeError):
    """Fixed-point iteration failed to reach the target residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class FractalConfig:
    """Validated ingredients of the scale-field perturbation.

    ``alpha_sup`` is the sup of |alpha| (exact for constant scale fields,
    a tensor-grid estimate otherwise) and ``fs_gap`` a grid estimate of
    ``sup |f - s|``, exact for node-data configs (``_fif_config``); both
    feed the truncation-depth rule.
    """

    net: Net
    f: object
    alpha: object
    s: object
    alpha_sup: float
    fs_gap: float


@dataclass(frozen=True, eq=False)
class DeltaFif:
    """Node data plus a uniform vertical scale, |delta| < 1."""

    net: Net
    values: np.ndarray
    delta: float


@dataclass(frozen=True, eq=False)
class CheckReport:
    """One checked inequality: ``passed`` is the verdict on ``lhs`` against
    the threshold ``rhs``, the number ``verify`` prints; ``details`` holds
    the other numbers of the check that callers read."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    details: dict


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    grid: NetInterpolant
    iterations: int
    residual: float


def _scale_sup(alpha, net: Net, resolution: int = 129) -> float:
    """sup |alpha| over the box: exact for a constant field, otherwise the
    maximum over a uniform grid of ``resolution`` points per axis."""
    alpha = as_field(alpha)
    if isinstance(alpha, ConstantField):
        return abs(alpha.value)
    return grid_sup_norm(alpha, net.box, resolution)


def _config(net: Net, f, alpha, s, alpha_sup: float, sup_resolution: int) -> FractalConfig:
    """``make_config`` with the scale sup ``alpha_sup`` already taken."""
    f_vals, gap = with_gap(f, s, list(net.box.corners().T))
    corner_gap = float(np.max(np.abs(gap) / np.maximum(1.0, np.abs(f_vals))))
    if not (alpha_sup < 1.0 and corner_gap <= _CORNER_TOL):
        raise AdmissibilityError(
            f"inadmissible configuration: sup|alpha| = {alpha_sup}, "
            f"corner gap = {corner_gap}"
        )
    gap = _grid_max(lambda axes: np.abs(with_gap(f, s, _open_mesh(axes))[1]),
                    box_axes(net.box, sup_resolution))
    return FractalConfig(net=net, f=f, alpha=alpha, s=s, alpha_sup=alpha_sup, fs_gap=gap)


def make_config(net: Net, f, alpha, s, sup_resolution: int = 129) -> FractalConfig:
    """Build a FractalConfig, raising AdmissibilityError when the scale
    field is not a uniform contraction (sup |alpha| < 1, a grid estimate
    unless alpha is constant) or f and s split at a box corner."""
    alpha = as_field(alpha)
    return _config(net, as_field(f), alpha, as_field(s),
                   _scale_sup(alpha, net, sup_resolution), sup_resolution)


def required_depth(scale_sup: float, tail_constant: float, tol: float) -> int:
    """Smallest chain depth d with tail_constant * scale_sup**d <= tol.

    Raises ToleranceError when that needs more than MAX_DEPTH levels (the
    message states the bound MAX_DEPTH levels do achieve) or when
    tail_constant is not finite.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tail_constant):
        raise ToleranceError(f"tail constant {tail_constant} is not finite; "
                             f"no chain depth reaches tolerance {tol}")
    if scale_sup == 0.0 or tail_constant <= tol:
        return 1
    d = math.ceil(math.log(tol / tail_constant) / math.log(scale_sup))
    d = max(d, 1)
    if d > MAX_DEPTH:
        reachable = tail_constant * scale_sup**MAX_DEPTH
        raise ToleranceError(
            f"tolerance {tol} needs chain depth {d} > {MAX_DEPTH}; "
            f"depth {MAX_DEPTH} reaches {reachable:.3e}"
        )
    return d


def _tail_constant(config: FractalConfig) -> float:
    # || h - s || <= ||h - f|| + ||f - s|| <= fs_gap / (1 - alpha_sup)
    return config.fs_gap / (1.0 - config.alpha_sup)


def _chain_walk(net: Net, coords, steps: int, top_cells=None):
    """Yield (cells, X, X_cells) for the chain Qx, ..., Q^steps x: the
    0-based cells of the previous point, X, its preimage under their maps,
    and the cells of X, by which the next step maps it.

    ``top_cells`` forces the cells of the first step, which lets callers
    evaluate on a face from either side. This is the one chain step; the
    float drift described on ``FractalField`` enters here.
    The coordinate arrays may broadcast against one another (an open mesh);
    each step then works per axis.
    """
    X = [np.asarray(c, dtype=float) for c in coords]
    cells = _locate_arrays(net, X) if top_cells is None else top_cells
    for _ in range(steps):
        X = _inverse_step(net, X, cells)
        X_cells = _locate_arrays(net, X)
        yield cells, X, X_cells
        cells = X_cells


class FractalField:
    """Field view of a FractalConfig at a fixed evaluation tolerance.

    The chain depth is derived once; every call is then an O(depth) sweep
    with the same certified error bound, ``tail_constant * alpha_sup **
    depth``.

    The bound covers truncation. The inverse cell maps of ``_chain_walk``
    expand by 1/|a| per level, so floating-point orbit noise is amplified
    geometrically; it stays damped as long as the scale sup does not
    exceed the smallest |a| in the net. Beyond that ratio, evaluations
    carry drift noise of roughly scale_sup ** (log(1/eps) / log(1/min|a|))
    on top of the bound.

    ``sample_grid`` has no such drift on net-compatible grids (uniform
    knots on every axis, and ``res - 1`` divisible by the cell count of
    each axis): there Q maps grid points onto grid points, so the chain is
    an exact walk over grid indices and f, s and alpha are evaluated only
    once, on the grid.

    ``eval_arrays`` runs the chain on its coordinate arrays as given, with
    no flattening: on an open mesh every level evaluates f, s and alpha on
    the open mesh of the level's preimages. Each of their results must
    have the broadcast shape of the coordinates (ValueError otherwise). A
    constant alpha is not evaluated: the level product is a float
    (``_scale``). f is evaluated once per level; the gap f - s to a blend
    base (``BlendField``) is formed from those values and from the cells
    the walk has located (``with_gap``).
    """

    def __init__(self, config: FractalConfig, tol: float = 1e-10,
                 depth: int | None = None):
        self.config = config
        self.net = config.net
        self.tol = tol
        self.tail_constant = _tail_constant(config)
        if depth is None:
            depth = required_depth(config.alpha_sup, self.tail_constant, tol)
        self.depth = depth
        self.error_bound = self.tail_constant * config.alpha_sup**self.depth

    def __call__(self, point) -> float:
        coords = [np.asarray([float(t)]) for t in point]
        return float(self._chain(coords)[0])

    def eval_arrays(self, coords) -> np.ndarray:
        return self._chain(coords)

    def _chain(self, coords, top_cells=None) -> np.ndarray:
        """Unrolled fixed-point sum over the chain x, Qx, ..., Q^(depth-1) x:
        v(x) = f(x) + sum_{l=1}^{depth-1} prod_{m<l} alpha(X_m) * (f - s)(X_l);
        the level-depth term cancels against the base value s(X_depth).
        ``top_cells`` forces the cells of the first step (``_chain_walk``)."""
        cfg, depth = self.config, self.depth
        acc = _checked(cfg.f, coords)
        if depth == 1:
            return acc
        scale = self._scale(coords)
        walk = _chain_walk(self.net, coords, depth - 1, top_cells)
        for level, (_, X, cells) in enumerate(walk, start=1):
            _, gap = with_gap(cfg.f, cfg.s, X, cells, self.net)
            acc = acc + scale * gap
            if level < depth - 1:
                scale = scale * self._scale(X)
        return acc

    def _orbit(self, axes, maps) -> np.ndarray:
        """``_chain`` on the tensor grid of ``axes``, walking the orbit by
        the index ``maps`` of ``_orbit_maps``; same sum in the same order."""
        cfg, depth = self.config, self.depth
        mesh = _open_mesh(axes)
        acc, g = with_gap(cfg.f, cfg.s, mesh)
        if depth == 1:
            return acc
        alpha = self._scale(mesh)
        scale = alpha
        walk = _orbit_walk(maps, depth - 1)
        next(walk)  # Q^0 is the grid itself, whose f is already in acc
        for level, at in enumerate(walk, start=1):
            acc = acc + scale * g[at]
            if level < depth - 1:
                scale = scale * (alpha if np.ndim(alpha) == 0 else alpha[at])
        return acc

    def _scale(self, coords):
        """alpha at ``coords``; for a constant alpha its value as a float, so
        that the chain carries the level product as one number (the same
        IEEE products as on arrays of that value)."""
        alpha = self.config.alpha
        if isinstance(alpha, ConstantField):
            return alpha.value
        return _checked(alpha, coords)


def make_delta_fif(net: Net, values, delta: float) -> DeltaFif:
    """Validate node data for the delta-interpolant; |delta| < 1."""
    values = np.asarray(values, dtype=float)
    expected = tuple(part.n_cells + 1 for part in net.axes)
    if values.shape != expected:
        raise ValueError(f"node values must have shape {expected}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("node values must be finite")
    delta = float(delta)
    if not abs(delta) < 1.0:
        raise AdmissibilityError(f"|delta| must be < 1, got {delta}")
    values = values.copy()
    values.setflags(write=False)
    return DeltaFif(net=net, values=values, delta=delta)


def _fif_config(fif: DeltaFif) -> FractalConfig:
    """The node-data interpolant as a scale-field perturbation F(I z): f the
    node interpolant I z, alpha the constant delta and s the multilinear
    interpolant of z's box-corner values. f - s is multilinear on every
    cell, so its max over the net nodes is its sup: ``fs_gap`` is exact."""
    nodes = node_arrays(fif.net)
    s = NetInterpolant([a[[0, -1]] for a in nodes], fif.values[np.ix_(*[[0, -1]] * len(nodes))])
    gap = float(np.max(np.abs(fif.values - mesh_eval(s, nodes))))
    return FractalConfig(net=fif.net, f=NetInterpolant(nodes, fif.values),
                         alpha=ConstantField(fif.delta), s=s,
                         alpha_sup=abs(fif.delta), fs_gap=gap)


class DeltaFifField(FractalField):
    """Field view of a DeltaFif at a fixed evaluation tolerance, or at a
    forced chain ``depth``: the ``FractalField`` of its node-data config
    (``_fif_config``)."""

    def __init__(self, fif: DeltaFif, tol: float = 1e-10, depth: int | None = None):
        super().__init__(_fif_config(fif), tol, depth)
        self.fif = fif

    def eval_arrays(self, coords) -> np.ndarray:
        # defined here, not inherited, so that perfbench's tracer, which
        # wraps the methods a class defines, times the node-data chain apart
        return self._chain(coords)


def _grid_sweep(config: FractalConfig, axes):
    """Start values and sweep h -> f + alpha * (h(Q .) - s(Q .)) on the
    tensor grid of ``axes``.

    Returns f on the grid and the sweep as a function of grid values. The
    grid-fixed parts, Q x, f and alpha at x and s at Q x, are evaluated
    once, here; off-grid values of h come from multilinear interpolation.
    Q acts axis by axis, so the preimages of the grid are the tensor grid
    of the per-axis preimages.
    """
    net = config.net
    pre_axes = _inverse_step(net, axes, _locate_arrays(net, axes))
    pre = np.meshgrid(*pre_axes, indexing="ij", sparse=True)
    f_here = mesh_eval(config.f, axes)
    a_here = mesh_eval(config.alpha, axes)
    s_pre = mesh_eval(config.s, pre_axes)

    def sweep(values):
        h = NetInterpolant(axes, values)
        return f_here + a_here * (h.eval_arrays(pre) - s_pre)

    return f_here, sweep


def solve_fixed_point_grid(config: FractalConfig, resolution,
                           tol: float = 1e-12,
                           max_iter: int = 100_000) -> FixedPointResult:
    """Iterate the sweep on a uniform grid until the update is below
    ``tol * (1 - sup|alpha|)``, which bounds the distance to the grid
    fixed point by tol. Independent of the chain evaluator; serves as a
    cross-check oracle for it.
    """
    axes = tuple(box_axes(config.net.box, resolution))
    f_grid, sweep = _grid_sweep(config, axes)
    target = tol * (1.0 - config.alpha_sup)
    values = f_grid.copy()
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        new = sweep(values)
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual <= target:
            return FixedPointResult(grid=NetInterpolant(axes, values),
                                    iterations=iteration, residual=residual)
    raise IterationError(
        f"no convergence to residual {target:.3e} in {max_iter} sweeps "
        f"(last residual {residual:.3e})",
        residual,
    )


def interpolation_check(field, net: Net, expected, tol: float = 1e-9) -> CheckReport:
    """Compare ``field`` against expected values at every net node.

    ``expected`` is a field or an array shaped like the node grid.
    """
    pts = node_points(net)
    coords = [pts[:, q] for q in range(net.dim)]
    got = mesh_like(field, coords)
    if hasattr(expected, "__call__") or hasattr(expected, "eval_arrays"):
        want = mesh_like(expected, coords)
    else:
        want = np.asarray(expected, dtype=float).reshape(-1, order="F")
    err = float(np.max(np.abs(got - want)))
    return CheckReport(name="interpolation", lhs=err, rhs=tol, passed=err <= tol,
                       details={"n_nodes": pts.shape[0]})


def _face_points(net: Net, axis: int, knot_index: int, n_samples: int, rng) -> np.ndarray:
    """Sample points on the interior face x_axis = knot[knot_index]."""
    pts = np.empty((n_samples, net.dim))
    for q, (lo, hi) in enumerate(net.box.bounds):
        pts[:, q] = lo + (hi - lo) * rng.random(n_samples)
    pts[:, axis - 1] = net.axes[axis - 1].knots[knot_index]
    return pts


def boundary_consistency_check(config: FractalConfig, n_samples: int = 16,
                               tol: float = 1e-8, seed: int = 0) -> CheckReport:
    """Evaluate on every interior face from both adjacent cells and compare.

    The two evaluations force different top-level cells for the same
    points; the matching conditions make the underlying fixed point agree,
    so the truncated values must agree within twice the truncation bound.
    For node data, pass ``DeltaFifField(fif).config``.

    The comparison measures the evaluator's real seam mismatch, so for
    scale sups above the smallest cell ratio the orbit-drift noise
    described on FractalField counts against the tolerance.
    """
    rng = np.random.default_rng(seed)
    try:
        field = FractalField(config, tol=tol / 4)
    except ToleranceError:
        field = FractalField(config, depth=MAX_DEPTH)
    net, depth, bound = field.net, field.depth, field.error_bound
    worst = 0.0
    n_faces = 0
    for q in range(1, net.dim + 1):
        part = net.axes[q - 1]
        for j in range(1, part.n_cells):
            pts = _face_points(net, q, j, n_samples, rng)
            coords = [pts[:, m] for m in range(net.dim)]
            cells = _locate_arrays(net, coords)
            left = list(cells)
            left[q - 1] = np.full_like(cells[q - 1], j - 1)
            right = list(cells)
            right[q - 1] = np.full_like(cells[q - 1], j)
            a = field._chain(coords, left)
            b = field._chain(coords, right)
            worst = max(worst, float(np.max(np.abs(a - b))))
            n_faces += 1
    limit = max(tol, 2.0 * bound + 1e-12)
    return CheckReport(name="boundary_consistency", lhs=worst, rhs=limit,
                       passed=worst <= limit,
                       details={"n_faces": n_faces, "depth": depth, "truncation_bound": bound})


def _orbit_maps(net: Net, sizes):
    """Per-axis integer maps of Q on the uniform grid with ``sizes`` points
    per axis, or None when the grid is not net-compatible.

    Compatible means uniform knots (each interior knot within
    1e-12 * width of its uniform position) and ``res - 1`` divisible by the
    cell count n on every axis. Grid index i then lies in cell
    c = min(i // m, n - 1) with m = (res - 1) / n (interior knots go right,
    as in ``_locate_arrays``), and Q sends it to n * (i - c*m), mirrored to
    (res - 1) - n * (i - c*m) in the reversed cells (odd c).
    """
    maps = []
    for part, (lo, hi), res in zip(net.axes, net.box.bounds, sizes):
        n = part.n_cells
        width = hi - lo
        if (res - 1) % n or any(
            abs(t - (lo + j * width / n)) > 1e-12 * width
            for j, t in enumerate(part.knots[1:-1], start=1)
        ):
            return None
        m = (res - 1) // n
        i = np.arange(res)
        c = np.minimum(i // m, n - 1)
        local = n * (i - c * m)
        maps.append(np.where(c % 2 == 0, local, (res - 1) - local))
    return maps


def _orbit_walk(maps, steps: int):
    """``np.ix_`` gathers of the grid orbit Q^0, Q^1, ..., Q^steps, each
    index tuple applied by the index ``maps`` of ``_orbit_maps``."""
    idx = [np.arange(p.size) for p in maps]
    for level in range(steps + 1):
        if level:
            idx = [p[i] for p, i in zip(maps, idx)]
        yield np.ix_(*idx)


def _eval_chunked(field, coords) -> np.ndarray:
    """``field.eval_arrays`` on 1-d coordinate arrays, in slices of at most
    ``_SLAB_POINTS`` points concatenated in order; each point's value does
    not depend on the slice it is evaluated in."""
    n = coords[0].shape[0]
    if n <= _SLAB_POINTS:
        return field.eval_arrays(coords)
    return np.concatenate([
        field.eval_arrays([c[i:i + _SLAB_POINTS] for c in coords])
        for i in range(0, n, _SLAB_POINTS)])


def sample_grid(field, resolution):
    """Evaluate a FractalField or DeltaFifField on the uniform grid over
    its box; returns (axes, values) with values indexed like the axes.

    On a net-compatible grid (see ``_orbit_maps``) the chain is walked by
    integer grid indices: f, s and alpha are evaluated once on the grid.
    Every other grid runs the chain on the open mesh (``mesh_eval``).
    Depth and error bound are the field's either way.
    """
    if not isinstance(field, FractalField):
        raise TypeError("expected a FractalField or a DeltaFifField")
    axes = box_axes(field.net.box, resolution)
    maps = _orbit_maps(field.net, tuple(a.size for a in axes))
    if maps is not None:
        return axes, field._orbit(axes, maps)
    return axes, mesh_eval(field, axes)

