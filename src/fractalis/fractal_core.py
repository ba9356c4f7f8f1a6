"""Construction and evaluation of fractal interpolants on a box.

Two constructions share the same chain machinery:

* the self-referential perturbation of a continuous field f by a scale
  field alpha and a base field s, the unique fixed point h of
  ``h(x) = f(x) + alpha(x) * (h(Q x) - s(Q x))`` where Q maps a point back
  through the inverse of its cell's affine maps;
* the delta-interpolant of node data z, the fixed point of
  ``A(x) = delta * A(Q x) + B_cell(Q x)`` with B_cell the multilinear
  blend of corner-adjusted data.

Both are evaluated by unrolling the fixed-point equation along the chain
x, Qx, Q^2 x, ...; the running product of scale factors damps the tail
geometrically, which gives a certified truncation bound at every call.
``_chain_walk`` is the one chain step of both (cell location, then the
inverse cell map), where the chain's float drift enters. Each field
class owns its sum along that walk (``_chain``) and the same sum as an
exact walk over grid indices (``_orbit``, for ``sample_grid``). The chain
runs on coordinate arrays as they come, broadcasting against one another:
on an open mesh, cell location, inverse steps and the per-axis work of
each field run on the axis values, and only the sums are grid-sized.
Truncated values are exact at the net nodes for every depth >= 1: node
chains land on box corners after one step, and both constructions vanish
there by the corner compatibility conditions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._fields import (
    ConstantField,
    NetInterpolant,
    _Field,
    _SLAB_POINTS,
    _checked,
    _grid_max,
    _multilinear,
    _open_mesh,
    as_field,
    box_axes,
    grid_sup_norm,
    mesh_eval,
    mesh_like,
    with_gap,
)
from .net import Net, _inverse_step, _locate_arrays, eta, node_arrays, node_points

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
    ``sup |f - s|``; both feed the truncation-depth rule.
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
    evaluate on a face from either side. This is the chain step of both
    constructions; the float drift described on ``FractalField`` enters here.
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
    have the broadcast shape of the coordinates (ValueError otherwise).
    f is evaluated once per level; the gap f - s to a blend base
    (``BlendField``) is formed from those values and from the cells the
    walk has located (``with_gap``).
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
        scale = _checked(cfg.alpha, coords)
        walk = _chain_walk(self.net, coords, depth - 1, top_cells)
        for level, (_, X, cells) in enumerate(walk, start=1):
            _, gap = with_gap(cfg.f, cfg.s, X, cells, self.net)
            acc = acc + scale * gap
            if level < depth - 1:
                scale = scale * _checked(cfg.alpha, X)
        return acc

    def _orbit(self, axes, maps) -> np.ndarray:
        """``_chain`` on the tensor grid of ``axes``, walking the orbit by
        the index ``maps`` of ``_orbit_maps``; same sum in the same order."""
        cfg, depth = self.config, self.depth
        acc, g = with_gap(cfg.f, cfg.s, _open_mesh(axes))
        if depth == 1:
            return acc
        scale = mesh_eval(cfg.alpha, axes)
        alpha = scale
        walk = _orbit_walk(maps, depth - 1)
        next(walk)  # Q^0 is the grid itself, whose f is already in acc
        for level, at in enumerate(walk, start=1):
            acc = acc + scale * g[at]
            if level < depth - 1:
                scale = scale * alpha[at]
        return acc


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


def _corner_blend_table(fif: DeltaFif):
    """Per-cell corner data in a per-axis layout: for cell c = (c_q) and
    corner bits b = (b_q), the entry at (2 c_q + b_q)_q is
    z[eta(c, b)] - delta * z[corner b], so that the corners of a cell are
    the ends (2 c_q, 2 c_q + 1) of each axis q of ``_multilinear``."""
    net, z, delta = fif.net, fif.values, fif.delta
    k = net.dim
    # per axis, the knots each cell's map sends the low and the high end of
    # the axis to (eta with m = 0 and m = N)
    eta_tables = [
        [np.array([eta(part, j, m) for j in range(1, part.n_cells + 1)])
         for m in (0, part.n_cells)]
        for part in net.axes
    ]
    w = np.empty(tuple(2 * part.n_cells for part in net.axes))
    for mask in itertools.product((0, 1), repeat=k):
        idx = [eta_tables[q][bit] for q, bit in enumerate(mask)]
        corner = tuple(bit * part.n_cells for bit, part in zip(mask, net.axes))
        w[tuple(slice(bit, None, 2) for bit in mask)] = z[np.ix_(*idx)] - delta * z[corner]
    w.setflags(write=False)
    return w


def _blend_eval(net: Net, w, cells, coords):
    """Multilinear blend of the per-cell corner data at box coordinates."""
    thetas = [(t - lo) / (hi - lo) for t, (lo, hi) in zip(coords, net.box.bounds)]
    return _multilinear(w, [2 * c for c in cells], thetas)


def _delta_tail_constant(fif: DeltaFif) -> float:
    zmax = float(np.max(np.abs(fif.values)))
    return (1.0 + abs(fif.delta)) * zmax / (1.0 - abs(fif.delta)) + zmax


class DeltaFifField(_Field):
    """Field view of a DeltaFif at a fixed evaluation tolerance, or at a
    forced chain ``depth``.

    ``sample_grid`` walks the chain by grid indices on net-compatible
    grids, as for ``FractalField``: the level blend and the base
    interpolant are evaluated once, on the grid. ``eval_arrays`` runs the
    chain on its coordinate arrays as given, as ``FractalField`` does; the
    base interpolant takes the cells the walk has located.
    """

    def __init__(self, fif: DeltaFif, tol: float = 1e-10, depth: int | None = None):
        self.fif = fif
        self.net = fif.net
        self.tol = tol
        tail = _delta_tail_constant(fif)
        if depth is None:
            depth = required_depth(abs(fif.delta), tail, tol)
        self.depth = depth
        self.error_bound = tail * abs(fif.delta) ** self.depth
        self._w = _corner_blend_table(fif)
        self._base = NetInterpolant(node_arrays(fif.net), fif.values)

    def eval_arrays(self, coords) -> np.ndarray:
        return self._chain(coords)

    def _chain(self, coords, top_cells=None) -> np.ndarray:
        """A(x) = sum_{l<depth} delta^l B_cell(X_l)(X_{l+1})
        + delta^depth base(X_depth) along ``_chain_walk``; ``top_cells``
        forces the cells of the first step."""
        acc = np.zeros(np.broadcast(*coords).shape)
        p = 1.0
        X, X_cells = coords, None
        for cells, X, X_cells in _chain_walk(self.net, coords, self.depth, top_cells):
            acc += p * _blend_eval(self.net, self._w, cells, X)
            p *= self.fif.delta
        acc += p * self._base.eval_arrays(X, X_cells)
        return acc

    def _orbit(self, axes, maps) -> np.ndarray:
        """``_chain`` on the tensor grid of ``axes``, walking the orbit by
        the index ``maps`` of ``_orbit_maps``; same sum in the same order.
        The level blend B_cell(i)(Q i), with Q i from the maps, and the base
        interpolant are evaluated once on the grid."""
        cells = np.meshgrid(*_locate_arrays(self.net, axes), indexing="ij", sparse=True)
        images = [a[p] for a, p in zip(axes, maps)]
        blend = _blend_eval(self.net, self._w, cells,
                            np.meshgrid(*images, indexing="ij", sparse=True))
        base = mesh_eval(self._base, axes)
        acc = np.zeros(blend.shape)
        p = 1.0
        walk = _orbit_walk(maps, self.depth)
        for at in itertools.islice(walk, self.depth):
            acc += p * blend[at]
            p *= self.fif.delta
        acc += p * base[next(walk)]
        return acc


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


def _field_for(obj, **kwargs):
    """The FractalField of a FractalConfig or the DeltaFifField of a
    DeltaFif, built with ``kwargs``."""
    if isinstance(obj, FractalConfig):
        return FractalField(obj, **kwargs)
    if isinstance(obj, DeltaFif):
        return DeltaFifField(obj, **kwargs)
    raise TypeError("expected a FractalConfig or a DeltaFif")


def _face_points(net: Net, axis: int, knot_index: int, n_samples: int, rng) -> np.ndarray:
    """Sample points on the interior face x_axis = knot[knot_index]."""
    pts = np.empty((n_samples, net.dim))
    for q, (lo, hi) in enumerate(net.box.bounds):
        pts[:, q] = lo + (hi - lo) * rng.random(n_samples)
    pts[:, axis - 1] = net.axes[axis - 1].knots[knot_index]
    return pts


def boundary_consistency_check(obj, n_samples: int = 16, tol: float = 1e-8,
                               seed: int = 0) -> CheckReport:
    """Evaluate on every interior face from both adjacent cells and compare.

    The two evaluations force different top-level cells for the same
    points; the matching conditions make the underlying fixed point agree,
    so the truncated values must agree within twice the truncation bound.
    Accepts a FractalConfig or a DeltaFif.

    The comparison measures the evaluator's real seam mismatch, so for
    scale sups above the smallest cell ratio the orbit-drift noise
    described on FractalField counts against the tolerance.
    """
    rng = np.random.default_rng(seed)
    try:
        field = _field_for(obj, tol=tol / 4)
    except ToleranceError:
        field = _field_for(obj, depth=MAX_DEPTH)
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

    On a net-compatible grid (see ``_orbit_maps``) either construction
    walks its chain by integer grid indices: f, s and alpha, or the level
    blend and the base interpolant, are evaluated once on the grid. Every
    other grid runs the chain on the open mesh (``mesh_eval``). Depth and
    error bound are the field's either way.
    """
    if not isinstance(field, (FractalField, DeltaFifField)):
        raise TypeError("expected a FractalField or a DeltaFifField")
    axes = box_axes(field.net.box, resolution)
    maps = _orbit_maps(field.net, tuple(a.size for a in axes))
    if maps is not None:
        return axes, field._orbit(axes, maps)
    return axes, mesh_eval(field, axes)

