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
cell map), where the chain's float drift enters. ``_chains`` is the one
sum along that walk, for one field (``FractalField._chain``) or for a
list of fields on one net, which share the walk and the evaluations of
the field objects they share; ``FractalField._orbit`` is the same sum as
an exact walk over grid indices. ``_samples``, behind every
``eval_arrays``, takes the orbit on the open mesh of a net-compatible
uniform grid, whoever asks, and the chain everywhere else. The chain runs
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

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._fields import (
    BlendField,
    ConstantField,
    NetInterpolant,
    _SLAB_POINTS,
    _cell_weights,
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
    with_gaps,
)
from ._bernstein import gap_bound, mul_up, sup_bound
from .net import Net, _inverse_step, _locate_arrays, node_arrays, node_points

__all__ = [
    "AdmissibilityError",
    "ApproximationError",
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
_MAX_SWEEPS = 100_000  # grid sweeps at most, in solve_fixed_point_grid
_FACE_SAMPLES = 16  # random points per interior face in the boundary check


class AdmissibilityError(ValueError):
    """Scale field or base field violates the construction's hypotheses."""


class ApproximationError(RuntimeError):
    """Target accuracy not reachable within the configured limits (raised by
    ``approx``; defined here so that the command line catches it without
    loading ``approx``)."""


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

    ``alpha_sup`` is the sup of |alpha| and ``fs_gap`` that of |f - s|,
    both feeding the truncation-depth rule. They are certified upper
    bounds for polynomial fields (exact for a constant alpha, in closed
    form by ``_bernstein`` for a polynomial alpha, f and s, and exact for
    node-data configs, ``_fif_config``), and tensor-grid estimates for any
    other field.
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
    """sup |alpha| over the box: exact for a constant field, a certified
    upper bound for a polynomial one (``_bernstein.sup_bound``), otherwise
    the maximum over a uniform grid of ``resolution`` points per axis."""
    alpha = as_field(alpha)
    if isinstance(alpha, ConstantField):
        return abs(alpha.value)
    bound = sup_bound(alpha, net.box)
    return grid_sup_norm(alpha, net.box, resolution) if bound is None else bound


def _check_admissible(net: Net, f, s, alpha_sup: float) -> None:
    """AdmissibilityError unless sup |alpha| < 1 and f and s agree at the
    box corners."""
    f_vals, gap = with_gap(f, s, list(net.box.corners().T))
    corner_gap = float(np.max(np.abs(gap) / np.maximum(1.0, np.abs(f_vals))))
    if not (alpha_sup < 1.0 and corner_gap <= _CORNER_TOL):
        raise AdmissibilityError(
            f"inadmissible configuration: sup|alpha| = {alpha_sup}, "
            f"corner gap = {corner_gap}"
        )


def _base_gap(net: Net, f, s, sup_resolution: int):
    """sup |f - s| over the box, and how to scale it by t >= 0 to the gap
    of t*(f - s): a certified bound where ``_bernstein`` has one, scaled
    rounding up (``mul_up``) so that it stays one; otherwise the grid
    maximum, scaled to nearest, which is the grid maximum of
    |t*(f - s)| bit for bit, since x -> t*x is monotone in floating point
    and |t*d| = t*|d|."""
    gap = gap_bound(f, s, net.box)
    if gap is not None:
        return gap, mul_up
    return (_grid_max(lambda axes: np.abs(with_gap(f, s, _open_mesh(axes))[1]),
                      box_axes(net.box, sup_resolution)), operator.mul)


def _config(net: Net, f, alpha, s, alpha_sup: float, sup_resolution: int) -> FractalConfig:
    """``make_config`` with the scale sup ``alpha_sup`` already taken."""
    _check_admissible(net, f, s, alpha_sup)
    gap, _ = _base_gap(net, f, s, sup_resolution)
    return FractalConfig(net=net, f=f, alpha=alpha, s=s, alpha_sup=alpha_sup, fs_gap=gap)


def _blend_configs(net: Net, f, alpha, interp, weights, alpha_sup: float,
                   sup_resolution: int) -> list:
    """The configs of the blend bases (1 - t)*f + t*I f, one per t >= 0
    in ``weights``, with ``interp`` the node interpolant I f: the gap
    f - I f and admissibility are taken once, for t = 1 (the corner gaps
    at t are t times those), and each config's gap is that one scaled by
    t (``_base_gap``), the number a config of its own would take."""
    unit = BlendField((0.0, 1.0), (f, interp))
    _check_admissible(net, f, unit, alpha_sup)
    gap, scaled = _base_gap(net, f, unit, sup_resolution)
    return [FractalConfig(net=net, f=f, alpha=alpha, s=BlendField((1.0 - t, t), (f, interp)),
                          alpha_sup=alpha_sup, fs_gap=scaled(t, gap))
            for t in weights]


def make_config(net: Net, f, alpha, s, sup_resolution: int = 129) -> FractalConfig:
    """Build a FractalConfig, raising AdmissibilityError when the scale
    field is not a uniform contraction (sup |alpha| < 1) or f and s split
    at a box corner. sup |alpha| and sup |f - s| are certified upper
    bounds where the fields are polynomials (``_bernstein``); for any
    other field they are maxima over a uniform grid of ``sup_resolution``
    points per axis, estimates that can miss a peak."""
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


def _stacked(levels, ndim: int):
    """The per-axis arrays of a batch of chain levels: one level's as they
    are, several stacked on a new leading axis, each array first given
    the ``ndim`` dimensions of the broadcast shape, so that the stacks
    broadcast against one another as the levels do."""
    if len(levels) == 1:
        return levels[0]
    return [np.stack(axis).reshape((len(levels),) + (1,) * (ndim - np.ndim(axis[0]))
                                   + np.shape(axis[0]))
            for axis in zip(*levels)]


def _mesh_axes(coords):
    """Copies of the axis values of an open mesh (each of the k coordinate
    arrays has k dimensions and spans only its own), or None for any
    other layout."""
    k = len(coords)
    shapes = [np.shape(c) for c in coords]
    if not all(len(shape) == k and all(n == 1 for p, n in enumerate(shape) if p != q)
               for q, shape in enumerate(shapes)):
        return None
    return [np.array(c, dtype=float).reshape(-1) for c in coords]


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

    The open mesh of a net-compatible grid (see ``_orbit_maps``) has no
    such drift: Q maps grid points onto grid points, and ``_samples`` walks
    the orbit exactly over grid indices (``_orbit``), with f, s and alpha
    evaluated once, on the grid, for ``mesh_eval``, checks and surfaces.

    Elsewhere ``eval_arrays`` runs the chain on its coordinate arrays as
    given, with no flattening: on an open mesh a level evaluates f, s and
    alpha on the open mesh of the level's preimages. Each of their results
    must have the broadcast shape of the coordinates (ValueError
    otherwise). A constant alpha is not evaluated: the level product is a
    float (``_scale``). The levels come in batches of ``_SLAB_POINTS // n``
    levels for n points (at least one), stacked on a new leading axis;
    a batch of one level is passed as it is, so an open mesh stays one.
    f is evaluated once per batch, and the gap f - s to a blend base
    (``BlendField``) is formed from those values. A node interpolant on
    the net's knots (the node-data f, a blend's I f) takes the cells the
    walk has located instead of searching (``with_gaps``).

    One walk serves a list of fields on one net at the same coordinates
    (``_chains``; one field is the case of a list of one): the walk runs
    to the deepest field's depth, each distinct f, s, I f and alpha object
    is evaluated once per batch for all of them, and each field's sum is
    the one its own chain gives, bit for bit. The checks that apply an
    operator to a family of fields on one grid sample the family so
    (``_samples``).

    On an open mesh the field keeps its last sample, read-only
    (``_samples``).
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
        self._last_sample = None

    def __call__(self, point) -> float:
        coords = [np.asarray([float(t)]) for t in point]
        return float(self._chain(coords)[0])

    def eval_arrays(self, coords) -> np.ndarray:
        return _samples([self], coords)[0]

    def _kept(self, axes):
        """The kept sample if it was taken on ``axes``, bit for bit, else None."""
        last = self._last_sample
        if last is not None and len(last[0]) == len(axes) and all(
                a.shape == b.shape and a.tobytes() == b.tobytes()
                for a, b in zip(last[0], axes)):
            return last[1]
        return None

    def _chain(self, coords, top_cells=None) -> np.ndarray:
        """Unrolled fixed-point sum over the chain x, Qx, ..., Q^(depth-1) x:
        v(x) = f(x) + sum_{l=1}^{depth-1} prod_{m<l} alpha(X_m) * (f - s)(X_l);
        the level-depth term cancels against the base value s(X_depth).
        ``top_cells`` forces the cells of the first step (``_chain_walk``).
        It is ``_chains`` of this one field."""
        return _chains([self], coords, top_cells)[0]

    def _orbit(self, axes, maps) -> np.ndarray:
        """``_chain`` on the tensor grid of ``axes``, walking the orbit by
        the index ``maps`` of ``_orbit_maps``; same sum in the same order.
        Each level gathers into two buffers made once, and the sum and the
        product are updated in place after the first level."""
        cfg, depth = self.config, self.depth
        mesh = _open_mesh(axes)
        acc, g = with_gap(cfg.f, cfg.s, mesh)
        if depth == 1:
            return acc
        alpha = self._scale(mesh)
        scale = alpha
        buffers = [np.empty(g.shape), np.empty(g.shape)]
        idx = [np.arange(p.size) for p in maps]  # Q^0, whose f is already in acc
        for level in range(1, depth):
            idx = [p[i] for p, i in zip(maps, idx)]
            term = _gather(g, idx, buffers)
            term *= scale
            if level == 1:
                # the start values may be a kept sample: the sum moves into
                # the buffer the gather left free, and a new one takes its place
                acc = np.add(acc, term, out=buffers[len(idx) % 2])
                buffers[len(idx) % 2] = np.empty(g.shape)
            else:
                acc += term
            if level < depth - 1:
                if np.ndim(alpha) == 0:
                    scale = scale * alpha
                else:
                    factor = _gather(alpha, idx, buffers)
                    # alpha's values are the first level's product: a new array
                    scale = scale * factor if level == 1 else np.multiply(scale, factor, out=scale)
        return acc

    def _scale(self, coords):
        """alpha at ``coords``; for a constant alpha its value as a float, so
        that the chain carries the level product as one number (the same
        IEEE products as on arrays of that value)."""
        alpha = self.config.alpha
        if isinstance(alpha, ConstantField):
            return alpha.value
        return _checked(alpha, coords)


def _chains(fields, coords, top_cells=None) -> list:
    """``FractalField._chain`` of each of ``fields`` at the same ``coords``,
    from one walk: the fields share a net, and chain positions depend only
    on the net, the coordinates and the depth.

    The walk runs to the deepest field's depth, a batch of levels at a
    time (see ``FractalField``). In each batch every distinct f, base s,
    blend interpolant I f and non-constant alpha object is evaluated once
    (``with_gaps``; alpha on the levels that still need it). Each field
    keeps its own sum, and fields with the same alpha object share one
    running product; each field adds its terms one level after another, in
    order, for its own levels only, so that its sum is the one its chain
    alone gives, whatever the batching and whatever the other fields."""
    net = _shared_net(fields)
    tops = {}
    for fld in fields:
        f = fld.config.f
        if id(f) not in tops:
            tops[id(f)] = _checked(f, coords)
    accs = [tops[id(fld.config.f)] for fld in fields]
    del tops  # each sum holds its start values alone
    steps = max(fld.depth for fld in fields) - 1
    if steps == 0:
        return accs
    # one running product per alpha object, needed down to its deepest field
    alphas = {id(fld.config.alpha): fld for fld in fields}
    depth = {key: max(fld.depth for fld in fields if id(fld.config.alpha) == key)
             for key in alphas}
    scale = {key: fld._scale(coords) for key, fld in alphas.items() if depth[key] > 1}
    walk = _chain_walk(net, coords, steps, top_cells)
    ndim = accs[0].ndim
    per_batch = max(1, _SLAB_POINTS // max(1, accs[0].size))
    level = 0
    while batch := list(itertools.islice(walk, per_batch)):
        m = len(batch)
        X = _stacked([x for _, x, _ in batch], ndim)
        live = [i for i, fld in enumerate(fields) if fld.depth - 1 > level]
        gaps = [gap for _, gap in with_gaps(
            [(fields[i].config.f, fields[i].config.s) for i in live],
            X, _stacked([c for _, _, c in batch], ndim), net)]
        # alpha is needed at every level but the last, depth - 1
        alpha = {}
        for key, fld in alphas.items():
            n_alpha = min(m, depth[key] - 2 - level)
            if n_alpha > 0:
                alpha[key] = fld._scale(X if n_alpha == m else [x[:n_alpha] for x in X])
        for j in range(m):
            level += 1
            for i, gap in zip(live, gaps):
                if level < fields[i].depth:
                    key = id(fields[i].config.alpha)
                    accs[i] = accs[i] + scale[key] * (gap if m == 1 else gap[j])
            for key, a in alpha.items():
                if level < depth[key] - 1:
                    scale[key] = scale[key] * (a if m == 1 or np.ndim(a) == 0 else a[j])
        del batch, X, gaps, alpha  # one batch alive at a time
    return accs


def _shared_net(fields) -> Net:
    """The net of ``fields``; ValueError unless they all share it."""
    if any(fld.net != fields[0].net for fld in fields):
        raise ValueError("fields chained or walked together must share a net")
    return fields[0].net


def _samples(fields, coords) -> list:
    """``eval_arrays`` of each of ``fields`` at the same ``coords``, the one
    place that picks the path. On the open mesh of the box's uniform grid
    (``box_axes``, bit for bit) that ``_orbit_maps`` finds net-compatible,
    each field walks its exact orbit (``_orbit``); elsewhere the fields are
    chained in one walk (``_chains``). The knot and divisibility test comes
    first, so that other nets leave before any grid is built. On an open
    mesh each field's values are kept, read-only, with a copy of the axis
    values; a field whose kept axis values are these, bit for bit, returns
    its kept values again without a walk, and a write to them raises."""
    axes = _mesh_axes(coords)
    if axes is None:
        return _chains(fields, coords)
    out = {id(fld): fld._kept(axes) for fld in fields}
    todo = list({id(fld): fld for fld in fields if out[id(fld)] is None}.values())
    if todo:
        net = _shared_net(todo)
        sizes = [a.size for a in axes]
        maps = _orbit_maps(net, sizes) if len(sizes) == net.dim else None
        if maps is not None and any(a.tobytes() != b.tobytes()
                                    for a, b in zip(axes, box_axes(net.box, sizes))):
            maps = None
        fresh = (_chains(todo, coords) if maps is None
                 else [fld._orbit(axes, maps) for fld in todo])
        for fld, values in zip(todo, fresh):
            values.setflags(write=False)
            fld._last_sample = (axes, values)
            out[id(fld)] = values
    return [out[id(fld)] for fld in fields]


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
        # defined here, not inherited, so that perfbench's tracer, which wraps
        # the methods a class defines, times the node-data samples apart, the
        # orbit of net-compatible grids (as on surface) and the chain alike
        return _samples([self], coords)[0]


class _GridSweep:
    """The sweep h -> f + alpha * (h(Q .) - s(Q .)) on the tensor grid of
    ``axes`` for one net and scale field, and its iteration to a fixed
    point (``solve``).

    What depends only on the net, alpha and the grid is prepared once,
    here: the preimages Q x, the cells and lerp weights by which h is read
    there, and alpha on the grid. Q acts axis by axis, so the preimages of
    the grid are the tensor grid of the per-axis preimages; off-grid values
    of h come from multilinear interpolation. f on the grid and s at the
    preimages are evaluated once per (f, s), by ``start``.
    """

    def __init__(self, net: Net, alpha, axes):
        self.axes = tuple(axes)
        self.pre_axes = _inverse_step(net, self.axes, _locate_arrays(net, self.axes))
        self._cells, self._thetas = _cell_weights(
            self.axes, [np.diff(a) for a in self.axes], _open_mesh(self.pre_axes))
        self._alpha = mesh_eval(alpha, self.axes)

    def start(self, f, s):
        """f on the grid, and the sweep of (f, s) as a function of grid values."""
        f_here = mesh_eval(f, self.axes)
        s_pre = mesh_eval(s, self.pre_axes)

        def sweep(values):
            h_pre = _multilinear(np.asarray(values, dtype=float), self._cells, self._thetas)
            return f_here + self._alpha * (h_pre - s_pre)

        return f_here, sweep

    def solve(self, f, s, alpha_sup: float, tol: float = 1e-12) -> FixedPointResult:
        """Sweep from f until the update is below ``tol * (1 - alpha_sup)``
        (``solve_fixed_point_grid``)."""
        f_grid, sweep = self.start(f, s)
        target = tol * (1.0 - alpha_sup)
        values = f_grid.copy()
        residual = math.inf
        for iteration in range(1, _MAX_SWEEPS + 1):
            new = sweep(values)
            residual = float(np.max(np.abs(new - values)))
            values = new
            if residual <= target:
                return FixedPointResult(grid=NetInterpolant(self.axes, values),
                                        iterations=iteration, residual=residual)
        raise IterationError(
            f"no convergence to residual {target:.3e} in {_MAX_SWEEPS} sweeps "
            f"(last residual {residual:.3e})",
            residual,
        )


def solve_fixed_point_grid(config: FractalConfig, resolution,
                           tol: float = 1e-12) -> FixedPointResult:
    """Iterate the sweep on a uniform grid until the update is below
    ``tol * (1 - sup|alpha|)``, which bounds the distance to the grid
    fixed point by tol. Independent of the chain evaluator; serves as a
    cross-check oracle for it.
    """
    sweep = _GridSweep(config.net, config.alpha, box_axes(config.net.box, resolution))
    return sweep.solve(config.f, config.s, config.alpha_sup, tol)


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


def _face_points(net: Net, axis: int, knot_index: int, rng) -> np.ndarray:
    """Sample points on the interior face x_axis = knot[knot_index]."""
    pts = np.empty((_FACE_SAMPLES, net.dim))
    for q, (lo, hi) in enumerate(net.box.bounds):
        pts[:, q] = lo + (hi - lo) * rng.random(_FACE_SAMPLES)
    pts[:, axis - 1] = net.axes[axis - 1].knots[knot_index]
    return pts


def boundary_consistency_check(config: FractalConfig, tol: float = 1e-8,
                               seed: int = 0) -> CheckReport:
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
            pts = _face_points(net, q, j, rng)
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

    Compatible means, on every axis, at least 2 points, uniform knots
    (each interior knot within 1e-12 * width of its uniform position) and
    ``res - 1`` divisible by the cell count n. Grid index i then lies in cell
    c = min(i // m, n - 1) with m = (res - 1) / n (interior knots go right,
    as in ``_locate_arrays``), and Q sends it to n * (i - c*m), mirrored to
    (res - 1) - n * (i - c*m) in the reversed cells (odd c).
    """
    maps = []
    for part, (lo, hi), res in zip(net.axes, net.box.bounds, sizes):
        n = part.n_cells
        width = hi - lo
        if res < 2 or (res - 1) % n or any(
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


def _gather(values, idx, buffers):
    """``values[np.ix_(*idx)]``, taken along one axis after another into the
    two grid-shaped ``buffers`` in turn; returns the one that holds it.
    Every index array is as long as its axis, so each take has the grid's
    shape, and no array is made."""
    for q, i in enumerate(idx):
        values = values.take(i, axis=q, out=buffers[q % 2], mode="clip")
    return values


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
    It is ``mesh_eval`` on ``box_axes``: the exact orbit on a net-compatible
    grid, the chain on every other (``_samples``), with the field's depth
    and error bound either way.
    """
    if not isinstance(field, FractalField):
        raise TypeError("expected a FractalField or a DeltaFifField")
    axes = box_axes(field.net.box, resolution)
    return axes, mesh_eval(field, axes)
