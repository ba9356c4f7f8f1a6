"""The field contract: a call at a point is ``eval_arrays`` at that point,
bit for bit; on tensor grids, ``mesh_eval`` hands every field the
open mesh and must get the values of the dense mesh, bit for bit; grid
maxima taken in slabs equal the maxima of one dense evaluation; the
multilinear kernel gives the fancy-index nested lerps bit for bit on every
coordinate shape, and the corner sum within rounding."""

import itertools
import tracemalloc

import numpy as np
import pytest

from fractalis import (
    BlendField,
    CallableField,
    ConstantField,
    DeltaFifField,
    FractalField,
    LinCombField,
    NetInterpolant,
    ProductField,
    TensorPolynomial,
    apply_operator,
    blend_operator,
    build_net,
    grid_sup_norm,
    make_delta_fif,
    make_operator_config,
    parse_field,
)
from fractalis import _fields
from fractalis._fields import _clip, _multilinear, box_axes, mesh_eval, with_gap
from fractalis.cli import _knot_product
from fractalis.net import _locate_arrays, node_arrays

_EXPR = {1: "sin(3*x1)+x1^2", 2: "sin(3*x1)*cos(x2)+x1*x2", 3: "x1*x2+x3^2-x2*x3"}


def _net(dim):
    return build_net([(0.0, 1.0)] * dim, [[0.0, 0.3, 0.6, 1.0]] * dim)


def _nonuniform_interpolant(rng, dim):
    axes = [np.array([0.0, 0.15, 0.4, 0.45, 1.0])] * dim
    return NetInterpolant(axes, rng.uniform(-1.0, 1.0, size=(5,) * dim))


def _fractal(rng, dim):
    f = parse_field(_EXPR[dim], dim)
    cfg = make_operator_config(_net(dim), f, 0.3, blend_operator(0.6), sup_resolution=17)
    return FractalField(cfg, depth=3)


def _blend(rng, dim):
    return apply_operator(blend_operator(0.6), parse_field(_EXPR[dim], dim), _net(dim))


def _delta(rng, dim):
    fif = make_delta_fif(_net(dim), rng.uniform(-1.0, 1.0, size=(4,) * dim), -0.4)
    return DeltaFifField(fif, depth=3)


FIELDS = {
    "expr": lambda rng, dim: parse_field(_EXPR[dim], dim),
    "expr_constant": lambda rng, dim: parse_field("0.5", dim),
    "expr_one_variable": lambda rng, dim: parse_field(f"x{dim}", dim),
    "constant": lambda rng, dim: ConstantField(0.7),
    "callable": lambda rng, dim: CallableField(lambda p: sum(p) ** 2 - p[0]),
    "lincomb": lambda rng, dim: LinCombField(
        (0.3, -1.2), (parse_field("x1", dim), _nonuniform_interpolant(rng, dim))),
    "product": lambda rng, dim: ProductField(
        parse_field(f"x{dim}", dim), _nonuniform_interpolant(rng, dim)),
    "interpolant": _nonuniform_interpolant,
    "blend": _blend,
    "fractal": _fractal,
    "delta": _delta,
    "polynomial": lambda rng, dim: TensorPolynomial(rng.uniform(-1.0, 1.0, size=(3,) * dim)),
    "knot_product": lambda rng, dim: _knot_product(_net(dim)),
    # numpy's exp, log and power differ from math's in the last bit at some
    # points: a call at a point must still give eval_arrays' bits
    "expr_exp_log_cube": lambda rng, dim: parse_field(
        f"exp(3*x1) - log(x{dim}+0.5) + x1^3", dim),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_call_at_a_point_is_eval_arrays_at_the_point(name, dim):
    rng = np.random.default_rng(100 + dim)
    field = FIELDS[name](rng, dim)
    coords = list(rng.uniform(0.0, 1.0, size=(dim, 200)))
    values = field.eval_arrays(coords)
    called = np.array([field(p) for p in zip(*coords)])
    _assert_same_bits(called, values)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_open_mesh_matches_dense_mesh(name, dim):
    rng = np.random.default_rng(dim)
    field = FIELDS[name](rng, dim)
    axes = box_axes([(0.0, 1.0)] * dim, [9, 6, 7][:dim])
    got = mesh_eval(field, axes)
    assert got.shape == tuple(a.size for a in axes)
    np.testing.assert_array_equal(got, field.eval_arrays(np.meshgrid(*axes, indexing="ij")))


class _FirstAxisShaped:
    """Sized by its first coordinate array: breaks the broadcast contract."""

    def __call__(self, point):
        return 0.0

    def eval_arrays(self, coords):
        return np.zeros(np.shape(coords[0]))


@pytest.mark.parametrize("dim", [2, 3])
def test_mesh_eval_rejects_a_result_without_the_grid_shape(dim):
    with pytest.raises(ValueError, match="_FirstAxisShaped"):
        mesh_eval(_FirstAxisShaped(), box_axes([(0.0, 1.0)] * dim, 5))


class _Recorder:
    """Wraps a field and records how many grid points each call sees."""

    def __init__(self, field):
        self.field = field
        self.sizes = []

    def __call__(self, point):
        return self.field(point)

    def eval_arrays(self, coords):
        out = self.field.eval_arrays(coords)
        self.sizes.append(out.size)
        return out


@pytest.mark.parametrize("dim, cap", [(2, 1000), (3, 2000)])
def test_slabbed_grid_maxima_equal_one_dense_evaluation(monkeypatch, dim, cap):
    f = parse_field(_EXPR[dim], dim)
    alpha = _Recorder(parse_field("0.2+0.1*x1", dim))
    net = _net(dim)
    op = blend_operator(0.6)
    res = 65 if dim == 2 else 33
    dense = np.meshgrid(*box_axes(net.box, res), indexing="ij")
    want_sup = float(np.max(np.abs(alpha.field.eval_arrays(dense))))
    s = make_operator_config(net, f, 0.3, op, sup_resolution=res).s
    # the blend gap t*(f - I f), evaluated once on the dense mesh
    gap = 0.6 * (f.eval_arrays(dense) - s.fields[1].eval_arrays(dense))
    want_gap = float(np.max(np.abs(gap)))

    monkeypatch.setattr(_fields, "_SLAB_POINTS", cap)
    assert grid_sup_norm(alpha, net.box, res) == want_sup
    assert len(alpha.sizes) > 1 and max(alpha.sizes) <= cap
    assert sum(alpha.sizes) == res**dim
    cfg = make_operator_config(net, f, alpha, op, sup_resolution=res)
    assert cfg.fs_gap == want_gap
    assert cfg.alpha_sup == want_sup


@pytest.mark.parametrize("dim, cap", [(3, 100), (3, 10), (2, 7)])
def test_grid_maxima_slab_leading_axes_below_one_first_axis_slab(monkeypatch, dim, cap):
    # one entry of the first axis holds 17^(dim-1) points, more than the cap
    net = _net(dim)
    alpha = _Recorder(parse_field("0.2+0.1*x1*x2-0.05*x2", dim))
    res = 17
    want = float(np.max(np.abs(alpha.field.eval_arrays(
        np.meshgrid(*box_axes(net.box, res), indexing="ij")))))
    assert res ** (dim - 1) > cap
    monkeypatch.setattr(_fields, "_SLAB_POINTS", cap)
    assert grid_sup_norm(alpha, net.box, res) == want
    assert max(alpha.sizes) <= cap
    assert sum(alpha.sizes) == res**dim


def _scattered_with_knots(rng, net, n=40):
    """Random points plus points on every knot, on the box ends among them."""
    coords = []
    for part in net.axes:
        knots = np.asarray(part.knots, dtype=float)
        pts = rng.uniform(knots[0], knots[-1], size=n)
        coords.append(rng.permutation(np.concatenate([pts, knots])))
    return coords


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_blend_base_is_the_lincomb_base(dim):
    rng = np.random.default_rng(10 + dim)
    net = build_net([(0.0, 1.0)] * dim, [[0.0, 0.15, 0.4, 0.45, 1.0]] * dim)
    f = parse_field(_EXPR[dim], dim)
    blend = apply_operator(blend_operator(0.6), f, net)
    assert isinstance(blend, BlendField)
    interp = NetInterpolant(node_arrays(net), mesh_eval(f, node_arrays(net)))
    old = LinCombField((1.0 - 0.6, 0.6), (f, interp))
    coords = _scattered_with_knots(rng, net)
    want = old.eval_arrays(coords)
    np.testing.assert_array_equal(blend.eval_arrays(coords), want)
    f_want = f.eval_arrays(coords)
    gap_want = 0.6 * (f_want - interp.eval_arrays(coords))
    np.testing.assert_allclose(gap_want, f_want - want, rtol=0.0, atol=1e-15)
    for cells in (None, _locate_arrays(net, coords)):
        f_vals, gap = with_gap(f, blend, coords, cells, net)
        np.testing.assert_array_equal(f_vals, f_want)
        _assert_same_bits(gap, gap_want)
        # any other base field: the plain difference
        f_vals, gap = with_gap(f, old, coords, cells, net)
        np.testing.assert_array_equal(f_vals, f_want)
        _assert_same_bits(gap, f_want - want)
    point = [c[0] for c in coords]
    assert blend(point) == old(point)
    axes = box_axes(net.box, [9, 6, 7][:dim])
    np.testing.assert_array_equal(mesh_eval(blend, axes), mesh_eval(old, axes))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interpolant_with_the_chain_cells_equals_its_own_search(dim):
    rng = np.random.default_rng(20 + dim)
    net = build_net([(-1.0, 2.0)] * dim, [[-1.0, -0.4, 0.1, 1.2, 2.0]] * dim)
    interp = NetInterpolant(node_arrays(net), rng.uniform(-1.0, 1.0, size=(5,) * dim))
    coords = _scattered_with_knots(rng, net)
    got = interp.eval_arrays(coords, _locate_arrays(net, coords))
    np.testing.assert_array_equal(got, interp.eval_arrays(coords))
    mesh = np.meshgrid(*coords, indexing="ij", sparse=True)
    got = interp.eval_arrays(mesh, _locate_arrays(net, mesh))
    np.testing.assert_array_equal(got, interp.eval_arrays(mesh))


def _reference_multilinear(table, lows, thetas):
    """The kernel's nested lerps with one broadcast fancy index per corner:
    v = (1 - theta_q)*lo + theta_q*hi along axis q, axis 0 innermost, with
    lo and hi the entries lows[q] and lows[q] + 1, plus 0.0 at the end."""
    def contract(q, upper):
        if q < 0:
            return table[upper]
        lo = contract(q - 1, (lows[q],) + upper)
        hi = contract(q - 1, (lows[q] + 1,) + upper)
        return (1.0 - thetas[q]) * lo + thetas[q] * hi
    return contract(len(lows) - 1, ()) + 0.0


def _corner_sum(table, lows, thetas):
    """The 2^k-corner sum the kernel replaced: the weight of each corner
    mask formed left to right, times the corner value, added to a zero
    array."""
    factors = [(1.0 - th, th) for th in thetas]
    out = np.zeros(np.broadcast(*lows, *thetas).shape, dtype=float)
    for mask in itertools.product((0, 1), repeat=len(thetas)):
        weight = factors[0][mask[0]]
        for bit, pair in zip(mask[1:], factors[1:]):
            weight = weight * pair[bit]
        out += weight * table[tuple(c + bit for c, bit in zip(lows, mask))]
    return out


def _cells_and_thetas(interp, coords, cells=None):
    coords = [np.asarray(c, dtype=float) for c in coords]
    if cells is None:
        cells = [np.clip(np.searchsorted(a, t, side="right") - 1, 0, a.size - 2)
                 for a, t in zip(interp.axes, coords)]
    thetas = [(t - a[i]) / (a[i + 1] - a[i]) for a, t, i in zip(interp.axes, coords, cells)]
    return cells, thetas


def _reference_interpolant(interp, coords, cells=None):
    """``NetInterpolant.eval_arrays`` by ``_reference_multilinear``."""
    return _reference_multilinear(interp.values, *_cells_and_thetas(interp, coords, cells))


class _KnotProductReference:
    """The class ``_knot_product`` replaced, as it was: product over axes
    and knots of (x_q - knot); zero at every net node."""

    def __init__(self, net):
        self.knots = [np.asarray(part.knots, dtype=float) for part in net.axes]
        mesh = np.meshgrid(*box_axes(net.box, 65), indexing="ij", sparse=True)
        self.scale = max(1e-12, float(np.max(np.abs(self._raw(mesh)))))

    def _raw(self, coords):
        out = np.ones(np.shape(coords[0]))
        for q, ks in enumerate(self.knots):
            x = np.asarray(coords[q], dtype=float)
            for t in ks:
                out = out * (x - t)
        return out

    def __call__(self, point):
        return float(self._raw([np.asarray(float(v)) for v in point])) / self.scale

    def eval_arrays(self, coords):
        return self._raw(coords) / self.scale


@pytest.mark.parametrize("bounds, knots", [
    ([(-1.0, 1.0), (0.0, 2.0)], [[-1.0, -0.3, 0.2, 1.0], [0.0, 0.7, 2.0]]),
    ([(0.0, 1.0)] * 3, [[0.0, 0.3, 1.0], [0.0, 0.45, 0.6, 1.0], [0.0, 0.8, 1.0]]),
], ids=["2d-negative-knot", "3d"])
def test_knot_product_expression_is_the_old_class_bit_for_bit(bounds, knots):
    net = build_net(bounds, knots)
    field, want = _knot_product(net), _KnotProductReference(net)
    axes = box_axes(net.box, [33, 17, 9][:net.dim])
    _assert_same_bits(mesh_eval(field, axes), want.eval_arrays(_fields._open_mesh(axes)))
    rng = np.random.default_rng(5)
    for p in rng.uniform(*np.transpose(bounds), size=(20, net.dim)):
        assert field(p) == want(p)


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _layouts(axis_points):
    """Coordinate arrays of the tensor grid of ``axis_points`` in several
    broadcasting shapes: the open mesh, the flattened points and, for
    k > 1, shapes that are neither (one array spans every axis; the last
    array is 1-d)."""
    k = len(axis_points)
    mesh = np.meshgrid(*axis_points, indexing="ij", sparse=True)
    dense = np.meshgrid(*axis_points, indexing="ij")
    out = {"open": mesh, "flat": [d.ravel() for d in dense]}
    if k > 1:
        out["first_dense"] = [dense[0], *mesh[1:]]
        out["last_1d"] = [*mesh[:-1], mesh[-1].ravel()]
    return out


_UNIFORM = [-1.0, -0.25, 0.5, 1.25, 2.0]
_NONUNIFORM = [-1.0, -0.4, 0.1, 1.2, 2.0]


@pytest.mark.parametrize("knots", [_UNIFORM, _NONUNIFORM], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_multilinear_gathers_equal_the_fancy_index_kernel(dim, knots):
    rng = np.random.default_rng(30 + dim)
    net = build_net([(-1.0, 2.0)] * dim, [knots] * dim)
    interp = NetInterpolant(node_arrays(net), rng.uniform(-1.0, 1.0, size=(5,) * dim))
    # on every knot, the box ends among them, and between knots
    points = [rng.permutation(np.concatenate([knots, rng.uniform(-1.0, 2.0, size=3)]))
              for _ in range(dim)]
    for coords in _layouts(points).values():
        want = _reference_interpolant(interp, coords)
        _assert_same_bits(interp.eval_arrays(coords), want)
        cells = _locate_arrays(net, coords)
        _assert_same_bits(interp.eval_arrays(coords, cells),
                          _reference_interpolant(interp, coords, cells))
    point = [p[0] for p in points]
    assert interp(point) == _reference_interpolant(interp, [[t] for t in point])[0]
    # 0-d coordinates give a 0-d array
    got = interp.eval_arrays(point)
    assert isinstance(got, np.ndarray)
    _assert_same_bits(got, _reference_interpolant(interp, point))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_multilinear_keeps_signed_zeros_of_the_fancy_index_kernel(dim):
    # every corner term is +-0.0 at the nodes of a table of signed zeros
    axes = [np.array([0.0, 0.5, 1.0])] * dim
    table = np.random.default_rng(dim).choice([-1.0, 1.0], size=(3,) * dim) * 0.0
    assert np.signbit(table).any()
    interp = NetInterpolant(axes, table)
    points = [np.array([0.0, 0.25, 0.5, 1.0])] * dim
    for coords in _layouts(points).values():
        _assert_same_bits(interp.eval_arrays(coords), _reference_interpolant(interp, coords))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_node_data_blend_gathers_equal_the_fancy_index_kernel(dim):
    # the node-data chain on an open mesh through knots and between them
    # gives the values of the flattened points, bit for bit
    rng = np.random.default_rng(40 + dim)
    net = build_net([(0.0, 1.0)] * dim, [[0.0, 0.3, 0.6, 1.0]] * dim)
    fif = make_delta_fif(net, rng.uniform(-1.0, 1.0, size=(4,) * dim), -0.4)
    points = [rng.permutation(np.concatenate([[0.0, 0.3, 0.6, 1.0], rng.uniform(size=4)]))
              for _ in range(dim)]
    field = DeltaFifField(fif, depth=4)
    mesh = np.meshgrid(*points, indexing="ij", sparse=True)
    flat = [d.ravel() for d in np.meshgrid(*points, indexing="ij")]
    _assert_same_bits(field.eval_arrays(mesh),
                      field.eval_arrays(flat).reshape(tuple(p.size for p in points)))


def test_clip_is_np_clip_bit_for_bit():
    x = np.array([-0.0, 0.0, np.nan, -1.0, 2.0, 0.5, -np.inf, np.inf, 1.0])
    for lo, hi in [(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (0.5, 0.5)]:
        _assert_same_bits(_clip(x, lo, hi), np.clip(x, lo, hi))
    i = np.array([-3, 0, 2, 5])
    _assert_same_bits(_clip(i, 0, 3), np.clip(i, 0, 3))


def test_3d_config_build_stays_in_slabs():
    # the eval-3d benchmark config at the default 129^3 sup grid
    net = build_net([(0.0, 1.0)] * 3, [[0.0, 0.5, 1.0]] * 3)
    f = _Recorder(parse_field("x1*x2+x3^2", 3))
    tracemalloc.start()
    try:
        cfg = make_operator_config(net, f, 0.3, blend_operator(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sup grid, the node grid and the 2^3 box corners of the corner check
    assert sum(f.sizes) == 129**3 + 3**3 + 2**3
    assert max(f.sizes) <= _fields._SLAB_POINTS
    assert peak < 129**3 * 8
    assert cfg.fs_gap > 0.0


@pytest.mark.parametrize("dim, n", [(2, 257), (3, 41)])
def test_interpolant_on_an_open_mesh_holds_three_grid_arrays(dim, n):
    # a table as large as the grid, as in the grid sweep: the gather's
    # intermediates are grid-sized too and must reuse the kernel's buffers
    rng = np.random.default_rng(50 + dim)
    interp = NetInterpolant([np.linspace(0.0, 1.0, n)] * dim, rng.uniform(size=(n,) * dim))
    mesh = np.meshgrid(*[np.sort(rng.uniform(size=n)) for _ in range(dim)],
                       indexing="ij", sparse=True)
    tracemalloc.start()
    try:
        interp.eval_arrays(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * n**dim * 8


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_multilinear_is_the_corner_sum_within_rounding(dim):
    # seeded tables with sign changes and zeros; points on every knot and
    # between knots, in every coordinate layout
    rng = np.random.default_rng(60 + dim)
    axes = [np.sort(np.concatenate([[-1.0, 2.0], rng.uniform(-1.0, 2.0, size=3)]))
            for _ in range(dim)]
    table = rng.uniform(-4.0, 4.0, size=(5,) * dim)
    table[rng.random(table.shape) < 0.2] = -0.0
    interp = NetInterpolant(axes, table)
    points = [rng.permutation(np.concatenate([a, rng.uniform(-1.0, 2.0, size=4)]))
              for a in axes]
    tol = (2**dim + 4 * dim) * np.finfo(float).eps * np.max(np.abs(table))
    for name, coords in _layouts(points).items():
        cells, thetas = _cells_and_thetas(interp, coords)
        got = _multilinear(interp.values, cells, thetas)
        want = _corner_sum(interp.values, cells, thetas)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol, err_msg=name)
        assert not np.any(np.signbit(got) & (got == 0.0)), name
        # exact at the nodes: every coordinate on a knot
        on_knots = np.ones(got.shape, dtype=bool)
        for c, a in zip(coords, axes):
            on_knots &= np.isin(c, a)
        assert on_knots.any(), name
        nodes = interp.values[tuple(np.broadcast_to(
            np.searchsorted(a, c), got.shape)[on_knots] for a, c in zip(axes, coords))]
        np.testing.assert_array_equal(got[on_knots], nodes + 0.0, err_msg=name)


def test_interpolant_at_scattered_points_holds_few_point_arrays():
    # a 1-d table as large as the point set: cells, thetas, the result and
    # one gather buffer
    n = 4097
    rng = np.random.default_rng(70)
    interp = NetInterpolant([np.linspace(0.0, 1.0, n)], rng.uniform(size=n))
    coords = [rng.uniform(size=n)]
    tracemalloc.start()
    try:
        interp.eval_arrays(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n * 8


def test_chain_at_scattered_points_holds_memory_independent_of_depth():
    # each level's kernel arrays must be freed by reference counting when
    # the level ends, not kept until a garbage collection
    net = _net(3)
    cfg = make_operator_config(net, parse_field(_EXPR[3], 3), 0.3, blend_operator(0.6),
                               sup_resolution=9)
    n = 20000
    coords = list(np.random.default_rng(80).uniform(size=(3, n)))
    peaks = []
    for depth in (2, 16):
        tracemalloc.start()
        try:
            FractalField(cfg, depth=depth).eval_arrays(coords)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2 * n * 8
