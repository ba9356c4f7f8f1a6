"""The field contract on tensor grids: ``mesh_eval`` hands every field the
open mesh and must get the values of the dense mesh, bit for bit; grid
maxima taken in slabs equal the maxima of one dense evaluation."""

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
from fractalis._fields import box_axes, mesh_eval, tensor_mesh, with_base
from fractalis.cli import _KnotProduct
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
    "knot_product": lambda rng, dim: _KnotProduct(_net(dim)),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_open_mesh_matches_dense_mesh(name, dim):
    rng = np.random.default_rng(dim)
    field = FIELDS[name](rng, dim)
    axes = box_axes([(0.0, 1.0)] * dim, [9, 6, 7][:dim])
    got = mesh_eval(field, axes)
    assert got.shape == tuple(a.size for a in axes)
    np.testing.assert_array_equal(got, field.eval_arrays(tensor_mesh(axes)))


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
    dense = tensor_mesh(box_axes(net.box, res))
    want_sup = float(np.max(np.abs(alpha.field.eval_arrays(dense))))
    s = make_operator_config(net, f, 0.3, op, sup_resolution=res).s
    want_gap = float(np.max(np.abs(f.eval_arrays(dense) - s.eval_arrays(dense))))

    monkeypatch.setattr(_fields, "MAX_GRID_POINTS", cap)
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
    want = float(np.max(np.abs(alpha.field.eval_arrays(tensor_mesh(box_axes(net.box, res))))))
    assert res ** (dim - 1) > cap
    monkeypatch.setattr(_fields, "MAX_GRID_POINTS", cap)
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
    for cells in (None, _locate_arrays(net, coords)):
        f_vals, s_vals = with_base(f, blend, coords, cells, net)
        np.testing.assert_array_equal(f_vals, f.eval_arrays(coords))
        np.testing.assert_array_equal(s_vals, want)
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
