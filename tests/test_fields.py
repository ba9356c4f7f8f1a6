"""The field contract on tensor grids: ``mesh_eval`` hands every field the
open mesh and must get the values of the dense mesh, bit for bit; grid
maxima taken in slabs equal the maxima of one dense evaluation."""

import numpy as np
import pytest

from fractalis import (
    CallableField,
    ConstantField,
    DeltaFifField,
    FractalField,
    LinCombField,
    NetInterpolant,
    ProductField,
    TensorPolynomial,
    blend_operator,
    build_net,
    grid_sup_norm,
    make_delta_fif,
    make_operator_config,
    parse_field,
)
from fractalis import _fields
from fractalis._fields import box_axes, mesh_eval, tensor_mesh
from fractalis.cli import _KnotProduct

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
