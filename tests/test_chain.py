"""The chain on broadcasting coordinates: an open mesh gives the values of
the flattened points bit for bit, f is evaluated once per level, and every
field result is held to the broadcast shape at every level."""

import numpy as np
import pytest

from fractalis import (
    ConstantField,
    DeltaFifField,
    FractalConfig,
    FractalField,
    blend_operator,
    build_net,
    make_delta_fif,
    make_operator_config,
    parse_field,
)
from fractalis._fields import box_axes, mesh_eval, tensor_mesh

_KNOTS = [[0.0, 0.3, 0.6, 1.0], [0.0, 0.7, 1.2, 2.0], [-1.0, -0.2, 0.5]]
_BOUNDS = [(0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)]
_EXPR = {2: "sin(3*x1)*cos(x2)+x1*x2", 3: "x1*x2+x3^2-sin(x2*x3)"}


def _net(dim):
    return build_net(_BOUNDS[:dim], _KNOTS[:dim])


def _nested_fractal(dim):
    """A FractalField whose f is itself a FractalField, both on blend bases."""
    net = _net(dim)
    inner_cfg = make_operator_config(net, parse_field(_EXPR[dim], dim),
                                     parse_field("0.2+0.1*x1", dim),
                                     blend_operator(0.6), sup_resolution=9)
    inner = FractalField(inner_cfg, depth=4)
    outer_cfg = make_operator_config(net, inner, 0.25, blend_operator(0.5), sup_resolution=9)
    return FractalField(outer_cfg, depth=3)


def _delta(dim):
    rng = np.random.default_rng(dim)
    net = _net(dim)
    shape = tuple(part.n_cells + 1 for part in net.axes)
    return DeltaFifField(make_delta_fif(net, rng.uniform(-1.0, 1.0, size=shape), -0.45), depth=5)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [_nested_fractal, _delta], ids=["nested_fractal", "delta"])
def test_open_mesh_equals_flattened_points(make, dim):
    field = make(dim)
    axes = box_axes(field.net.box, [11, 9, 7][:dim])
    shape = tuple(a.size for a in axes)
    flat = field.eval_arrays([m.ravel() for m in tensor_mesh(axes)]).reshape(shape)
    np.testing.assert_array_equal(mesh_eval(field, axes), flat)


class _Counting:
    """Wraps a field and counts its evaluations on coordinate arrays."""

    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __call__(self, point):
        return self.field(point)

    def eval_arrays(self, coords):
        self.calls += 1
        return self.field.eval_arrays(coords)


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_f_is_evaluated_once_per_level(depth):
    f = _Counting(parse_field(_EXPR[2], 2))
    cfg = make_operator_config(_net(2), f, 0.3, blend_operator(0.6), sup_resolution=9)
    field = FractalField(cfg, depth=depth)
    f.calls = 0
    field.eval_arrays([np.linspace(0.0, 1.0, 7), np.linspace(0.0, 2.0, 7)])
    assert f.calls == depth


class _FirstAxisShaped:
    """Sized by its first coordinate array: breaks the broadcast contract."""

    def __call__(self, point):
        return 0.0

    def eval_arrays(self, coords):
        return np.zeros(np.shape(coords[0]))


@pytest.mark.parametrize("role", ["f", "s", "alpha"])
def test_chain_rejects_a_result_without_the_broadcast_shape(role):
    net = _net(2)
    parts = {"f": parse_field("x1*x2", 2), "s": parse_field("x1*x2", 2),
             "alpha": ConstantField(0.3), role: _FirstAxisShaped()}
    cfg = FractalConfig(net=net, alpha_sup=0.3, fs_gap=1.0, **parts)
    field = FractalField(cfg, depth=3)
    with pytest.raises(ValueError, match="_FirstAxisShaped"):
        mesh_eval(field, box_axes(net.box, [6, 5]))
