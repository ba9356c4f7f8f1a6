"""The chain on broadcasting coordinates: an open mesh gives the values of
the flattened points bit for bit, the batched chain gives the bits of the
sum taken one level at a time, f is evaluated once per batch of levels,
and every field result is held to the broadcast shape at every level. One
walk for a list of fields gives each field the bits of its own sum."""

import dataclasses

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
    node_arrays,
    parse_field,
)
from fractalis import fractal_core
from fractalis._fields import (
    BlendField,
    NetInterpolant,
    _checked,
    _open_mesh,
    box_axes,
    mesh_eval,
    with_gap,
)
from fractalis.fractal_core import _chain_walk
from fractalis.net import _locate_arrays

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


def _blend(dim, alpha):
    """A FractalField on a blend base, with the scale field ``alpha``."""
    cfg = make_operator_config(_net(dim), parse_field(_EXPR[dim], dim),
                               parse_field(alpha, dim), blend_operator(0.6), sup_resolution=9)
    return FractalField(cfg, depth=8)


_FIELDS = {
    "nested_fractal_2d": lambda: _nested_fractal(2),
    "nested_fractal_3d": lambda: _nested_fractal(3),
    "delta_2d": lambda: _delta(2),
    "delta_3d": lambda: _delta(3),
    "constant_alpha_2d": lambda: _blend(2, "0.35"),
    "varying_alpha_3d": lambda: _blend(3, "0.2+0.1*x1*x3"),
}


def _longhand(self, coords, top_cells=None):
    """The chain sum taken one level at a time: f, the gap and alpha
    evaluated at each level's preimages alone, the terms added in order."""
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


def _coords(field, layout):
    """Seeded scattered points, or the open mesh of an 11 x 9 (x 7) grid."""
    if layout == "open_mesh":
        return _open_mesh(box_axes(field.net.box, [11, 9, 7][:field.net.dim]))
    rng = np.random.default_rng(5)
    return [rng.uniform(lo, hi, 60) for lo, hi in field.net.box.bounds]


@pytest.mark.parametrize("levels_per_batch", [None, 3, 1], ids=["one_batch", "3", "1"])
@pytest.mark.parametrize("layout", ["flat_points", "open_mesh"])
@pytest.mark.parametrize("name", list(_FIELDS))
def test_batched_chain_equals_the_longhand_sum(monkeypatch, name, layout, levels_per_batch):
    # fields built anew for each side: no sample kept by one is read by the other
    longhand = _FIELDS[name]()
    coords = _coords(longhand, layout)
    n = np.broadcast(*coords).size
    if levels_per_batch is not None:
        # on the nested field the inner chain, at several levels' points, takes
        # batches of fewer levels, or of one
        monkeypatch.setattr(fractal_core, "_SLAB_POINTS", levels_per_batch * n)
    with monkeypatch.context() as patched:
        patched.setattr(FractalField, "_chain", _longhand)
        want = longhand._chain(coords)
    np.testing.assert_array_equal(_FIELDS[name]()._chain(coords), want)


@pytest.mark.parametrize("levels_per_batch", [None, 2], ids=["one_batch", "2"])
@pytest.mark.parametrize("name", ["nested_fractal_2d", "delta_3d", "varying_alpha_3d"])
def test_batched_chain_with_forced_top_cells_equals_the_longhand_sum(
        monkeypatch, name, levels_per_batch):
    # the cells of a knot face forced from the left, as boundary_consistency
    # does: the first step maps by them, every later step by located cells
    longhand = _FIELDS[name]()
    coords = _coords(longhand, "flat_points")
    coords[0] = np.full_like(coords[0], longhand.net.axes[0].knots[1])
    top_cells = list(_locate_arrays(longhand.net, coords))
    top_cells[0] = np.zeros_like(top_cells[0])
    if levels_per_batch is not None:
        monkeypatch.setattr(fractal_core, "_SLAB_POINTS", levels_per_batch * coords[0].size)
    with monkeypatch.context() as patched:
        patched.setattr(FractalField, "_chain", _longhand)
        want = longhand._chain(coords, top_cells)
    np.testing.assert_array_equal(_FIELDS[name]()._chain(coords, top_cells), want)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("make", [_nested_fractal, _delta], ids=["nested_fractal", "delta"])
def test_open_mesh_equals_flattened_points(make, dim):
    field = make(dim)
    axes = box_axes(field.net.box, [11, 9, 7][:dim])
    shape = tuple(a.size for a in axes)
    flat = field.eval_arrays([m.ravel() for m in np.meshgrid(*axes, indexing="ij")]).reshape(shape)
    np.testing.assert_array_equal(mesh_eval(field, axes), flat)


class _Counting:
    """Wraps a field and records the point count of each of its evaluations
    on coordinate arrays."""

    def __init__(self, field):
        self.field = field
        self.points = []

    def __call__(self, point):
        return self.field(point)

    def eval_arrays(self, coords):
        self.points.append(np.broadcast(*coords).size)
        return self.field.eval_arrays(coords)


@pytest.mark.parametrize("levels_per_batch", [None, 2], ids=["one_batch", "2"])
@pytest.mark.parametrize("depth", [1, 2, 5])
def test_f_is_evaluated_once_per_batch(monkeypatch, depth, levels_per_batch):
    # f sees every point at every level, depth x n points in all: once at
    # the top, then once per batch of the depth - 1 levels below it
    f = _Counting(parse_field(_EXPR[2], 2))
    cfg = make_operator_config(_net(2), f, 0.3, blend_operator(0.6), sup_resolution=9)
    field = FractalField(cfg, depth=depth)
    n = 7
    if levels_per_batch is not None:
        monkeypatch.setattr(fractal_core, "_SLAB_POINTS", levels_per_batch * n)
    per_batch = levels_per_batch or depth
    f.points = []
    field.eval_arrays([np.linspace(0.0, 1.0, n), np.linspace(0.0, 2.0, n)])
    below = [min(per_batch, depth - 1 - i) * n for i in range(0, depth - 1, per_batch)]
    assert f.points == [n] + below
    assert sum(f.points) == depth * n


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


def _family(dim):
    """FractalFields on one net that share some field objects and not
    others: two blends of one f and one I f (one sharing a base with a
    third field of another alpha), a field whose f is that I f, a field on
    a distinct f with an equal but distinct alpha, a node-data field and a
    field of depth 1; constant and non-constant alpha; depths 1 to 7."""
    net = _net(dim)
    nodes = node_arrays(net)
    f = parse_field(_EXPR[dim], dim)
    g = parse_field("x1^2 - 0.5*x1*x2" if dim > 1 else "x1^2 - 0.5*x1", dim)
    interp = NetInterpolant(nodes, mesh_eval(f, nodes))
    interp_g = NetInterpolant(nodes, mesh_eval(g, nodes))
    alpha = parse_field("0.2+0.1*x1", dim)
    blend = BlendField((0.4, 0.6), (f, interp))

    def field(f, s, alpha, depth):
        cfg = FractalConfig(net=net, f=f, alpha=alpha, s=s, alpha_sup=0.35, fs_gap=1.0)
        return FractalField(cfg, depth=depth)

    # the I f of the first two is the f of the third: f - I f must not be
    # formed in the array of its values
    return [
        field(f, blend, alpha, 7),
        field(f, BlendField((0.7, 0.3), (f, interp)), alpha, 4),
        field(interp, parse_field("0.1*x1", dim), ConstantField(0.3), 5),
        field(f, blend, ConstantField(-0.35), 3),
        field(g, BlendField((0.5, 0.5), (g, interp_g)), parse_field("0.2+0.1*x1", dim), 6),
        field(g, parse_field("x1", dim), ConstantField(0.3), 1),
        DeltaFifField(make_delta_fif(net, np.random.default_rng(dim).uniform(
            -1.0, 1.0, size=tuple(a.size for a in nodes)), -0.45), depth=5),
    ]


def _field_longhand(field, coords, top_cells=None):
    """One field's chain sum taken one level at a time, with no shared
    evaluation: f, s (or f and I f of a blend) and alpha evaluated anew at
    each level's preimages, each term added in order."""
    cfg, depth = field.config, field.depth
    acc = _checked(cfg.f, coords)
    if depth == 1:
        return acc
    scale = field._scale(coords)
    for level, (_, X, _) in enumerate(_chain_walk(field.net, coords, depth - 1, top_cells),
                                      start=1):
        f_vals = _checked(cfg.f, X)
        if isinstance(cfg.s, BlendField) and cfg.s.fields[0] is cfg.f:
            gap = (f_vals - _checked(cfg.s.fields[1], X)) * cfg.s.weights[1]
        else:
            gap = f_vals - _checked(cfg.s, X)
        acc = acc + scale * gap
        if level < depth - 1:
            scale = scale * field._scale(X)
    return acc


@pytest.mark.parametrize("order", ["as_built", "reversed"])
@pytest.mark.parametrize("levels_per_batch", [None, 3, 1], ids=["one_batch", "3", "1"])
@pytest.mark.parametrize("layout", ["flat_points", "open_mesh"])
@pytest.mark.parametrize("dim", [2, 3])
def test_one_walk_gives_each_field_its_longhand_sum(monkeypatch, dim, layout,
                                                    levels_per_batch, order):
    fields = _family(dim)
    if order == "reversed":
        fields.reverse()
    coords = _coords(fields[0], layout)
    n = np.broadcast(*coords).size
    if levels_per_batch is not None:
        monkeypatch.setattr(fractal_core, "_SLAB_POINTS", levels_per_batch * n)
    got = fractal_core._chains(fields, coords)
    assert len(got) == len(fields)
    for field, values in zip(fields, got):
        np.testing.assert_array_equal(values, _field_longhand(field, coords))


@pytest.mark.parametrize("levels_per_batch", [None, 2], ids=["one_batch", "2"])
def test_one_walk_with_forced_top_cells_gives_each_field_its_longhand_sum(
        monkeypatch, levels_per_batch):
    fields = _family(3)
    coords = _coords(fields[0], "flat_points")
    coords[0] = np.full_like(coords[0], fields[0].net.axes[0].knots[1])
    top_cells = list(_locate_arrays(fields[0].net, coords))
    top_cells[0] = np.zeros_like(top_cells[0])
    if levels_per_batch is not None:
        monkeypatch.setattr(fractal_core, "_SLAB_POINTS", levels_per_batch * coords[0].size)
    for field, values in zip(fields, fractal_core._chains(fields, coords, top_cells)):
        np.testing.assert_array_equal(values, _field_longhand(field, coords, top_cells))


def test_one_walk_evaluates_each_shared_field_once_per_batch(monkeypatch):
    # six constant scales over one f and one base, as the scale sequence
    # has them: f and I f see each point of each level once in all
    f = _Counting(parse_field(_EXPR[2], 2))
    cfg = make_operator_config(_net(2), f, 0.3, blend_operator(0.6), sup_resolution=9)
    interp = _Counting(cfg.s.fields[1])
    s = BlendField(cfg.s.weights, (f, interp))
    fields = [FractalField(dataclasses.replace(cfg, s=s, alpha=ConstantField(a)), depth=d)
              for a, d in zip([0.5 / k for k in range(1, 7)], [6, 2, 5, 6, 3, 4])]
    n = 7
    monkeypatch.setattr(fractal_core, "_SLAB_POINTS", 2 * n)
    f.points, interp.points = [], []
    fractal_core._chains(fields, [np.linspace(0.0, 1.0, n), np.linspace(0.0, 2.0, n)])
    # once at the top, then batches of two levels down to the deepest, 6
    assert f.points == [n, 2 * n, 2 * n, n]
    assert interp.points == [2 * n, 2 * n, n]


def test_one_walk_refuses_fields_on_different_nets():
    a = _blend(2, "0.35")
    cfg = make_operator_config(build_net(_BOUNDS[:2], [[0.0, 0.5, 1.0], [0.0, 1.0, 2.0]]),
                               parse_field(_EXPR[2], 2), 0.35, blend_operator(0.6),
                               sup_resolution=9)
    with pytest.raises(ValueError, match="share a net"):
        fractal_core._chains([a, FractalField(cfg, depth=3)], _coords(a, "flat_points"))
