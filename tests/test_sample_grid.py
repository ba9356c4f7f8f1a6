"""Grid sampling: the exact orbit path on net-compatible grids against the
chain evaluator, the index map itself, the chain fallback, and the one
place that picks between them (``fractal_core._samples``), whichever
sampler asks."""

import zlib

import numpy as np
import pytest

from conftest import PinnedBase, random_alpha, random_poly
from fractalis import (
    ConstantField,
    DeltaFifField,
    FractalField,
    blend_operator,
    build_net,
    fractal_operator,
    make_config,
    make_delta_fif,
    parse_field,
    perturbation_gap,
    sample_grid,
    solve_fixed_point_grid,
)
from fractalis import fractal_core
from fractalis._fields import _open_mesh, box_axes, mesh_eval
from fractalis.fractal_core import _eval_chunked, _orbit_maps, _samples


def _dyadic_uniform_net(rng, cells):
    """Uniform net with dyadic bounds and power-of-two widths, so grid
    coordinates and inverse cell steps are exact in floating point when
    every axis has two cells."""
    bounds, knots = [], []
    for n in cells:
        lo = float(rng.integers(-8, 5)) / 4.0
        hi = lo + 2.0 ** int(rng.integers(-1, 2))
        bounds.append((lo, hi))
        knots.append([float(t) for t in np.linspace(lo, hi, n + 1)])
    return build_net(bounds, knots)


def _random_field(rng, net, tol=1e-9, depth=None, sup_target=None):
    f = random_poly(rng, net.dim)
    alpha = random_alpha(rng, net, sup_target=sup_target)
    # a coarse sup grid keeps 3-D configs cheap; both evaluators share it
    cfg = make_config(net, f, alpha, PinnedBase(f, net.box), sup_resolution=17)
    return FractalField(cfg, tol=tol, depth=depth)


def _chain_values(field, axes):
    """The float chain on the dense grid of ``axes``, whatever the grid."""
    return fractal_core._chains([field], np.meshgrid(*axes, indexing="ij"))[0]


def _slab_values(monkeypatch, field, axes):
    """The chain on the flattened grid points, in slabs of 7 points."""
    monkeypatch.setattr(fractal_core, "_SLAB_POINTS", 7)
    flat = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
    return _eval_chunked(field, flat).reshape(tuple(a.size for a in axes))


# a 3-D net whose first axis is compatible at res 9 and whose other two are not
_MIXED_3D = [[0.0, 0.5, 1.0], [0.0, 0.3, 0.6, 1.0], [0.0, 0.4, 1.0]]


def test_orbit_maps_hand_values():
    two = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    # x = 0, .25 stay in cell 1; .5, .75, 1 fall in the reversed cell 2
    np.testing.assert_array_equal(_orbit_maps(two, (5,))[0], [0, 2, 4, 2, 0])
    three = build_net([(0.0, 1.0)], [[0.0, 1 / 3, 2 / 3, 1.0]])
    np.testing.assert_array_equal(_orbit_maps(three, (7,))[0],
                                  [0, 3, 6, 3, 0, 3, 6])


def test_orbit_maps_reject_incompatible_grids():
    two = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    assert _orbit_maps(two, (10,)) is None          # 9 not divisible by 2
    nonuniform = build_net([(0.0, 1.0)], [[0.0, 0.3, 0.6, 1.0]])
    assert _orbit_maps(nonuniform, (10,)) is None   # 9 divisible, knots not uniform
    nearly = build_net([(0.0, 1.0)], [[0.0, 0.5 + 5e-13, 1.0]])
    assert _orbit_maps(nearly, (5,)) is not None    # within 1e-12 * width
    off = build_net([(0.0, 1.0)], [[0.0, 0.5 + 2e-12, 1.0]])
    assert _orbit_maps(off, (5,)) is None


@pytest.mark.parametrize("dim,res", [(1, 257), (2, 33), (3, 9)])
def test_two_cell_grids_match_the_chain_exactly(dim, res):
    rng = np.random.default_rng(100 + dim)
    for trial in range(3):
        net = _dyadic_uniform_net(rng, [2] * dim)
        depth = 1 if trial == 0 else None
        field = _random_field(rng, net, depth=depth)
        axes, values = sample_grid(field, res)
        assert _orbit_maps(net, values.shape) is not None
        np.testing.assert_array_equal(values, _chain_values(field, axes))


@pytest.mark.parametrize("dim,res", [(1, 244), (2, 31), (3, 13)])
def test_three_cell_grids_match_the_chain_within_the_bound(dim, res):
    # res - 1 is divisible by 3 (and by 2 on the mixed nets below). The
    # scale sup stays under the cell ratio 1/3, where the chain's own
    # floating-point orbit is free of amplified drift.
    rng = np.random.default_rng(200 + dim)
    for trial in range(3):
        cells = [3] * dim if trial < 2 else list(rng.choice([2, 3], size=dim))
        if (res - 1) % 2 and 2 in cells:
            cells = [3] * dim
        net = _dyadic_uniform_net(rng, cells)
        depth = 1 if trial == 0 else None
        sup = float(rng.uniform(0.15, 0.8 / 3))
        field = _random_field(rng, net, depth=depth, sup_target=sup)
        axes, values = sample_grid(field, res)
        assert _orbit_maps(net, values.shape) is not None
        err = np.max(np.abs(values - _chain_values(field, axes)))
        assert err <= field.error_bound + 1e-12, (trial, err)


def test_per_axis_resolution_and_random_bounds():
    # non-dyadic bounds: the orbit is exact, the chain drifts by rounding
    rng = np.random.default_rng(7)
    net = build_net([(-0.3, 1.1), (0.2, 2.9)],
                    [np.linspace(-0.3, 1.1, 3), np.linspace(0.2, 2.9, 4)])
    field = _random_field(rng, net, sup_target=0.25)
    axes, values = sample_grid(field, (17, 13))
    assert values.shape == (17, 13)
    assert _orbit_maps(net, values.shape) is not None
    err = np.max(np.abs(values - _chain_values(field, axes)))
    assert err <= field.error_bound + 1e-12


def test_orbit_path_has_no_drift_above_the_cell_ratio():
    # scale 0.6 > 1/3: the chain amplifies rounding of its float orbit,
    # the index walk has none and matches the grid oracle within the bound
    net = build_net([(0.0, 1.0)], [[0.0, 1 / 3, 2 / 3, 1.0]])
    f = parse_field("sin(5*x1) + x1", 1)
    cfg = make_config(net, f, ConstantField(0.6), PinnedBase(f, net.box))
    field = FractalField(cfg, tol=1e-9)
    axes, values = sample_grid(field, 244)
    oracle = solve_fixed_point_grid(cfg, 244, tol=1e-13).grid.values
    assert np.max(np.abs(values - oracle)) <= field.error_bound + 1e-12
    drift = np.max(np.abs(_chain_values(field, axes) - oracle))
    assert drift > np.max(np.abs(values - oracle))


class _CountingField:
    """Wraps a field and counts its vectorized evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, point):
        return self.inner(point)

    def eval_arrays(self, coords):
        self.calls += 1
        return self.inner.eval_arrays(coords)


def test_orbit_path_evaluates_each_field_once():
    net = build_net([(0.0, 1.0), (0.0, 1.0)], [[0.0, 0.5, 1.0]] * 2)
    f = parse_field("sin(3*x1)*cos(2*x2)+x1*x2", 2)
    counted = [_CountingField(f), _CountingField(parse_field("0.3+0.2*x1*x2", 2)),
               _CountingField(PinnedBase(f, net.box))]
    field = FractalField(make_config(net, *counted), tol=1e-8)
    before = [c.calls for c in counted]
    sample_grid(field, 65)
    assert field.depth > 10
    assert [c.calls - b for c, b in zip(counted, before)] == [1, 1, 1]


@pytest.mark.parametrize("knots,res", [
    ([[0.0, 0.3, 0.6, 1.0]], 10),   # nonuniform knots
    ([[0.0, 0.5, 1.0]], 10),        # two cells, res - 1 odd
    (_MIXED_3D, 9),                 # one compatible axis, two nonuniform
])
def test_fallback_returns_the_chain_values(monkeypatch, knots, res):
    rng = np.random.default_rng(11)
    net = build_net([(0.0, 1.0)] * len(knots), knots)
    field = _random_field(rng, net)
    assert _orbit_maps(net, (res,) * len(knots)) is None
    axes, values = sample_grid(field, res)
    np.testing.assert_array_equal(values, _chain_values(field, axes))
    np.testing.assert_array_equal(_slab_values(monkeypatch, field, axes), values)


def test_fallback_in_two_dimensions_and_delta_construction():
    rng = np.random.default_rng(12)
    net = build_net([(0.0, 1.0), (0.0, 2.0)], [[0.0, 0.3, 0.6, 1.0], [0.0, 1.0, 2.0]])
    field = _random_field(rng, net)
    axes, values = sample_grid(field, (10, 9))
    np.testing.assert_array_equal(values, _chain_values(field, axes))

    # a 9-point grid on two dyadic cells per axis: the delta orbit path
    uniform = build_net([(0.0, 1.0)] * 2, [[0.0, 0.5, 1.0]] * 2)
    fif = make_delta_fif(uniform, rng.uniform(-1, 1, size=(3, 3)), 0.4)
    delta = DeltaFifField(fif, tol=1e-9)
    axes, values = sample_grid(delta, 9)
    np.testing.assert_array_equal(values, _chain_values(delta, axes))


def _random_delta_field(rng, net, sign, depth=None, max_delta=0.7):
    shape = tuple(part.n_cells + 1 for part in net.axes)
    delta = sign * float(rng.uniform(0.15, max_delta))
    fif = make_delta_fif(net, rng.uniform(-2, 2, size=shape), delta)
    return DeltaFifField(fif, tol=1e-9, depth=depth)


def _node_values(values, net):
    """Grid values at the net nodes of a net-compatible grid."""
    return values[tuple(slice(None, None, (size - 1) // part.n_cells)
                        for size, part in zip(values.shape, net.axes))]


@pytest.mark.parametrize("dim,res", [(1, 257), (2, 33), (3, 9)])
def test_delta_two_cell_grids_match_the_chain_exactly(dim, res):
    rng = np.random.default_rng(300 + dim)
    for trial in range(4):
        net = _dyadic_uniform_net(rng, [2] * dim)
        field = _random_delta_field(rng, net, (-1) ** trial,
                                    depth=1 if trial < 2 else None)
        axes, values = sample_grid(field, res)
        assert _orbit_maps(net, values.shape) is not None
        np.testing.assert_array_equal(values, _chain_values(field, axes))
        # node values are the data up to rounding, at every depth
        np.testing.assert_allclose(_node_values(values, net), field.fif.values,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim,res", [(1, 244), (2, 31), (3, 13)])
def test_delta_three_cell_grids_match_the_chain_within_the_bound(dim, res):
    # |delta| stays under the cell ratio 1/3, where the chain's own
    # floating-point orbit is free of amplified drift
    rng = np.random.default_rng(400 + dim)
    for trial in range(4):
        cells = [3] * dim if trial < 2 else list(rng.choice([2, 3], size=dim))
        if (res - 1) % 2 and 2 in cells:
            cells = [3] * dim
        net = _dyadic_uniform_net(rng, cells)
        field = _random_delta_field(rng, net, (-1) ** trial,
                                    depth=1 if trial < 2 else None, max_delta=0.8 / 3)
        axes, values = sample_grid(field, res)
        assert _orbit_maps(net, values.shape) is not None
        err = np.max(np.abs(values - _chain_values(field, axes)))
        assert err <= field.error_bound + 1e-12, (trial, err)
        np.testing.assert_allclose(_node_values(values, net), field.fif.values,
                                   rtol=0, atol=1e-14)


def test_delta_orbit_on_random_bounds_and_per_axis_resolution():
    # non-dyadic bounds: the orbit is exact, the chain drifts by rounding
    rng = np.random.default_rng(14)
    net = build_net([(-0.3, 1.1), (0.2, 2.9), (-1.7, -0.4)],
                    [np.linspace(-0.3, 1.1, 3), np.linspace(0.2, 2.9, 4),
                     np.linspace(-1.7, -0.4, 3)])
    field = _random_delta_field(rng, net, -1, max_delta=0.8 / 3)
    axes, values = sample_grid(field, (9, 13, 5))
    assert values.shape == (9, 13, 5)
    assert _orbit_maps(net, values.shape) is not None
    err = np.max(np.abs(values - _chain_values(field, axes)))
    assert err <= field.error_bound + 1e-12


@pytest.mark.parametrize("knots,res", [
    ([[0.0, 0.3, 0.6, 1.0]] * 2, 10),   # nonuniform knots
    ([[0.0, 0.5, 1.0]] * 2, 10),        # two cells, res - 1 odd
    (_MIXED_3D, 9),                     # one compatible axis, two nonuniform
])
def test_delta_fallback_returns_the_chain_values(monkeypatch, knots, res):
    rng = np.random.default_rng(15)
    net = build_net([(0.0, 1.0)] * len(knots), knots)
    field = _random_delta_field(rng, net, 1)
    assert _orbit_maps(net, (res,) * len(knots)) is None
    axes, values = sample_grid(field, res)
    np.testing.assert_array_equal(values, _chain_values(field, axes))
    np.testing.assert_array_equal(_slab_values(monkeypatch, field, axes), values)


@pytest.mark.parametrize("knots,res", [
    ([[0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 1.0]], (10, 9)),
    (_MIXED_3D, (9, 8, 7)),
])
@pytest.mark.parametrize("construction", ["alpha", "delta"])
def test_fallback_hands_the_field_the_open_mesh(monkeypatch, construction, knots, res):
    rng = np.random.default_rng(16)
    net = build_net([(0.0, 1.0)] * len(knots), knots)
    field = (_random_field(rng, net) if construction == "alpha"
             else _random_delta_field(rng, net, -1))
    assert _orbit_maps(net, res) is None
    shapes = []
    chain = field.eval_arrays

    def spy(coords):
        shapes.append([np.shape(c) for c in coords])
        return chain(coords)

    monkeypatch.setattr(field, "eval_arrays", spy)
    axes, values = sample_grid(field, res)
    # one call, on one array per axis spanning that axis alone
    assert shapes == [[tuple(n if p == q else 1 for p in range(len(res)))
                       for q, n in enumerate(res)]]
    np.testing.assert_array_equal(values, _chain_values(field, axes))


def test_sample_grid_rejects_other_objects():
    with pytest.raises(TypeError):
        sample_grid(parse_field("x1", 1), 9)


# points per axis: res - 1 is divisible by 2 and by 3, while res + 1 points
# give res intervals, a prime that neither divides
_PROPERTY_RES = {1: 31, 2: 13, 3: 7}


def _property_net(rng, dim, bounds, grid):
    """Two or three cells per axis on dyadic or random bounds; uniform
    knots, or on ``nonuniform`` grids a first interior knot moved off 1/3."""
    box, knots = [], []
    for _ in range(dim):
        if bounds == "dyadic":
            lo = float(rng.integers(-8, 5)) / 4.0
            hi = lo + 2.0 ** int(rng.integers(-1, 2))
        else:
            lo = float(rng.uniform(-2.0, 1.0))
            hi = lo + float(rng.uniform(0.5, 3.0))
        if grid == "res_off":
            n = int(rng.choice([2, 3]))
        else:
            n = 2 if grid == "two_cells" else 3
        axis = np.linspace(lo, hi, n + 1)
        if grid == "nonuniform":
            axis[1] = lo + 0.3 * (hi - lo)
        box.append((lo, hi))
        knots.append([float(t) for t in axis])
    return build_net(box, knots)


def _renewed(field):
    """A field of the same construction and depth, with no kept sample."""
    if isinstance(field, DeltaFifField):
        return DeltaFifField(field.fif, tol=field.tol, depth=field.depth)
    return FractalField(field.config, tol=field.tol, depth=field.depth)


@pytest.mark.parametrize("above", [False, True], ids=["below_ratio", "above_ratio"])
@pytest.mark.parametrize("grid", ["two_cells", "three_cells", "nonuniform", "res_off"])
@pytest.mark.parametrize("bounds", ["dyadic", "random"])
@pytest.mark.parametrize("construction", ["alpha", "delta"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_every_grid_sampler_takes_the_one_path(dim, construction, bounds, grid, above):
    # mesh_eval, eval_arrays on the open mesh and sample_grid give the same
    # bits: the exact orbit where the grid is net-compatible, the float
    # chain elsewhere, whichever of them asks
    case = f"{dim} {construction} {bounds} {grid} {above}"
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    net = _property_net(rng, dim, bounds, grid)
    scale = float(rng.uniform(0.55, 0.65) if above else rng.uniform(0.15, 0.3))
    if construction == "alpha":
        field = _random_field(rng, net, sup_target=scale)
    else:
        shape = tuple(part.n_cells + 1 for part in net.axes)
        fif = make_delta_fif(net, rng.uniform(-2, 2, size=shape), -scale)
        field = DeltaFifField(fif, tol=1e-9)
    res = _PROPERTY_RES[dim] + (grid == "res_off")
    axes = box_axes(net.box, res)
    maps = _orbit_maps(net, (res,) * dim)
    assert (maps is not None) == (grid in ("two_cells", "three_cells"))
    want = (_chain_values(field, axes) if maps is None
            else _renewed(field)._orbit(axes, maps))
    for got in (mesh_eval(_renewed(field), axes),
                _renewed(field).eval_arrays(_open_mesh(axes)),
                sample_grid(_renewed(field), res)[1]):
        assert got.tobytes() == want.tobytes()

    # a family gets each field's own sample, kept read-only, and a repeat
    # call on the same axes returns the kept one
    other = (FractalField(field.config, depth=3) if construction == "alpha"
             else DeltaFifField(make_delta_fif(net, field.fif.values, scale / 2), depth=3))
    family = [field, other, field]
    sampled = _samples(family, _open_mesh(axes))
    assert sampled[0] is sampled[2]
    for fld, values in zip(family, sampled):
        assert values.tobytes() == mesh_eval(_renewed(fld), axes).tobytes()
        assert not values.flags.writeable
        assert _samples([fld], _open_mesh(axes))[0] is values


def test_fields_walked_together_on_the_orbit_must_share_a_net():
    two = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    three = build_net([(0.0, 1.0)], [[0.0, 1 / 3, 2 / 3, 1.0]])
    fields = [DeltaFifField(make_delta_fif(net, np.arange(net.axes[0].n_cells + 1.0), 0.3))
              for net in (two, three)]
    axes = box_axes(two.box, 13)
    assert all(_orbit_maps(fld.net, (13,)) is not None for fld in fields)
    with pytest.raises(ValueError, match="share a net"):
        _samples(fields, _open_mesh(axes))


def test_a_one_point_axis_takes_the_chain():
    # no grid of one point per axis is net-compatible: (res - 1) / n is 0
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    field = DeltaFifField(make_delta_fif(net, [0.0, 1.0, 0.5], 0.3))
    assert _orbit_maps(net, (1,)) is None
    point = [np.array([0.0])]
    assert field.eval_arrays(point).tobytes() == _chain_values(field, point).tobytes()


def test_perturbation_gap_reads_the_sampled_grid():
    # a uniform 3x3-cell net above the cell ratio with a non-dyadic step:
    # the check's lhs is max |F f - f| on the very values sample_grid gives
    net = build_net([(0.0, 1.0)] * 2, [[0.0, 1 / 3, 2 / 3, 1.0]] * 2)
    F = fractal_operator(net, 0.55, blend_operator(0.6))
    f = parse_field("sin(3*x1)*cos(2*x2)+x1*x2", 2)
    rep = perturbation_gap(F, f, resolution=31)
    axes, values = sample_grid(FractalField(F.config(f), tol=1e-10), 31)
    assert rep.lhs == float(np.max(np.abs(values - mesh_eval(f, axes))))
