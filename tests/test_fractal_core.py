"""Core constructions: the scale-field perturbation and the single-factor
interpolant, their interpolation property, truncation bounds, the grid
fixed-point oracle and the consistency checks."""

import itertools

import numpy as np
import pytest

from conftest import (
    PinnedBase,
    conditioned_config,
    eta,
    min_cell_ratio,
    random_config,
    random_net,
    random_uniform_net,
)
from fractalis import (
    AdmissibilityError,
    ConstantField,
    DeltaFifField,
    FractalField,
    NetInterpolant,
    ToleranceError,
    boundary_consistency_check,
    build_net,
    cell_map,
    interpolation_check,
    make_config,
    make_delta_fif,
    node_arrays,
    parse_field,
    required_depth,
    sample_grid,
    solve_fixed_point_grid,
)
from fractalis import fractal_core
from fractalis._fields import box_axes, mesh_eval
from fractalis.fractal_core import _GridSweep
from fractalis.net import _inverse_step, _locate_arrays


def _line_config():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("x1", 1)
    s = parse_field("x1^2", 1)
    return make_config(net, f, 0.5, s)


def test_hand_values_on_the_line_config():
    # first-level: v(1/4) = f(1/2) - alpha*(f - s)(1/2) pattern unrolls to
    # exactly representable dyadic values
    field = FractalField(_line_config(), tol=1e-12)
    assert field.eval_arrays([np.array([0.25, 0.75, 0.125])]).tolist() == [
        0.375, 0.875, 0.28125]
    assert field.error_bound <= 1e-12


def test_interpolation_property_alpha():
    # drift-free configs: node values must come out exact to machine noise
    rng = np.random.default_rng(21)
    for _ in range(12):
        cfg = conditioned_config(rng)
        field = FractalField(cfg, tol=1e-8)
        rep = interpolation_check(field, cfg.net, cfg.f, tol=1e-9)
        assert rep.passed, rep.details


def test_interpolation_property_delta():
    rng = np.random.default_rng(22)
    for _ in range(12):
        net = random_uniform_net(rng)
        shape = tuple(p.n_cells + 1 for p in net.axes)
        values = rng.uniform(-2, 2, size=shape)
        delta = float(rng.uniform(0.1, 0.5)) * (1 if rng.random() < 0.5 else -1)
        fif = make_delta_fif(net, values, delta)
        field = DeltaFifField(fif, tol=1e-9)
        rep = interpolation_check(field, net, values, tol=1e-9)
        assert rep.passed, rep.details
    # dyadic knots and bounds: the inverse cell maps are exact, node chains
    # land on box corners, where f - s is 0, and node values are the data
    # exactly; the last case is the benchmark's 3-D node-data input
    cases = [(dim, n, rng.uniform(-2, 2, size=(n + 1,) * dim), -0.45)
             for dim in (1, 2, 3) for n in (2, 4)]
    cases.append((3, 2, np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 3, 3)), 0.4))
    for dim, n, values, delta in cases:
        net = build_net([(0.0, 1.0)] * dim, [np.linspace(0.0, 1.0, n + 1)] * dim)
        field = DeltaFifField(make_delta_fif(net, values, delta), tol=1e-9)
        rep = interpolation_check(field, net, values, tol=1e-9)
        assert rep.lhs == 0.0, (dim, n, rep.lhs)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_node_data_gap_is_exact(dim):
    # the node-data config is F(I z) with s the interpolant of the box-corner
    # values; f - s is multilinear on every cell, so its max over the net
    # nodes is its sup, and no point of a fine grid exceeds it
    rng = np.random.default_rng(60 + dim)
    for _ in range(3):
        net = random_net(rng, dim=dim)
        z = rng.uniform(-2, 2, size=tuple(p.n_cells + 1 for p in net.axes))
        cfg = DeltaFifField(make_delta_fif(net, z, -0.45)).config
        nodes = node_arrays(net)
        corners = np.ix_(*[[0, -1]] * dim)
        np.testing.assert_array_equal(mesh_eval(cfg.s, nodes)[corners], z[corners])
        gaps = np.abs(mesh_eval(cfg.f, nodes) - mesh_eval(cfg.s, nodes))
        assert cfg.fs_gap == float(np.max(gaps)) > 0.0
        axes = box_axes(net.box, 65 if dim < 3 else 33)
        assert np.max(np.abs(mesh_eval(cfg.f, axes) - mesh_eval(cfg.s, axes))) <= cfg.fs_gap


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_node_data_f_takes_the_cells_of_the_chain(monkeypatch, dim):
    # below the top level the node-data f, an interpolant on the net's
    # knots, takes the cells the chain walk located, at every level of
    # every batch; its own search finds the same cells, so the values keep
    # their bits. A fresh field evaluates again: in 1-D the points are an
    # open mesh, whose sample the first field keeps.
    rng = np.random.default_rng(70 + dim)
    net = random_net(rng, dim=dim)
    z = rng.uniform(-2, 2, size=tuple(p.n_cells + 1 for p in net.axes))
    fif = make_delta_fif(net, z, -0.45)
    n = 500
    coords = [rng.uniform(p.lo, p.hi, n) for p in net.axes]
    given = DeltaFifField(fif, tol=1e-9).eval_arrays(coords)
    field = DeltaFifField(fif, tol=1e-9)
    evaluate, handed = NetInterpolant.eval_arrays, []

    def searching(self, coords, cells=None):
        if self is field.config.f:
            handed.append((cells is not None, np.broadcast(*coords).size))
        return evaluate(self, coords)

    monkeypatch.setattr(NetInterpolant, "eval_arrays", searching)
    monkeypatch.setattr(fractal_core, "_SLAB_POINTS", 4 * n)  # batches of 4 levels
    np.testing.assert_array_equal(field.eval_arrays(coords), given)
    assert handed[0] == (False, n)
    assert all(located for located, _ in handed[1:])
    assert [size for _, size in handed[1:]] == [
        min(4, field.depth - 1 - i) * n for i in range(0, field.depth - 1, 4)]


def test_drift_noise_documented_regime():
    # above the smallest cell ratio the seam noise is real; below, it is
    # machine-level. This pins the documented conditioning boundary.
    net = build_net([(0.0, 1.0)], [[0.0, 0.125, 0.5, 1.0]])
    f = parse_field("x1 * (1 - x1)", 1)
    good = make_config(net, f, 0.8 * min_cell_ratio(net), PinnedBase(f, net.box))
    rep = boundary_consistency_check(good, seed=2)
    assert rep.passed


def test_chain_against_grid_fixed_point_dyadic():
    # dyadic knots + power-of-two grid: the sweep re-interpolation is exact,
    # so the two routes must agree to solver precision
    net = build_net([(0.0, 1.0)], [[0.0, 0.25, 0.5, 1.0]])
    f = parse_field("exp(x1) - 1", 1)
    s = PinnedBase(f, net.box)
    cfg = make_config(net, f, 0.45, s)
    res = solve_fixed_point_grid(cfg, resolution=257, tol=1e-13)
    field = FractalField(cfg, tol=1e-11)
    xs = np.linspace(0.0, 1.0, 257)
    chain = field.eval_arrays([xs])
    assert float(np.max(np.abs(chain - res.grid.values))) < 1e-9


def test_chain_against_grid_fixed_point_2d():
    net = build_net([(0.0, 1.0), (0.0, 1.0)],
                    [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0]])
    f = parse_field("x1^2 + x2 * x1", 2)
    cfg = make_config(net, f, 0.3, PinnedBase(f, net.box))
    res = solve_fixed_point_grid(cfg, resolution=65, tol=1e-13)
    field = FractalField(cfg, tol=1e-11)
    xs = np.linspace(0.0, 1.0, 65)
    mesh = np.meshgrid(xs, xs, indexing="ij")
    chain = field.eval_arrays([m.ravel() for m in mesh]).reshape(65, 65)
    assert float(np.max(np.abs(chain - res.grid.values))) < 1e-9


def test_self_referential_recursion_residual():
    # h(x) = f(x) + alpha(x) * (h(Q x) - s(Q x)): both sides walk the same
    # float orbit, so the residual stays inside the two certified bounds
    rng = np.random.default_rng(33)
    for _ in range(8):
        cfg = random_config(rng)
        pts = np.array([
            [rng.uniform(part.lo, part.hi) for part in cfg.net.axes]
            for _ in range(25)
        ])
        coords = [pts[:, q] for q in range(cfg.net.dim)]
        pre = np.column_stack(_inverse_step(cfg.net, coords, _locate_arrays(cfg.net, coords)))
        field = FractalField(cfg, tol=1e-10)
        values = field.eval_arrays(coords)
        values_pre = field.eval_arrays([pre[:, q] for q in range(cfg.net.dim)])
        allowed = 4.0 * field.error_bound
        for i in range(len(pts)):
            x, qx = tuple(pts[i]), tuple(pre[i])
            residual = values[i] - cfg.f(x) - cfg.alpha(x) * (values_pre[i] - cfg.s(qx))
            assert abs(residual) <= allowed


def test_oracle_equivalence_at_reference_resolution():
    # chain evaluation against a dense independent fixed-point solve
    rng = np.random.default_rng(34)
    for dim in (1, 2):
        cfg = conditioned_config(rng, dim=dim, max_cells=3)
        res = solve_fixed_point_grid(cfg, resolution=1025, tol=1e-6)
        field = FractalField(cfg, tol=1e-8)
        pts = np.array([
            [rng.uniform(part.lo, part.hi) for part in cfg.net.axes]
            for _ in range(50)
        ])
        chain = field.eval_arrays([pts[:, q] for q in range(dim)])
        lookup = np.array([res.grid(tuple(p)) for p in pts])
        assert float(np.max(np.abs(chain - lookup))) <= 1e-4


def test_grid_iteration_contracts_at_scale_rate():
    cfg = _line_config()
    # single sweep from zero, by hand: 0.25 + 0.5*(0 - 0.25) = 0.125
    swept = _GridSweep(cfg.net, cfg.alpha, (np.linspace(0.0, 1.0, 5),)).start(cfg.f, cfg.s)[1](
        np.zeros(5))
    assert swept[1] == pytest.approx(0.125)
    # iterating from the germ sample, updates shrink at the contraction rate
    xs = np.linspace(0.0, 1.0, 257)
    sweep = _GridSweep(cfg.net, cfg.alpha, (xs,)).start(cfg.f, cfg.s)[1]
    h = xs.copy()
    residuals = []
    for _ in range(30):
        new = sweep(h)
        residuals.append(float(np.max(np.abs(new - h))))
        h = new
    for r_prev, r_next in zip(residuals[1:], residuals[2:]):
        if r_next < 1e-13:  # solver floor, ratios are noise past here
            break
        assert r_next <= (cfg.alpha_sup + 0.05) * r_prev


def test_eta_endpoint_assignments():
    net = build_net([(0.0, 1.0)], [[0.0, 0.25, 0.5, 0.75, 1.0]])
    part = net.axes[0]
    n = part.n_cells
    for j in range(1, n + 1):
        lo_idx = eta(part, j, 0)
        hi_idx = eta(part, j, n)
        if j % 2 == 1:
            assert (lo_idx, hi_idx) == (j - 1, j)
        else:
            assert (lo_idx, hi_idx) == (j, j - 1)
    with pytest.raises(ValueError):
        eta(part, 1, 1)  # only the two endpoint labels are defined


def test_adjacent_cells_agree_at_shared_knots():
    # continuity across an interior knot: the endpoint of each adjacent cell
    # map that lands on the knot must pick out the same node index j
    rng = np.random.default_rng(8)
    for _ in range(10):
        net = random_net(rng, dim=1)
        part = net.axes[0]
        n = part.n_cells
        for j in range(1, n):
            left = eta(part, j, n) if j % 2 == 1 else eta(part, j, 0)
            right = eta(part, j + 1, 0) if (j + 1) % 2 == 1 else eta(part, j + 1, n)
            assert left == j
            assert right == j
            # and the maps really do land there
            m_left = cell_map(net, 1, j)
            m_right = cell_map(net, 1, j + 1)
            end_left = part.hi if j % 2 == 1 else part.lo
            end_right = part.lo if (j + 1) % 2 == 1 else part.hi
            assert m_left.a * end_left + m_left.b == pytest.approx(part.knots[j])
            assert m_right.a * end_right + m_right.b == pytest.approx(part.knots[j])
            # pulling the knot back through either cell gives the same
            # domain endpoint, so the two recursions meet
            knot = [np.array([part.knots[j]])]
            inv_left = float(_inverse_step(net, knot, [np.array([j - 1])])[0][0])
            inv_right = float(_inverse_step(net, knot, [np.array([j])])[0][0])
            assert inv_left == pytest.approx(inv_right, abs=1e-12)
            assert min(
                abs(inv_left - part.lo), abs(inv_left - part.hi)
            ) < 1e-12 * max(1.0, abs(part.hi))


def test_delta_attractor_identity():
    # the graph maps onto itself: A(v_j(x)) = delta * A(x) + B_j(x), with
    # B_j blended from the prescribed corner offsets. Uniform knots with
    # |delta| under the cell ratio keep the orbits drift-free, so the two
    # sides must agree inside the certified truncation bounds.
    rng = np.random.default_rng(35)
    for _ in range(6):
        dim = int(rng.integers(1, 3))
        net = random_uniform_net(rng, dim=dim)
        shape = tuple(part.n_cells + 1 for part in net.axes)
        z = rng.uniform(-1.5, 1.5, size=shape)
        cap = 0.8 * min_cell_ratio(net)
        delta = float(rng.uniform(0.1, max(0.11, cap)))
        delta *= 1 if rng.random() < 0.5 else -1
        fif = make_delta_fif(net, z, delta)
        field = DeltaFifField(fif, tol=1e-11)
        for _ in range(10):
            x = tuple(rng.uniform(part.lo, part.hi) for part in net.axes)
            cells = tuple(
                int(rng.integers(1, part.n_cells + 1)) for part in net.axes
            )
            y = tuple(cell_map(net, q, j).a * t + cell_map(net, q, j).b
                      for q, (j, t) in enumerate(zip(cells, x), start=1))
            blend = 0.0
            for labels in itertools.product((0, 1), repeat=dim):
                weight = 1.0
                node_idx, corner_idx = [], []
                for q, lab in enumerate(labels):
                    part = net.axes[q]
                    u = (x[q] - part.lo) / (part.hi - part.lo)
                    weight *= u if lab else 1.0 - u
                    m = part.n_cells if lab else 0
                    node_idx.append(eta(part, cells[q], m))
                    corner_idx.append(m)
                blend += weight * (
                    z[tuple(node_idx)] - delta * z[tuple(corner_idx)]
                )
            lhs = field(y)
            rhs = delta * field(x) + blend
            slack = (1.0 + abs(delta)) * field.error_bound + 1e-12
            assert abs(lhs - rhs) <= slack


def test_chain_respects_truncation_bound():
    # shallow evaluation must sit within its own certified bound of a deep one
    cfg = _line_config()
    xs = np.linspace(0.0, 1.0, 101)
    deep = FractalField(cfg, tol=1e-13)
    for tol in (1e-2, 1e-4, 1e-6):
        shallow = FractalField(cfg, tol=tol)
        gap = float(np.max(np.abs(shallow.eval_arrays([xs]) - deep.eval_arrays([xs]))))
        assert gap <= shallow.error_bound + deep.error_bound
        assert shallow.error_bound <= tol


def test_nodes_exact_even_at_shallow_depth():
    cfg = _line_config()
    field = FractalField(cfg, depth=2)
    assert field.eval_arrays([np.array([0.0, 0.5, 1.0])]).tolist() == [0.0, 0.5, 1.0]


def test_single_factor_recursion_against_reference():
    # independent recursive evaluator: A(x) = delta*A(Q x) + B(Q x) with the
    # endpoint blend written out longhand
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    z = np.array([0.0, 1.0, 0.5])
    delta = 0.4
    fif = make_delta_fif(net, z, delta)

    knots = [0.0, 0.5, 1.0]

    def blend(j, t):
        # straight-line segment through the two endpoint anchors of cell j
        lo_idx = j - 1 if j % 2 == 1 else j
        hi_idx = j if j % 2 == 1 else j - 1
        w0 = z[lo_idx] - delta * z[0]
        w1 = z[hi_idx] - delta * z[-1]
        return w0 + (w1 - w0) * t

    def reference(x, depth):
        if depth == 0:
            return 0.0
        j = 1 if x < knots[1] else 2
        lo, hi = sorted((knots[j - 1], knots[j]))
        a = (hi - lo) if j % 2 == 1 else (lo - hi)
        b = lo if j % 2 == 1 else hi
        t = (x - b) / a
        return delta * reference(t, depth - 1) + blend(j, t)

    xs = np.linspace(0.0, 1.0, 33)
    field = DeltaFifField(fif, tol=1e-10)
    ref = np.array([reference(float(x), 40) for x in xs])
    tail = (1.0 + abs(delta)) * np.max(np.abs(z)) / (1 - abs(delta)) + np.max(np.abs(z))
    ref_bound = abs(delta) ** 40 * tail
    err = float(np.max(np.abs(field.eval_arrays([xs]) - ref)))
    assert err <= field.error_bound + ref_bound + 1e-12


def test_boundary_consistency():
    rng = np.random.default_rng(31)
    for _ in range(6):
        cfg = conditioned_config(rng)
        rep = boundary_consistency_check(cfg, seed=5)
        assert rep.passed, (rep.lhs, rep.rhs)
    for _ in range(6):
        net = random_uniform_net(rng)
        shape = tuple(p.n_cells + 1 for p in net.axes)
        fif = make_delta_fif(net, rng.uniform(-1, 1, size=shape),
                             float(rng.uniform(-0.5, 0.5)))
        rep = boundary_consistency_check(DeltaFifField(fif).config, seed=5)
        assert rep.passed, (rep.lhs, rep.rhs)


def test_admissibility_rejections():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("x1", 1)
    s = parse_field("x1^2", 1)
    with pytest.raises(AdmissibilityError):
        make_config(net, f, 1.0, s)  # scale sup not below one
    with pytest.raises(AdmissibilityError):
        make_config(net, f, 0.5, parse_field("x1^2 + 0.001", 1))  # corner gap
    with pytest.raises(AdmissibilityError):
        make_delta_fif(net, [0.0, 1.0, 0.5], 1.0)
    with pytest.raises(ValueError):
        make_delta_fif(net, [0.0, 1.0], 0.5)  # wrong node count


def test_required_depth():
    assert required_depth(0.5, 1.0, 0.5) == 1
    assert required_depth(0.5, 1.0, 0.25) == 2
    assert required_depth(0.0, 1.0, 1e-12) == 1
    assert required_depth(0.5, 0.0, 1e-12) == 1
    d = required_depth(0.5, 1.0, 1e-10)
    assert 0.5 ** d <= 1e-10 < 0.5 ** (d - 1)
    with pytest.raises(ToleranceError):
        required_depth(0.99, 1.0, 1e-300)


def test_rb_sweep_fixes_the_solution():
    cfg = _line_config()
    res = solve_fixed_point_grid(cfg, resolution=129, tol=1e-13)
    swept = _GridSweep(cfg.net, cfg.alpha, res.grid.axes).start(cfg.f, cfg.s)[1](res.grid.values)
    assert float(np.max(np.abs(swept - res.grid.values))) < 1e-12


def test_grid_function_interpolant_matches_grid():
    cfg = _line_config()
    res = solve_fixed_point_grid(cfg, resolution=65, tol=1e-13)
    vals = res.grid.eval_arrays([res.grid.axes[0]])
    np.testing.assert_allclose(vals, res.grid.values, atol=1e-15)


def test_sample_surface_shapes():
    rng = np.random.default_rng(41)
    cfg = random_config(rng, dim=2)
    field = FractalField(cfg, tol=1e-6)
    axes, values = sample_grid(field, 9)
    assert [len(a) for a in axes] == [9, 9]
    assert values.shape == (9, 9)
    assert field.error_bound <= 1e-6
    # grid rows agree with direct evaluation
    direct = mesh_eval(field, axes)
    np.testing.assert_allclose(values, direct, atol=1e-12)


def test_constant_alpha_zero_returns_base_field():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("sin(3*x1)", 1)
    cfg = make_config(net, f, ConstantField(0.0), PinnedBase(f, net.box))
    xs = np.linspace(0, 1, 101)
    field = FractalField(cfg, tol=1e-12)
    np.testing.assert_allclose(field.eval_arrays([xs]),
                               f.eval_arrays([xs]), atol=1e-12)


def test_point_validation_edge_slack_and_nan():
    net = build_net([(0.0, 1.0), (0.0, 2.0)], [[0.0, 0.5, 1.0], [0.0, 1.0, 2.0]])
    assert net.box.first_outside(np.array([[0.5, 2.0 + 5e-13], [1.0, 0.0]])) is None
    assert net.box.first_outside(np.array([[0.5, 1.0], [0.5, 2.0 + 2e-12],
                                           [np.nan, 0.0]])) == 1


@pytest.mark.parametrize("construction", ["alpha", "delta"])
def test_point_evaluation_runs_in_slabs(monkeypatch, construction):
    # 2 * _SLAB_POINTS + 3 points: two full slabs and a part slab, each
    # valued as in one whole call
    rng = np.random.default_rng(43)
    cfg = conditioned_config(rng, dim=2)
    shape = tuple(p.n_cells + 1 for p in cfg.net.axes)
    fif = make_delta_fif(cfg.net, rng.uniform(-1, 1, size=shape), -0.3)
    cls, data = (FractalField, cfg) if construction == "alpha" else (DeltaFifField, fif)
    slab = 5
    pts = np.column_stack([rng.uniform(p.lo, p.hi, 2 * slab + 3) for p in cfg.net.axes])
    coords = [pts[:, 0], pts[:, 1]]
    field = cls(data, tol=1e-9)
    whole = field.eval_arrays(coords)
    sizes = []
    chain = cls.eval_arrays

    def spy(self, coords):
        sizes.append(np.broadcast(*coords).size)
        return chain(self, coords)

    monkeypatch.setattr(fractal_core, "_SLAB_POINTS", slab)
    monkeypatch.setattr(cls, "eval_arrays", spy)
    np.testing.assert_array_equal(fractal_core._eval_chunked(field, coords), whole)
    assert sizes == [slab, slab, 3]
