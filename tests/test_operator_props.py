"""Operator-level properties: perturbation bounds, norm estimates,
linearity, inversion, parameter convergence, subspace invariance."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    BumpField,
    check_resolution,
    random_net,
    random_operator_setup,
    random_poly,
    random_uniform_net,
)
from fractalis import (
    AdmissibilityError,
    ConstantField,
    FractalField,
    LinCombField,
    alpha_sequence_convergence,
    apply_operator,
    blend_operator,
    bounded_below_check,
    build_net,
    fixed_point_check,
    fractal_operator,
    identity_operator,
    linearity_check,
    make_config,
    make_operator_config,
    multiplication_operator,
    neumann_inverse,
    node_arrays,
    operator_norm_check,
    operator_norm_upper,
    operator_norms,
    operator_sequence_convergence,
    parse_field,
    perturbation_gap,
    vanishing_invariance_check,
    validate_operator,
)
from fractalis import fractal_core
from fractalis._fields import (
    BlendField,
    NetInterpolant,
    _open_mesh,
    box_axes,
    mesh_eval,
    with_gap,
)
from fractalis.cli import _knot_product
from fractalis.operator_props import _sup_gap


def test_operator_norms_by_kind():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    assert operator_norms(identity_operator(), net) == (1.0, 0.0)
    nd, nidd = operator_norms(blend_operator(0.3), net)
    assert (nd, nidd) == (1.0, 0.3)
    b = LinCombField((1.0, 0.5), (ConstantField(1.0), BumpField(net.box)))
    nd, nidd = operator_norms(multiplication_operator(b), net)
    assert nd == pytest.approx(1.5, abs=1e-12)  # bump peaks at the center
    assert nidd == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("op", [
    identity_operator(),
    blend_operator(0.6),
    multiplication_operator(parse_field("1 + x1*(1-x1)*x2*(2-x2)", 2)),
], ids=["identity", "blend", "multiplication"])
@pytest.mark.parametrize("nested", [False, True], ids=["expr", "nested"])
def test_operator_config_is_make_config(op, nested):
    # F.config(f) reuses F's scale sup; every constant of the config and of
    # F(f) is the one make_config gives when it takes the sup itself
    net = build_net([(0.0, 1.0), (0.0, 2.0)], [[0.0, 0.3, 0.6, 1.0], [0.0, 1.0, 2.0]])
    alpha = parse_field("0.2+0.1*x1*x2", 2)
    f = parse_field("sin(3*x1)*cos(x2)+x1*x2", 2)
    if nested:
        f = fractal_operator(net, 0.25, blend_operator(0.5), sup_resolution=9)(f, tol=1e-6)
    F = fractal_operator(net, alpha, op, sup_resolution=33)
    got = F.config(f)
    ref = make_config(net, f, alpha, apply_operator(op, f, net), sup_resolution=33)
    assert (got.alpha_sup, got.fs_gap) == (ref.alpha_sup, ref.fs_gap)
    field, ref_field = F(f, tol=1e-8), FractalField(ref, tol=1e-8)
    assert (field.depth, field.error_bound) == (ref_field.depth, ref_field.error_bound)
    # ||D|| is taken only when a bound reads it
    assert "norms" not in vars(F)
    assert F.norms == operator_norms(op, net)


def test_validate_operator_requires_corner_match():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    validate_operator(multiplication_operator(ConstantField(1.0)), net)
    with pytest.raises(AdmissibilityError):
        validate_operator(multiplication_operator(ConstantField(1.01)), net)
    with pytest.raises(ValueError):
        blend_operator(1.5)


def test_apply_operator_blend_interpolates_at_nodes():
    net = build_net([(0.0, 1.0)], [[0.0, 0.25, 0.5, 1.0]])
    f = parse_field("sin(4*x1)", 1)
    for t in (0.0, 0.4, 1.0):
        df = apply_operator(blend_operator(t), f, net)
        for x in node_arrays(net)[0]:
            assert df((float(x),)) == pytest.approx(f((float(x),)), abs=1e-12)
    # t = 1 gives the straight node interpolant
    df = apply_operator(blend_operator(1.0), f, net)
    interp = NetInterpolant(node_arrays(net),
                            mesh_eval(f, node_arrays(net)))
    xs = np.linspace(0, 1, 41)
    np.testing.assert_allclose(df.eval_arrays([xs]), interp.eval_arrays([xs]),
                               atol=1e-14)


def test_perturbation_gap_seeded():
    rng = np.random.default_rng(51)
    for _ in range(50):
        net, f, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        rep = perturbation_gap(fractal_operator(net, alpha, op), f,
                               resolution=check_resolution(net.dim))
        assert rep.passed, rep
        assert rep.details["norm_form_passed"], rep.details


def test_perturbation_gap_hand_numbers():
    # f=x, s=x^2, scale 0.5: bound is 1.0 * sup|x - x^2| = 0.25, and the
    # value at 0.25 already sits halfway to it
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    cfg = make_config(net, parse_field("x1", 1), 0.5, parse_field("x1^2", 1))
    field = FractalField(cfg, tol=1e-12)
    assert abs(field((0.25,)) - 0.25) == pytest.approx(0.125, abs=1e-12)
    xs = np.linspace(0.0, 1.0, 257)
    lhs = float(np.max(np.abs(field.eval_arrays([xs]) - xs)))
    assert lhs <= 0.25 + 1e-9


def test_linearity_of_the_perturbation_operator():
    rng = np.random.default_rng(52)
    for _ in range(8):
        net, _, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        f1 = random_poly(rng, net.dim)
        f2 = random_poly(rng, net.dim)
        c1 = float(rng.uniform(-2, 2))
        c2 = float(rng.uniform(-2, 2))
        rep = linearity_check(fractal_operator(net, alpha, op), f1, f2, c1, c2,
                              n_points=60, seed=9)
        assert rep.passed, (rep.lhs, rep.rhs)


def test_operator_norm_upper_arithmetic():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    assert operator_norm_upper(fractal_operator(net, 0.0, blend_operator(1.0))) == 1.0
    assert operator_norm_upper(fractal_operator(net, 0.5, blend_operator(1.0))) \
        == pytest.approx(2.0)
    square = build_net([(-1.0, 1.0), (-1.0, 1.0)],
                       [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    op = multiplication_operator(parse_field("x1^2 * x2^2", 2))
    # sup|1 - b| = 1 at the origin, so the bound is 1 + 0.2/0.8
    assert operator_norm_upper(fractal_operator(square, 0.2, op)) \
        == pytest.approx(1.25, abs=1e-9)


@pytest.mark.parametrize("scale", [1.0, 1.2])
def test_operator_bounds_reject_scale_sup_not_below_one(scale):
    # the operator is built; each use that needs a contraction refuses it
    F = fractal_operator(build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]]), scale,
                         blend_operator(0.5))
    assert F.alpha_sup == scale
    with pytest.raises(AdmissibilityError, match="inadmissible configuration"):
        F.config(parse_field("x1", 1))
    with pytest.raises(AdmissibilityError, match="operator bounds need"):
        operator_norm_upper(F)
    for required in (True, False):
        with pytest.raises(AdmissibilityError, match="operator bounds need"):
            neumann_inverse(F, parse_field("x1", 1), resolution=33,
                            require_precondition=required)


def test_operator_norm_upper_controls_samples():
    rng = np.random.default_rng(53)
    for _ in range(8):
        net, f, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        samples = [f] + [random_poly(rng, net.dim) for _ in range(3)]
        F = fractal_operator(net, alpha, op)
        rep = operator_norm_check(F, samples, resolution=check_resolution(net.dim))
        assert rep.passed, rep
        assert rep.lhs <= operator_norm_upper(F) + 1e-6


def test_bounded_below_when_contraction_is_strict():
    rng = np.random.default_rng(54)
    for _ in range(8):
        net, f, alpha, op = random_operator_setup(rng, max_rate=0.8)
        rep = bounded_below_check(fractal_operator(net, alpha, op), f,
                                  resolution=check_resolution(net.dim))
        assert rep.passed, rep


def test_bounded_below_rejects_weak_contraction():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("x1", 1)
    # sup|b| = 2 and scale sup 0.6 push scale * ||D|| to 1.2
    b = LinCombField((1.0, 1.0), (ConstantField(1.0), BumpField(net.box)))
    with pytest.raises(AdmissibilityError):
        bounded_below_check(fractal_operator(net, 0.6, multiplication_operator(b)), f)


def test_neumann_inverse_blend_line():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    g = parse_field("x1^2", 1)
    inv = neumann_inverse(fractal_operator(net, 0.4, blend_operator(1.0)), g,
                          resolution=257, tol=1e-8)
    assert inv.precondition_ok
    assert inv.residuals[-1] <= 1e-8
    assert inv.rate_bound == pytest.approx(0.4 / 0.6, abs=1e-12)
    assert inv.measured_rate <= 1.1 * inv.rate_bound
    assert inv.norm_bound_ok
    # residuals fall monotonically while above the floor
    above = [r for r in inv.residuals if r > 1e-7]
    assert all(b < a for a, b in zip(above, above[1:]))


def test_neumann_inverse_seeded_cases():
    rng = np.random.default_rng(55)
    for _ in range(5):
        net, f, alpha, op = random_operator_setup(rng, dim=1, max_rate=0.75)
        inv = neumann_inverse(fractal_operator(net, alpha, op), f, resolution=257,
                              tol=1e-7)
        assert inv.residuals[-1] <= 1e-7
        assert inv.norm_bound_ok
        if np.isfinite(inv.measured_rate):
            assert inv.measured_rate <= 1.1 * inv.rate_bound


def test_neumann_recovers_known_preimage():
    # dyadic knots and grid keep the sweeps exact, so inverting the image
    # of a known germ must return that germ to solver precision
    net = build_net([(0.0, 1.0)], [[0.0, 0.25, 0.5, 0.75, 1.0]])
    f = parse_field("x1^3 - x1", 1)
    F = fractal_operator(net, 0.3, blend_operator(1.0))
    image = F(f, tol=1e-10)
    tol = 1e-8
    inv = neumann_inverse(F, image, resolution=257, tol=tol)
    xs = np.linspace(0.0, 1.0, 257)
    err = float(np.max(np.abs(inv.grid.values - f.eval_arrays([xs]))))
    assert err <= 10 * tol
    assert inv.norm_bound_ok


def test_neumann_requires_precondition():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    with pytest.raises(AdmissibilityError):
        neumann_inverse(fractal_operator(net, 0.6, blend_operator(1.0)),
                        parse_field("x1", 1), resolution=65)


def test_fixed_fields_stay_fixed():
    # any field equal to its node interpolant is untouched by the blend,
    # hence by the whole perturbation
    rng = np.random.default_rng(56)
    for _ in range(20):
        net = random_uniform_net(rng, dim=1)
        nodes = node_arrays(net)
        interp = NetInterpolant(nodes, rng.uniform(-1, 1, size=[len(a) for a in nodes]))
        t = float(rng.uniform(0.2, 1.0))
        F = fractal_operator(net, 0.8 * (1.0 / net.axes[0].n_cells), blend_operator(t))
        rep = fixed_point_check(F, interp, resolution=129)
        assert rep.passed, (rep.lhs, rep.rhs)


def test_scale_sequence_convergence_explicit_base():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("x1", 1)
    s = parse_field("x1^2", 1)
    rep = alpha_sequence_convergence(net, f, s, [0.5 / n for n in range(1, 7)])
    steps = rep.details["steps"]
    assert rep.passed and all(st.passed for st in steps)
    errors = [st.lhs for st in steps]
    assert errors == sorted(errors, reverse=True)
    assert rep.lhs == steps[-1].lhs < 0.025
    assert rep.rhs == steps[-1].details["bound"]


def test_scale_sequence_convergence_operator_base():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("exp(x1)", 1)
    rep = alpha_sequence_convergence(net, f, blend_operator(1.0),
                                     [0.4 / n for n in range(1, 6)])
    steps = rep.details["steps"]
    assert rep.passed and all(st.passed for st in steps)
    assert steps[-1].lhs <= steps[0].lhs


def test_scale_sequence_builds_one_config(monkeypatch):
    # the gap f - s does not depend on the scale: one config build, with one
    # gap sweep, gives the reports of one build per scale
    net = build_net([(0.0, 1.0), (0.0, 2.0)], [[0.0, 0.3, 1.0], [0.0, 1.0, 2.0]])
    f = parse_field("sin(3*x1)*cos(x2)+x1*x2", 2)
    scales = [0.5 / n for n in range(1, 7)]
    builds = []
    build = fractal_core._config
    monkeypatch.setattr(fractal_core, "_config",
                        lambda *args: builds.append(args) or build(*args))
    rep = alpha_sequence_convergence(net, f, blend_operator(0.6), scales, resolution=33)
    assert len(builds) == 1
    s = apply_operator(blend_operator(0.6), f, net)
    axes = box_axes(net.box, 33)
    want = [_sup_gap(FractalField(make_config(net, f, a, s), tol=1e-10), axes)
            for a in scales]
    got = rep.details["steps"]
    assert [(st.lhs, st.rhs, st.details) for st in got] == [
        (st.lhs, st.rhs, st.details) for st in want]
    # a scale of modulus 1 or more fails as its own config build does
    with pytest.raises(AdmissibilityError,
                       match=r"^inadmissible configuration: sup\|alpha\| = 1.5, corner gap = "):
        alpha_sequence_convergence(net, f, blend_operator(0.6), [0.5, -1.5], resolution=9)


def test_operator_sequence_convergence():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("x1^3", 1)
    # only net, alpha and sup|alpha| of F are read; each D_t is the base map
    F = fractal_operator(net, 0.35, blend_operator(1.0))
    rep = operator_sequence_convergence(F, f, [1.0 / n for n in range(1, 7)])
    steps = rep.details["steps"]
    assert rep.passed and all(st.passed for st in steps)
    assert steps[-1].lhs <= steps[0].lhs
    # bounds shrink linearly with the blend weight
    bounds = [st.details["bound"] for st in steps]
    assert bounds == sorted(bounds, reverse=True)


def test_vanishing_invariance():
    rng = np.random.default_rng(57)
    for _ in range(4):
        net = random_uniform_net(rng, dim=1, max_cells=3)
        seed_field = _knot_product(net)
        t = float(rng.uniform(0.2, 1.0))
        alpha = 0.7 / net.axes[0].n_cells
        rep = vanishing_invariance_check(fractal_operator(net, alpha, blend_operator(t)),
                                         seed_field, r_max=2)
        assert rep.passed, (rep.lhs, rep.rhs)
    # a field that does not vanish at the nodes is rejected outright
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    with pytest.raises(ValueError):
        vanishing_invariance_check(fractal_operator(net, 0.3, blend_operator(1.0)),
                                   ConstantField(1.0))


def test_perturbation_reproduces_identity_operator():
    # identity base: F f = f for every scale field
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("cos(2*x1)", 1)
    cfg = make_operator_config(net, f, 0.45, identity_operator())
    field = FractalField(cfg, tol=1e-11)
    xs = np.linspace(0, 1, 81)
    np.testing.assert_allclose(field.eval_arrays([xs]), f.eval_arrays([xs]),
                               atol=1e-10)


def test_blend_config_sup_grid_memory():
    # the 129^3 sup grid of the 3-D blend config: one float array of it is
    # 17 MB, and on the open mesh about five of them are alive at once
    net = build_net([(0.0, 1.0)] * 3, [[0.0, 0.5, 1.0]] * 3)
    f = parse_field("x1*x2+x3^2", 3)
    tracemalloc.start()
    try:
        make_operator_config(net, f, 0.3, blend_operator(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 140e6, peak


def _memo_operator():
    net = build_net([(0.0, 1.0), (0.0, 2.0)], [[0.0, 0.3, 1.0], [0.0, 1.0, 2.0]])
    return fractal_operator(net, parse_field("0.2+0.1*x1*x2", 2), blend_operator(0.6))


def test_operator_builds_one_field_per_field_object_and_tolerance():
    F = _memo_operator()
    f, g = parse_field("sin(3*x1)*x2", 2), parse_field("sin(3*x1)*x2", 2)
    assert F(f, tol=1e-9) is F(f, tol=1e-9)
    assert F(f, tol=1e-9) is not F(f, tol=1e-8)
    # an equal field object of its own, a number and a plain callable each
    # build their F(f) anew
    assert F(g, tol=1e-9) is not F(f, tol=1e-9)
    assert F(0.5) is not F(0.5)
    assert F(lambda x: x[0]) is not F(lambda x: x[0])
    # a copy with another base map shares none of the fields
    assert dataclasses.replace(F, op=blend_operator(0.3))(f, tol=1e-9) is not F(f, tol=1e-9)


def test_operator_keeps_a_field_only_while_it_is_held():
    # F(f) holds f, so no other object can take f's id while the operator
    # can hand F(f) out; a field nobody holds goes, and with it f
    F = _memo_operator()
    f = parse_field("x1*x2", 2)
    field = F(f)
    f_alive, field_alive = weakref.ref(f), weakref.ref(field)
    del f
    gc.collect()
    assert f_alive() is not None and F(f_alive()) is field
    del field
    gc.collect()
    assert field_alive() is None and f_alive() is None


def test_field_keeps_its_last_grid_sample_read_only():
    F = _memo_operator()
    field = F(parse_field("sin(3*x1)*cos(x2)+x1*x2", 2))
    axes = box_axes(F.net.box, [17, 9])
    values = mesh_eval(field, axes)
    assert mesh_eval(field, axes) is values
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 1.0
    # scattered points and other axes run the chain again
    fresh = FractalField(field.config, tol=field.tol)
    other = box_axes(F.net.box, [9, 17])
    np.testing.assert_array_equal(mesh_eval(field, other), mesh_eval(fresh, other))
    np.testing.assert_array_equal(mesh_eval(field, axes), values)
    assert mesh_eval(field, axes) is not values
    # axes written in place after a call are not taken for the kept ones
    coords = np.meshgrid(*axes, indexing="ij", sparse=True)
    kept = field.eval_arrays(coords)
    coords[0][...] *= 0.5
    np.testing.assert_array_equal(field.eval_arrays(coords), fresh.eval_arrays(coords))
    assert not np.array_equal(field.eval_arrays(coords), kept)


def test_blend_gap_leaves_a_kept_sample_as_it_is():
    # the blend gap is formed in a new array, never in the values of its
    # second field, here a FractalField's read-only kept sample
    F = _memo_operator()
    f = parse_field("sin(3*x1)*x2", 2)
    Ff = F(f)
    axes = box_axes(F.net.box, [9, 5])
    kept = mesh_eval(Ff, axes).copy()
    f_vals, gap = with_gap(f, BlendField((0.5, 0.5), (f, Ff)), _open_mesh(axes))
    np.testing.assert_array_equal(gap, 0.5 * (f_vals - kept))
    np.testing.assert_array_equal(mesh_eval(Ff, axes), kept)


def _seeded_fields(rng, dim):
    """A seeded expression field and a seeded tensor polynomial."""
    c = rng.uniform(-2.0, 2.0, size=4)
    terms = [f"{c[0]:.6f}*sin({c[1]:.6f}*x1)"] + [
        f"{c[2]:.6f}*cos({c[3]:.6f}*x{q + 1})*x1" for q in range(1, dim)]
    return [parse_field(" + ".join(terms) + " + x1^2", dim), random_poly(rng, dim)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_six_gaps_are_one_gap_scaled_by_t(dim):
    # for t >= 0, x -> t*x is monotone in floating point and |t*d| = t*|d|:
    # the grid max of |t*(f - I f)| is t times that of |f - I f|, bit for bit
    rng = np.random.default_rng(90 + dim)
    net = random_net(rng, dim)
    nodes = node_arrays(net)
    alpha = ConstantField(0.3)
    for f in _seeded_fields(rng, dim):
        interp = NetInterpolant(nodes, mesh_eval(f, nodes))
        full = fractal_core._config(net, f, alpha, BlendField((0.0, 1.0), (f, interp)), 0.3, 33)
        for t in [k / 6 for k in range(7)]:
            cfg = fractal_core._config(net, f, alpha, BlendField((1.0 - t, t), (f, interp)),
                                       0.3, 33)
            assert t * full.fs_gap == cfg.fs_gap


def _report_numbers(rep):
    """The numbers of a report and of its steps, NaN-safe for comparison."""
    steps = [(st.lhs, st.rhs, st.passed, sorted(st.details.items()))
             for st in rep.details["steps"]]
    return rep.lhs, rep.rhs, rep.passed, repr(steps)


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_sequence_is_six_operators_built_apart(dim):
    # the report equals the one of six D_t operators, each with its own
    # node interpolant, gap grid maximum and chain, as the check once ran
    rng = np.random.default_rng(95 + dim)
    net = random_net(rng, dim)
    alpha = parse_field("0.2+0.1*x1", dim)
    F = fractal_operator(net, alpha, blend_operator(0.5), sup_resolution=33)
    weights = [1.0 / n for n in range(1, 7)]
    # the polynomial expression's gaps are closed-form bounds, scaled up by t
    polynomial = parse_field(" + ".join(f"{c:.6f}*x{q % dim + 1}^{q % 4}" for q, c in
                                        enumerate(rng.uniform(-1.0, 1.0, size=4))), dim)
    for f in [*_seeded_fields(rng, dim), polynomial]:
        axes = box_axes(net.box, 17)
        steps = [_sup_gap(dataclasses.replace(F, op=blend_operator(t))(f, tol=1e-8), axes)
                 for t in weights]
        want = fractal_core.CheckReport("operator_sequence", steps[-1].lhs,
                                        steps[-1].details["bound"],
                                        all(st.passed for st in steps), {"steps": tuple(steps)})
        got = operator_sequence_convergence(F, f, weights, resolution=17, eval_tol=1e-8)
        assert _report_numbers(got) == _report_numbers(want)


def _inverse_longhand(F, target, resolution, tol, inner_tol, max_outer=500):
    """The residual iteration with a fresh config and grid solve per step."""
    axes = box_axes(F.net.box, resolution)
    g_vals = mesh_eval(target, axes)
    f_vals = g_vals.copy()
    residuals = []
    for _ in range(max_outer):
        cfg = F.config(NetInterpolant(axes, f_vals))
        ff_vals = fractal_core.solve_fixed_point_grid(cfg, resolution, tol=inner_tol).grid.values
        residuals.append(float(np.max(np.abs(g_vals - ff_vals))))
        if residuals[-1] <= tol:
            break
        f_vals = f_vals + (g_vals - ff_vals)
    return residuals, f_vals


@pytest.mark.parametrize("case", ["verify-2d", "uniform-1d"])
def test_neumann_inverse_is_the_longhand_grid_solve_per_step(case):
    if case == "verify-2d":
        net = build_net([(0.0, 1.0), (0.0, 2.0)], [[0.0, 0.3, 0.6, 1.0], [0.0, 1.0, 2.0]])
        F = fractal_operator(net, parse_field("0.2+0.1*x1*x2", 2), blend_operator(0.6))
        target, resolution = parse_field("sin(3*x1)*cos(x2)+x1*x2", 2), 33
    else:
        net = build_net([(0.0, 1.0)], [[0.0, 0.25, 0.5, 0.75, 1.0]])
        F = fractal_operator(net, 0.4, blend_operator(1.0))
        target, resolution = parse_field("sin(5*x1)+x1^2", 1), 129
    inv = neumann_inverse(F, target, resolution=resolution, tol=1e-6)
    residuals, f_vals = _inverse_longhand(F, target, resolution, 1e-6, 1e-9)
    assert len(residuals) > 2
    assert inv.residuals == tuple(residuals)
    assert inv.iterations == len(residuals)
    np.testing.assert_array_equal(inv.grid.values, f_vals)
