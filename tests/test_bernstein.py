"""Closed-form constants of polynomial fields: the exact normal form of
``FieldExpr.polynomial`` and the certified Bernstein bounds of
``_bernstein`` that ``make_config`` takes in place of grid maxima."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_net
from fractalis import (
    CallableField,
    TensorPolynomial,
    blend_operator,
    build_net,
    grid_sup_norm,
    identity_operator,
    make_config,
    make_operator_config,
    parse_field,
)
from fractalis import _bernstein, fractal_core
from fractalis._fields import _grid_max, _open_mesh, box_axes, with_gap
from fractalis.cli import main
from fractalis.operator_props import apply_operator


def _random_poly_source(rng, dim, max_degree=3):
    """A seeded tensor polynomial of degree <= max_degree per axis, as text."""
    degrees = rng.integers(0, max_degree + 1, size=dim)
    terms = []
    for exps in np.ndindex(*(degrees + 1)):
        monomial = "*".join(f"x{q + 1}^{e}" for q, e in enumerate(exps) if e)
        terms.append(f"{rng.uniform(-1.0, 1.0):.6f}" + (f"*{monomial}" if monomial else ""))
    return " + ".join(terms)


def _fine_axes(net, per_cell):
    """Per axis, every knot and ``per_cell`` - 2 points inside each cell."""
    return [np.unique(np.concatenate([np.linspace(a, b, per_cell)
                                      for a, b in zip(part.knots, part.knots[1:])]))
            for part in net.axes]


def _grid_gap(f, s, axes):
    return _grid_max(lambda slab: np.abs(with_gap(f, s, _open_mesh(slab))[1]), axes)


# -- the normal form ---------------------------------------------------------

def test_polynomial_normal_form_is_exact():
    p = parse_field("(x1 - 0.5)^2 * x2 / 3 - 2*x2 + 0.1", 2).polynomial()
    want = np.full((3, 2), Fraction(0), dtype=object)
    want[0, 0] = Fraction(0.1)
    want[0, 1] = Fraction(1, 12) - 2
    want[1, 1] = Fraction(-1, 3)
    want[2, 1] = Fraction(1, 3)
    assert p.shape == want.shape and all(a == b for a, b in zip(p.flat, want.flat))


@pytest.mark.parametrize("source", [
    "sin(x1)", "exp(x2)", "x1^0.5", "x1/x2", "x1^x2", "x1^-1", "x1/(x2-x2)",
    "(x1+x2)^40", "1e999*x1"])
def test_non_polynomials_have_no_normal_form(source):
    assert parse_field(source, 2).polynomial() is None


@pytest.mark.parametrize("source", [
    "x1 + 0.9^1000000000", "(0.1*x1+0.3)^1000", "x1*((((0.9^16)^16)^16)^16)^16",
    "(x1*x2+x1+x2)^17", "x1^16 + x2^16 + x3^16"])
def test_limits_of_the_normal_form_stop_before_expanding(source):
    # a power above the degree limit, constants past the bit limit, and
    # tensors past the size limit have no normal form, at once; make_config
    # takes the grid maximum instead
    field = parse_field(source, 3)
    start = time.perf_counter()
    assert field.polynomial() is None
    assert time.perf_counter() - start < 0.5
    net = build_net([(0.0, 1.0)] * 3, [[0.0, 0.5, 1.0]] * 3)
    s = apply_operator(blend_operator(0.5), field, net)
    cfg = make_config(net, field, 0.3, s, sup_resolution=17)
    assert cfg.fs_gap == _grid_gap(field, s, box_axes(net.box, 17))


def test_constant_powers_within_the_limits_are_exact():
    p = parse_field("x1*2^20 + (x1/3)^16", 1).polynomial()
    assert p.shape == (17,) and p[1] == 2**20 and p[16] == Fraction(1, 3**16)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normal_form_evaluates_like_the_expression(dim):
    rng = np.random.default_rng(10 + dim)
    for _ in range(5):
        field = parse_field(_random_poly_source(rng, dim), dim)
        pts = [rng.uniform(-2.0, 2.0, size=50) for _ in range(dim)]
        got = TensorPolynomial(field.polynomial().astype(float)).eval_arrays(pts)
        np.testing.assert_allclose(got, field.eval_arrays(pts), rtol=1e-12, atol=1e-12)


# -- certified bounds ----------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bounds_hold_and_are_within_two_percent_of_a_fine_grid(dim):
    # random tensor polynomials of degree <= 3 on nonuniform nets: the blend
    # gap t*(f - I f), the gap to an explicit polynomial s, and the identity.
    # The bound is that of the exact fields; the grid's values carry the
    # rounding of their own evaluation, which 1e-12 covers
    rng = np.random.default_rng(20 + dim)
    per_cell = {1: 257, 2: 65, 3: 17}[dim]
    for trial in range(12):
        net = random_net(rng, dim=dim, max_cells=3 if dim == 3 else 4)
        f = parse_field(_random_poly_source(rng, dim), dim)
        axes = _fine_axes(net, per_cell)
        t = float(rng.uniform(0.0, 1.0)) if trial else 1.0
        explicit = parse_field(_random_poly_source(rng, dim), dim)
        for s in (apply_operator(blend_operator(t), f, net), explicit):
            bound = _bernstein.gap_bound(f, s, net.box)
            grid = _grid_gap(f, s, axes)
            assert grid - 1e-12 <= bound <= 1.02 * grid + 1e-12, (trial, s, grid, bound)
        assert _bernstein.gap_bound(f, apply_operator(identity_operator(), f, net),
                                    net.box) == 0.0
        bound = _bernstein.sup_bound(f, net.box)
        grid = _grid_max(lambda slab: np.abs(f.eval_arrays(_open_mesh(slab))), axes)
        assert grid - 1e-12 <= bound <= 1.02 * grid + 1e-12, (trial, grid, bound)


def _exact_cell_coefficients(coeffs, lo, hi, n):
    """Bernstein coefficients of degree n on [lo, hi] of the 1-D polynomial
    with the exact ``coeffs``, in Fractions: the Taylor coefficients in
    u = (x - lo)/(hi - lo), then u^j = sum_k C(k, j)/C(n, j) B_k(u)."""
    lo, h = Fraction(lo), Fraction(hi) - Fraction(lo)
    taylor = [sum(c * math.comb(i, j) * lo ** (i - j) * h**j
                  for i, c in enumerate(coeffs) if i >= j) for j in range(n + 1)]
    return [sum(Fraction(math.comb(k, j), math.comb(n, j)) * taylor[j] for j in range(k + 1))
            for k in range(n + 1)]


def test_cells_cut_from_the_whole_axis_hold_their_exact_coefficients():
    # each cell is cut out of the axis's one change of basis at inexact
    # ratios of its knots: every float coefficient lies within its error
    # bound of the exact one, and those bounds stay near the rounding
    coeffs = parse_field("(0.3*x1 + 0.1)^7 - x1^3/3 + 0.7", 1).polynomial()
    knots = [-0.3, 0.1, 1 / 3, 0.37, 0.9, 2.0]
    for n in (7, 9):
        V, E = _bernstein._to_cells(coeffs, [knots], [n])
        assert V.shape == E.shape == (len(knots) - 1, n + 1)
        for cell, (lo, hi) in enumerate(zip(knots, knots[1:])):
            exact = _exact_cell_coefficients(coeffs.tolist(), lo, hi, n)
            for v, e, q in zip(V[cell].tolist(), E[cell].tolist(), exact):
                assert abs(Fraction(v) - q) <= Fraction(e) and e < 1e-14


def test_fine_nets_take_their_gap_in_closed_form():
    # 2048 cells of a degree-16 f: the cells are cut from one change of
    # basis, so the bound holds and comes fast; the 129-point grid, whose
    # points all lie on knots, reads 0
    net = build_net([(0.0, 1.0)], [np.linspace(0.0, 1.0, 2049).tolist()])
    f = parse_field("(0.3*x1 + 0.1)^16 - x1^3", 1)
    s = apply_operator(blend_operator(0.5), f, net)
    start = time.perf_counter()
    bound = _bernstein.gap_bound(f, s, net.box)
    assert time.perf_counter() - start < 2.0
    grid = _grid_gap(f, s, _fine_axes(net, 65))
    assert grid <= bound <= 1.02 * grid
    assert _grid_gap(f, s, box_axes(net.box, 129)) == 0.0


def test_a_multilinear_gap_stops_at_its_rounding():
    # f - I f is 0 in exact arithmetic, and only rounding is left: the
    # search stops at once and returns a bound of that size
    net = build_net([(0.0, 1.0)] * 3, [[0.0, 1 / 3, 2 / 3, 1.0]] * 3)
    f = parse_field("0.1*x1*x2*x3 - 0.7*x1*x3 + x2 / 3", 3)
    start = time.perf_counter()
    bound = _bernstein.gap_bound(f, apply_operator(blend_operator(0.7), f, net), net.box)
    assert 0.0 <= bound < 1e-14
    assert time.perf_counter() - start < 1.0


def test_benchmark_gap_and_multilinear_sups_are_exact():
    # eval-3d's blend config: the gap peaks at the cell midpoints, 1/32
    net = build_net([(0.0, 1.0)] * 3, [[0.0, 0.5, 1.0]] * 3)
    cfg = make_operator_config(net, parse_field("x1*x2+x3^2", 3), 0.3, blend_operator(0.5))
    assert cfg.fs_gap == 0.03125
    # the multilinear scale fields of surface-2d and verify-2d peak at a
    # vertex, where the value is a double: the grid maximum, bit for bit
    for bounds, source, sup in (([(0, 1), (0, 1)], "0.3+0.2*x1*x2", 0.5),
                                ([(0, 1), (0, 2)], "0.2+0.1*x1*x2", 0.4)):
        net = build_net(bounds, [[lo, (lo + hi) / 2, hi] for lo, hi in bounds])
        alpha = parse_field(source, 2)
        assert fractal_core._scale_sup(alpha, net) == sup == grid_sup_norm(alpha, net.box, 129)


def test_inexact_vertex_values_are_rounded_up():
    # 0.2 + 0.1 is not a double: the bound lies above the exact sup
    net = build_net([(0.0, 1.0)] * 3, [[0.0, 0.5, 1.0]] * 3)
    bound = fractal_core._scale_sup(parse_field("0.2+0.1*x1*x2*x3", 3), net)
    exact = Fraction(0.2) + Fraction(0.1)
    assert exact <= Fraction(bound) <= exact + 2 * Fraction(math.ulp(0.3))


def test_mul_up_rounds_inexact_products_up():
    assert _bernstein.mul_up(0.5, 0.0625) == 0.03125
    assert _bernstein.mul_up(0.0, 0.7) == 0.0
    for t, x in ((0.6, 0.1), (1 / 3, 0.7), (0.9, 1e-300)):
        got = _bernstein.mul_up(t, x)
        assert Fraction(t) * Fraction(x) <= Fraction(got)
        assert got <= math.nextafter(t * x, math.inf)


NON_POLYNOMIAL = ["sin(3*x1)*x2", "exp(x1)-x2", "x1^0.5+x2", "x1*x2/(1+x2)", "callable"]


@pytest.mark.parametrize("source", NON_POLYNOMIAL)
def test_other_fields_keep_the_grid_maximum(source):
    net = build_net([(0.0, 1.0), (0.0, 2.0)], [[0.0, 0.3, 0.6, 1.0], [0.0, 1.0, 2.0]])
    if source == "callable":
        f = CallableField(lambda p: math.sin(3 * p[0]) * p[1])
        alpha = CallableField(lambda p: 0.1 + 0.1 * p[0] * p[1])
    else:
        f, alpha = parse_field(source, 2), parse_field(f"0.1*({source})", 2)
    s = apply_operator(blend_operator(0.6), f, net)
    assert _bernstein.gap_bound(f, s, net.box) is None
    assert _bernstein.sup_bound(alpha, net.box) is None
    cfg = make_config(net, f, alpha, s, sup_resolution=17)
    assert cfg.alpha_sup == grid_sup_norm(alpha, net.box, 17)
    assert cfg.fs_gap == _grid_gap(f, s, box_axes(net.box, 17))
    # a polynomial f with such a base has no closed form either
    assert _bernstein.gap_bound(parse_field("x1*x2", 2), f, net.box) is None


def test_inputs_the_rounding_cannot_cover_fall_back_to_the_grid():
    # a coefficient near the top of the double range overflows the
    # Veltkamp split: no closed form, and make_config takes the grid maximum
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("1e305*x1^2", 1)
    s = apply_operator(blend_operator(0.5), f, net)
    assert _bernstein.gap_bound(f, s, net.box) is None
    cfg = make_config(net, f, 0.3, s, sup_resolution=33)
    assert cfg.fs_gap == _grid_gap(f, s, box_axes(net.box, 33))


BASELINE_4D = {
    "box": {"bounds": [[0, 1]] * 4},
    "net": {"knots": [[0, 0.5, 1]] * 4},
    "fields": {"f": "x1*x2+x3*x4", "alpha": 0.3},
    "operator": {"kind": "blend", "t": 0.5},
}


def test_four_dimensional_eval_takes_under_two_seconds(tmp_path, capsys):
    # the gap of the multilinear f is 0 in closed form: no 129^4 grid
    path = tmp_path / "baseline-4d.json"
    path.write_text(json.dumps(BASELINE_4D))
    start = time.perf_counter()
    assert main(["eval", "--config", str(path), "0.3,0.4,0.5,0.6"]) == 0
    assert time.perf_counter() - start < 2.0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[4]) == 0.3 * 0.4 + 0.5 * 0.6 and float(row[5]) == 0.0
