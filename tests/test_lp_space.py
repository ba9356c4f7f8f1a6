"""Integral-norm layer: quadrature, norm constants, perturbation bounds,
complexification."""

import math
import warnings

import numpy as np
import pytest

from conftest import check_resolution, random_net, random_operator_setup, random_poly
from fractalis import (
    ComplexFieldPair,
    ConstantField,
    FractalField,
    blend_operator,
    build_net,
    complex_l2_identity_check,
    complex_perturbation_gap,
    complexify_apply,
    fractal_operator,
    grid_sup_norm,
    lp_norm,
    lp_perturbation_gap,
    m_constant,
    make_operator_config,
    parse_field,
    quadrature_rule,
    refined_m_constant,
)
from fractalis._fields import mesh_eval


def _lp_resolution(dim):
    r = check_resolution(dim)
    return r if r % 2 == 1 else r + 1


def test_quadrature_rule_basics():
    rule = quadrature_rule([(0.0, 2.0), (-1.0, 1.0)], 9)
    assert rule.weight_sum == pytest.approx(4.0, abs=1e-14)  # box volume
    with pytest.raises(ValueError):
        quadrature_rule([(0.0, 1.0)], 8)  # even point count
    with pytest.raises(ValueError):
        quadrature_rule([(0.0, 1.0)], 1)


def test_quadrature_exact_for_linear_fields():
    rule = quadrature_rule([(0.0, 1.0)], 101)
    f = parse_field("2*x1 - 1", 1)
    assert rule.integrate(f) == pytest.approx(0.0, abs=1e-14)


def test_reference_l1_value():
    # integral of |x - x^2| over [0, 1] is exactly 1/6, and the squared
    # integral is 1/30
    rule = quadrature_rule([(0.0, 1.0)], 1025)
    f = parse_field("x1 - x1^2", 1)
    assert lp_norm(f, rule, 1) == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert lp_norm(f, rule, 2) == pytest.approx(math.sqrt(1.0 / 30.0), abs=1e-6)


def test_refinement_gains_second_order():
    # composite trapezoid on a smooth field: consecutive refinement
    # differences shrink by at least a factor of 3
    f = parse_field("sin(3*x1) * exp(x1)", 1)
    box = [(0.0, 1.0)]
    values = [lp_norm(f, quadrature_rule(box, r), 2) for r in (17, 33, 65, 129)]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    for d_prev, d_next in zip(diffs, diffs[1:]):
        assert d_next <= d_prev / 3.0


def test_lp_never_exceeds_sup_times_volume_root():
    rng = np.random.default_rng(64)
    for _ in range(10):
        net = random_net(rng, dim=int(rng.integers(1, 3)))
        f = random_poly(rng, net.dim)
        rule = quadrature_rule(net.box.bounds, 33)
        sup = grid_sup_norm(f, net.box.bounds, 33)
        volume = rule.weight_sum
        for p in (1, 2, 3):
            assert lp_norm(f, rule, p) <= sup * volume ** (1.0 / p) + 1e-12


def test_lp_norm_accepts_arrays_and_fields():
    rule = quadrature_rule([(0.0, 1.0)], 257)
    f = parse_field("x1", 1)
    direct = lp_norm(f, rule, 2)
    via_array = lp_norm(mesh_eval(f, rule.axes), rule, 2)
    assert direct == via_array
    assert direct == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-5)
    with pytest.raises(ValueError):
        lp_norm(f, rule, 0.5)


def test_lp_norm_large_exponents_neither_underflow_nor_overflow():
    # |v|^p of values near 0.05 underflows at p = 400, and of values near 3
    # overflows at p = 4194305, unless the norm scales by the maximum first
    rule = quadrature_rule([(0.0, 1.0)], 257)
    x = rule.axes[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small = lp_norm(0.05 * x, rule, 400)
        big = lp_norm(2.0 + x, rule, 4194305)
    assert 0.045 < small <= 0.05
    assert big == pytest.approx(3.0, rel=1e-5)
    assert lp_norm(np.zeros_like(x), rule, 3) == 0.0


def test_norm_constants():
    assert m_constant(1) == pytest.approx(2.0 ** 1.5, abs=1e-14)
    assert m_constant(2) == pytest.approx(2.0, abs=1e-14)
    assert refined_m_constant(2) == pytest.approx(1.0, abs=1e-14)
    assert refined_m_constant(4) == pytest.approx(2.0 ** 0.25, abs=1e-14)
    with pytest.raises(ValueError):
        refined_m_constant(1.5)
    # the refined constant never exceeds the general one where both apply
    for p in (2, 3, 5, 10):
        assert refined_m_constant(p) <= m_constant(p)


def test_lp_perturbation_gap_seeded():
    rng = np.random.default_rng(61)
    for _ in range(30):
        net, f, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        field = fractal_operator(net, alpha, op)(f)
        rule = quadrature_rule(net.box, _lp_resolution(net.dim))
        for p in (1, 2, 3):
            rep = lp_perturbation_gap(field, rule, p)
            assert rep.passed, (p, rep)


def test_complexify_apply_is_componentwise():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    op = blend_operator(1.0)
    pair = ComplexFieldPair(real=parse_field("x1^2", 1),
                            imag=parse_field("sin(2*x1)", 1))
    out = complexify_apply(fractal_operator(net, 0.4, op), pair, tol=1e-10)
    ref_re = FractalField(make_operator_config(net, pair.real, 0.4, op), tol=1e-10)
    ref_im = FractalField(make_operator_config(net, pair.imag, 0.4, op), tol=1e-10)
    xs = np.linspace(0, 1, 33)
    np.testing.assert_allclose(out.real.eval_arrays([xs]), ref_re.eval_arrays([xs]),
                               atol=1e-14)
    np.testing.assert_allclose(out.imag.eval_arrays([xs]), ref_im.eval_arrays([xs]),
                               atol=1e-14)
    assert out.real.error_bound <= 1e-10
    assert out.imag.error_bound <= 1e-10


def test_pair_scaling_rotates_components():
    pair = ComplexFieldPair(real=parse_field("x1", 1),
                            imag=parse_field("x1^2", 1))
    rotated = pair.scaled(complex(0.0, 1.0))
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(rotated.real.eval_arrays([xs]),
                               -pair.imag.eval_arrays([xs]), atol=1e-15)
    np.testing.assert_allclose(rotated.imag.eval_arrays([xs]),
                               pair.real.eval_arrays([xs]), atol=1e-15)
    assert rotated((0.5,)) == pytest.approx(complex(-0.25, 0.5))


def test_complex_perturbation_gap_seeded():
    rng = np.random.default_rng(62)
    for _ in range(5):
        net, f, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        pair = ComplexFieldPair(real=f, imag=random_poly(rng, net.dim))
        for p in (1, 2):
            rep = complex_perturbation_gap(fractal_operator(net, alpha, op), pair, p,
                                           resolution=_lp_resolution(net.dim))
            assert rep.passed, (p, rep)


def test_complex_l2_identity_seeded():
    rng = np.random.default_rng(63)
    for _ in range(20):
        net, f, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        pair = ComplexFieldPair(real=f, imag=random_poly(rng, net.dim))
        rep = complex_l2_identity_check(fractal_operator(net, alpha, op), pair,
                                        resolution=_lp_resolution(net.dim))
        assert rep.passed, (rep.lhs, rep.details)


def test_constant_pair_norm():
    rule = quadrature_rule([(0.0, 1.0)], 17)
    pair = ComplexFieldPair(real=ConstantField(3.0), imag=ConstantField(4.0))
    assert lp_norm(pair, rule, 2) == pytest.approx(5.0, abs=1e-12)
