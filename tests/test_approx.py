"""Polynomial fitting, target-accuracy perturbation, hat basis transport."""

import itertools

import numpy as np
import pytest

from conftest import random_poly, random_uniform_net
from fractalis import (
    ApproximationError,
    TensorPolynomial,
    blend_operator,
    build_net,
    epsilon_approximate,
    faber_schauder,
    fractal_basis_reconstruct,
    fractal_operator,
    node_arrays,
    parse_field,
    poly_fit_least_squares,
    schauder_coefficients,
)


def test_tensor_polynomial_evaluation():
    # p(x, y) = 1 + 2x + 3y + 4xy
    p = TensorPolynomial([[1.0, 3.0], [2.0, 4.0]])
    assert p((0.5, 2.0)) == pytest.approx(1 + 2 * 0.5 + 3 * 2.0 + 4 * 0.5 * 2.0)
    assert p.degrees == (1, 1)
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([1.0, 0.0, 3.0])
    out = p.eval_arrays([xs, ys])
    ref = 1 + 2 * xs + 3 * ys + 4 * xs * ys
    np.testing.assert_allclose(out, ref, atol=1e-14)


def test_fit_recovers_exact_polynomial():
    target = TensorPolynomial([1.0, -3.0, 2.0])  # 1 - 3x + 2x^2
    fit = poly_fit_least_squares(target, [(-2.0, 5.0)], (2,))
    np.testing.assert_allclose(fit.coeffs, target.coeffs, atol=1e-9)

    target2 = TensorPolynomial([[0.5, 0.0, 1.0], [-1.0, 2.0, 0.0]])
    fit2 = poly_fit_least_squares(target2, [(-1.0, 2.0), (0.0, 3.0)], (1, 2))
    np.testing.assert_allclose(fit2.coeffs, target2.coeffs, atol=1e-8)


def test_fit_handles_shifted_boxes():
    # the back-transform from scaled to raw coordinates must be exact for
    # boxes far from the origin
    target = TensorPolynomial([2.0, 0.0, 1.0])
    fit = poly_fit_least_squares(target, [(100.0, 101.0)], (2,))
    xs = np.linspace(100.0, 101.0, 7)
    np.testing.assert_allclose(fit.eval_arrays([xs]), target.eval_arrays([xs]),
                               rtol=1e-8)


def test_fit_bell_surface_residual():
    f = parse_field("exp(-x1^2 - x2^2)", 2)
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    fit = poly_fit_least_squares(f, box, (6, 6), resolution=41)
    xs = np.linspace(-1, 1, 41)
    mesh = np.meshgrid(xs, xs, indexing="ij")
    residual = np.max(np.abs(
        fit.eval_arrays([m.ravel() for m in mesh])
        - f.eval_arrays([m.ravel() for m in mesh])
    ))
    assert residual < 0.01


def test_fit_validation():
    f = parse_field("x1", 1)
    with pytest.raises(ValueError):
        poly_fit_least_squares(f, [(0.0, 1.0)], (1, 1))  # degree arity
    with pytest.raises(ValueError):
        poly_fit_least_squares(f, [(0.0, 1.0)], (-1,))


def test_fractal_polynomial_interpolates_fit():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    p = TensorPolynomial([0.0, 0.0, 1.0])
    field = fractal_operator(net, 0.3, blend_operator(1.0))(p, tol=1e-10)
    for x in (0.0, 0.5, 1.0):
        assert field((x,)) == pytest.approx(p((x,)), abs=1e-9)


def test_fractal_polynomial_node_values_seeded():
    rng = np.random.default_rng(71)
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        net = random_uniform_net(rng, dim=dim)
        p = random_poly(rng, dim)
        scale = 0.8 / max(part.n_cells for part in net.axes)
        field = fractal_operator(net, scale, blend_operator(1.0))(p, tol=1e-10)
        worst = max(
            abs(field(node) - p(node))
            for node in itertools.product(*node_arrays(net))
        )
        assert worst <= 1e-9


def test_epsilon_approximate_hits_targets():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("sin(3*x1) + 0.3*cos(7*x1)", 1)
    op = blend_operator(1.0)
    for eps in (0.2, 0.1):
        result = epsilon_approximate(net, f, op, eps)
        assert result.passed
        assert result.error < eps
        # the two contributions satisfy the triangle split
        assert result.components["fit_error"] < eps / 2
        assert (result.components["perturbation_bound"] < eps / 2)
        assert 0.0 < result.alpha < 1.0


def test_epsilon_approximate_seeded_fields():
    rng = np.random.default_rng(72)
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    op = blend_operator(1.0)
    for _ in range(10):
        a = float(rng.uniform(0.3, 1.0))
        b = int(rng.integers(1, 5))
        c = float(rng.uniform(-1.0, 1.0))
        f = parse_field(f"{a} * sin({b}*x1) + {c} * x1^2", 1)
        for eps in (0.2, 0.1, 0.05):
            result = epsilon_approximate(net, f, op, eps)
            assert result.passed and result.error < eps
            comp = result.components
            assert comp["fit_error"] < eps / 2
            assert comp["perturbation_bound"] < eps / 2
            # measured second leg stays under its analytic bound, and the
            # triangle of measured legs dominates the total
            assert comp["perturbation_error"] <= 1.02 * comp["perturbation_bound"] + 1e-8
            assert result.error <= comp["fit_error"] + comp["perturbation_error"] + 1e-10


def test_epsilon_huge_target_takes_constant_fit():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    result = epsilon_approximate(net, parse_field("sin(3*x1)", 1),
                                 blend_operator(1.0), 10.0)
    assert result.components["degree"] == (0,)
    assert result.passed


def test_epsilon_approximate_reports_unreachable_degree():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    f = parse_field("sin(40*x1)", 1)
    with pytest.raises(ApproximationError):
        epsilon_approximate(net, f, blend_operator(1.0), 0.05, max_degree=2)


def test_hat_basis_shapes():
    h1 = faber_schauder(1)
    assert h1((0.3,)) == 1.0
    h2 = faber_schauder(2)
    assert h2((0.0,)) == 0.0
    assert h2((1.0,)) == 1.0
    assert h2((0.25,)) == 0.25
    h3 = faber_schauder(3)
    assert h3((0.5,)) == 1.0
    assert h3((0.0,)) == 0.0
    assert h3((0.25,)) == 0.5
    h4 = faber_schauder(4)  # first hat of the next level
    assert h4((0.25,)) == 1.0
    assert h4((0.5,)) == 0.0
    h5 = faber_schauder(5)
    assert h5((0.75,)) == 1.0
    assert h5((0.5,)) == 0.0
    with pytest.raises(ValueError):
        faber_schauder(0)


def test_hats_partition_each_level():
    # hats of one level have disjoint interiors and their peaks sweep the
    # odd dyadics left to right
    level = 3
    first = 2 ** (level - 1) + 2  # index of the first level-3 hat
    peaks = []
    for n in range(first, first + 2 ** (level - 1)):
        hat = faber_schauder(n)
        peaks.append(hat.peak)
    assert peaks == sorted(peaks)
    assert peaks[0] == pytest.approx(1.0 / 2 ** level)


def test_schauder_biorthogonality():
    # coefficients of a basis member pick out its own index; dyadic node
    # evaluations are exact so the match is to the last bit
    n_terms = 9
    for n in range(1, n_terms + 1):
        coeffs = schauder_coefficients(faber_schauder(n), n_terms)
        expected = np.zeros(n_terms)
        expected[n - 1] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-15)


def test_schauder_coefficients_of_square():
    g = parse_field("x1^2", 1)
    co = schauder_coefficients(g, 9)
    assert co[0] == 0.0
    assert co[1] == 1.0
    assert co[2] == pytest.approx(-0.25)
    # every deeper level halves twice: coefficients are -1/4^level
    np.testing.assert_allclose(co[3:5], [-0.0625, -0.0625], atol=1e-14)
    np.testing.assert_allclose(co[5:9], [-0.015625] * 4, atol=1e-14)


def test_hat_partial_sums_reproduce_smooth_targets():
    g = parse_field("x1^2", 1)
    co = schauder_coefficients(g, 33)
    hats = [faber_schauder(n + 1) for n in range(33)]
    xs = np.linspace(0, 1, 257)
    total = np.zeros_like(xs)
    for c, hat in zip(co, hats):
        total += c * hat.eval_arrays([xs])
    err = float(np.max(np.abs(total - g.eval_arrays([xs]))))
    # 33 terms complete the level-5 grid: error is h^2/4 with h = 1/32
    assert err <= 1.0 / 4096 + 1e-12


def test_basis_reconstruction_converges():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    g = parse_field("x1^2", 1)
    result = fractal_basis_reconstruct(fractal_operator(net, 0.3, blend_operator(1.0)), g,
                                       n_terms=17)
    assert result.inverse_residual <= 1e-7
    errors = dict(result.partial_errors)
    # block boundaries: complete levels must not increase the error
    marks = [1, 2, 3, 5, 9, 17]
    vals = [errors[m] for m in marks]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 0.02


def test_reconstruction_recovers_transported_ramp():
    # g built as the image of e_2: inversion must hand back the ramp, so
    # the single e_2 term reconstructs g and later terms add nothing
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    F = fractal_operator(net, 0.3, blend_operator(1.0))
    g = F(faber_schauder(2), tol=1e-10)
    result = fractal_basis_reconstruct(F, g, n_terms=5)
    coeffs = result.coefficients
    assert abs(coeffs[1] - 1.0) <= 1e-6
    assert max(abs(c) for i, c in enumerate(coeffs) if i != 1) <= 1e-6
    for m, err in result.partial_errors:
        if m >= 2:
            assert err <= 1e-6


def test_basis_reconstruction_requires_unit_line():
    net = build_net([(0.0, 2.0)], [[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError):
        fractal_basis_reconstruct(fractal_operator(net, 0.3, blend_operator(1.0)),
                                  parse_field("x1", 1))
