"""Expression parser and evaluator."""

import math

import numpy as np
import pytest

from fractalis import (
    FieldDomainError,
    FieldParseError,
    grid_sup_norm,
    parse_field,
)


def test_precedence_and_power():
    assert parse_field("2 + 3 * 4^2", 1)((0.0,)) == 50.0
    assert parse_field("2^3^2", 1)((0.0,)) == 512.0  # right associative
    assert parse_field("-2^2", 1)((0.0,)) == -4.0
    assert parse_field("(-2)^2", 1)((0.0,)) == 4.0
    assert parse_field("6 / 3 / 2", 1)((0.0,)) == 1.0
    assert parse_field("1 - 2 - 3", 1)((0.0,)) == -4.0


def test_variables_and_functions():
    e = parse_field("sin(x1) + cos(x2) * exp(-x1^2)", 2)
    x, y = 0.37, -1.2
    assert e((x, y)) == pytest.approx(math.sin(x) + math.cos(y) * math.exp(-x * x))
    e = parse_field("sqrt(abs(x1))", 1)
    assert e((-4.0,)) == 2.0


def test_scalar_and_array_paths_agree():
    e = parse_field("x1^3 - 2*x1*x2 + sin(x2)", 2)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, size=40)
    ys = rng.uniform(-2, 2, size=40)
    arr = e.eval_arrays([xs, ys])
    pointwise = np.array([e((x, y)) for x, y in zip(xs, ys)])
    np.testing.assert_array_equal(arr, pointwise)


def test_eval_arrays_broadcasts_constants():
    e = parse_field("3.5", 2)
    out = e.eval_arrays([np.zeros((4, 5)), np.ones((4, 5))])
    assert out.shape == (4, 5)
    assert np.all(out == 3.5)


def test_parse_errors_carry_position():
    with pytest.raises(FieldParseError) as err:
        parse_field("2 +", 1)
    assert err.value.pos is not None

    with pytest.raises(FieldParseError):
        parse_field("", 1)
    with pytest.raises(FieldParseError):
        parse_field("(1 + 2", 1)
    with pytest.raises(FieldParseError):
        parse_field("1 2", 1)
    with pytest.raises(FieldParseError):
        parse_field("bogus(x1)", 1)
    # variable index beyond the declared arity
    with pytest.raises(FieldParseError):
        parse_field("x3", 2)


def test_round_trip_through_source():
    # the printer must reproduce the tree: evaluations agree bit for bit
    sources = [
        "2 + 3 * 4^2",
        "-x1^2 + (x1 - 1) * (x1 + 1)",
        "sin(x1 * x2) / (1 + x2^2)",
        "exp(-x1^2 - x2^2)",
        "6 / 3 / 2 - x1^x2^2",
    ]
    rng = np.random.default_rng(11)
    for src in sources:
        e = parse_field(src, 2)
        back = parse_field(e.to_source(), 2)
        for _ in range(100):
            p = tuple(rng.uniform(0.1, 1.5, size=2))
            assert back(p) == e(p)


def test_sup_norm_monotone_under_refinement():
    e = parse_field("sin(5*x1) * exp(x1)", 1)
    box = [(0.0, 2.0)]
    res = 9
    prev = grid_sup_norm(e, box, res)
    for _ in range(5):
        res = 2 * res - 1  # nested refinement keeps every old grid point
        cur = grid_sup_norm(e, box, res)
        assert cur >= prev
        prev = cur


def test_domain_errors():
    with pytest.raises(FieldDomainError):
        parse_field("sqrt(x1)", 1)((-1.0,))
    with pytest.raises(FieldDomainError):
        parse_field("1 / x1", 1)((0.0,))
    with pytest.raises(FieldDomainError):
        parse_field("1 / x1", 1).eval_arrays([np.array([0.5, 0.0])])


def test_intermediate_infinity_is_not_a_domain_error():
    # 1/(1/0) = 1/inf = 0: only a non-finite result raises, on a point as on
    # arrays
    e = parse_field("1/(1/(x1-x1))", 1)
    assert e((0.3,)) == 0.0
    np.testing.assert_array_equal(e.eval_arrays([np.array([0.3, -2.0])]), [0.0, 0.0])


def test_sup_norm_grid():
    e = parse_field("x1 - x1^2", 1)
    # grid with 1001 points contains the maximizer x = 1/2
    assert grid_sup_norm(e, [(0.0, 1.0)], 1001) == pytest.approx(0.25, abs=1e-15)
    assert e((0.5,)) == 0.25
    # a box of another dimension is refused by the expression itself
    with pytest.raises(ValueError):
        grid_sup_norm(e, [(0.0, 1.0), (0.0, 1.0)], 5)


def test_arity_validation():
    with pytest.raises(ValueError):
        parse_field("x1", 0)
    e = parse_field("x1 + x2", 2)
    with pytest.raises(ValueError):
        e((1.0,))


def test_log_function_and_its_domain():
    e = parse_field("log(x1+1)", 1)
    xs = np.linspace(0.0, 3.0, 7)
    np.testing.assert_array_equal(e.eval_arrays([xs]), np.log(xs + 1.0))
    assert e((math.e - 1.0,)) == pytest.approx(1.0, abs=1e-15)
    assert parse_field("log(x1)", 1).to_source() == "log(x1)"
    for x in (-1.0, -2.0):  # log(0) and log of a negative number
        with pytest.raises(FieldDomainError):
            e((x,))
        with pytest.raises(FieldDomainError):
            e.eval_arrays([np.array([0.5, x])])
