"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Each criterion prints a single summary line; run with -rA (or -s) to see
the lines for passing tests as well.
"""

import time

import numpy as np
import pytest

from conftest import (
    PinnedBase,
    check_resolution,
    random_config,
    random_net,
    random_operator_setup,
    random_poly,
)
from fractalis import (
    ComplexFieldPair,
    FractalField,
    alpha_sequence_convergence,
    blend_operator,
    build_net,
    complex_l2_identity_check,
    complex_perturbation_gap,
    epsilon_approximate,
    fractal_basis_reconstruct,
    fractal_operator,
    interpolation_check,
    jacobian_sum,
    linearity_check,
    lp_norm,
    lp_perturbation_gap,
    make_config,
    make_operator_config,
    neumann_inverse,
    parse_field,
    quadrature_rule,
    solve_fixed_point_grid,
)
from fractalis._fields import mesh_eval


def _line(idx, slug, ok, detail):
    print(f"ACCEPTANCE {idx:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{slug}: {detail}"


def _gaussian_demo(scale):
    net = build_net([(-1.0, 1.0), (-1.0, 1.0)],
                    [[-1.0, -0.5, 0.0, 0.5, 1.0]] * 2)
    f = parse_field("exp(-x1^2 - x2^2)", 2)
    s = parse_field("x1^2 * x2^2 * exp(-x1^2 - x2^2)", 2)
    return make_config(net, f, scale, s)


def _line_demo():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    return make_config(net, parse_field("x1", 1), 0.5, parse_field("x1^2", 1))


def _sup_gap_holds(cfg, resolution, eval_tol=1e-9):
    """Max |perturbed - f| against the contraction bound, with the
    truncation allowance counted on the measured side."""
    field = FractalField(cfg, tol=eval_tol)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in cfg.net.box.bounds]
    f_vals = mesh_eval(cfg.f, axes)
    lhs = float(np.max(np.abs(mesh_eval(field, axes) - f_vals)))
    gap = float(np.max(np.abs(f_vals - mesh_eval(cfg.s, axes))))
    a = cfg.alpha_sup
    rhs = a / (1.0 - a) * gap
    return lhs <= rhs + field.error_bound + 1e-12 * max(1.0, rhs), lhs, rhs


def test_accept_01_interpolation_at_nodes():
    start = time.monotonic()
    cfg = _gaussian_demo(0.2)
    field = FractalField(cfg, tol=1e-10)
    rep = interpolation_check(field, cfg.net, cfg.f, tol=1e-9)
    elapsed = time.monotonic() - start
    ok = rep.passed and rep.details["n_nodes"] == 25 and elapsed < 5.0
    _line(1, "node_interpolation", ok,
          f"max_error={rep.lhs:.3e} nodes={rep.details['n_nodes']} "
          f"time={elapsed:.2f}s")


def test_accept_02_hand_oracle_and_grid_agreement():
    start = time.monotonic()
    cfg = _line_demo()
    expected = {0.25: 0.375, 0.75: 0.875, 0.125: 0.28125}

    pts = np.array(list(expected))
    chain = FractalField(cfg, tol=1e-12).eval_arrays([pts])
    chain_err = max(abs(v - expected[x]) for x, v in zip(pts, chain))

    res = solve_fixed_point_grid(cfg, resolution=1025, tol=1e-13)
    xs = np.asarray(res.grid.axes[0])
    grid_at = {x: res.grid.values[int(round(x * 1024))] for x in expected}
    grid_err = max(abs(grid_at[x] - expected[x]) for x in expected)

    field = FractalField(cfg, tol=1e-10)
    agreement = float(np.max(np.abs(field.eval_arrays([xs]) - res.grid.values)))
    elapsed = time.monotonic() - start
    ok = chain_err <= 1e-10 and grid_err <= 1e-10 and agreement <= 1e-4 \
        and elapsed < 10.0
    _line(2, "hand_oracle_dual_route", ok,
          f"chain={chain_err:.2e} grid={grid_err:.2e} "
          f"agreement={agreement:.2e} time={elapsed:.2f}s")


def test_accept_03_sup_norm_perturbation_bound():
    rng = np.random.default_rng(101)
    failures = []
    for i in range(50):
        if i % 2 == 0:
            cfg = random_config(rng, dim=int(rng.integers(1, 3)))
        else:
            net, f, alpha, op = random_operator_setup(
                rng, dim=int(rng.integers(1, 3)))
            cfg = make_operator_config(net, f, alpha, op)
        ok, lhs, rhs = _sup_gap_holds(cfg, check_resolution(cfg.net.dim),
                                      eval_tol=1e-8)
        if not ok:
            failures.append((i, lhs, rhs))
    for scale in (0.2, 0.6):
        ok, lhs, rhs = _sup_gap_holds(_gaussian_demo(scale), 65, eval_tol=1e-8)
        if not ok:
            failures.append((f"demo{scale}", lhs, rhs))
    _line(3, "perturbation_sup_bound", not failures,
          f"configs=52 failures={len(failures)} {failures[:3]}")


def test_accept_04_linearity():
    rng = np.random.default_rng(102)
    worst = 0.0
    failures = 0
    for _ in range(20):
        net, _, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        f1 = random_poly(rng, net.dim)
        f2 = random_poly(rng, net.dim)
        c1 = float(rng.uniform(-2, 2))
        c2 = float(rng.uniform(-2, 2))
        rep = linearity_check(fractal_operator(net, alpha, op), f1, f2, c1, c2,
                              n_points=200, seed=7, tol=1e-8)
        worst = max(worst, rep.lhs)
        failures += 0 if rep.passed else 1
    _line(4, "operator_linearity", failures == 0,
          f"combos=20 points=200 worst={worst:.3e} failures={failures}")


def test_accept_05_neumann_inversion():
    rng = np.random.default_rng(103)
    failures = []
    rates = []
    for i in range(10):
        net, f, alpha, op = random_operator_setup(rng, dim=1, max_rate=0.8)
        inv = neumann_inverse(fractal_operator(net, alpha, op), f, resolution=257, tol=1e-6)
        ok = (inv.precondition_ok
              and inv.residuals[-1] <= 1e-5
              and inv.norm_bound_ok
              and (not np.isfinite(inv.measured_rate)
                   or inv.measured_rate <= 1.1 * inv.rate_bound))
        if np.isfinite(inv.measured_rate):
            rates.append(inv.measured_rate / inv.rate_bound)
        if not ok:
            failures.append(i)
    _line(5, "neumann_inversion", not failures,
          f"cases=10 failures={len(failures)} "
          f"max_rate_ratio={max(rates) if rates else float('nan'):.3f}")


def test_accept_06_lp_inequality():
    rng = np.random.default_rng(104)
    failures = 0
    for _ in range(10):
        net, f, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        field = fractal_operator(net, alpha, op)(f)
        rule = quadrature_rule(net.box, {1: 513, 2: 65}.get(net.dim, 17))
        for p in (1, 2, 3):
            rep = lp_perturbation_gap(field, rule, p)
            failures += 0 if rep.passed else 1
    rule = quadrature_rule([(0.0, 1.0)], 1025)
    ref = lp_norm(parse_field("x1 - x1^2", 1), rule, 1)
    quad_ok = abs(ref - 1.0 / 6.0) <= 1e-6
    _line(6, "lp_perturbation_bound", failures == 0 and quad_ok,
          f"instances=30 failures={failures} l1_ref_dev={abs(ref - 1 / 6):.2e}")


def test_accept_07_complexification():
    rng = np.random.default_rng(105)
    gap_failures = 0
    identity_worst = 0.0
    for _ in range(10):
        net, f, alpha, op = random_operator_setup(rng, dim=int(rng.integers(1, 3)))
        res = {1: 513, 2: 65}.get(net.dim, 17)
        pair = ComplexFieldPair(real=f, imag=random_poly(rng, net.dim))
        F = fractal_operator(net, alpha, op)
        for p in (1, 2):
            rep = complex_perturbation_gap(F, pair, p, resolution=res)
            gap_failures += 0 if rep.passed else 1
        ident = complex_l2_identity_check(F, pair,
                                          resolution=res if res % 2 else res + 1)
        identity_worst = max(identity_worst, ident.lhs)
    ok = gap_failures == 0 and identity_worst <= 1e-6
    _line(7, "complexification", ok,
          f"pairs=20 gap_failures={gap_failures} "
          f"identity_worst={identity_worst:.2e}")


def test_accept_08_jacobian_invariant():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        net = random_net(rng)
        worst = max(worst, abs(jacobian_sum(net) - 1.0))
    _line(8, "jacobian_partition_of_unity", worst <= 1e-12,
          f"nets=100 worst_deviation={worst:.2e}")


def test_accept_09_target_accuracy_approximation():
    net = build_net([(-1.0, 1.0), (-1.0, 1.0)],
                    [[-1.0, -0.5, 0.0, 0.5, 1.0]] * 2)
    f = parse_field("exp(-x1^2 - x2^2)", 2)
    op = blend_operator(1.0)
    results = []
    ok = True
    for eps in (0.2, 0.1):
        r = epsilon_approximate(net, f, op, eps, resolution=65)
        fit = r.components["fit_error"]
        pert = r.components["perturbation_error"]
        ok &= r.passed and r.error < eps and fit < eps / 2 and pert < eps / 2
        results.append(f"eps={eps}: total={r.error:.3f} fit={fit:.3f} "
                       f"pert={pert:.4f}")
    _line(9, "target_accuracy_approximation", ok, "; ".join(results))


def test_accept_10_scale_sequence_convergence():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    rep = alpha_sequence_convergence(net, parse_field("x1", 1),
                                     parse_field("x1^2", 1),
                                     [0.5 / n for n in range(1, 7)])
    ok = rep.passed and rep.lhs < 0.025
    _line(10, "scale_sequence_convergence", ok,
          f"final_error={rep.lhs:.4f} final_bound={rep.rhs:.4f}")


def test_accept_11_hat_basis_transport():
    net = build_net([(0.0, 1.0)], [[0.0, 0.5, 1.0]])
    F = fractal_operator(net, 0.3, blend_operator(1.0))
    # target is itself a perturbed square, so the exact preimage is smooth
    g = F(parse_field("x1^2", 1), tol=1e-10)
    result = fractal_basis_reconstruct(F, g, n_terms=33)
    errors = dict(result.partial_errors)
    marks = [1, 2, 3, 5, 9, 17, 33]
    vals = [errors[m] for m in marks]
    strictly_down = all(b < a for a, b in zip(vals, vals[1:]))
    ok = strictly_down and vals[-1] <= 0.02
    _line(11, "hat_basis_transport", ok,
          f"block_errors={['%.2e' % v for v in vals]} "
          f"inverse_residual={result.inverse_residual:.1e}")
