"""Acceptance gate: one test per numbered criterion.

Each test records a PASS/FAIL line through the acceptance_log fixture
before asserting, so the per-criterion verdicts appear in the terminal
summary even when a criterion fails.  Expensive sweeps (operator norms up
to order 300, the benchmark solve ladder) are shared through module-scoped
fixtures and carry their own wall-clock budgets.
"""

import time

import numpy as np
import pytest

from gausscolloc import (build_operators, builtin, check_P1, check_P2,
                         costate_to_multipliers, eval_residual, fit_rate,
                         full_grid, gauss_rule, integrate, kkt_residuals,
                         multipliers_to_costate, psi_norm_table, solve,
                         solve_costate, solve_state, verify_appendix1,
                         verify_appendix2)
from gausscolloc.analysis import APPENDIX2_FUNCTIONS
from gausscolloc.transcription import Trajectory

N_SWEEP_MAX = 300
BENCH_ORDERS = tuple(range(4, 44, 4))


@pytest.fixture(scope="module")
def operator_sweep():
    """(P1, P2) check pairs for every order up to N_SWEEP_MAX, timed."""
    t0 = time.perf_counter()
    checks = {}
    for N in range(1, N_SWEEP_MAX + 1):
        ops = build_operators(gauss_rule(N))
        checks[N] = (check_P1(ops), check_P2(ops))
    return checks, time.perf_counter() - t0


@pytest.fixture(scope="module")
def benchmark_sweep():
    """Converged benchmark solves across the order ladder, timed."""
    problem = builtin("hager84-constrained")
    t0 = time.perf_counter()
    reports = {N: solve(problem, N) for N in BENCH_ORDERS}
    return problem, reports, time.perf_counter() - t0


def test_criterion_1_quadrature(acceptance_log):
    t0 = time.perf_counter()
    worst_sum = 0.0
    for N in range(1, N_SWEEP_MAX + 1):
        rule = gauss_rule(N)
        worst_sum = max(worst_sum, abs(float(np.sum(rule.weights)) - 2.0))

    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for N in range(1, 51):
        rule = gauss_rule(N)
        coeffs = rng.uniform(-1.0, 1.0, size=(50, 2 * N))
        powers = np.arange(2 * N)
        exact = coeffs @ np.where(powers % 2 == 0, 2.0 / (powers + 1), 0.0)
        vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs.T)
        for got, want in zip(vals @ rule.weights, exact):
            rel = abs(got - want) / max(1.0, abs(want))
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0

    passed = worst_sum <= 1e-13 and worst_rel <= 1e-12 and elapsed < 10.0
    acceptance_log(1, passed,
                   f"weight-sum gap {worst_sum:.2e} (tol 1e-13), exactness "
                   f"{worst_rel:.2e} (tol 1e-12), {elapsed:.1f}s (< 10s)")
    assert worst_sum <= 1e-13
    assert worst_rel <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_inverse_bound(acceptance_log, operator_sweep):
    checks, elapsed = operator_sweep
    worst = max(p1.norm_inf for p1, _ in checks.values())
    passed = worst <= 2.0 + 1e-10 and elapsed < 60.0
    acceptance_log(2, passed,
                   f"max inf-norm {worst:.12f} (bound 2 + 1e-10) over "
                   f"N<={N_SWEEP_MAX}, sweep {elapsed:.1f}s (< 60s)")
    assert worst <= 2.0 + 1e-10
    assert elapsed < 60.0


def test_criterion_3_weighted_row_bound(acceptance_log, operator_sweep):
    checks, _ = operator_sweep
    worst = max(p2.max_row_norm for _, p2 in checks.values())
    gap_300 = checks[300][1].last_row_gap
    gap_30 = checks[30][1].last_row_gap
    passed = worst <= np.sqrt(2.0) + 1e-10 and gap_300 < gap_30
    acceptance_log(3, passed,
                   f"max row norm {worst:.12f} (bound sqrt2 + 1e-10), "
                   f"last-row gap {gap_300:.2e} at N=300 < {gap_30:.2e} at N=30")
    assert worst <= np.sqrt(2.0) + 1e-10
    assert gap_300 < gap_30


def test_criterion_4_uniform_bound(acceptance_log):
    reports = {kind: verify_appendix1(samples=1000, kind=kind)
               for kind in ("gauss", "radau")}
    worst = max(r.max_abs for rep in reports.values() for r in rep.rows)
    extremal_gap = max(abs(r.extremal_max - 2.0)
                       for rep in reports.values() for r in rep.rows)
    passed = all(rep.passed for rep in reports.values())
    acceptance_log(4, passed,
                   f"sup|p| max {worst:.9f} (bound 2 + 1e-9) over 1000 samples "
                   f"x 6 orders x 2 node families, extremal gap "
                   f"{extremal_gap:.2e} (tol 1e-12)")
    for kind, rep in reports.items():
        assert rep.passed, f"{kind}: {rep.rows}"


def test_criterion_5_projection_inequality(acceptance_log):
    reports = {name: verify_appendix2(u, du)
               for name, (u, du) in APPENDIX2_FUNCTIONS.items()}
    norm_rows, _ = psi_norm_table(kmax=12)
    norm_gap = max(max(abs(r.h1_num - r.h1_exact) / r.h1_exact,
                       abs(r.l0_num - r.l0_exact) / r.l0_exact)
                   for r in norm_rows)
    passed = all(rep.passed for rep in reports.values()) and norm_gap <= 1e-12
    acceptance_log(5, passed,
                   f"projection inequality holds for {len(reports)} functions "
                   f"at N in (4..64); basis norm formulas match to "
                   f"{norm_gap:.2e} (tol 1e-12) for k <= 12")
    assert norm_gap <= 1e-12
    for name, rep in reports.items():
        assert rep.passed, f"{name}: {rep.rows}"


def test_criterion_6_benchmark_convergence(acceptance_log, benchmark_sweep):
    problem, reports, elapsed = benchmark_sweep
    worst_y = max(rep.y_norm for rep in reports.values())
    errs = {"state": [], "control": [], "costate": []}
    for N in BENCH_ORDERS:
        traj = reports[N].traj
        grid = traj.nodes
        errs["state"].append(
            np.max(np.abs(traj.X - problem.analytic.state(grid))))
        errs["control"].append(
            np.max(np.abs(traj.U - problem.analytic.control(grid[1:N + 1]))))
        errs["costate"].append(
            np.max(np.abs(traj.Lambda - problem.analytic.costate(grid))))
    slopes = {name: fit_rate(BENCH_ORDERS, series).slope
              for name, series in errs.items()}

    converged = all(rep.converged for rep in reports.values())
    in_window = all(-2.6 <= s <= -1.8 for s in slopes.values())
    above_floor = all(s <= -0.5 for s in slopes.values())
    passed = (converged and worst_y <= 1e-9 and in_window and above_floor
              and elapsed < 120.0)
    detail = ", ".join(f"{k} slope {v:.3f}" for k, v in slopes.items())
    acceptance_log(6, passed,
                   f"orders 4..40 all converged (max y {worst_y:.2e}, tol "
                   f"1e-9); {detail} (window [-2.6, -1.8], floor -0.5); "
                   f"{elapsed:.1f}s (< 120s)")
    assert converged
    assert worst_y <= 1e-9
    for name, s in slopes.items():
        assert -2.6 <= s <= -1.8, f"{name} slope {s}"
        assert s <= -0.5, f"{name} slope {s}"
    assert elapsed < 120.0


def test_criterion_7_multiplier_equivalence(acceptance_log, benchmark_sweep):
    problem, reports, _ = benchmark_sweep
    worst_trip = 0.0
    worst_kkt = 0.0
    for N, rep in reports.items():
        rule = gauss_rule(N)
        ops = build_operators(rule)
        mu = costate_to_multipliers(rep.traj.Lambda, rule)
        back = multipliers_to_costate(mu, rule)
        worst_trip = max(worst_trip,
                         float(np.max(np.abs(back - rep.traj.Lambda))))
        kkt = kkt_residuals(problem, ops, rep.traj, mu)
        worst_kkt = max(worst_kkt, max(kkt.values()))
    passed = worst_trip <= 1e-13 and worst_kkt <= 1e-8
    acceptance_log(7, passed,
                   f"multiplier round-trip {worst_trip:.2e} (tol 1e-13), "
                   f"stationarity residuals {worst_kkt:.2e} (tol 1e-8) "
                   f"across converged solves")
    assert worst_trip <= 1e-13
    assert worst_kkt <= 1e-8


def test_criterion_8_residual_decay(acceptance_log):
    problem = builtin("hager84-constrained")
    orders = (5, 10, 20, 40)
    y_norms = []
    worst_flat = 0.0
    for N in orders:
        rule = gauss_rule(N)
        ops = build_operators(rule)
        grid = full_grid(rule)
        traj = Trajectory(nodes=grid,
                          X=problem.analytic.state(grid),
                          U=problem.analytic.control(rule.nodes),
                          Lambda=problem.analytic.costate(grid))
        res = eval_residual(problem, ops, traj)
        y_norms.append(res.y_norm)
        worst_flat = max(worst_flat,
                         float(np.max(np.abs(res.initial))),
                         float(np.max(np.abs(res.transversality))),
                         float(np.max(np.abs(res.control_residual))))
    slope = fit_rate(orders, y_norms, discard=0).slope
    passed = slope <= -0.8 and worst_flat <= 1e-12
    acceptance_log(8, passed,
                   f"sampled-solution y_norm slope {slope:.3f} (<= -0.8) over "
                   f"N in {orders}, flat components {worst_flat:.2e} "
                   f"(tol 1e-12)")
    assert slope <= -0.8
    assert worst_flat <= 1e-12


def test_criterion_9_gradient_audit(acceptance_log):
    problem = builtin("hager84-constrained")
    rng = np.random.default_rng(99)
    h = 1e-5
    worst = 0.0
    for N in (4, 6):
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = rng.uniform(-0.5, 1.0, size=(N, 1))
        X = solve_state(problem, ops, U)
        Lam = solve_costate(problem, ops, X, U, problem.cost_grad(X[-1]))
        grad = rule.weights[:, None] * problem.ham_u(X[1:N + 1], U, Lam[1:N + 1])
        for i in rng.integers(0, N, size=5):
            shifted = []
            for sign in (+1.0, -1.0):
                Uh = U.copy()
                Uh[i, 0] += sign * h
                Xh = solve_state(problem, ops, Uh)
                shifted.append(problem.cost(Xh[-1]))
            fd = (shifted[0] - shifted[1]) / (2.0 * h)
            rel = abs(grad[i, 0] - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
    passed = worst <= 1e-5
    acceptance_log(9, passed,
                   f"reduced gradient vs central differences, worst relative "
                   f"error {worst:.2e} (tol 1e-5) over 10 random control "
                   f"coordinates at N in (4, 6)")
    assert worst <= 1e-5
