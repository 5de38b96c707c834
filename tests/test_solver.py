"""State solve, costate solve, and the outer control iteration."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gausscolloc.solver as solver_module
from gausscolloc import (BUILTIN_NAMES, ControlProblem, ControlSet, RunningCost,
                         SolverConfig, Trajectory, augment_bolza,
                         build_operators, builtin, eval_residual, full_grid,
                         gauss_rule, hager_optimal_cost, map_domain, omega_norm,
                         solve, solve_costate, solve_state)
from gausscolloc.errors import DimensionMismatch, NewtonDivergence
from gausscolloc.solver import newton_factors


def _frozen_problem():
    return ControlProblem(
        name="frozen", n=2, m=1,
        dynamics=lambda X, U: np.zeros((len(X), 2)),
        dynamics_x=lambda X, U: np.zeros((len(X), 2, 2)),
        dynamics_u=lambda X, U: np.zeros((len(X), 2, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.array([1.0, 0.0]),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([0.4, -1.1]),
        control_set=ControlSet.unconstrained())


def _integrator_problem():
    """Scalar xdot = u with trivial cost, for exact small cases."""
    return ControlProblem(
        name="integrator", n=1, m=1,
        dynamics=lambda X, U: U.copy(),
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.ones(1),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([0.7]),
        control_set=ControlSet.unconstrained())


def _blowup_problem():
    """xdot = x^2 from x(−1) = 10 escapes to infinity inside the interval."""
    return ControlProblem(
        name="blowup", n=1, m=1,
        dynamics=lambda X, U: X * X,
        dynamics_x=lambda X, U: 2 * X[:, :, None],
        dynamics_u=lambda X, U: np.zeros((len(X), 1, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.ones(1),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([10.0]),
        control_set=ControlSet.unconstrained())


def _cubic_problem():
    """Two states with cubic decay and a sin(3 x1) gain: f_x varies strongly."""
    def dynamics(X, U):
        return np.stack([-X[:, 0] ** 3 + U[:, 0],
                         np.sin(3 * X[:, 0]) * X[:, 1]], axis=1)

    def dynamics_x(X, U):
        A = np.zeros((len(X), 2, 2))
        A[:, 0, 0] = -3 * X[:, 0] ** 2
        A[:, 1, 0] = 3 * np.cos(3 * X[:, 0]) * X[:, 1]
        A[:, 1, 1] = np.sin(3 * X[:, 0])
        return A

    return ControlProblem(
        name="cubic", n=2, m=1,
        dynamics=dynamics,
        dynamics_x=dynamics_x,
        dynamics_u=lambda X, U: np.tile([[[1.0], [0.0]]], (len(X), 1, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.array([1.0, 0.0]),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([2.0, 1.0]),
        control_set=ControlSet.unconstrained())


def _two_control_problem():
    """xdot = u1 + u2 / 2 on [0, 1] with running cost (x^2 + |u|^2) / 2."""
    base = ControlProblem(
        name="", n=1, m=2,
        dynamics=lambda X, U: U @ np.array([[1.0], [0.5]]),
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.tile([[[1.0, 0.5]]], (len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(1),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 2, 2)),
        x0=np.array([1.0]),
        control_set=ControlSet.unconstrained())
    running = RunningCost(
        value=lambda X, U: 0.5 * (X[:, 0] ** 2 + np.sum(U * U, axis=1)),
        grad_x=lambda X, U: X.copy(),
        grad_u=lambda X, U: U.copy(),
        hess_uu=lambda X, U: np.tile(np.eye(2), (len(X), 1, 1)))
    return map_domain(augment_bolza(base, running, name="two-control"), 0.0, 1.0)


class TestSolveState:
    def test_zero_dynamics_keeps_initial_state(self):
        problem = _frozen_problem()
        ops = build_operators(gauss_rule(6))
        X = solve_state(problem, ops, np.zeros((6, 1)))
        np.testing.assert_array_equal(X, np.tile(problem.x0, (8, 1)))

    def test_unit_control_integrates_linearly(self):
        problem = _integrator_problem()
        rule = gauss_rule(9)
        ops = build_operators(rule)
        X = solve_state(problem, ops, np.ones((9, 1)))
        expected = problem.x0[0] + full_grid(rule) + 1.0
        assert np.max(np.abs(X[:, 0] - expected)) <= 1e-11

    def test_initial_state_override(self):
        problem = replace(_integrator_problem(), x0=np.array([-2.0]))
        ops = build_operators(gauss_rule(4))
        X = solve_state(problem, ops, np.ones((4, 1)))
        assert X[0, 0] == -2.0
        np.testing.assert_allclose(X[-1, 0], 0.0, atol=1e-12)

    def test_benchmark_accuracy_improves_with_order(self):
        problem = builtin("hager84-constrained")
        errs = {}
        for N in (4, 16):
            rule = gauss_rule(N)
            ops = build_operators(rule)
            U = problem.analytic.control(rule.nodes)
            X = solve_state(problem, ops, U)
            X_star = problem.analytic.state(full_grid(rule))
            errs[N] = np.max(np.abs(X - X_star))
        assert errs[16] < errs[4] / 8.0

    def test_divergence_is_reported(self):
        problem = _blowup_problem()
        ops = build_operators(gauss_rule(12))
        with pytest.raises(NewtonDivergence):
            solve_state(problem, ops, np.zeros((12, 1)))

    def test_chord_refactors_away_from_distant_factors(self):
        # chord steps on factors taken at x = 6 stall; the iteration must
        # refactor and land on the state a fresh factorization gives
        problem = _cubic_problem()
        N = 24
        ops = build_operators(gauss_rule(N))
        U = np.linspace(-1.0, 1.0, N)[:, None]
        config = SolverConfig(tol_y=1e-12)
        distant = newton_factors(problem, ops, np.full((N, 2), 6.0), U)
        fresh = solve_state(problem, ops, U, config=config)
        X = solve_state(problem, ops, U, config=config, factors=distant)
        assert np.max(np.abs(X - fresh)) <= 1e-12

        blowup = _blowup_problem()
        factors = newton_factors(blowup, ops, np.full((N, 1), 10.0), np.zeros((N, 1)))
        with pytest.raises(NewtonDivergence):
            solve_state(blowup, ops, np.zeros((N, 1)), factors=factors)

    def test_jacobian_of_wrong_shape_is_rejected(self):
        problem = _integrator_problem()
        ops = build_operators(gauss_rule(5))
        flat = replace(problem, dynamics_x=lambda X, U: np.zeros((len(X), 1)))
        with pytest.raises(DimensionMismatch):
            solve_state(flat, ops, np.ones((5, 1)))
        # a non-finite defect is reported first, whatever the shapes
        nan = replace(flat, dynamics=lambda X, U: np.full(1, np.nan))
        with pytest.raises(NewtonDivergence):
            solve_state(nan, ops, np.ones((5, 1)))


class TestSolveCostate:
    def test_state_independent_hamiltonian(self):
        problem = _frozen_problem()
        ops = build_operators(gauss_rule(7))
        X = np.tile(problem.x0, (9, 1))
        terminal = np.array([1.0, 0.0])
        Lam = solve_costate(problem, ops, X, np.zeros((7, 1)), terminal)
        np.testing.assert_allclose(Lam, np.tile(terminal, (9, 1)), atol=1e-12)

    def test_terminal_row_is_exact(self):
        problem = builtin("hager84-constrained")
        rule = gauss_rule(6)
        ops = build_operators(rule)
        U = problem.analytic.control(rule.nodes)
        X = solve_state(problem, ops, U)
        terminal = problem.cost_grad(X[-1])
        Lam = solve_costate(problem, ops, X, U, terminal)
        np.testing.assert_array_equal(Lam[-1], terminal)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), N=st.integers(2, 40))
    def test_costate_blocks_of_residual_vanish(self, data, N):
        problem = builtin("hager84-constrained")
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = data.draw(arrays(float, (N, 1), elements=st.floats(-2.0, 2.0)))
        X = solve_state(problem, ops, U)
        Lam = solve_costate(problem, ops, X, U, problem.cost_grad(X[-1]))
        traj = Trajectory(nodes=full_grid(rule), X=X, U=U, Lambda=Lam)
        res = eval_residual(problem, ops, traj)
        for block in (res.costate_defect, res.costate_endpoint, res.transversality):
            assert np.max(np.abs(block)) <= 1e-10

    def test_approximates_analytic_costate(self):
        problem = builtin("hager84-constrained")
        errs = {}
        for N in (4, 8, 16):
            rule = gauss_rule(N)
            ops = build_operators(rule)
            grid = full_grid(rule)
            U = problem.analytic.control(rule.nodes)
            X = solve_state(problem, ops, U)
            Lam = solve_costate(problem, ops, X, U, problem.cost_grad(X[-1]))
            errs[N] = np.max(np.abs(Lam - problem.analytic.costate(grid)))
        assert errs[16] < errs[8] < errs[4]


def _dense_newton_matrix(ops, A):
    """M[(i,k), (j,l)] = delta - Dinv[i, j] A[j, k, l], built densely."""
    N, n = A.shape[:2]
    return np.eye(N * n) - np.einsum("ij,jkl->ikjl", ops.D1N_inv, A).reshape(N * n, N * n)


class TestNewtonFactors:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), N=st.integers(1, 12), n=st.integers(1, 4))
    def test_block_solve_matches_dense_solve(self, data, N, n):
        ops = build_operators(gauss_rule(N))
        # entries within 0.1 / n keep |(Dinv x I) blockdiag(A)| below 0.2 (P1
        # bounds Dinv by 2), so M is well conditioned for any right-hand side
        A = data.draw(arrays(float, (N, n, n), elements=st.floats(-1.0, 1.0))) * (0.1 / n)
        zeroed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        A[:, :, zeroed] = 0.0
        R = data.draw(arrays(float, (N, n), elements=st.floats(-1.0, 1.0)))
        problem = replace(_frozen_problem(), n=n, dynamics_x=lambda X, U: A)
        factors = newton_factors(problem, ops, np.zeros((N, n)), np.zeros((N, 1)))

        live = np.any(A != 0.0, axis=(0, 1))
        assert set(factors.dead) == set(np.flatnonzero(~live)) >= set(np.flatnonzero(zeroed))
        if live.any():
            assert factors.lu[0].shape == (N * live.sum(),) * 2
        else:
            assert factors.lu is None
        M = _dense_newton_matrix(ops, A)
        for transposed, dense in ((False, M), (True, M.T)):
            Z = solver_module._newton_solve(ops, factors, R, transposed=transposed)
            ref = np.linalg.solve(dense, R.ravel()).reshape(N, n)
            assert np.max(np.abs(Z - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_factors_only_the_state_block(self, name):
        # no dynamics read the running-cost integrator, so it enters no LU
        problem = builtin(name)
        N = 16
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = problem.analytic.control(rule.nodes)
        X = solve_state(problem, ops, U)
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        assert factors.lu[0].shape == (N, N)
        np.testing.assert_array_equal(factors.dead, [problem.n - 1])

    def test_integrator_needs_no_factorization(self):
        problem = _integrator_problem()
        ops = build_operators(gauss_rule(5))
        factors = newton_factors(problem, ops, np.zeros((5, 1)), np.ones((5, 1)))
        assert factors.lu is None
        Lam = solve_costate(problem, ops, np.zeros((7, 1)), np.ones((5, 1)), np.ones(1))
        np.testing.assert_allclose(Lam, np.ones((7, 1)), atol=1e-12)

    def test_fully_coupled_problem_factors_all_of_M(self):
        # every column of the cubic problem's f_x is read: the whole M is
        # factored, and the state matches plain dense Newton
        problem = _cubic_problem()
        N, n = 24, 2
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = np.linspace(-1.0, 1.0, N)[:, None]
        X = solve_state(problem, ops, U, config=SolverConfig(tol_y=1e-12))
        assert newton_factors(problem, ops, X[1:N + 1], U).lu[0].shape == (N * n, N * n)

        Xc = np.tile(problem.x0, (N, 1))
        for _ in range(12):  # steps reach rounding level by the eighth
            G = ops.D @ np.vstack([problem.x0, Xc]) - problem.dynamics(Xc, U)
            blocks = np.einsum("ij,ikl->ikjl", np.eye(N), problem.dynamics_x(Xc, U))
            J = np.kron(ops.D[:, 1:], np.eye(n)) - blocks.reshape(N * n, N * n)
            Xc = Xc + np.linalg.solve(J, -G.ravel()).reshape(N, n)
        assert np.max(np.abs(X[1:N + 1] - Xc)) <= 1e-12


@pytest.fixture(scope="module")
def benchmark_n20():
    return solve(builtin("hager84-constrained"), 20)


class TestSolve:
    def test_converges(self, benchmark_n20):
        report = benchmark_n20
        assert report.converged
        assert report.y_norm <= 1e-10
        assert report.order == 20

    def test_node_errors_at_desk_scale(self, benchmark_n20):
        problem = builtin("hager84-constrained")
        report = benchmark_n20
        grid = report.traj.nodes
        err_x = np.max(np.abs(report.traj.X - problem.analytic.state(grid)))
        err_u = np.max(np.abs(report.traj.U
                              - problem.analytic.control(grid[1:21])))
        err_l = np.max(np.abs(report.traj.Lambda
                              - problem.analytic.costate(grid)))
        assert max(err_x, err_u, err_l) <= 5e-3

    def test_objective_near_analytic_cost(self, benchmark_n20):
        gap = abs(benchmark_n20.objective - hager_optimal_cost(True))
        assert gap <= 1e-4

    def test_minimum_principle_at_solution(self, benchmark_n20):
        problem = builtin("hager84-constrained")
        report = benchmark_n20
        X, U, Lam = report.traj.X, report.traj.U, report.traj.Lambda
        g = problem.ham_u(X[1:21], U, Lam[1:21])
        residual = U - problem.control_set.project(U - g)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_active_set_covers_the_ceiling_arc(self, benchmark_n20):
        # u* rides the bound on the left half: 10 of 20 nodes
        active_nodes = benchmark_n20.active_set.any(axis=1)
        assert int(np.count_nonzero(active_nodes)) == 10

    def test_objective_history_monotone(self, benchmark_n20):
        hist = np.asarray(benchmark_n20.objective_history)
        slack = 8 * np.finfo(float).eps * (1.0 + np.abs(hist[:-1]))
        assert np.all(np.diff(hist) <= slack)

    def test_error_shrinks_with_order(self):
        problem = builtin("hager84-constrained")
        errs = {}
        for N in (4, 40):
            report = solve(problem, N)
            assert report.converged
            grid = report.traj.nodes
            errs[N] = np.max(np.abs(report.traj.X
                                    - problem.analytic.state(grid)))
        assert errs[40] < errs[4]

    def test_unconstrained_variant_interior(self):
        report = solve(builtin("hager84-unconstrained"), 16)
        assert report.converged
        assert not report.active_set.any()
        assert report.residual.norms["control_residual"] <= 1e-10

    def test_warm_start_restarts_in_one_step(self):
        problem = builtin("hager84-constrained")
        cold = solve(problem, 12)
        warm = solve(problem, 12, warm_start=cold.traj)
        assert warm.converged
        assert warm.outer_iters < cold.outer_iters
        assert warm.outer_iters <= 2

    @pytest.mark.parametrize("N,field,cut,shapes", [
        (12, "U", lambda A: A, "U (8, 1) and X (10, 2), expected U (12, 1) and X (14, 2)"),
        (8, "U", lambda A: A[:, 0], "U (8,) and X (10, 2), expected U (8, 1) and X (10, 2)"),
        (8, "X", lambda A: A[:-1], "U (8, 1) and X (9, 2), expected U (8, 1) and X (10, 2)"),
    ], ids=["other-order", "flat-U", "short-X"])
    def test_warm_start_of_wrong_shape_is_rejected(self, N, field, cut, shapes):
        # the first case seeds order 12 with an untouched order-8 trajectory
        problem = builtin("hager84-constrained")
        traj = solve(problem, 8).traj
        warm = replace(traj, **{field: cut(getattr(traj, field))})
        with pytest.raises(DimensionMismatch, match=re.escape(f"warm start has {shapes}")):
            solve(problem, N, warm_start=warm)

    @pytest.mark.parametrize("N", [160, 240, 320])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_converges_at_high_order(self, name, N):
        # the state Newton target is tied to tol_y in the residual's own
        # norm, so an accepted state never holds the outer test back
        config = SolverConfig(max_outer=60)
        report = solve(builtin(name), N, config=config)
        assert report.converged
        defect = omega_norm(gauss_rule(N), report.residual.state_defect)
        assert defect <= max(solver_module.NEWTON_TOL, 0.1 * config.tol_y)

    @pytest.mark.parametrize("N", [10, 80, 320])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_one_factorization_per_accepted_iterate(self, name, N, monkeypatch):
        # one inside the first state solve, then one per accepted iterate:
        # line-search trials reuse the factors of the iterate they start from
        calls = []

        def counted(*args):
            calls.append(None)
            return newton_factors(*args)

        monkeypatch.setattr(solver_module, "newton_factors", counted)
        report = solve(builtin(name), N)
        assert report.converged
        assert len(calls) == report.outer_iters + 1

    def test_exhausted_budget_reported_not_raised(self):
        config = SolverConfig(tol_y=1e-30, max_outer=3)
        report = solve(builtin("hager84-constrained"), 8, config=config)
        assert not report.converged
        assert report.outer_iters == 3
        assert np.isfinite(report.y_norm)

    def test_two_control_problem_converges(self):
        assert solve(_two_control_problem(), 6).converged

    @pytest.mark.parametrize("callback,cut,shapes", [
        ("dynamics", lambda F: F[:, :1], "(6, 1), expected (6, 2)"),
        ("dynamics_u", lambda B: B[:, :, :1], "(6, 2, 1), expected (6, 2, 2)"),
        ("ham_hess_uu", lambda R: R[:, :1, :1], "(6, 1, 1), expected (6, 2, 2)"),
        ("cost_grad", lambda g: g[:1], "(1,), expected (2,)"),
    ])
    def test_callback_of_wrong_shape_is_rejected(self, callback, cut, shapes):
        good = _two_control_problem()
        fn = getattr(good, callback)
        bad = replace(good, **{callback: lambda *args: cut(fn(*args))})
        with pytest.raises(DimensionMismatch, match=re.escape(f"{callback} gave {shapes}")):
            solve(bad, 6)

    @pytest.mark.parametrize("settings", [
        {"tol_y": float("nan")}, {"tol_y": float("inf")}, {"tol_y": -1.0},
        {"tol_y": 0.0}, {"max_outer": 0}, {"max_outer": -3},
    ])
    def test_invalid_config_is_rejected(self, settings):
        with pytest.raises(ValueError, match=next(iter(settings))):
            SolverConfig(**settings)

    def test_config_defaults(self):
        config = SolverConfig()
        assert config.tol_y == 1e-10
        assert config.max_outer == 200
        assert solver_module.ARMIJO_C == 1e-4
        assert solver_module.BACKTRACK == 0.5
        assert solver_module.NEWTON_TOL == 1e-12
        assert solver_module.NEWTON_MAX == 50
