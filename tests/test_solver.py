"""State solve, costate solve, and the outer control iteration."""

import functools
import inspect
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gausscolloc.solver as solver_module
from gausscolloc import (BUILTIN_NAMES, CollocationOperators, ControlProblem, ControlSet,
                         SolverConfig, Trajectory, augment_bolza,
                         build_operators, builtin, eval_residual, full_grid,
                         gauss_rule, hager_optimal_cost, map_domain, solve)
from gausscolloc.errors import DimensionMismatch, EvaluationFailure, NewtonDivergence
from gausscolloc.solver import newton_factors, solve_costate, solve_state
from gausscolloc.transcription import _omega_norm, _state_defect
from test_manufactured import _manufactured
from test_oracle import LQ_CASES, _cubic_problem, _data, _lq_problem


def _frozen_problem():
    return ControlProblem(
        name="frozen", n=2, m=1,
        dynamics=lambda X, U: np.zeros((len(X), 2)),
        dynamics_x=lambda X, U: np.zeros((len(X), 2, 2)),
        dynamics_u=lambda X, U: np.zeros((len(X), 2, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.array([1.0, 0.0]),
        x0=np.array([0.4, -1.1]),
        control_set=ControlSet())


def _integrator_problem():
    """Scalar xdot = u with trivial cost, for exact small cases."""
    return ControlProblem(
        name="integrator", n=1, m=1,
        dynamics=lambda X, U: U.copy(),
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.ones(1),
        x0=np.array([0.7]),
        control_set=ControlSet())


def _blowup_problem():
    """xdot = x^2 from x(−1) = 10 escapes to infinity inside the interval."""
    return ControlProblem(
        name="blowup", n=1, m=1,
        dynamics=lambda X, U: X * X,
        dynamics_x=lambda X, U: 2 * X[:, :, None],
        dynamics_u=lambda X, U: np.zeros((len(X), 1, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.ones(1),
        x0=np.array([10.0]),
        control_set=ControlSet())


def _two_control_bolza(gain, name):
    """xdot = u1 + gain u2 on [-1, 1] from x = 1, with running cost
    (x^2 + |u|^2) / 2 through augment_bolza."""
    base = ControlProblem(
        name="", n=1, m=2,
        dynamics=lambda X, U: U @ np.array([[1.0], [gain]]),
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.tile([[[1.0, gain]]], (len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(1),
        x0=np.array([1.0]),
        control_set=ControlSet())
    return augment_bolza(
        base, name=name,
        value=lambda X, U: 0.5 * (X[:, 0] ** 2 + np.sum(U * U, axis=1)),
        grad_x=lambda X, U: X.copy(),
        grad_u=lambda X, U: U.copy())


def _two_control_problem():
    """xdot = u1 + u2 / 2 on [0, 1] with running cost (x^2 + |u|^2) / 2."""
    return map_domain(_two_control_bolza(0.5, "two-control"), 0.0, 1.0)


def _oscillator_problem():
    """x1' = x2, x2' = -x1 + u on [0, 1] from x(0) = (1, 0), with running
    cost (x1^2 + u^2) / 2 through augment_bolza."""
    base = ControlProblem(
        name="", n=2, m=1,
        dynamics=lambda X, U: np.stack([X[:, 1], U[:, 0] - X[:, 0]], axis=1),
        dynamics_x=lambda X, U: np.tile([[0.0, 1.0], [-1.0, 0.0]], (len(X), 1, 1)),
        dynamics_u=lambda X, U: np.tile([[0.0], [1.0]], (len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(2),
        x0=np.array([1.0, 0.0]),
        control_set=ControlSet())
    bolza = augment_bolza(
        base, name="oscillator",
        value=lambda X, U: 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2),
        grad_x=lambda X, U: X * [1.0, 0.0],
        grad_u=lambda X, U: U.copy())
    return map_domain(bolza, 0.0, 1.0)


def _bilinear_problem():
    """x1' = u x2, x2' = u from x = (0, 0.5), with C = (x1 - 1)^2 / 2 + x2^2 / 10:
    at u = 0 no dynamics read either state, elsewhere x1 reads x2."""
    def dynamics_x(X, U):
        A = np.zeros((len(X), 2, 2))
        A[:, 0, 1] = U[:, 0]
        return A

    def dynamics_u(X, U):
        return np.stack([X[:, 1], np.ones(len(X))], axis=1)[:, :, None]

    return ControlProblem(
        name="bilinear", n=2, m=1,
        dynamics=lambda X, U: np.stack([U[:, 0] * X[:, 1], U[:, 0]], axis=1),
        dynamics_x=dynamics_x, dynamics_u=dynamics_u,
        cost=lambda x: float(0.5 * (x[0] - 1.0) ** 2 + 0.1 * x[1] ** 2),
        cost_grad=lambda x: np.array([x[0] - 1.0, 0.2 * x[1]]),
        x0=np.array([0.0, 0.5]),
        control_set=ControlSet())


def _square_read_problem():
    """x1' = x2^2, x2' = u from x = 0, with C = x1 + x2: at u = 0 x2 = 0, so no
    dynamics read either state, yet x1's second derivative in x2 is 2."""
    def dynamics_x(X, U):
        A = np.zeros((len(X), 2, 2))
        A[:, 0, 1] = 2.0 * X[:, 1]
        return A

    return ControlProblem(
        name="square-read", n=2, m=1,
        dynamics=lambda X, U: np.stack([X[:, 1] ** 2, U[:, 0]], axis=1),
        dynamics_x=dynamics_x,
        dynamics_u=lambda X, U: np.broadcast_to([[[0.0], [1.0]]], (len(X), 2, 1)),
        cost=lambda x: float(x[0] + x[1]),
        cost_grad=lambda x: np.array([1.0, 1.0]),
        x0=np.zeros(2),
        control_set=ControlSet())


def _copying(problem):
    """The problem with the output of every stacked callback copied."""
    def copied(fn):
        return lambda *args: np.array(fn(*args))
    return replace(problem, **{key: copied(getattr(problem, key)) for key in
                               ("dynamics", "dynamics_x", "dynamics_u")})


def _input_returning_problems():
    """Callbacks that hand back an input array or a view of one: f = X
    (xdot = x), f = U (xdot = u), and f_x = X[:, :, None] (xdot = x^2 / 2 + u)."""
    common = dict(cost=lambda x: 0.5 * float(x[0]) ** 2, cost_grad=lambda x: x.copy(), n=1, m=1)
    grow = ControlProblem(
        name="grow", dynamics=lambda X, U: X,
        dynamics_x=lambda X, U: np.ones((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.zeros((len(X), 1, 1)),
        x0=np.array([0.5]), control_set=ControlSet(), **common)
    steer = ControlProblem(
        name="steer", dynamics=lambda X, U: U,
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
        x0=np.array([0.3]), control_set=ControlSet(upper=[0.2]), **common)
    riccati = ControlProblem(
        name="riccati", dynamics=lambda X, U: 0.5 * X * X + U,
        dynamics_x=lambda X, U: X[:, :, None],
        dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
        x0=np.array([0.3]), control_set=ControlSet(lower=[-1.0], upper=[1.0]),
        **common)
    return grow, steer, riccati


class TestSolveState:
    @pytest.mark.parametrize("problem", _input_returning_problems(), ids=lambda p: p.name)
    def test_callbacks_returning_their_input_change_no_bit(self, problem):
        # the iterates are updated in place in one buffer per call, which an
        # f or f_x that aliases its input X must not see; solves seeded by a
        # distant state and whole solves give the bits of copying callbacks.
        # The seed's D X covers row 0, so that row holds x0
        N = 12
        ops = build_operators(gauss_rule(N))
        U = np.linspace(-0.5, 0.5, N)[:, None]
        distant = np.full((N + 2, 1), 2.0)
        distant[0] = problem.x0
        seed = _state_defect(ops, distant, problem.dynamics(distant[1:N + 1], U),
                             ops.D @ distant[:N + 1])
        for start in (None, seed):
            np.testing.assert_array_equal(
                solve_state(problem, ops, U, start).X,
                solve_state(_copying(problem), ops, U, start).X)
        config = SolverConfig(max_outer=20)
        alias, copy = solve(problem, N, config=config), solve(_copying(problem), N, config=config)
        for a, b in ((alias.traj.X, copy.traj.X), (alias.traj.U, copy.traj.U),
                     (alias.traj.Lambda, copy.traj.Lambda)):
            np.testing.assert_array_equal(a, b)
        assert (alias.y_norm, alias.objective_history) == (copy.y_norm, copy.objective_history)

    @pytest.mark.parametrize("x0,message", [
        ([0.4, -1.1, 2.0], "x0 has shape (3,), expected (2,)"),
        ([0.4], "x0 has shape (1,), expected (2,)"),
    ], ids=["long-x0", "short-x0"])
    def test_malformed_start_is_rejected(self, x0, message):
        # where the problem is built, so no state solve reads a malformed x0
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            replace(_frozen_problem(), x0=np.array(x0))

    def test_zero_dynamics_keeps_initial_state(self):
        problem = _frozen_problem()
        ops = build_operators(gauss_rule(6))
        X = solve_state(problem, ops, np.zeros((6, 1))).X
        np.testing.assert_array_equal(X, np.tile(problem.x0, (8, 1)))

    def test_unit_control_integrates_linearly(self):
        problem = _integrator_problem()
        rule = gauss_rule(9)
        ops = build_operators(rule)
        X = solve_state(problem, ops, np.ones((9, 1))).X
        expected = problem.x0[0] + full_grid(rule) + 1.0
        assert np.max(np.abs(X[:, 0] - expected)) <= 1e-11

    def test_initial_state_override(self):
        problem = replace(_integrator_problem(), x0=np.array([-2.0]))
        ops = build_operators(gauss_rule(4))
        X = solve_state(problem, ops, np.ones((4, 1))).X
        assert X[0, 0] == -2.0
        np.testing.assert_allclose(X[-1, 0], 0.0, atol=1e-12)

    def test_benchmark_accuracy_improves_with_order(self):
        problem = builtin("hager84-constrained")
        errs = {}
        for N in (4, 16):
            rule = gauss_rule(N)
            ops = build_operators(rule)
            U = problem.analytic.control(rule.nodes)
            X = solve_state(problem, ops, U).X
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
        fresh = solve_state(problem, ops, U, config=config).X
        X = solve_state(problem, ops, U, config=config, factors=distant).X
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

    @pytest.mark.parametrize("N", [5, 20])
    def test_trial_defect_is_honest_where_a_dead_state_is_read(self, N):
        # at u = 0 no dynamics read either bilinear state, so both are dead
        # at the factors and a step fills them from f; at the trial control
        # 0.7, x1 reads x2, and the defect the trial reports is the one its
        # own X gives afresh
        problem = _bilinear_problem()
        ops = build_operators(gauss_rule(N))
        U, U_t = np.zeros((N, 1)), np.full((N, 1), 0.7)
        state = solve_state(problem, ops, U)
        factors = newton_factors(problem, ops, state.X[1:N + 1], U)
        np.testing.assert_array_equal(factors.dead, [0, 1])
        trial = solve_state(problem, ops, U_t, state, factors=factors)
        X = trial.X
        assert newton_factors(problem, ops, X[1:N + 1], U_t).live.tolist() == [1]
        G = ops.D @ X[:N + 1] - problem.dynamics(X[1:N + 1], U_t)
        assert trial.defect == _omega_norm(ops.rule.weights, G)
        assert trial.defect <= 0.1 * SolverConfig().tol_y

    @pytest.mark.parametrize("N", [10, 320])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_reused_product_changes_no_bit(self, name, N):
        # a line-search trial is seeded by the accepted record, so its first
        # defect reads that state's D X in place of the product: the trial
        # returns the bytes of one seeded by a copy of the rows and the
        # product taken on that copy's own buffer
        problem = builtin(name)
        ops = build_operators(gauss_rule(N))
        project = problem.control_set.project
        U = project(np.zeros((N, 1)))
        state = solve_state(problem, ops, U)
        assert state.DX.tobytes() == (ops.D @ state.X[:N + 1]).tobytes()
        factors = newton_factors(problem, ops, state.X[1:N + 1], U)
        U_t = project(U + np.linspace(-0.5, 1.5, N)[:, None])
        Xs = state.X.copy()
        fresh = solve_state(problem, ops, U_t, _state_defect(ops, Xs, state.F, ops.D @ Xs[:N + 1]),
                            factors=factors)
        reused = solve_state(problem, ops, U_t, state, factors=factors)
        for a, b in zip(fresh, reused):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("N", [687, 695, 698])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_last_step_accepts_the_roundoff_floor(self, name, N):
        # at these orders the state defect stalls above its 1e-11 target, at
        # the roundoff of D X, so the last step of the budget returns the state
        report = solve(builtin(name), N)
        assert report.termination == "converged", report.termination
        assert report.outer_iters <= (2 if name == "hager84-unconstrained" else 14)


class TestSolveCostate:
    @pytest.mark.parametrize("N", [1, 2, 5, 10, 40, 160])
    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("oscillator", "copying-cubic"))
    def test_solves_return_what_the_residual_reads(self, name, N):
        # every StateSolve, cold or seeded by the accepted record and its
        # factors, holds the f, D X, G, norm and quadrature endpoint that its
        # X gives afresh; a trial at the accepted control returns at its first
        # check on start.DX, which must give the product's bits on the trial's
        # own buffer; H_x comes back from the costate solve with the bits that
        # evaluating it afresh gives; the oscillator factors its live block
        # with an LU, the cubic problem the whole M
        built = {"oscillator": _oscillator_problem,
                 "copying-cubic": lambda: _copying(_cubic_problem())}
        problem = built[name]() if name in built else builtin(name)
        ops = build_operators(gauss_rule(N))
        w = ops.rule.weights
        U = np.linspace(-0.5, 0.5, N)[:, None]
        cold = solve_state(problem, ops, U)
        factors = newton_factors(problem, ops, cold.X[1:N + 1], U)
        U_t = problem.control_set.project(U + np.linspace(-0.5, 1.5, N)[:, None])
        same = solve_state(problem, ops, U, cold, factors=factors)
        assert same.X.tobytes() == cold.X.tobytes()
        for state, V in ((cold, U), (same, U),
                         (solve_state(problem, ops, U_t, cold, factors=factors), U_t)):
            X = state.X
            assert state.DX.tobytes() == (ops.D @ X[:N + 1]).tobytes()
            assert state.G.tobytes() == (state.DX - state.F).tobytes()
            assert state.F.tobytes() == problem.dynamics(X[1:N + 1], V).tobytes()
            assert X[N + 1].tobytes() == (problem.x0 + w @ state.F).tobytes()
            assert state.defect == _omega_norm(w, state.G)
        X, Xc = cold.X, cold.X[1:N + 1]
        Lam, Hx = solve_costate(problem, ops, newton_factors(problem, ops, Xc, U),
                                problem.cost_grad(X[N + 1]))
        np.testing.assert_array_equal(Hx, problem.ham_x(Xc, U, Lam[1:N + 1]))

    def test_dead_costate_identity(self):
        # a dead state's weight-scaled costate is Dinv^T (w Ddag[:, -1]) times
        # its terminal row, which solve_costate takes as w times it: the two
        # agree within 4 eps (read: 2.5 eps at N = 11 over N = 1..1000, which
        # CI's every-order step checks; orders up to 64 and five larger here)
        eps = np.finfo(float).eps
        for N in (*range(1, 65), 100, 225, 320, 640, 1000):
            ops = CollocationOperators(gauss_rule(N))
            w = ops.rule.weights
            assert np.abs(ops.D1N_inv.T @ (w * ops.D_dagger[:, -1]) - w).max() <= 4.0 * eps, N

    @pytest.mark.parametrize("N", [1, 10, 80, 320])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_dead_costate_is_the_terminal_row(self, name, N):
        # the running-cost integrator is dead, so every row of its costate,
        # both endpoints too, has the bits of the terminal one
        Lam = _converged(name, N)[1].traj.Lambda
        assert Lam[:, -1].tobytes() == np.full(N + 2, Lam[-1, -1]).tobytes()

    def test_state_independent_hamiltonian(self):
        problem = _frozen_problem()
        N = 7
        ops = build_operators(gauss_rule(N))
        X, U = np.tile(problem.x0, (N + 2, 1)), np.zeros((N, 1))
        terminal = np.array([1.0, 0.0])
        Lam, _ = solve_costate(problem, ops, newton_factors(problem, ops, X[1:N + 1], U),
                               terminal)
        np.testing.assert_allclose(Lam, np.tile(terminal, (9, 1)), atol=1e-12)

    def test_terminal_row_is_exact(self):
        problem = builtin("hager84-constrained")
        N = 6
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = problem.analytic.control(rule.nodes)
        X = solve_state(problem, ops, U).X
        terminal = problem.cost_grad(X[-1])
        Lam, _ = solve_costate(problem, ops, newton_factors(problem, ops, X[1:N + 1], U),
                               terminal)
        np.testing.assert_array_equal(Lam[-1], terminal)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), N=st.integers(2, 40))
    def test_costate_blocks_of_residual_vanish(self, data, N):
        problem = builtin("hager84-constrained")
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = data.draw(arrays(float, (N, 1), elements=st.floats(-2.0, 2.0)))
        X = solve_state(problem, ops, U).X
        Lam, _ = solve_costate(problem, ops, newton_factors(problem, ops, X[1:N + 1], U),
                               problem.cost_grad(X[-1]))
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
            X = solve_state(problem, ops, U).X
            Lam, _ = solve_costate(problem, ops, newton_factors(problem, ops, X[1:N + 1], U),
                                   problem.cost_grad(X[-1]))
            errs[N] = np.max(np.abs(Lam - problem.analytic.costate(grid)))
        assert errs[16] < errs[8] < errs[4]


def _masked_direction(R, Hu):
    """Descent direction with one masked solve over the positive definite nodes."""
    pd = np.linalg.eigvalsh(R)[:, 0] > 0.0
    d = Hu.copy()
    d[pd] = np.linalg.solve(R[pd], Hu[pd, :, None])[:, :, 0]
    return d


class TestDescentDirection:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), K=st.integers(1, 24), m=st.integers(1, 4))
    def test_same_bits_as_the_masked_solve(self, data, K, m):
        # R = B B^T + s I is positive definite for s > 0 and may not be for
        # s < 0, so a draw may have every node positive definite or not.  A
        # 1x1 R is also drawn from all finite floats, zero and subnormals
        # included: its step is a division, with the bits of LAPACK's solve
        floats = st.floats(-2.0, 2.0)
        B = data.draw(arrays(float, (K, m, m), elements=floats))
        if data.draw(st.booleans()):
            shift = np.full(K, 0.1)
        else:
            shift = data.draw(arrays(float, K, elements=st.sampled_from([-1.0, 0.1])))
        R = B @ B.transpose(0, 2, 1) + shift[:, None, None] * np.eye(m)
        Hu = data.draw(arrays(float, (K, m), elements=floats))
        if m == 1 and data.draw(st.booleans()):
            wide = st.floats(allow_nan=False, allow_infinity=False)
            R = data.draw(arrays(float, (K, 1, 1), elements=st.one_of(wide, st.just(0.0))))
            Hu = data.draw(arrays(float, (K, 1), elements=wide))
        d = solver_module._descent_direction(R)(Hu)
        assert d.shape == (K, m) and d.tobytes() == _masked_direction(R, Hu).tobytes()
        if m == 1:
            pd = R[:, 0, 0] > 0.0
            solved = np.linalg.solve(R[pd], Hu[pd, :, None])[:, :, 0]
            assert d[pd].tobytes() == solved.tobytes()
            assert d[~pd].tobytes() == Hu[~pd].tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_malformed_one_control_hessian_is_rejected(self, value):
        # f_u is finite at the iterate U = 0 and non-finite only at the
        # perturbed control, so only the differenced Hessian sees it
        problem = replace(_frozen_problem(), dynamics_u=lambda X, U: np.where(
            U[:, None, :] == 0.0, 0.0, np.full((len(X), 2, 1), value)))
        X, U = np.zeros((5, 2)), np.zeros((5, 1))
        B = problem.dynamics_u(X, U)
        assert np.isfinite(B).all()
        with pytest.raises(EvaluationFailure, match="differenced from dynamics_u is not finite"):
            solver_module._control_hessian(problem, X, U, np.ones((5, 2)), B)


def _outside_the_hypothesis(concave):
    """xdot = u on [0, 1] from x = 1, where H is not strongly convex in u: the
    singular arc minimises (1/2) int x^2 with |u| <= 1, so H_uu = 0, and the
    concave problem minimises -(1/2) int u^2 with no bound, so H_uu < 0."""
    base = ControlProblem(
        name="", n=1, m=1,
        dynamics=lambda X, U: U.copy(),
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(1),
        x0=np.array([1.0]),
        control_set=ControlSet() if concave else ControlSet(-1.0, 1.0))
    if concave:
        running = dict(value=lambda X, U: -0.5 * U[:, 0] ** 2,
                       grad_x=lambda X, U: np.zeros((len(X), 1)), grad_u=lambda X, U: -U)
    else:
        running = dict(value=lambda X, U: 0.5 * X[:, 0] ** 2,
                       grad_x=lambda X, U: X.copy(), grad_u=lambda X, U: np.zeros((len(X), 1)))
    name = "concave" if concave else "singular-arc"
    return map_domain(augment_bolza(base, name=name, **running), 0.0, 1.0)


def _control_hessian_at(problem, X, U, Lam):
    """The differenced control Hessian at collocation rows X (N, n), U and Lam."""
    return solver_module._control_hessian(problem, X, U, Lam, problem.dynamics_u(X, U))


class TestControlHessian:
    @pytest.mark.parametrize("name, iterate", [(BUILTIN_NAMES[0], 6), (BUILTIN_NAMES[1], 2)])
    def test_builtins_give_the_bits_of_the_closed_form(self, name, iterate):
        # f_u = (s, s u) with s = 1/2: the difference quotient is exactly s
        problem = builtin(name)
        traj = solve(problem, 20, SolverConfig(max_outer=iterate)).traj
        X, U, Lam = traj.X[1:-1], traj.U, traj.Lambda[1:-1]
        assert np.ptp(U) > 0.1
        R = _control_hessian_at(problem, X, U, Lam)
        assert R.tobytes() == (0.5 * (0.0 + Lam[:, 1]))[:, None, None].tobytes()

    @pytest.mark.parametrize("name", ["oscillator", "two-control"]
                             + [f"lq-{case}" for case in sorted(LQ_CASES)])
    def test_matches_the_analytic_hessian(self, name):
        # each running cost holds |u|^2 / 2, so H_uu = s lam_z I, where s is
        # map_domain's factor (1/2 on [0, 1], 1 for the unmapped LQ oracle
        # problems) and z the last state
        built = {"oscillator": _oscillator_problem, "two-control": _two_control_problem}
        problem, s = (built[name](), 0.5) if name in built \
            else (_lq_problem(*_data(name.removeprefix("lq-"))), 1.0)
        n, m = problem.n, problem.m
        rng = np.random.default_rng(11)
        X, U, Lam = (rng.uniform(-3.0, 3.0, (7, k)) for k in (n, m, n))
        R = _control_hessian_at(problem, X, U, Lam)
        np.testing.assert_allclose(R, s * Lam[:, -1, None, None] * np.eye(m),
                                   rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("concave", [False, True], ids=["singular-arc", "concave"])
    def test_outside_the_hypothesis_steps_take_the_raw_gradient(self, concave):
        # the singular arc's Hessian reads exactly 0 and the concave one's
        # is negative: no node is positive definite, so d = G
        problem = _outside_the_hypothesis(concave)
        rng = np.random.default_rng(12)
        X, U = rng.uniform(-2.0, 2.0, (9, 2)), rng.uniform(-1.0, 1.0, (9, 1))
        Lam = np.column_stack([rng.uniform(-2.0, 2.0, 9), np.ones(9)])
        R = _control_hessian_at(problem, X, U, Lam)
        assert np.all(R < 0.0) if concave else R.tobytes() == np.zeros((9, 1, 1)).tobytes()
        G = rng.standard_normal((9, 1))
        assert solver_module._descent_direction(R)(G).tobytes() == G.tobytes()

    @pytest.mark.parametrize("concave, termination, iterates", [
        (False, "max_iter", 200), (True, "converged", 1)], ids=["singular-arc", "concave"])
    def test_outside_the_hypothesis_outcomes(self, concave, termination, iterates):
        # the singular arc creeps toward its optimum 1/6 for the whole budget;
        # the concave problem's zero start is a stationary point, a maximiser
        # of an objective unbounded below, and reports converged
        report = solve(_outside_the_hypothesis(concave), 10)
        assert (report.termination, report.outer_iters) == (termination, iterates)
        if concave:
            assert report.objective == 0.0 and not report.traj.U.any()
        else:
            assert abs(report.objective - 1.0 / 6.0) < 1e-4


def _reduced_gradient(problem, ops, U):
    """(X, Lam, w H_u) at U, the state solved to the Newton floor."""
    N = ops.rule.order
    X = solve_state(problem, ops, U, config=SolverConfig(tol_y=1e-12)).X
    Lam, _ = solve_costate(problem, ops, newton_factors(problem, ops, X[1:N + 1], U),
                           problem.cost_grad(X[N + 1]))
    return X, Lam, ops.rule.weights[:, None] * problem.ham_u(X[1:N + 1], U, Lam[1:N + 1])


class TestHessianProduct:
    @pytest.mark.parametrize("N", [3, 12, 40])
    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("oscillator", "terminal", "manufactured"))
    def test_is_the_derivative_of_the_reduced_gradient(self, name, N):
        # at a control away from the optimum, H V matches central differences
        # of w H_u along V, as criterion 9 checks the gradient against the
        # objective, and <W, H V> = <V, H W>.  "terminal" adds x1(1)^2 / 2 to
        # the oscillator's cost, the one case with a curved terminal cost; the
        # manufactured Hamiltonian is not quadratic, so its difference terms
        # are not exact
        built = {"oscillator": _oscillator_problem, "manufactured": lambda: _manufactured(None),
                 "terminal": lambda: replace(_oscillator_problem(),
                                             cost=lambda x: float(x[2] + 0.5 * x[0] ** 2),
                                             cost_grad=lambda x: np.array([x[0], 0.0, 1.0]))}
        problem = built[name]() if name in built else builtin(name)
        rule = gauss_rule(N)
        ops, t = build_operators(rule), rule.nodes[:, None]
        U, V, W = 0.3 * np.sin(2.0 * t) - 0.4, np.cos(3.0 * t), t * t - 0.5
        X, Lam, _ = _reduced_gradient(problem, ops, U)
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        B = problem.dynamics_u(X[1:N + 1], U)
        HV, HW = (solver_module._hessian_product(problem, ops, factors, X, U, Lam, B, Z)
                  for Z in (V, W))
        h = 1e-4
        fd = (_reduced_gradient(problem, ops, U + h * V)[2]
              - _reduced_gradient(problem, ops, U - h * V)[2]) / (2.0 * h)
        assert np.abs(HV - fd).max() <= 1e-8 * np.abs(fd).max()
        gap = abs((W * HV).sum() - (V * HW).sum())
        assert gap <= 1e-11 * np.linalg.norm(W) * np.linalg.norm(HV)


    @pytest.mark.parametrize("N", [5, 20])
    @pytest.mark.parametrize("name", ["bilinear", "square-read"])
    def test_carries_a_dead_state_read_off_the_iterate(self, name, N):
        # at u = 0 no dynamics read x2, so the state and costate solves leave
        # it out, but H V must carry x2's step.  "bilinear": H_u = lam1 x2 +
        # lam2 reads x2 off that control; without its step the product is off
        # by about 6 times its size.  "square-read": H_x = (0, 2 lam1 x2) reads
        # x2 alone, so the differences along a zero step of x2 vanish and the
        # product would read 0 where it is 2 int((int V)^2) along V
        problem = _bilinear_problem() if name == "bilinear" else _square_read_problem()
        rule = gauss_rule(N)
        ops, U, V = build_operators(rule), np.zeros((N, 1)), np.cos(3.0 * rule.nodes)[:, None]
        X, Lam, _ = _reduced_gradient(problem, ops, U)
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        np.testing.assert_array_equal(factors.dead, [0, 1])
        HV = solver_module._hessian_product(problem, ops, factors, X, U, Lam,
                                            problem.dynamics_u(X[1:N + 1], U), V)
        h = 1e-4
        fd = (_reduced_gradient(problem, ops, U + h * V)[2]
              - _reduced_gradient(problem, ops, U - h * V)[2]) / (2.0 * h)
        assert np.abs(HV - fd).max() <= 1e-8 * np.abs(fd).max()


class TestNewtonCG:
    def test_solves_a_positive_definite_system(self):
        # Jacobi-preconditioned CG solves a 3x3 system to its stopping tolerance
        H = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, -2.0, 0.5])
        d = solver_module._newton_cg(lambda p: H @ p, lambda r: r / np.diag(H), b)
        tol = max(solver_module.CG_RTOL * np.linalg.norm(b), solver_module.CG_ATOL)
        assert np.linalg.norm(H @ d - b) <= tol

    def test_first_curvature_not_positive_gives_the_preconditioned_gradient(self):
        # p.Hp = 0 exactly on the first iteration: no iterate, so d = z = M^-1 b
        H, b, products = np.diag([1.0, -1.0]), np.array([1.0, 1.0]), []
        d = solver_module._newton_cg(lambda p: products.append(p) or H @ p, lambda r: 2.0 * r, b)
        assert np.array_equal(d, 2.0 * b) and len(products) == 1

    def test_later_negative_curvature_gives_the_iterate_so_far(self):
        # the first step along b has curvature 0.99; the second direction has
        # negative curvature, so CG stops with the one-step iterate
        H, b, products = np.diag([1.0, -1.0]), np.array([1.0, 0.1]), []
        d = solver_module._newton_cg(lambda p: products.append(p) or H @ p, lambda r: r.copy(), b)
        assert len(products) == 2 and products[1] @ H @ products[1] < 0.0
        np.testing.assert_allclose(d, (b @ b) / (b @ H @ b) * b, rtol=1e-15)

    def test_exhausted_budget_gives_the_last_iterate(self, monkeypatch):
        # with one product allowed, d is the first CG iterate, not the next
        # preconditioned residual
        monkeypatch.setattr(solver_module, "CG_MAX", 1)
        H, b, products = np.diag([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), []
        d = solver_module._newton_cg(lambda p: products.append(p) or H @ p, lambda r: r.copy(), b)
        assert len(products) == 1
        np.testing.assert_allclose(d, (b @ b) / (b @ H @ b) * b, rtol=1e-15)

    def test_zero_gradient_gives_a_zero_step(self):
        products = []
        d = solver_module._newton_cg(lambda p: products.append(p) or p, lambda r: r.copy(),
                                     np.zeros((4, 2)))
        assert d.shape == (4, 2) and not d.any() and not products


def _dense_jacobian(ops, A):
    """J = (D[:, 1:] x I) M with M[(i,k), (j,l)] = delta - Dinv[i, j] A[j, k, l], built densely."""
    N, n = A.shape[:2]
    M = np.eye(N * n) - np.einsum("ij,jkl->ikjl", ops.D1N_inv, A).reshape(N * n, N * n)
    return np.kron(ops.D[:, 1:], np.eye(n)) @ M


def _assert_solves_like_dense(ops, factors, J, R):
    """_jacobian_solve of R's live columns, forward and transposed, against dense
    solves with the live block J_LL of J and with J_LL^T.  No state reads a dead
    one, so J is block lower triangular over the live and dead columns, and a
    dense J solve's live columns are the live solve's."""
    N, n = R.shape
    live = factors.live
    rows = (np.arange(N)[:, None] * n + live).ravel()
    dead_rows = np.setdiff1d(np.arange(N * n), rows)
    assert not J[np.ix_(rows, dead_rows)].any()
    if not live.size:
        return
    J_LL, R_L = J[np.ix_(rows, rows)], R[:, live]
    R_L0 = R_L.copy()
    full = np.linalg.solve(J, R.ravel()).reshape(N, n)[:, live]
    for transposed, dense in ((False, J_LL), (True, J_LL.T)):
        Z = solver_module._jacobian_solve(ops, factors, R_L, transposed=transposed)
        assert R_L.tobytes() == R_L0.tobytes()  # the right-hand side is left as it was
        ref = np.linalg.solve(dense, R_L.ravel()).reshape(R_L.shape)
        assert np.max(np.abs(Z - ref)) <= 1e-12 * np.max(np.abs(ref))
        if not transposed:
            assert np.max(np.abs(Z - full)) <= 1e-12 * np.max(np.abs(full))


class TestNewtonFactors:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), N=st.integers(1, 12), n=st.integers(1, 5))
    def test_block_solve_matches_dense_solve(self, data, N, n):
        ops = build_operators(gauss_rule(N))
        # entries within 0.1 / n keep |(Dinv x I) blockdiag(A)| below 0.2 (P1
        # bounds Dinv by 2), so M is well conditioned for any right-hand side
        A = data.draw(arrays(float, (N, n, n), elements=st.floats(-1.0, 1.0))) * (0.1 / n)
        A[:, ~data.draw(arrays(bool, (n, n)))] = 0.0
        # a subnormal right-hand side has too few digits for a relative bound
        R = data.draw(arrays(float, (N, n),
                             elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
        problem = replace(_frozen_problem(), n=n, dynamics_x=lambda X, U: A, x0=np.zeros(n))
        factors = newton_factors(problem, ops, np.zeros((N, n)), np.zeros((N, 1)))

        # every state is live or dead, and dead exactly when no state reads it;
        # the live block has an LU exactly when some live state reads a live one
        read = np.any(A != 0.0, axis=(0, 1))
        np.testing.assert_array_equal(factors.live, np.flatnonzero(read))
        np.testing.assert_array_equal(factors.dead, np.flatnonzero(~read))
        if np.any(A[:, factors.live[:, None], factors.live] != 0.0):
            assert factors.lu[0].shape == (N * factors.live.size,) * 2
        else:
            assert factors.lu is None
        R0 = R.copy()
        _assert_solves_like_dense(ops, factors, _dense_jacobian(ops, A), R)
        assert R.tobytes() == R0.tobytes()  # the right-hand side is left as it was

    def test_dead_state_between_live_ones(self):
        # states (x, z, y): z integrates x^2 and nothing reads it, so the
        # live columns 0 and 2 are not consecutive
        def dynamics_x(X, U):
            A = np.zeros((len(X), 3, 3))
            A[:, 0, 2], A[:, 1, 0], A[:, 2, 0] = 1.0, X[:, 0], -1.0
            return A

        problem = replace(_frozen_problem(), n=3, dynamics_x=dynamics_x, x0=np.zeros(3))
        N = 9
        ops = build_operators(gauss_rule(N))
        Xc = np.linspace(-1.0, 1.0, 3 * N).reshape(N, 3)
        factors = newton_factors(problem, ops, Xc, np.zeros((N, 1)))
        np.testing.assert_array_equal(factors.live, [0, 2])
        np.testing.assert_array_equal(factors.dead, [1])
        assert factors.lu[0].shape == (2 * N, 2 * N)
        R = np.cos(np.arange(3 * N)).reshape(N, 3)
        _assert_solves_like_dense(ops, factors, _dense_jacobian(ops, dynamics_x(Xc, None)), R)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_factors_only_the_state_block(self, name):
        # no dynamics read the running-cost integrator, so it enters no LU,
        # and x reads nothing, so its block of M is the identity: no LU at all
        problem = builtin(name)
        N = 16
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = problem.analytic.control(rule.nodes)
        X = solve_state(problem, ops, U).X
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        assert factors.lu is None
        np.testing.assert_array_equal(factors.live, [0])
        np.testing.assert_array_equal(factors.dead, [problem.n - 1])

    def test_integrator_needs_no_factorization(self):
        problem = _integrator_problem()
        ops = build_operators(gauss_rule(5))
        factors = newton_factors(problem, ops, np.zeros((5, 1)), np.ones((5, 1)))
        assert factors.lu is None
        Lam, _ = solve_costate(problem, ops, factors, np.ones(1))
        np.testing.assert_allclose(Lam, np.ones((7, 1)), atol=1e-12)

    def test_fully_coupled_problem_factors_all_of_M(self):
        # every column of the cubic problem's f_x is read: the whole M is
        # factored, and the state matches plain dense Newton
        problem = _cubic_problem()
        N, n = 24, 2
        rule = gauss_rule(N)
        ops = build_operators(rule)
        U = np.linspace(-1.0, 1.0, N)[:, None]
        X = solve_state(problem, ops, U, config=SolverConfig(tol_y=1e-12)).X
        assert newton_factors(problem, ops, X[1:N + 1], U).lu[0].shape == (N * n, N * n)

        Xc = np.tile(problem.x0, (N, 1))
        for _ in range(12):  # steps reach rounding level by the eighth
            G = ops.D @ np.vstack([problem.x0, Xc]) - problem.dynamics(Xc, U)
            blocks = np.einsum("ij,ikl->ikjl", np.eye(N), problem.dynamics_x(Xc, U))
            J = np.kron(ops.D[:, 1:], np.eye(n)) - blocks.reshape(N * n, N * n)
            Xc = Xc + np.linalg.solve(J, -G.ravel()).reshape(N, n)
        assert np.max(np.abs(X[1:N + 1] - Xc)) <= 1e-12

    def test_oscillator_factors_its_live_block(self):
        # x1 and x2 read each other: their 2N x 2N block is factored, the
        # running-cost integrator is not, and the whole solve converges
        problem = _oscillator_problem()
        N = 16
        ops = build_operators(gauss_rule(N))
        U = np.linspace(-1.0, 1.0, N)[:, None]
        X = solve_state(problem, ops, U).X
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        np.testing.assert_array_equal(factors.dead, [2])
        assert factors.lu[0].shape == (2 * N, 2 * N)
        assert solve(problem, N).converged


@functools.cache
def _converged(name, N):
    problem = builtin(name)
    return problem, solve(problem, N)


@pytest.fixture(scope="module")
def benchmark_n20():
    return solve(builtin("hager84-constrained"), 20)


class TestSolve:
    def test_converges(self, benchmark_n20):
        report = benchmark_n20
        assert report.converged
        assert report.termination == "converged"
        assert report.y_norm <= 1e-10
        assert report.order == 20

    @pytest.mark.parametrize("N", [np.int64(5), True], ids=["int64", "True"])
    def test_integer_order_is_reported_as_an_int(self, N):
        # gauss_rule(True) is the order-1 rule, and solve reads the rule's order back
        report = solve(builtin("hager84-constrained"), N)
        assert report.converged
        assert type(report.order) is int and report.order == N
        assert report.traj.U.shape == (report.order, 1)

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

    def test_takes_no_warm_start(self):
        # no caller seeds a solve: each starts from the projected zero control
        assert str(inspect.signature(solve)) == "(problem, N, config=None)"
        with pytest.raises(TypeError):
            solve(builtin("hager84-constrained"), 8, warm_start=None)

    @pytest.mark.parametrize("N", [1, 2, 3, 160, 240, 320, 500, 1000])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_converges_at_high_order(self, name, N):
        # the state Newton target is tied to tol_y in the residual's own
        # norm, so an accepted state never holds the outer test back; the
        # orders span the whole range the CLI accepts
        config = SolverConfig(max_outer=60)
        report = solve(builtin(name), N, config=config)
        assert report.converged
        defect = _omega_norm(gauss_rule(N).weights, report.residual.state_defect)
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

    @pytest.mark.parametrize("N", [10, 39, 40, 80, 240, 320, 1000])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_state_and_costate_solved_once_per_iterate(self, name, N, monkeypatch):
        # solve reaches both solves through the module's attributes, so a
        # wrapper set there sees every call: one costate solve per evaluated
        # iterate, and one state solve per iterate, since every line search
        # accepts its first trial, late ones once the predicted decrease is
        # within what the two state defects move the objectives by
        calls = {"solve_state": 0, "solve_costate": 0}

        def counted(key):
            fn = getattr(solver_module, key)

            def call(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return call

        for key in calls:
            monkeypatch.setattr(solver_module, key, counted(key))
        report = solve(builtin(name), N)
        assert report.converged
        k = report.outer_iters
        assert k == (12 if name == "hager84-constrained" else 2)
        assert calls == {"solve_state": k, "solve_costate": k}

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(BUILTIN_NAMES), N=st.sampled_from([10, 40, 320]),
           size=st.floats(-9.0, -4.0), seed=st.integers(0, 2**32 - 1))
    def test_defect_moves_the_objective_at_most_its_dual_weighted_norm(self, name, N,
                                                                        size, seed):
        # the line search's third test: a state with defect G' moves the
        # objective by about <mu, G'>, which Cauchy-Schwarz bounds by the
        # omega norms of Lam_c - Lam_end and G'; the objective is read from
        # the quadrature endpoint x0 + w f, as solve_state forms it
        problem, report = _converged(name, N)
        ops = build_operators(gauss_rule(N))
        w = ops.rule.weights
        X, U, Lam = report.traj.X, report.traj.U, report.traj.Lambda
        dX = np.random.default_rng(seed).uniform(-1.0, 1.0, (N, problem.n))
        Xp = X[:N + 1].copy()
        Xp[1:] += 10.0 ** size / np.abs(dX).max() * dX
        F = problem.dynamics(Xp[1:], U)
        moved = abs(float(problem.cost(problem.x0 + w @ F)) - report.objective)
        bound = _omega_norm(w, Lam[1:N + 1] - Lam[N + 1]) * _omega_norm(w, ops.D @ Xp - F)
        assert moved <= bound

    @pytest.mark.parametrize("N", [10, 80])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_each_callback_once_per_accepted_iterate(self, name, N, monkeypatch):
        # f_x feeds the first state solve and then each accepted iterate's
        # factors; C_x is read once per iterate, and f_u once per iterate and
        # once per control for the H_uu of each step taken.  Each Newton-CG
        # iteration adds one Hessian product, whose central differences read
        # f_x, f_u and C_x twice each: the constrained built-in has an active
        # control at every iterate and takes none, the unconstrained one
        # takes them on every step.  The projection runs once at entry (the
        # shape check), once per iterate for both the residual and the
        # activity test, and once per line-search trial, each of which makes
        # one state solve
        problem = builtin(name)
        keys = ("dynamics_x", "dynamics_u", "cost_grad")
        calls = dict.fromkeys(keys + ("project", "solve_state"), 0)
        products = []

        def counted(key, fn):
            def call(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return call

        def product(*args):
            products.append(None)
            return hessian_product(*args)

        hessian_product = solver_module._hessian_product
        monkeypatch.setattr(solver_module, "_hessian_product", product)
        monkeypatch.setattr(solver_module, "solve_state",
                            counted("solve_state", solver_module.solve_state))
        monkeypatch.setattr(ControlSet, "project", counted("project", ControlSet.project))
        problem = replace(problem, **{key: counted(key, getattr(problem, key)) for key in keys})
        report = solve(problem, N)
        k, j, trials = report.outer_iters, len(products), calls.pop("solve_state") - 1
        assert report.converged
        m = problem.m
        assert calls == {"dynamics_x": k + 1 + 2 * j, "dynamics_u": k + 2 * j + m * (k - 1),
                         "cost_grad": k + 2 * j, "project": 1 + k + trials}
        if name == "hager84-constrained":
            assert j == 0
        else:
            assert k == 2 and 1 <= j <= solver_module.CG_MAX

    @pytest.mark.parametrize("N", [10, 80])
    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("oscillator", "two-control"))
    def test_reported_residual_is_eval_residual(self, name, N):
        # the solver hands the residual values it already holds; evaluating
        # every callback afresh on the final trajectory gives the same bits,
        # on the oscillator's factored live block and with two controls too
        built = {"oscillator": _oscillator_problem, "two-control": _two_control_problem}
        problem = built[name]() if name in built else builtin(name)
        report = solve(problem, N, SolverConfig(max_outer=20 if name == "two-control" else 200))
        fresh = eval_residual(problem, build_operators(gauss_rule(N)), report.traj)
        for block in ("initial", "state_defect", "endpoint_defect", "costate_endpoint",
                      "costate_defect", "transversality", "control_residual"):
            np.testing.assert_array_equal(getattr(fresh, block),
                                          getattr(report.residual, block))
        assert fresh.norms == report.residual.norms
        assert fresh.y_norm == report.y_norm

    def test_exhausted_budget_reported_not_raised(self):
        config = SolverConfig(tol_y=1e-30, max_outer=3)
        report = solve(builtin("hager84-constrained"), 8, config=config)
        assert not report.converged
        assert report.termination == "max_iter"
        assert report.outer_iters == 3
        assert np.isfinite(report.y_norm)

    @pytest.mark.parametrize("max_outer", [3, 10, 11, 12, 13])
    def test_budget_edge_reports_the_last_tested_iterate(self, max_outer):
        # hager84-constrained at N=10 converges on its 12th iterate; on either
        # side of that budget the report is the last iterate evaluated, and
        # the stopping test has judged it
        config = SolverConfig(max_outer=max_outer)
        report = solve(builtin("hager84-constrained"), 10, config=config)
        assert report.converged == (report.y_norm <= config.tol_y)
        assert report.termination == ("converged" if report.converged else "max_iter")
        assert report.outer_iters == len(report.objective_history) <= max_outer
        assert report.objective == report.objective_history[-1]

    @pytest.mark.parametrize("callback,error", [
        ("cost", EvaluationFailure), ("cost_grad", EvaluationFailure),
        ("dynamics_u", EvaluationFailure), ("dynamics", NewtonDivergence)])
    def test_non_finite_callback_raises(self, callback, error):
        # a NaN from C, C_x or f_u reaches the first iterate's objective or
        # residual norm; a NaN from f stops the state solve before that
        good = builtin("hager84-constrained")
        fn = getattr(good, callback)
        bad = replace(good, **{callback: lambda *args: np.full_like(fn(*args), np.nan)})
        with pytest.raises(error):
            solve(bad, 10)

    def test_two_control_problem_converges(self):
        assert solve(_two_control_problem(), 6).converged

    def test_termination_line_search_failed(self, monkeypatch):
        # the cold start's state solve succeeds; every trial diverges
        real = solve_state

        def diverging_trials(problem, ops, U, start=None, *args, **kwargs):
            if start is not None:
                raise NewtonDivergence("trial diverged")
            return real(problem, ops, U, *args, **kwargs)

        monkeypatch.setattr(solver_module, "solve_state", diverging_trials)
        report = solve(builtin("hager84-constrained"), 10)
        assert (report.termination, report.converged, report.outer_iters) \
            == ("line_search_failed", False, 1)

    @pytest.mark.parametrize("build,change,message", [
        (functools.partial(builtin, "hager84-constrained"), {"x0": np.array([1.0, 0.0, 2.0])},
         "x0 has shape (3,), expected (2,)"),
        (functools.partial(builtin, "hager84-constrained"),
         {"control_set": ControlSet(upper=[1.0, 2.0])},
         "control_set upper bound has shape (2,), expected () or (1,)"),
        (_two_control_problem, {"control_set": ControlSet(upper=[1.0, 2.0, 3.0])},
         "control_set upper bound has shape (3,), expected () or (2,)"),
        (_two_control_problem, {"control_set": ControlSet(lower=[-1.0], upper=[1.0, 2.0])},
         "control_set lower bound has shape (1,), expected () or (2,)"),
    ], ids=["x0-shape", "wide-box", "long-box", "one-component-lower"])
    def test_malformed_problem_is_rejected_where_built(self, build, change, message):
        # the constructor raises, so no solve reads a malformed problem; with
        # m = 2 a bound of length 3 would not even broadcast against U (N, m)
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            replace(build(), **change)

    @pytest.mark.parametrize("callback,cut,shapes", [
        ("dynamics", lambda F: F[:, :1], "(6, 1), expected (6, 2)"),
        ("dynamics_u", lambda B: B[:, :, :1], "(6, 2, 1), expected (6, 2, 2)"),
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
        {"max_outer": 2.5}, {"max_outer": True},
        {"tol_y": "1e-10"}, {"tol_y": None}, {"tol_y": True},
    ])
    def test_invalid_config_is_rejected(self, settings):
        with pytest.raises(ValueError, match=next(iter(settings))):
            SolverConfig(**settings)

    def test_numpy_integer_budget_is_accepted(self):
        assert SolverConfig(max_outer=np.int64(3)).max_outer == 3

    def test_config_defaults(self):
        config = SolverConfig()
        assert config.tol_y == 1e-10
        assert config.max_outer == 200
        assert solver_module.ARMIJO_C == 1e-4
        assert solver_module.BACKTRACK == 0.5
        assert solver_module.NEWTON_TOL == 1e-12
        assert solver_module.NEWTON_MAX == 50
