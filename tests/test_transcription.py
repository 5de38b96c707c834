"""Trajectories, optimality residuals, and multiplier conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gausscolloc import (ControlProblem, ControlSet, build_operators, builtin,
                         costate_to_multipliers, eval_residual, full_grid,
                         gauss_rule, interpolate_trajectory, kkt_residuals,
                         multipliers_to_costate, omega_norm, solve)
from gausscolloc.errors import DimensionMismatch
from gausscolloc.transcription import Trajectory


def _analytic_trajectory(problem, N):
    rule = gauss_rule(N)
    grid = full_grid(rule)
    return Trajectory(
        nodes=grid,
        X=problem.analytic.state(grid),
        U=problem.analytic.control(rule.nodes),
        Lambda=problem.analytic.costate(grid))


def _frozen_problem():
    """f identically zero: any constant state collocates exactly."""
    return ControlProblem(
        name="frozen", n=2, m=1,
        dynamics=lambda X, U: np.zeros((len(X), 2)),
        dynamics_x=lambda X, U: np.zeros((len(X), 2, 2)),
        dynamics_u=lambda X, U: np.zeros((len(X), 2, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.array([1.0, 0.0]),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([0.4, -1.1]),
        control_set=ControlSet.box(lower=[-1.0], upper=[1.0]))


class TestTrajectory:
    def test_grid_layout(self):
        rule = gauss_rule(5)
        grid = full_grid(rule)
        assert grid.shape == (7,)
        assert grid[0] == -1.0 and grid[-1] == 1.0
        np.testing.assert_array_equal(grid[1:6], rule.nodes)

    def test_order_property(self):
        traj = _analytic_trajectory(builtin("hager84-constrained"), 6)
        assert traj.N == 6
        assert traj.X.shape == (8, 2)
        assert traj.Lambda.shape == (8, 2)


class TestOmegaNorm:
    def test_all_ones(self):
        rule = gauss_rule(7)
        # sum of weights is 2, two state components
        np.testing.assert_allclose(omega_norm(rule, np.ones((7, 2))),
                                   2.0, rtol=1e-14)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            omega_norm(gauss_rule(7), np.ones((6, 2)))

    @pytest.mark.parametrize("N", [2, 9, 33])
    def test_sup_norm_bound(self, N):
        # |z|_w <= sqrt(2n) |z|_inf for every collocation-indexed stack
        rng = np.random.default_rng(800 + N)
        rule = gauss_rule(N)
        for _ in range(1000):
            z = rng.uniform(-5.0, 5.0, (N, 3))
            bound = np.sqrt(2 * 3) * np.max(np.abs(z))
            assert omega_norm(rule, z) <= bound + 1e-12


class TestEvalResidual:
    def test_analytic_sample_endpoint_blocks_vanish(self):
        problem = builtin("hager84-constrained")
        ops = build_operators(gauss_rule(10))
        res = eval_residual(problem, ops, _analytic_trajectory(problem, 10))
        assert np.max(np.abs(res.initial)) <= 1e-12
        assert np.max(np.abs(res.transversality)) <= 1e-12
        assert np.max(np.abs(res.control_residual)) <= 1e-12

    def test_analytic_sample_norm_decays(self):
        problem = builtin("hager84-constrained")
        y = {}
        for N in (5, 10, 40):
            ops = build_operators(gauss_rule(N))
            y[N] = eval_residual(problem, ops,
                                 _analytic_trajectory(problem, N)).y_norm
        assert y[40] < y[10] < y[5]

    def test_zero_dynamics_constant_state(self):
        problem = _frozen_problem()
        rule = gauss_rule(6)
        ops = build_operators(rule)
        grid = full_grid(rule)
        X = np.tile(problem.x0, (8, 1))
        traj = Trajectory(nodes=grid, X=X, U=np.zeros((6, 1)),
                          Lambda=np.zeros((8, 2)))
        res = eval_residual(problem, ops, traj)
        # matmul cannot resum the negative-sum diagonal in the same order,
        # so annihilation of constants holds to rounding, not bitwise
        assert np.max(np.abs(res.state_defect)) <= 1e-14
        np.testing.assert_array_equal(res.endpoint_defect, np.zeros(2))
        np.testing.assert_array_equal(res.initial, np.zeros(2))

    def test_norm_composition(self):
        problem = builtin("hager84-constrained")
        rule = gauss_rule(8)
        ops = build_operators(rule)
        rng = np.random.default_rng(13)
        grid = full_grid(rule)
        traj = Trajectory(nodes=grid,
                          X=rng.standard_normal((10, 2)),
                          U=rng.standard_normal((8, 1)),
                          Lambda=rng.standard_normal((10, 2)))
        res = eval_residual(problem, ops, traj)
        expected = (np.linalg.norm(res.initial) + np.linalg.norm(res.endpoint_defect)
                    + np.linalg.norm(res.costate_endpoint)
                    + np.linalg.norm(res.transversality)
                    + np.max(np.linalg.norm(res.control_residual, axis=1))
                    + omega_norm(rule, res.state_defect)
                    + omega_norm(rule, res.costate_defect))
        np.testing.assert_allclose(res.y_norm, expected, rtol=1e-14)

    def test_dimension_check(self):
        problem = builtin("hager84-constrained")
        ops = build_operators(gauss_rule(5))
        bad = _analytic_trajectory(problem, 6)
        with pytest.raises(DimensionMismatch):
            eval_residual(problem, ops, bad)


class TestMultiplierMaps:
    def test_uniform_terminal_multiplier(self):
        rule = gauss_rule(6)
        v = np.array([2.0, -3.0])
        mu = np.zeros((8, 2))
        mu[0] = np.array([5.0, 5.0])
        mu[7] = v
        Lam = multipliers_to_costate(mu, rule)
        np.testing.assert_array_equal(Lam[1:], np.tile(v, (7, 1)))
        np.testing.assert_array_equal(Lam[0], mu[0])

    def test_constant_costate_gives_zero_interior(self):
        rule = gauss_rule(6)
        Lam = np.tile(np.array([1.5, 0.5]), (8, 1))
        mu = costate_to_multipliers(Lam, rule)
        np.testing.assert_array_equal(mu[1:7], np.zeros((6, 2)))

    @pytest.mark.parametrize("N", [1, 4, 17])
    def test_round_trip(self, N):
        rng = np.random.default_rng(900 + N)
        rule = gauss_rule(N)
        Lam = rng.standard_normal((N + 2, 2))
        back = multipliers_to_costate(costate_to_multipliers(Lam, rule), rule)
        assert np.max(np.abs(back - Lam)) <= 1e-13
        mu = rng.standard_normal((N + 2, 2))
        back = costate_to_multipliers(multipliers_to_costate(mu, rule), rule)
        assert np.max(np.abs(back - mu)) <= 1e-13

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), N=st.integers(1, 60), n=st.integers(1, 3))
    def test_round_trip_property(self, data, N, n):
        # Interior rows round twice each way (u = eps/2 per operation):
        #   mu = w (L - L_end), then L_end + mu / w:  3u|L - L_end| + u|L|
        #   L = mu_end + mu / w, then w (L - mu_end):  4u|mu| + u w|mu_end|
        # 3 eps (|a| + |b|) bounds both with room for the O(u^2) terms; on
        # unit-scale values it is below 2e-15.  tiny covers products that
        # underflow.  End rows are copied exactly.
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        rule = gauss_rule(N)
        w = rule.weights[:, None]
        values = arrays(float, (N + 2, n), elements=st.floats(-1e3, 1e3))
        Lam = data.draw(values)
        back = multipliers_to_costate(costate_to_multipliers(Lam, rule), rule)
        bound = 3 * eps * (np.abs(Lam[1:-1] - Lam[-1]) + np.abs(Lam[1:-1])) + tiny
        assert np.all(np.abs(back[1:-1] - Lam[1:-1]) <= bound)
        np.testing.assert_array_equal(back[[0, -1]], Lam[[0, -1]])
        mu = data.draw(values)
        back = costate_to_multipliers(multipliers_to_costate(mu, rule), rule)
        bound = 3 * eps * (np.abs(mu[1:-1]) + w * np.abs(mu[-1])) + tiny
        assert np.all(np.abs(back[1:-1] - mu[1:-1]) <= bound)
        np.testing.assert_array_equal(back[[0, -1]], mu[[0, -1]])

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            costate_to_multipliers(np.zeros((5, 2)), gauss_rule(6))


@pytest.fixture(scope="module")
def solved():
    problem = builtin("hager84-constrained")
    report = solve(problem, 8)
    assert report.converged
    return problem, report


class TestSolvedOptimum:
    def test_costate_endpoint_identity(self, solved):
        problem, report = solved
        ops = build_operators(gauss_rule(8))
        res = eval_residual(problem, ops, report.traj)
        # Lambda_{N+1} = Lambda_0 - sum_i w_i H_x at the discrete optimum
        assert np.max(np.abs(res.costate_endpoint)) <= 1e-9

    def test_recovered_multipliers_satisfy_kkt(self, solved):
        problem, report = solved
        rule = gauss_rule(8)
        ops = build_operators(rule)
        mu = costate_to_multipliers(report.traj.Lambda, rule)
        residuals = kkt_residuals(problem, ops, report.traj, mu)
        assert max(residuals.values()) <= 1e-9

    def test_state_polynomial_endpoint(self, solved):
        _, report = solved
        x_end, _ = interpolate_trajectory(report.traj, 1.0)
        assert np.max(np.abs(x_end - report.traj.X[-1])) <= 1e-9


class TestInterpolateTrajectory:
    def test_node_hit_returns_sample(self):
        traj = _analytic_trajectory(builtin("hager84-constrained"), 8)
        x, lam = interpolate_trajectory(traj, traj.nodes[3])
        np.testing.assert_array_equal(x, traj.X[3])
        np.testing.assert_array_equal(lam, traj.Lambda[3])

    def test_constant_trajectory(self):
        rule = gauss_rule(5)
        grid = full_grid(rule)
        c = np.array([2.0, -1.0])
        traj = Trajectory(nodes=grid, X=np.tile(c, (7, 1)),
                          U=np.zeros((5, 1)), Lambda=np.tile(c, (7, 1)))
        t = np.linspace(-1.0, 1.0, 17)
        x, lam = interpolate_trajectory(traj, t)
        np.testing.assert_allclose(x, np.tile(c, (17, 1)), atol=1e-13)
        np.testing.assert_allclose(lam, np.tile(c, (17, 1)), atol=1e-13)

    def test_scalar_time_shape(self):
        traj = _analytic_trajectory(builtin("hager84-constrained"), 5)
        x, lam = interpolate_trajectory(traj, 0.123)
        assert x.shape == (2,) and lam.shape == (2,)
