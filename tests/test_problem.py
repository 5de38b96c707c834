"""Problem definitions: control sets, augmentation, mapping, builtins."""

import dataclasses

import numpy as np
import pytest

from gausscolloc import (ControlProblem, ControlSet, audit_derivatives,
                         augment_bolza, builtin, gauss_rule, hager_optimal_cost,
                         map_domain)
from gausscolloc.diffmat import differentiation_matrix
from gausscolloc.errors import EvaluationFailure, UnknownProblem
from gausscolloc.problem import _HAGER_RUNNING, _hager_base


def _linear_problem():
    """ndot = A0 x + B0 u with quadratic terminal cost; H is linear in x,u."""
    A0 = np.array([[0.0, 2.0], [-1.0, 0.5]])
    B0 = np.array([[1.0], [3.0]])
    return ControlProblem(
        name="linear-2d", n=2, m=1,
        dynamics=lambda X, U: X @ A0.T + U @ B0.T,
        dynamics_x=lambda X, U: np.broadcast_to(A0, (len(X), 2, 2)),
        dynamics_u=lambda X, U: np.broadcast_to(B0, (len(X), 2, 1)),
        cost=lambda x: 0.5 * float(x @ x),
        cost_grad=lambda x: x,
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([1.0, 0.0]),
        control_set=ControlSet.unconstrained())


class TestControlSet:
    def test_unconstrained_is_identity(self):
        cs = ControlSet.unconstrained()
        v = np.array([3.0, -7.0])
        np.testing.assert_array_equal(cs.project(v), v)

    def test_box_clips(self):
        cs = ControlSet.box(lower=[-1.0], upper=[1.0])
        np.testing.assert_array_equal(cs.project(np.array([2.5])), [1.0])
        np.testing.assert_array_equal(cs.project(np.array([-3.0])), [-1.0])
        np.testing.assert_array_equal(cs.project(np.array([0.25])), [0.25])

    def test_box_one_sided(self):
        cs = ControlSet.box(upper=[1.0])
        np.testing.assert_array_equal(cs.project(np.array([-9.0])), [-9.0])
        np.testing.assert_array_equal(cs.project(np.array([9.0])), [1.0])

    def test_box_stacked_rows(self):
        cs = ControlSet.box(lower=[0.0], upper=[1.0])
        U = np.array([[-1.0], [0.5], [2.0]])
        np.testing.assert_array_equal(cs.project(U), [[0.0], [0.5], [1.0]])

    def test_box_rejects_empty_interior(self):
        with pytest.raises(ValueError):
            ControlSet.box(lower=[1.0], upper=[1.0])
        with pytest.raises(ValueError):
            ControlSet.box(lower=[2.0], upper=[-2.0])

    @pytest.mark.parametrize("cs", [
        ControlSet.unconstrained(),
        ControlSet.box(lower=[-1.0, 0.0], upper=[1.0, 2.0]),
        ControlSet.custom(lambda v: np.clip(v, -0.5, None)),
    ])
    def test_projection_idempotent_and_nonexpansive(self, cs):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.uniform(-3.0, 3.0, 2)
            b = rng.uniform(-3.0, 3.0, 2)
            pa, pb = cs.project(a), cs.project(b)
            assert np.max(np.abs(cs.project(pa) - pa)) <= 1e-12
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestAugmentBolza:
    def test_zero_running_cost(self):
        from gausscolloc.problem import RunningCost
        zero = RunningCost(
            value=lambda X, U: np.zeros(len(X)),
            grad_x=lambda X, U: np.zeros((len(X), 1)),
            grad_u=lambda X, U: np.zeros((len(X), 1)),
            hess_uu=lambda X, U: np.zeros((len(X), 1, 1)))
        prob = augment_bolza(_hager_base(True), zero, name="zero-cost")
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert prob.cost(x * np.array([1.0, 0.0])) == 0.0

    def test_base_terminal_cost_is_kept(self):
        # C(x) = x^2 / 2 on the base: the augmented objective is C + z
        base = dataclasses.replace(_hager_base(True), cost=lambda x: 0.5 * x[0] * x[0],
                                   cost_grad=lambda x: np.array([x[0]]))
        prob = augment_bolza(base, _HAGER_RUNNING, name="bolza")
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, z = rng.standard_normal(2)
            assert prob.cost(np.array([x, z])) == 0.5 * x * x + z
            np.testing.assert_array_equal(prob.cost_grad(np.array([x, z])), [x, 1.0])
        assert audit_derivatives(prob) > 0

    def test_benchmark_has_two_states(self):
        prob = augment_bolza(_hager_base(True), _HAGER_RUNNING)
        assert prob.n == 2 and prob.m == 1
        assert prob.x0[1] == 0.0

    def test_constant_running_cost_measures_domain(self):
        from gausscolloc import build_operators, solve_state
        from gausscolloc.problem import RunningCost
        one = RunningCost(
            value=lambda X, U: np.ones(len(X)),
            grad_x=lambda X, U: np.zeros((len(X), 1)),
            grad_u=lambda X, U: np.zeros((len(X), 1)),
            hess_uu=lambda X, U: np.zeros((len(X), 1, 1)))
        # native domain [0, 1]: integral of 1 is its length
        prob = map_domain(augment_bolza(_hager_base(True), one), 0.0, 1.0)
        ops = build_operators(gauss_rule(8))
        X = solve_state(prob, ops, np.zeros((8, 1)))
        assert abs(prob.cost(X[-1]) - 1.0) <= 1e-12

    def test_objective_equals_quadrature_of_running_cost(self):
        from gausscolloc import build_operators, solve_state
        prob = builtin("hager84-constrained")
        rule = gauss_rule(10)
        ops = build_operators(rule)
        rng = np.random.default_rng(11)
        U = rng.uniform(-0.5, 1.0, (10, 1))
        X = solve_state(prob, ops, U)
        # z(1) must be the quadrature of the scaled integrand
        direct = 0.5 * sum(
            w * 0.5 * (x[0] ** 2 + u[0] ** 2)
            for w, x, u in zip(rule.weights, X[1:11], U))
        assert abs(prob.cost(X[-1]) - direct) <= 1e-10


class TestMapDomain:
    def test_identity_interval(self):
        prob = _linear_problem()
        mapped = map_domain(prob, -1.0, 1.0)
        x, u = np.array([[0.3, -0.2]]), np.array([[0.7]])
        np.testing.assert_allclose(mapped.dynamics(x, u),
                                   prob.dynamics(x, u), rtol=1e-15)

    def test_unit_interval_halves_dynamics(self):
        prob = _linear_problem()
        mapped = map_domain(prob, 0.0, 1.0)
        x, u = np.array([[0.3, -0.2], [1.5, 0.4]]), np.array([[0.7], [-2.0]])
        np.testing.assert_allclose(mapped.dynamics(x, u),
                                   0.5 * prob.dynamics(x, u), rtol=1e-15)
        np.testing.assert_allclose(mapped.dynamics_x(x, u),
                                   0.5 * prob.dynamics_x(x, u), rtol=1e-15)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            map_domain(_linear_problem(), 1.0, 1.0)
        with pytest.raises(ValueError):
            map_domain(_linear_problem(), 2.0, -1.0)

    def test_analytic_control_remap(self):
        # ceiling arc of the benchmark occupies the left half after mapping
        prob = builtin("hager84-constrained")
        tau = np.linspace(-1.0, 0.0, 21)
        np.testing.assert_array_equal(prob.analytic.control(tau),
                                      np.ones((21, 1)))


class TestBuiltin:
    def test_initial_state(self):
        prob = builtin("hager84-constrained")
        exact = (1.0 + 3.0 * np.e) / (2.0 * (1.0 - np.e))
        assert prob.x0[0] == exact
        np.testing.assert_allclose(prob.x0[0], -2.66395341, atol=5e-9)

    def test_control_on_the_ceiling(self):
        prob = builtin("hager84-constrained")
        # native t=0.25 maps to tau=-0.5
        assert prob.analytic.control(np.array([-0.5]))[0, 0] == 1.0

    def test_control_at_final_time(self):
        prob = builtin("hager84-constrained")
        assert abs(prob.analytic.control(np.array([1.0]))[0, 0]) <= 1e-15

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            builtin("hager84-typo")

    def test_unconstrained_variant(self):
        prob = builtin("hager84-unconstrained")
        assert prob.control_set.kind == "unconstrained"
        # interior optimal control exceeds no bound but differs from the
        # constrained one on the left half
        u = prob.analytic.control(np.array([-0.5]))[0, 0]
        assert u > 1.0

    @pytest.mark.parametrize("name", ["hager84-constrained",
                                      "hager84-unconstrained"])
    def test_analytic_solves_the_dynamics(self, name):
        # integrated form of xdot = f over 50 panels per smooth arc;
        # differentiation oracles carry O(N^2 eps) noise, quadrature does not
        prob = builtin(name)
        rule = gauss_rule(12)
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            edges = np.linspace(lo, hi, 51)
            ends = prob.analytic.state(edges)
            for k in range(50):
                a, b = edges[k], edges[k + 1]
                pts = a + (b - a) * (rule.nodes + 1.0) / 2.0
                X = prob.analytic.state(pts)
                U = prob.analytic.control(pts)
                F = prob.dynamics(X, U)
                integral = (b - a) / 2.0 * (rule.weights @ F)
                gap = ends[k + 1] - ends[k] - integral
                assert np.max(np.abs(gap)) <= 1e-12

    @pytest.mark.parametrize("name", ["hager84-constrained",
                                      "hager84-unconstrained"])
    def test_analytic_costate_equation(self, name):
        # lambdadot = -H_x along the optimum, arc by arc; the costate of
        # the appended integrator state is identically 1
        prob = builtin(name)
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            pts = lo + (hi - lo) * (gauss_rule(50).nodes + 1.0) / 2.0
            Dfull = differentiation_matrix(pts)
            X = prob.analytic.state(pts)
            U = prob.analytic.control(pts)
            L = prob.analytic.costate(pts)
            G = prob.ham_x(X, U, L)
            assert np.max(np.abs(Dfull @ L + G)) <= 1e-10

    @pytest.mark.parametrize("name", ["hager84-constrained",
                                      "hager84-unconstrained"])
    def test_analytic_minimum_principle(self, name):
        prob = builtin(name)
        tau = np.linspace(-1.0, 1.0, 101)
        X = prob.analytic.state(tau)
        U = prob.analytic.control(tau)
        L = prob.analytic.costate(tau)
        g = prob.ham_u(X, U, L)
        residual = U - prob.control_set.project(U - g)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_terminal_costate_matches_cost_gradient(self):
        prob = builtin("hager84-constrained")
        lam_end = prob.analytic.costate(np.array([1.0]))[0]
        x_end = prob.analytic.state(np.array([1.0]))[0]
        np.testing.assert_allclose(lam_end, prob.cost_grad(x_end), atol=1e-14)


class TestOptimalCost:
    @pytest.mark.parametrize("constrained,expected", [
        (True, 2.7939778111277835),
        (False, 2.702382742087184),
    ])
    def test_frozen_values(self, constrained, expected):
        assert hager_optimal_cost(constrained=constrained) == pytest.approx(
            expected, rel=1e-15)

    @pytest.mark.parametrize("name,constrained", [
        ("hager84-constrained", True),
        ("hager84-unconstrained", False),
    ])
    def test_against_quadrature_of_closed_forms(self, name, constrained):
        # independent check: integrate (x*^2 + u*^2)/2 arc by arc
        prob = builtin(name)
        rule = gauss_rule(40)
        total = 0.0
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            pts = lo + (hi - lo) * (rule.nodes + 1.0) / 2.0
            X = prob.analytic.state(pts)
            U = prob.analytic.control(pts)
            vals = 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2)
            # d(native t)/d(tau) = 1/2, times the arc half-width
            total += (hi - lo) / 2.0 * 0.5 * (rule.weights @ vals)
        np.testing.assert_allclose(total, hager_optimal_cost(constrained),
                                   rtol=1e-13)


class TestLinearizeAt:
    """The derivative blocks the solver reads: A = f_x, B = f_u, R = H_uu."""

    def test_benchmark_blocks_before_mapping(self):
        # with unit costate on the integrator state the classic matrices
        # appear in the leading blocks: A=0, B=1, R=1
        prob = augment_bolza(_hager_base(True), _HAGER_RUNNING)
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.uniform(-3.0, 0.0, 5), rng.uniform(0.0, 2.0, 5)])
        U = rng.uniform(-1.0, 1.0, (5, 1))
        Lam = np.column_stack([rng.standard_normal(5), np.ones(5)])
        assert np.all(prob.dynamics_x(X, U)[:, 0, 0] == 0.0)
        assert np.all(prob.dynamics_u(X, U)[:, 0, 0] == 1.0)
        assert np.all(prob.ham_hess_uu(X, U, Lam)[:, 0, 0] == 1.0)

    def test_linear_dynamics_constant_jacobians(self):
        prob = _linear_problem()
        rng = np.random.default_rng(6)
        X, U = rng.standard_normal((4, 2)), rng.standard_normal((4, 1))
        A, B = prob.dynamics_x(X, U), prob.dynamics_u(X, U)
        for k in range(1, 4):
            np.testing.assert_array_equal(A[k], A[0])
            np.testing.assert_array_equal(B[k], B[0])

    def test_hessian_symmetry(self):
        prob = builtin("hager84-constrained")
        rng = np.random.default_rng(7)
        R = prob.ham_hess_uu(rng.standard_normal((5, 2)),
                             rng.standard_normal((5, 1)), rng.standard_normal((5, 2)))
        np.testing.assert_allclose(R, R.transpose(0, 2, 1), atol=1e-12)


class TestAuditDerivatives:
    def test_builtin_passes(self):
        assert audit_derivatives(builtin("hager84-constrained")) == 8

    def test_detects_wrong_jacobian(self):
        good = _linear_problem()
        bad = dataclasses.replace(
            good, dynamics_x=lambda x, u: good.dynamics_x(x, u) + 0.01)
        with pytest.raises(EvaluationFailure):
            audit_derivatives(bad)
