"""Differentiation matrices, trailing-block solves, and the norm checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import legendre

from gausscolloc import build_operators, check_P1, check_P2, gauss_rule, solve_D1N
from gausscolloc.diffmat import (barycentric_interpolate, barycentric_matrix,
                                 barycentric_weights, differentiation_matrix)
from gausscolloc.errors import DimensionMismatch


def _support(rule):
    return np.concatenate(([-1.0], rule.nodes))


def _adjoint_support(rule):
    return np.concatenate((rule.nodes, [1.0]))


class TestBarycentric:
    def test_weights_two_points(self):
        # {-1, 0}: w_j = 1/prod(x_j - x_k), scaling cancels in all uses
        w = barycentric_weights(np.array([-1.0, 0.0]))
        assert w[0] == -w[1]

    def test_matrix_reproduces_exact_hits(self):
        nodes = np.array([-1.0, -0.2, 0.7])
        B = barycentric_matrix(nodes, nodes)
        np.testing.assert_array_equal(B, np.eye(3))
        # a subnormal distance overflows w_j / (t - x_j): still one-hot
        B = barycentric_matrix(np.array([-1.0, 0.0]), np.array([5e-324, -0.0]))
        np.testing.assert_array_equal(B, [[0.0, 1.0], [0.0, 1.0]])

    def test_interpolates_quadratic(self):
        nodes = np.array([-1.0, 0.0, 1.0])
        t = np.linspace(-1.0, 1.0, 41)
        vals = barycentric_interpolate(nodes, nodes**2, t)
        np.testing.assert_allclose(vals, t**2, atol=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), N=st.integers(1, 60))
    def test_reproduces_polynomials_on_collocation_support(self, data, N):
        # a Legendre series of degree <= N is its own interpolant on the
        # N + 1 points {-1, tau_1..tau_N}.  Bound: the second barycentric
        # form errs by (3N + 4) u lambda(t) max|f| (Higham 2004), the node
        # values carry their own Clenshaw error times lambda(t), and the
        # reference value at t its own; every term is O(N u sum|c|), with
        # lambda(t) the Lebesgue function sum_j |l_j(t)|; tiny covers
        # subnormal coefficients
        support = _support(gauss_rule(N))
        degree = data.draw(st.integers(0, N))
        c = data.draw(arrays(float, degree + 1, elements=st.floats(-1.0, 1.0)))
        t = data.draw(arrays(float, st.integers(1, 20), elements=st.floats(-1.0, 1.0)))
        node_values = legendre.legval(support, c)
        got = barycentric_interpolate(support, node_values, t)
        lebesgue = np.abs(barycentric_matrix(support, t)).sum(axis=1)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        bound = 4 * (N + 2) * eps * (1.0 + lebesgue) * np.sum(np.abs(c)) + tiny
        assert np.all(np.abs(got - legendre.legval(t, c)) <= bound)
        np.testing.assert_array_equal(
            barycentric_interpolate(support, node_values, support), node_values)

    def test_matrix_rows_sum_to_one(self):
        rule = gauss_rule(12)
        B = barycentric_matrix(_support(rule), np.linspace(-1.0, 1.0, 33))
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-13)

    def test_differentiation_matrix_square(self):
        pts = np.array([-1.0, 0.0, 1.0])
        Dfull = differentiation_matrix(pts)
        # derivative of t^2 at the three points
        np.testing.assert_allclose(Dfull @ pts**2, 2 * pts, atol=1e-14)


class TestBuildOperators:
    def test_order_one_matrix(self):
        ops = build_operators(gauss_rule(1))
        np.testing.assert_allclose(ops.D, [[-1.0, 1.0]], atol=1e-15)

    def test_order_one_annihilates_constants(self):
        ops = build_operators(gauss_rule(1))
        np.testing.assert_array_equal(ops.D @ np.array([3.7, 3.7]), [0.0])

    def test_order_two_differentiates_square(self):
        rule = gauss_rule(2)
        ops = build_operators(rule)
        p = _support(rule) ** 2
        np.testing.assert_allclose(ops.D @ p, 2 * rule.nodes, atol=1e-13)

    @pytest.mark.parametrize("N", [1, 7, 60, 320])
    def test_stores_read_only_trailing_inverse(self, N):
        # both sides: solve_D1N multiplies by the inverse and by its transpose
        ops = build_operators(gauss_rule(N))
        block = ops.D[:, 1:]
        np.testing.assert_allclose(block @ ops.D1N_inv, np.eye(N), atol=1e-12)
        np.testing.assert_allclose(block.T @ ops.D1N_inv.T, np.eye(N), atol=1e-12)
        assert not ops.D1N_inv.flags.writeable

    def test_inverse_at_largest_cli_order_is_finite_and_bounded(self):
        ops = build_operators(gauss_rule(1000))
        assert np.all(np.isfinite(ops.D1N_inv))
        assert check_P1(ops).passed

    @pytest.mark.parametrize("N", [1, 2, 5, 20, 80, 300])
    def test_row_sums_vanish(self, N):
        # entries grow like N^2, so allow the summation's own rounding
        ops = build_operators(gauss_rule(N))
        noise = np.finfo(float).eps * np.sum(np.abs(ops.D), axis=1)
        assert np.all(np.abs(ops.D.sum(axis=1)) <= 1e-12 + noise)

    @pytest.mark.parametrize("N", [2, 6, 24, 96])
    def test_differentiation_exactness(self, N):
        rng = np.random.default_rng(300 + N)
        rule = gauss_rule(N)
        ops = build_operators(rule)
        pts = _support(rule)
        coeff = rng.uniform(-1.0, 1.0, N + 1)
        vals = np.polynomial.polynomial.polyval(pts, coeff)
        dvals = np.polynomial.polynomial.polyval(
            rule.nodes, np.polynomial.polynomial.polyder(coeff))
        scale = max(1.0, np.max(np.abs(dvals)))
        assert np.max(np.abs(ops.D @ vals - dvals)) <= 1e-11 * scale

    @pytest.mark.parametrize("N", [2, 6, 24, 96])
    def test_adjoint_differentiation_exactness(self, N):
        rng = np.random.default_rng(400 + N)
        rule = gauss_rule(N)
        ops = build_operators(rule)
        pts = _adjoint_support(rule)
        coeff = rng.uniform(-1.0, 1.0, N + 1)
        vals = np.polynomial.polynomial.polyval(pts, coeff)
        dvals = np.polynomial.polynomial.polyval(
            rule.nodes, np.polynomial.polynomial.polyder(coeff))
        scale = max(1.0, np.max(np.abs(dvals)))
        assert np.max(np.abs(ops.D_dagger @ vals - dvals)) <= 1e-11 * scale

    @pytest.mark.parametrize("N", [1, 3, 11, 40])
    def test_adjoint_matrix_against_direct_construction(self, N):
        # independent oracle: barycentric differentiation on {tau, +1},
        # rows restricted to the collocation points
        rule = gauss_rule(N)
        ops = build_operators(rule)
        Dfull = differentiation_matrix(_adjoint_support(rule))
        direct = Dfull[:N, :]
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(ops.D_dagger - direct)) <= 1e-10 * scale

    def test_weight_identity_between_matrices(self):
        # D_ij = -(w_j/w_i) Ddag_ji on the shared interior block
        rule = gauss_rule(9)
        ops = build_operators(rule)
        w = rule.weights
        lhs = ops.D[:, 1:]
        rhs = -(w[None, :] / w[:, None]) * ops.D_dagger[:, :9].T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(lhs)))


class TestSolveD1N:
    def test_order_one(self):
        ops = build_operators(gauss_rule(1))
        np.testing.assert_allclose(solve_D1N(ops, np.array([3.0])), [3.0],
                                   atol=1e-15)

    @pytest.mark.parametrize("N", [2, 7, 31])
    def test_round_trip(self, N):
        rng = np.random.default_rng(500 + N)
        ops = build_operators(gauss_rule(N))
        rhs = rng.standard_normal((N, 3))
        sol = solve_D1N(ops, rhs)
        np.testing.assert_allclose(ops.D[:, 1:] @ sol, rhs, atol=1e-11)

    @pytest.mark.parametrize("N", [2, 7, 31])
    def test_transposed_round_trip(self, N):
        rng = np.random.default_rng(600 + N)
        ops = build_operators(gauss_rule(N))
        rhs = rng.standard_normal((N, 2))
        sol = solve_D1N(ops, rhs, transposed=True)
        np.testing.assert_allclose(ops.D[:, 1:].T @ sol, rhs, atol=1e-11)

    def test_first_column_identity(self):
        # D_{1:N}^{-1} D_0 = -1 for every order; checked at N=5
        ops = build_operators(gauss_rule(5))
        sol = solve_D1N(ops, ops.D[:, :1])
        np.testing.assert_allclose(sol, -np.ones((5, 1)), atol=1e-11)

    def test_dimension_check(self):
        ops = build_operators(gauss_rule(4))
        with pytest.raises(DimensionMismatch):
            solve_D1N(ops, np.ones(5))


class TestNormChecks:
    def test_p1_order_one(self):
        report = check_P1(build_operators(gauss_rule(1)))
        assert report.norm_inf == 1.0
        assert report.passed

    def test_p1_order_two(self):
        report = check_P1(build_operators(gauss_rule(2)))
        assert report.norm_inf <= 2.0 + 1e-10
        assert report.passed

    def test_p2_order_one(self):
        report = check_P2(build_operators(gauss_rule(1)))
        np.testing.assert_allclose(report.max_row_norm, 1.0 / np.sqrt(2.0),
                                   rtol=1e-14)
        assert report.passed

    @pytest.mark.parametrize("N", [1, 2, 3, 10, 50])
    def test_both_pass_and_are_consistent(self, N):
        ops = build_operators(gauss_rule(N))
        p1 = check_P1(ops)
        p2 = check_P2(ops)
        assert p1.passed and p2.passed
        # (P2) implies (P1): the inf-norm cannot exceed 2 when P2 holds
        assert p1.norm_inf <= 2.0 + 1e-10

    def test_last_row_gap_shrinks(self):
        gap20 = check_P2(build_operators(gauss_rule(20))).last_row_gap
        gap200 = check_P2(build_operators(gauss_rule(200))).last_row_gap
        assert gap200 < gap20
