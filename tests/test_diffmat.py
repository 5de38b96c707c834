"""Differentiation matrices, the trailing block's inverse, and the norm checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import legendre

from gausscolloc import (CollocationOperators, build_operators, builtin, check_P1,
                         check_P2, diffmat, gauss_rule, radau_rule, solve)
from gausscolloc.cli import main
from gausscolloc.diffmat import (barycentric_matrix, barycentric_weights,
                                 differentiation_matrix)
from gausscolloc.errors import DimensionMismatch
from gausscolloc.quadrature import gauss_rules, radau_rules


def _support(rule):
    return np.concatenate(([-1.0], rule.nodes))


def _adjoint_support(rule):
    return np.concatenate((rule.nodes, [1.0]))


def _bits(a):
    return a.view(np.int64)


def _per_point_weights(points):
    """The barycentric weights as one product per point, along each row of
    the doubled differences: the reference for the row-wise product."""
    diff = 2.0 * np.subtract.outer(points, points)
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


class TestBarycentric:
    def test_weights_two_points(self):
        # {-1, 0}: w_j = 1/prod(x_j - x_k), scaling cancels in all uses
        w = barycentric_weights(np.array([-1.0, 0.0]))
        assert w[0] == -w[1]

    def test_weights_match_per_point_products_on_every_support(self):
        # each point's factors are multiplied in the same order, so the
        # row-wise product has the same bits on every Gauss and Radau support
        rules = gauss_rules(range(1, 1001)) + radau_rules(range(1, 1001))
        mismatched = [(rule.kind, rule.order) for rule in rules
                      if not np.array_equal(_bits(barycentric_weights(_support(rule))),
                                            _bits(_per_point_weights(_support(rule))))]
        assert mismatched == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), start=st.floats(-1.0, 1.0),
           gaps=st.lists(st.floats(1e-3, 0.25), max_size=39))
    def test_weights_match_per_point_products_on_distinct_points(self, data, start, gaps):
        pts = start + np.cumsum([0.0, *gaps])
        pts = pts[data.draw(st.permutations(range(pts.size)))]
        np.testing.assert_array_equal(_bits(barycentric_weights(pts)),
                                      _bits(_per_point_weights(pts)))

    def test_matrix_reproduces_exact_hits(self):
        nodes = np.array([-1.0, -0.2, 0.7])
        B = barycentric_matrix(nodes, nodes)
        np.testing.assert_array_equal(B, np.eye(3))
        # a subnormal distance overflows w_j / (t - x_j): still one-hot
        B = barycentric_matrix(np.array([-1.0, 0.0]), np.array([5e-324, -0.0]))
        np.testing.assert_array_equal(B, [[0.0, 1.0], [0.0, 1.0]])

    def test_rejects_times_of_two_dimensions(self):
        # row sums over the wrong axis gave wrong values, and a node hit an IndexError
        nodes = np.array([-1.0, -0.2, 0.7])
        for t in (np.linspace(-0.9, 0.9, 6).reshape(2, 3), np.array([[-1.0, 0.0], [0.7, 0.2]])):
            with pytest.raises(DimensionMismatch, match=r"scalar or 1-d, got shape \(2, "):
                barycentric_matrix(nodes, t)

    def test_interpolates_quadratic(self):
        nodes = np.array([-1.0, 0.0, 1.0])
        t = np.linspace(-1.0, 1.0, 41)
        vals = barycentric_matrix(nodes, t) @ nodes**2
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
        B = barycentric_matrix(support, t)
        got = B @ node_values
        lebesgue = np.abs(B).sum(axis=1)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        bound = 4 * (N + 2) * eps * (1.0 + lebesgue) * np.sum(np.abs(c)) + tiny
        assert np.all(np.abs(got - legendre.legval(t, c)) <= bound)
        np.testing.assert_array_equal(
            barycentric_matrix(support, support) @ node_values, node_values)

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
        # both sides: the solver's J and J^T solves multiply by the inverse and by its transpose
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


class TestOperatorCache:
    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(1, 64))
    def test_one_shared_read_only_build_per_order(self, N):
        ops = build_operators(gauss_rule(N))
        assert build_operators(gauss_rule(N)) is ops
        for arr in (ops.D, ops.D_dagger, ops.D1N_inv):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    @settings(max_examples=20, deadline=None)
    @given(orders=st.lists(st.integers(1, 64), min_size=5, max_size=5, unique=True))
    def test_evicted_order_is_rebuilt_equal(self, orders):
        first = build_operators(gauss_rule(orders[0]))
        for N in orders[1:]:
            build_operators(gauss_rule(N))
        # four later orders fill the cache, so the first is built again
        again = build_operators(gauss_rule(orders[0]))
        assert again is not first and again.rule is first.rule
        for name in ("D", "D_dagger", "D1N_inv"):
            assert np.array_equal(getattr(again, name), getattr(first, name))

    @settings(max_examples=20, deadline=None)
    @given(N=st.integers(1, 64))
    def test_D_dagger_is_built_on_first_read(self, N):
        rule = gauss_rule(N)
        build_operators.cache_clear()
        ops = build_operators(rule)
        check_P1(ops)
        check_P2(ops)
        assert "D_dagger" not in vars(ops)
        w, block = rule.weights, ops.D[:, 1:]
        want = np.empty((N, N + 1))
        want[:, :N] = -(w[None, :] / w[:, None]) * block.T
        want[:, N] = -np.sum(want[:, :N], axis=1)
        first = ops.D_dagger
        assert not first.flags.writeable
        np.testing.assert_array_equal(_bits(first), _bits(want))
        assert ops.D_dagger is first and vars(ops)["D_dagger"] is first

    @settings(max_examples=20, deadline=None)
    @given(N=st.integers(1, 64))
    def test_D_is_built_on_first_read(self, N):
        # the first read of the inverse builds D, once, for both
        rule = gauss_rule(N)
        build_operators.cache_clear()
        ops = build_operators(rule)
        assert not {"D", "D1N_inv", "D_dagger"} & set(vars(ops))
        inv = ops.D1N_inv
        first = vars(ops)["D"]
        want = differentiation_matrix(np.concatenate(([-1.0], rule.nodes)))[1:, :]
        assert not first.flags.writeable
        np.testing.assert_array_equal(_bits(first), _bits(want))
        np.testing.assert_array_equal(_bits(inv), _bits(np.linalg.inv(want[:, 1:])))
        assert ops.D is first and ops.D1N_inv is inv

    def test_props_leaves_the_operator_cache_empty(self, capsys):
        build_operators.cache_clear()
        assert main(["props", "--n-max", "5"]) == 0
        capsys.readouterr()
        info = build_operators.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_radau_operators_have_no_D_dagger(self):
        # the appendix1 table reads D and its inverse on Radau nodes, which
        # carry no weights
        ops = CollocationOperators(radau_rule(8))
        assert ops.D.shape == (8, 9) and ops.D1N_inv.shape == (8, 8)
        np.testing.assert_allclose(ops.D[:, 1:] @ ops.D1N_inv, np.eye(8), atol=1e-12)
        with pytest.raises(ValueError, match="weights"):
            ops.D_dagger

    @pytest.mark.parametrize("name", ["hager84-constrained", "hager84-unconstrained"])
    def test_cold_solve_builds_D_once(self, monkeypatch, name):
        calls = []

        def counted(points):
            calls.append(len(points))
            return differentiation_matrix(points)

        problem = builtin(name)
        build_operators.cache_clear()
        monkeypatch.setattr(diffmat, "differentiation_matrix", counted)
        assert solve(problem, 40).converged
        assert calls == [41]

    @settings(max_examples=10, deadline=None)
    @given(N=st.integers(1, 64))
    def test_radau_rule_is_still_rejected(self, N):
        for _ in range(2):
            with pytest.raises(ValueError, match="Gauss rule"):
                build_operators(radau_rule(N))

    @pytest.mark.parametrize("name", ["hager84-constrained", "hager84-unconstrained"])
    def test_cold_and_warm_cache_solve_agree_bit_for_bit(self, name):
        problem = builtin(name)
        build_operators.cache_clear()
        cold = solve(problem, 12)
        warm = solve(problem, 12)
        assert build_operators.cache_info().hits >= 1
        for field in ("X", "U", "Lambda"):
            assert np.array_equal(getattr(cold.traj, field), getattr(warm.traj, field))
        assert (cold.y_norm, cold.objective, cold.outer_iters, cold.objective_history) \
            == (warm.y_norm, warm.objective, warm.outer_iters, warm.objective_history)


class TestSolveD1N:
    """Solves with the trailing block D[:, 1:] and its transpose are products
    with the stored inverse ``D1N_inv``."""

    def test_order_one(self):
        ops = build_operators(gauss_rule(1))
        np.testing.assert_allclose(ops.D1N_inv @ np.array([3.0]), [3.0], atol=1e-15)

    @pytest.mark.parametrize("N", [2, 7, 31])
    def test_round_trip(self, N):
        rng = np.random.default_rng(500 + N)
        ops = build_operators(gauss_rule(N))
        rhs = rng.standard_normal((N, 3))
        np.testing.assert_allclose(ops.D[:, 1:] @ (ops.D1N_inv @ rhs), rhs, atol=1e-11)

    @pytest.mark.parametrize("N", [2, 7, 31])
    def test_transposed_round_trip(self, N):
        rng = np.random.default_rng(600 + N)
        ops = build_operators(gauss_rule(N))
        rhs = rng.standard_normal((N, 2))
        np.testing.assert_allclose(ops.D[:, 1:].T @ (ops.D1N_inv.T @ rhs), rhs, atol=1e-11)

    def test_first_column_identity(self):
        # D_{1:N}^{-1} D_0 = -1 for every order; checked at N=5
        ops = build_operators(gauss_rule(5))
        np.testing.assert_allclose(ops.D1N_inv @ ops.D[:, :1], -np.ones((5, 1)), atol=1e-11)


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
