"""Quadrature rules: Legendre evaluation, Gauss/Radau nodes, integration."""

from functools import lru_cache
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_jacobi

from gausscolloc import gauss_rule, quadrature, radau_rule
from gausscolloc.errors import IterationFailure
from gausscolloc.quadrature import (ROOT_MAX_ITER, ROOT_TOL, _legendre_body, _newton_roots,
                                    gauss_rules, legendre_table, radau_rules)


class TestLegendreEval:
    # _legendre_body takes one degree per point, at points inside (-1, 1)
    def test_degree_zero(self):
        val, der = _legendre_body(np.array([0]), np.array([0.3]))
        assert (val[0], der[0]) == (1.0, 0.0)

    def test_degree_one(self):
        val, der = _legendre_body(np.array([1]), np.array([0.3]))
        assert (val[0], der[0]) == (0.3, 1.0)

    def test_vector_argument(self):
        t = np.linspace(-1.0, 1.0, 9)[1:-1]
        val, der = _legendre_body(np.full(t.size, 2), t)
        np.testing.assert_allclose(val, (3 * t**2 - 1) / 2, atol=1e-15)
        np.testing.assert_allclose(der, 3 * t, atol=1e-15)

    def test_tables_match_pointwise_eval(self):
        t = np.linspace(-1.0, 1.0, 13)[1:-1]
        P = legendre_table(8, t)
        for k in range(9):
            np.testing.assert_allclose(P[k], _legendre_body(np.full(t.size, k), t)[0],
                                       atol=1e-14)


def _textbook_legendre(degree, x):
    """P_degree and P_degree' by the plain three-term recurrence."""
    pm1, p = np.ones_like(x), x.copy()
    if degree == 0:
        return pm1, np.zeros_like(x)
    for k in range(1, degree):
        pm1, p = p, ((2 * k + 1) * x * p - k * pm1) / (k + 1)
    if degree == 1:
        return p, np.ones_like(x)
    at_end = np.abs(x) == 1.0
    dp = degree * (pm1 - x * p) / np.where(at_end, 1.0, (1.0 - x) * (1.0 + x))
    end_val = np.sign(x) ** (degree - 1) * degree * (degree + 1) / 2.0
    return p, np.where(at_end, end_val, dp)


def _textbook_gauss_nodes(N):
    """Gauss nodes by safeguarded Newton on the textbook recurrence, with the
    guesses, stopping rule and symmetrization that gauss_rule documents."""
    i = np.arange(1, N + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * N + 2))
    for _ in range(ROOT_MAX_ITER):
        p, dp = _textbook_legendre(N, x)
        xn = x - p / dp
        outside = np.abs(xn) >= 1.0
        while np.any(outside):
            xn = np.where(outside, 0.5 * (x + xn), xn)
            outside = np.abs(xn) >= 1.0
        done = np.max(np.abs(xn - x)) <= ROOT_TOL
        x = xn
        if done:
            break
    x = np.sort(x)
    return 0.5 * (x - x[::-1])


@lru_cache(maxsize=None)
def _textbook_gauss_rule(N):
    """Textbook nodes with weights 2 / ((1 - x^2) P_N'(x)^2), read-only."""
    x = _textbook_gauss_nodes(N)
    _, dp = _textbook_legendre(N, x)
    w = 2.0 / (((1.0 - x) * (1.0 + x)) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


_INTERIOR = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 400),
       pts=arrays(float, st.integers(0, 30), elements=_INTERIOR))
def test_in_place_recurrences_are_bit_identical_to_textbook(degree, pts):
    p, dp = _textbook_legendre(degree, pts)
    got_p, got_dp = _legendre_body(np.full(pts.size, degree), pts)
    np.testing.assert_array_equal(got_p, p)
    np.testing.assert_array_equal(got_dp, dp)
    # the table also takes both ends
    x = np.concatenate([[-1.0, 1.0], pts])
    np.testing.assert_array_equal(legendre_table(degree, x)[-1],
                                  _textbook_legendre(degree, x)[0])
    if degree >= 1:
        np.testing.assert_array_equal(gauss_rule(degree).nodes,
                                      _textbook_gauss_nodes(degree))


@settings(max_examples=40, deadline=None)
@given(degrees=st.lists(st.integers(0, 60), min_size=1, max_size=12),
       data=st.data())
def test_recurrence_with_one_degree_per_point_matches_textbook(degrees, data):
    # points of several degrees in one sweep, degree 0 and 1 included
    deg = np.sort(np.array(degrees))
    x = data.draw(arrays(float, deg.size, elements=_INTERIOR))
    p, dp = _legendre_body(deg, x)
    for i, n in enumerate(deg):
        want_p, want_dp = _textbook_legendre(int(n), x[i:i + 1])
        assert (p[i], dp[i]) == (want_p[0], want_dp[0])


@settings(max_examples=25, deadline=None)
@given(orders=st.lists(st.integers(1, 400), min_size=1, max_size=8))
@example(orders=[400, 5, 400])
def test_batched_rules_are_bit_identical_to_textbook(orders):
    # a fresh cache, so every distinct order is built in the one batched sweep;
    # in the example, order 400 stops a sweep before order 5 does
    with mock.patch.dict(quadrature._RULES, clear=True):
        rules = gauss_rules(orders)
        assert [rule.order for rule in rules] == orders
        for N, rule in zip(orders, rules):
            nodes, weights = _textbook_gauss_rule(N)
            np.testing.assert_array_equal(rule.nodes, nodes)
            np.testing.assert_array_equal(rule.weights, weights)
            assert rule is gauss_rule(N)
            assert not (rule.nodes.flags.writeable or rule.weights.flags.writeable)


def _bits(a):
    return a.view(np.uint64)


@settings(max_examples=25, deadline=None)
@given(orders=st.lists(st.integers(1, 400), min_size=1, max_size=8))
@example(orders=[400, 1, 2, 400])
def test_batched_radau_rules_are_bit_identical_to_one_order_builds(orders):
    # each order alone from an empty cache, then every distinct order in one
    # batched sweep from an empty cache; order 1 has no interior node to sweep
    alone = {}
    for N in set(orders):
        with mock.patch.dict(quadrature._RULES, clear=True):
            alone[N] = radau_rule(N).nodes
    with mock.patch.dict(quadrature._RULES, clear=True):
        rules = radau_rules(orders)
        assert [rule.order for rule in rules] == orders
        for N, rule in zip(orders, rules):
            np.testing.assert_array_equal(_bits(rule.nodes), _bits(alone[N]))
            assert rule.weights is None
            assert rule is radau_rule(N)
            assert not rule.nodes.flags.writeable


@pytest.mark.parametrize("build", [gauss_rules, radau_rules], ids=["gauss", "radau"])
class TestBatchedRules:
    @pytest.mark.parametrize("orders", [[], [0], [3, 0, 5], [-2]])
    def test_rejects_an_empty_set_or_an_order_below_one(self, build, orders):
        with pytest.raises(ValueError):
            build(orders)

    def test_sweep_budget_exhausted_raises(self, monkeypatch, build):
        monkeypatch.setattr(quadrature, "_RULES", {})
        monkeypatch.setattr(quadrature, "ROOT_MAX_ITER", 1)
        with pytest.raises(IterationFailure):
            build([5, 40])
        assert quadrature._RULES == {}


def test_newton_step_leaving_the_interval_is_halved_back():
    # tanh(8(x - 1/2)) is flat at -0.9: the first Newton step lands near 1.7e8,
    # a safeguard no Gauss order up to 3000 and no Radau order up to 2000 reaches
    seen = []

    def body(n, x):
        seen.append(x.copy())
        t = np.tanh(8.0 * (x - 0.5))
        return t, 8.0 * (1.0 - t * t)

    x0 = np.array([-0.9])
    p, dp = body(None, x0)
    assert x0 - p / dp > 1e8
    root = _newton_roots(body, [1], x0)
    assert abs(root[0] - 0.5) <= ROOT_TOL
    assert all(np.abs(x).max() < 1.0 for x in seen)


class TestGaussRule:
    def test_order_one(self):
        rule = gauss_rule(1)
        np.testing.assert_array_equal(rule.nodes, [0.0])
        np.testing.assert_array_equal(rule.weights, [2.0])

    def test_order_two(self):
        rule = gauss_rule(2)
        # correctly rounded binary64 of 1/sqrt(3)
        assert rule.nodes[1] == 0.57735026918962573
        assert rule.nodes[0] == -rule.nodes[1]
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-15)

    def test_metadata(self):
        rule = gauss_rule(6)
        assert rule.kind == "gauss"
        assert rule.order == 6
        assert not rule.nodes.flags.writeable

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 10, 37, 100, 300])
    def test_rule_invariants(self, N):
        rule = gauss_rule(N)
        assert abs(np.sum(rule.weights) - 2.0) <= 1e-13
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all((rule.nodes > -1.0) & (rule.nodes < 1.0))
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)

    @pytest.mark.parametrize("N", [2, 5, 20, 100, 300])
    def test_nodes_are_legendre_roots(self, N):
        # Newton correction |P_N / P_N'| measures distance to the true root;
        # the raw residual P_N(tau_i) scales with P_N' and is not O(eps).
        rule = gauss_rule(N)
        val, der = _textbook_legendre(N, rule.nodes)
        assert np.max(np.abs(val / der)) <= 1e-13

    @pytest.mark.parametrize("N", [2, 5, 20, 100])
    def test_weight_formula(self, N):
        rule = gauss_rule(N)
        _, der = _textbook_legendre(N, rule.nodes)
        expected = 2.0 / ((1.0 - rule.nodes) * (1.0 + rule.nodes) * der**2)
        np.testing.assert_allclose(rule.weights, expected, rtol=1e-14)


class TestRadauRule:
    def test_order_one(self):
        rule = radau_rule(1)
        np.testing.assert_array_equal(rule.nodes, [1.0])
        assert rule.weights is None

    def test_order_two(self):
        rule = radau_rule(2)
        # root of P_1^{(1,0)}(t) = (3t+1)/2, correctly rounded binary64
        assert rule.nodes[0] == -0.33333333333333331
        assert rule.nodes[1] == 1.0

    def test_order_four_ordering(self):
        rule = radau_rule(4)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[-1] == 1.0
        assert rule.kind == "radau"

    def test_a_true_order_is_the_int_one(self):
        # True == 1 as a cache key: start from an empty cache, so True builds the rule
        with mock.patch.dict(quadrature._RULES, clear=True):
            for build in (gauss_rule, radau_rule):
                order = build(True).order
                assert type(order) is int and order == 1

    @pytest.mark.parametrize("N", [2.5, np.float64(3.0)], ids=["float", "float64"])
    @pytest.mark.parametrize("build", [gauss_rule, radau_rule], ids=["gauss", "radau"])
    def test_a_float_order_is_refused_as_gauss_rules_refuses_it(self, build, N):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(N)

    @pytest.mark.parametrize("N", [0, -3])
    def test_an_order_below_one_is_refused(self, N):
        with pytest.raises(ValueError, match="order must be >= 1"):
            radau_rule(N)

    @pytest.mark.parametrize("N", [2, 3, 5, 10, 20, 64])
    def test_interior_nodes_are_jacobi_roots(self, N):
        rule = radau_rule(N)
        residual = eval_jacobi(N - 1, 1, 0, rule.nodes[:-1])
        assert np.max(np.abs(residual)) <= 1e-12

    @pytest.mark.parametrize("N", [2, 16, 64, 238])
    def test_interior_nodes_match_40_digit_roots(self, N):
        # Newton on r = q / (1 - t), q = P_{N-1} - P_N, in 40-digit arithmetic
        # by the plain Legendre recurrence, with P_{k+1}' = P_{k-1}' + (2k+1) P_k,
        # started from each node: within 1.1e-16 (at most 6.3e-17 so far)
        def newton_step(t):
            pm1, p, dpm1, dp = 1, t, 0, 1
            for k in range(1, N):
                pm1, p, dpm1, dp = (p, ((2 * k + 1) * t * p - k * pm1) / (k + 1),
                                    dp, dpm1 + (2 * k + 1) * p)
            q, dq = pm1 - p, dpm1 - dp
            return q * (1 - t) / (dq * (1 - t) + q)     # r / r'

        interior = radau_rule(N).nodes[:-1]
        roots = []
        with mpmath.workdps(40):
            for x in interior:
                t = mpmath.mpf(float(x))
                for _ in range(20):
                    step = newton_step(t)
                    t -= step
                    if abs(step) < mpmath.mpf(10) ** -38:
                        break
                assert abs(step) < mpmath.mpf(10) ** -38
                roots.append(t)
            assert all(a < b for a, b in zip(roots, roots[1:]))
            assert max(abs(mpmath.mpf(float(x)) - r) for x, r in zip(interior, roots)) <= 1.1e-16


class TestIntegrate:
    def test_constant(self):
        rule = gauss_rule(3)
        assert abs(rule.weights @ np.ones(3) - 2.0) <= 1e-13

    def test_odd_quintic(self):
        rule = gauss_rule(3)
        assert abs(rule.weights @ rule.nodes**5) <= 1e-15

    def test_quadratic(self):
        rule = gauss_rule(2)
        assert abs(rule.weights @ rule.nodes**2 - 2.0 / 3.0) <= 1e-15

    @pytest.mark.parametrize("N", [1, 2, 4, 9, 16])
    def test_polynomial_exactness(self, N):
        # exact on P_{2N-1}: compare against the monomial integrals
        rng = np.random.default_rng(125 + N)
        rule = gauss_rule(N)
        powers = np.arange(2 * N)
        exact_monomials = np.where(powers % 2 == 0, 2.0 / (powers + 1), 0.0)
        for _ in range(20):
            coeff = rng.uniform(-1.0, 1.0, 2 * N)
            samples = np.polynomial.polynomial.polyval(rule.nodes, coeff)
            exact = coeff @ exact_monomials
            err = abs(rule.weights @ samples - exact)
            assert err <= 1e-12 * max(1.0, abs(exact))
