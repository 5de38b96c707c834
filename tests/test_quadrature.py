"""Quadrature rules: Legendre evaluation, Gauss/Radau nodes, integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_jacobi

from gausscolloc import gauss_rule, integrate, radau_rule
from gausscolloc.errors import DimensionMismatch
from gausscolloc.quadrature import (ROOT_MAX_ITER, ROOT_TOL, _legendre_body,
                                    legendre_deriv_table, legendre_eval,
                                    legendre_table)


class TestLegendreEval:
    def test_degree_zero(self):
        assert legendre_eval(0, 0.3) == (1.0, 0.0)

    def test_degree_one(self):
        assert legendre_eval(1, 0.3) == (0.3, 1.0)

    def test_degree_two_at_right_endpoint(self):
        # P_2 = (3t^2 - 1)/2, P_2' = 3t
        assert legendre_eval(2, 1.0) == (1.0, 3.0)

    @pytest.mark.parametrize("degree", [1, 2, 5, 17, 40])
    def test_endpoint_identities(self, degree):
        val, der = legendre_eval(degree, 1.0)
        assert val == 1.0
        assert der == degree * (degree + 1) / 2.0

    def test_vector_argument(self):
        t = np.linspace(-1.0, 1.0, 7)
        val, der = legendre_eval(2, t)
        np.testing.assert_allclose(val, (3 * t**2 - 1) / 2, atol=1e-15)
        np.testing.assert_allclose(der, 3 * t, atol=1e-15)

    def test_tables_match_pointwise_eval(self):
        t = np.linspace(-1.0, 1.0, 11)
        P = legendre_table(8, t)
        P2, dP = legendre_deriv_table(8, t)
        np.testing.assert_array_equal(P, P2)
        for k in range(9):
            val, der = legendre_eval(k, t)
            np.testing.assert_allclose(P[k], val, atol=1e-14)
            np.testing.assert_allclose(dP[k], der, atol=2e-13)


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


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 400),
       pts=arrays(float, st.integers(0, 30), elements=st.floats(-1.0, 1.0)))
def test_in_place_recurrences_are_bit_identical_to_textbook(degree, pts):
    x = np.concatenate([[-1.0, 1.0], pts])
    p, dp = _textbook_legendre(degree, x)
    for got_p, got_dp in (legendre_eval(degree, x), _legendre_body(degree, x)):
        np.testing.assert_array_equal(got_p, p)
        np.testing.assert_array_equal(got_dp, dp)
    np.testing.assert_array_equal(legendre_table(degree, x)[-1], p)
    if degree >= 1:
        np.testing.assert_array_equal(gauss_rule(degree).nodes,
                                      _textbook_gauss_nodes(degree))


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
        val, der = legendre_eval(N, rule.nodes)
        assert np.max(np.abs(val / der)) <= 1e-13

    @pytest.mark.parametrize("N", [2, 5, 20, 100])
    def test_weight_formula(self, N):
        rule = gauss_rule(N)
        _, der = legendre_eval(N, rule.nodes)
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

    @pytest.mark.parametrize("N", [2, 3, 5, 10, 20, 64])
    def test_interior_nodes_are_jacobi_roots(self, N):
        rule = radau_rule(N)
        residual = eval_jacobi(N - 1, 1, 0, rule.nodes[:-1])
        assert np.max(np.abs(residual)) <= 1e-12


class TestIntegrate:
    def test_constant(self):
        rule = gauss_rule(3)
        assert abs(integrate(rule, np.ones(3)) - 2.0) <= 1e-13

    def test_odd_quintic(self):
        rule = gauss_rule(3)
        assert abs(integrate(rule, rule.nodes**5)) <= 1e-15

    def test_quadratic(self):
        rule = gauss_rule(2)
        assert abs(integrate(rule, rule.nodes**2) - 2.0 / 3.0) <= 1e-15

    def test_dimension_check(self):
        rule = gauss_rule(3)
        with pytest.raises(DimensionMismatch):
            integrate(rule, np.ones(4))

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
            err = abs(integrate(rule, samples) - exact)
            assert err <= 1e-12 * max(1.0, abs(exact))
