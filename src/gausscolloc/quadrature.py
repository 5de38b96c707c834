"""Gauss and Radau quadrature rules on [-1, 1] built from Legendre polynomials.

Nodes are computed by Newton's method started from Chebyshev-type guesses,
with a step-halving safeguard that keeps every iterate inside (-1, 1).
No eigenvalue solver is involved, so rules stay cheap and deterministic
up to four-digit orders.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, IterationFailure

ROOT_TOL = 1e-15
ROOT_MAX_ITER = 100


def legendre_eval(degree, t):
    """Evaluate the Legendre polynomial P_degree and its derivative at t.

    Parameters
    ----------
    degree : int
        Polynomial degree, >= 0.
    t : float or ndarray
        Evaluation points in [-1, 1].

    Returns
    -------
    (value, derivative) matching the shape of ``t``.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    x = np.atleast_1d(arr)
    p, dp = _legendre_body(degree, x)
    if scalar:
        return float(p[0]), float(dp[0])
    return p, dp


def _legendre_body(degree, x):
    if degree == 0:
        return np.ones_like(x), np.zeros_like(x)
    if degree == 1:
        return x.copy(), np.ones_like(x)
    pm1 = np.ones_like(x)
    p = x.copy()
    t = np.empty_like(x)
    for k in range(1, degree):
        # t = ((2k+1) x p - k pm1) / (k+1) in place, in that operation order;
        # float scalars hold the integers exactly and dispatch faster
        c = float(k)
        np.multiply(2.0 * c + 1.0, x, out=t)
        t *= p
        pm1 *= c
        t -= pm1
        t /= c + 1.0
        pm1, p, t = p, t, pm1
    # (1 - t^2) P_n'(t) = n (P_{n-1}(t) - t P_n(t)); closed form at t = +-1
    at_end = np.abs(np.abs(x) - 1.0) < 1e-300
    denom = np.where(at_end, 1.0, (1.0 - x) * (1.0 + x))
    dp = degree * (pm1 - x * p) / denom
    if np.any(at_end):
        end_val = np.sign(x) ** (degree - 1) * degree * (degree + 1) / 2.0
        dp = np.where(at_end, end_val, dp)
    return p, dp


def legendre_table(kmax, t):
    """Values of P_0 .. P_kmax at t, as an array of shape (kmax+1,) + t.shape."""
    x = np.asarray(t, dtype=float)
    P = np.empty((kmax + 1,) + x.shape)
    P[0] = 1.0
    if kmax >= 1:
        P[1] = x
    s = np.empty_like(x)
    for k in range(1, kmax):
        # P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1), as in _legendre_body
        c = float(k)
        out = P[k + 1, ...]
        np.multiply(2.0 * c + 1.0, x, out=out)
        out *= P[k]
        np.multiply(c, P[k - 1], out=s)
        out -= s
        out /= c + 1.0
    return P


def legendre_deriv_table(kmax, t):
    """Values and derivatives of P_0 .. P_kmax at t.

    Returns (P, dP), each of shape (kmax+1,) + t.shape.  The derivative
    recurrence dP_{k+1} = dP_{k-1} + (2k+1) P_k is used, which is stable
    on the closed interval including the endpoints.
    """
    x = np.asarray(t, dtype=float)
    P = legendre_table(kmax, x)
    dP = np.empty_like(P)
    dP[0] = 0.0
    if kmax >= 1:
        dP[1] = 1.0
    for k in range(1, kmax):
        dP[k + 1] = dP[k - 1] + (2 * k + 1) * P[k]
    return P, dP


@dataclass(frozen=True)
class QuadratureRule:
    """A quadrature rule on [-1, 1].

    kind is "gauss" (interior Legendre roots, weights set) or "radau"
    (right-sided: interior Jacobi(1,0) roots plus the endpoint +1, weights
    left unset).  Node arrays are ascending and marked read-only.
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray | None


def _newton_roots(eval_fn, guesses):
    """Vectorized Newton iteration with a step-halving safeguard.

    Any step that would leave (-1, 1) is halved back toward the previous
    iterate until it lands inside, which keeps the recurrence evaluations
    well defined.  Raises IterationFailure if the largest step does not
    fall below ROOT_TOL within ROOT_MAX_ITER sweeps.
    """
    x = guesses
    for _ in range(ROOT_MAX_ITER):
        p, dp = eval_fn(x)
        xn = x - p / dp
        outside = np.abs(xn) >= 1.0
        while np.any(outside):
            xn = np.where(outside, 0.5 * (x + xn), xn)
            outside = np.abs(xn) >= 1.0
        done = np.max(np.abs(xn - x)) <= ROOT_TOL
        x = xn
        if done:
            return x
    raise IterationFailure(
        f"root iteration did not reach {ROOT_TOL:g} in {ROOT_MAX_ITER} sweeps")


@lru_cache(maxsize=None)
def gauss_rule(N):
    """Gauss rule of order N: the N roots of P_N with weights
    w_i = 2 / ((1 - tau_i^2) P_N'(tau_i)^2).

    Nodes are symmetrized about the origin after Newton converges, so the
    returned array satisfies nodes[i] == -nodes[N-1-i] exactly.
    """
    if N < 1:
        raise ValueError("order must be >= 1")
    i = np.arange(1, N + 1)
    guesses = np.cos(np.pi * (4 * i - 1) / (4 * N + 2))
    x = _newton_roots(lambda v: _legendre_body(N, v), guesses)
    x = np.sort(x)
    x = 0.5 * (x - x[::-1])
    _, dp = _legendre_body(N, x)
    w = 2.0 / (((1.0 - x) * (1.0 + x)) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(kind="gauss", order=N, nodes=x, weights=w)


def _jacobi10_body(degree, x):
    """P_degree^{(1,0)} (orthogonal for weight 1-t) and its derivative."""
    if degree == 0:
        return np.ones_like(x), np.zeros_like(x)
    pm1 = np.ones_like(x)
    p = (3.0 * x + 1.0) / 2.0
    for k in range(2, degree + 1):
        # Jacobi three-term recurrence specialized to (alpha, beta) = (1, 0)
        d1 = 2.0 * k * (k + 1) * (2 * k - 1)
        d2 = 2.0 * k
        d3 = 2.0 * k * (2 * k - 1) * (2 * k + 1)
        d4 = 2.0 * k * (k - 1) * (2 * k + 1)
        pm1, p = p, ((d2 + d3 * x) * p - d4 * pm1) / d1
    n = degree
    # (2n+1)(1 - t^2) dP = n (1 - (2n+1) t) P + 2 n (n+1) P_{n-1}
    dp = (n * (1.0 - (2 * n + 1) * x) * p + 2.0 * n * (n + 1) * pm1) \
        / ((2 * n + 1) * (1.0 - x) * (1.0 + x))
    return p, dp


@lru_cache(maxsize=None)
def radau_rule(N):
    """Right-sided Radau abscissa of order N: the N-1 roots of the Jacobi
    polynomial with weight (1 - tau), plus the fixed endpoint tau_N = +1.

    Quadrature weights are not needed by any consumer of this rule and are
    left unset (None).
    """
    if N < 1:
        raise ValueError("order must be >= 1")
    if N == 1:
        interior = np.empty(0)
    else:
        deg = N - 1
        k = np.arange(1, deg + 1)
        guesses = np.cos(np.pi * (k + 0.25) / (deg + 1))
        interior = np.sort(_newton_roots(lambda v: _jacobi10_body(deg, v), guesses))
    nodes = np.concatenate([interior, [1.0]])
    nodes.flags.writeable = False
    return QuadratureRule(kind="radau", order=N, nodes=nodes, weights=None)


def integrate(rule, samples):
    """Apply a Gauss rule to function samples taken at its nodes.

    samples has shape (N,) or (N, k); the weighted sum is taken over the
    first axis.  Raises DimensionMismatch when the sample count differs
    from the rule order, and ValueError for rules without weights.
    """
    if rule.weights is None:
        raise ValueError(f"rule of kind {rule.kind!r} carries no weights")
    vals = np.asarray(samples, dtype=float)
    if vals.shape[0] != rule.order:
        raise DimensionMismatch(
            f"expected {rule.order} samples, got {vals.shape[0]}")
    return rule.weights @ vals
