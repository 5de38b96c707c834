"""Gauss and Radau quadrature rules on [-1, 1] built from Legendre polynomials.

Nodes are computed by Newton's method started from Chebyshev-type guesses,
with a step-halving safeguard that keeps every iterate inside (-1, 1).
No eigenvalue solver is involved, so rules stay cheap and deterministic
up to four-digit orders.  ``gauss_rules`` builds any set of Gauss orders in
one Newton sweep over all their nodes: recurrence step k touches only the
nodes of orders above k, and each order stops on its own test, so every
node sees the operations a one-order build would apply and the rules are
bit-identical to it.  Rules are built once per process and shared.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IterationFailure

ROOT_TOL = 1e-15
ROOT_MAX_ITER = 100

_GAUSS_RULES = {}   # order -> QuadratureRule, filled by gauss_rules


def _legendre_body(degree, x):
    """P_n and P_n' at the points of the 1-d array x, all strictly inside
    (-1, 1), where n is the point's entry of ``degree``, an ascending
    integer array as long as x.

    Recurrence step k updates only the points with n > k.  Three buffers
    rotate roles without copying, so a point's P_n is left in buffer n % 3
    and its P_{n-1} in buffer (n - 1) % 3.
    """
    buf = np.zeros((3, x.size))
    buf[0] = 1.0
    buf[1] = x
    starts = np.flatnonzero(np.diff(degree, prepend=-1))
    k = 1
    for s, n in zip(starts.tolist(), degree[starts].tolist()):
        if n <= k:
            continue
        xs = x[s:]
        rows = buf[0, s:], buf[1, s:], buf[2, s:]
        pm1, p, t = rows[(k - 1) % 3], rows[k % 3], rows[(k + 1) % 3]
        for k in range(k, n):
            # t = ((2k+1) x p - k pm1) / (k+1) in place, in that operation order;
            # float scalars hold the integers exactly and dispatch faster
            c = float(k)
            np.multiply(2.0 * c + 1.0, xs, out=t)
            t *= p
            pm1 *= c
            t -= pm1
            t /= c + 1.0
            pm1, p, t = p, t, pm1
        k = n
    cols = np.arange(x.size)
    p, pm1 = buf[degree % 3, cols], buf[(degree - 1) % 3, cols]
    # (1 - t^2) P_n'(t) = n (P_{n-1}(t) - t P_n(t))
    dp = degree * (pm1 - x * p) / ((1.0 - x) * (1.0 + x))
    # P_0' = 0 and P_1' = 1 exactly
    return p, np.where(degree < 2, degree, dp)


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


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A quadrature rule on [-1, 1].

    kind is "gauss" (interior Legendre roots, weights set) or "radau"
    (right-sided: interior Jacobi(1,0) roots plus the endpoint +1, weights
    left unset).  Node arrays are ascending and read-only; rules hash by identity.
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray | None


def _newton_roots(body, degrees, guesses):
    """Vectorized Newton iteration with a step-halving safeguard on the
    roots of polynomials of the given ascending degrees: the roots of the
    j-th are the next degrees[j] guesses, and ``body(n, x)`` evaluates the
    polynomials and their derivatives at x, where n is the array of one
    degree per point.

    Any step that would leave (-1, 1) is halved back toward the previous
    iterate until it lands inside, which keeps the recurrence evaluations
    well defined.  A polynomial's roots stop, and leave the sweep, once
    their largest step falls below ROOT_TOL.  Raises IterationFailure if
    some have not stopped within ROOT_MAX_ITER sweeps.
    """
    x, roots, pos = guesses, np.empty_like(guesses), np.arange(guesses.size)
    degrees = np.asarray(degrees)
    starts = degrees.cumsum() - degrees
    for _ in range(ROOT_MAX_ITER):
        p, dp = body(degrees.repeat(degrees), x)
        xn = x - p / dp
        outside = np.abs(xn) >= 1.0
        while outside.any():
            xn = np.where(outside, 0.5 * (x + xn), xn)
            outside = np.abs(xn) >= 1.0
        done = np.maximum.reduceat(np.abs(xn - x), starts) <= ROOT_TOL
        if done.all():
            roots[pos] = xn
            return roots
        if done.any():
            stop = done.repeat(degrees)
            roots[pos[stop]] = xn[stop]
            keep = ~stop
            xn, pos, degrees = xn[keep], pos[keep], degrees[~done]
            starts = degrees.cumsum() - degrees
        x = xn
    raise IterationFailure(
        f"root iteration did not reach {ROOT_TOL:g} in {ROOT_MAX_ITER} sweeps")


def gauss_rules(orders):
    """Gauss rules of the given orders (any iterable of integers >= 1, in
    any order, repeats allowed), one per entry; see ``gauss_rule``.

    The orders not built yet in this process are built together: one
    Newton sweep over all their nodes, one sort and symmetrization, and
    one more sweep for all their weights.  Raises ValueError for an empty
    set or an order below 1.
    """
    orders = [int(operator.index(N)) for N in orders]
    if not orders:
        raise ValueError("at least one order is required")
    if min(orders) < 1:
        raise ValueError("order must be >= 1")
    new = sorted(set(orders).difference(_GAUSS_RULES))
    if new:
        n = np.array(new)
        first = n.cumsum() - n                    # offset of each order's nodes
        deg, head = n.repeat(n), first.repeat(n)
        j = np.arange(deg.size) - head            # index within its order
        guesses = np.cos(np.pi * (4 * j + 3) / (4 * deg + 2))
        x = _newton_roots(_legendre_body, n, guesses)
        # ascending within each order, then nodes[i] == -nodes[N-1-i] exactly
        x = x[np.lexsort((x, deg))]
        x = 0.5 * (x - x[head + (deg - 1 - j)])
        _, dp = _legendre_body(deg, x)
        w = 2.0 / (((1.0 - x) * (1.0 + x)) * dp * dp)
        x.flags.writeable = False
        w.flags.writeable = False
        for N, s in zip(new, first.tolist()):
            _GAUSS_RULES[N] = QuadratureRule(kind="gauss", order=N,
                                             nodes=x[s:s + N], weights=w[s:s + N])
    return [_GAUSS_RULES[N] for N in orders]


def gauss_rule(N):
    """Gauss rule of order N: the N roots of P_N with weights
    w_i = 2 / ((1 - tau_i^2) P_N'(tau_i)^2).

    Nodes are symmetrized about the origin after Newton converges, so the
    returned array satisfies nodes[i] == -nodes[N-1-i] exactly.  The rule
    is built once per process: every call for N, here or through
    ``gauss_rules``, returns the same object.
    """
    return gauss_rules([N])[0]


def _jacobi10_body(degree, x):
    """P_degree^{(1,0)} (orthogonal for weight 1-t) and its derivative, degree >= 1."""
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
    left unset (None).  N is taken as ``gauss_rules`` takes it: through
    ``operator.index``, so a float raises TypeError, and one below 1 ValueError.
    """
    N = int(operator.index(N))
    if N < 1:
        raise ValueError("order must be >= 1")
    if N == 1:
        interior = np.empty(0)
    else:
        deg = N - 1
        k = np.arange(1, deg + 1)
        guesses = np.cos(np.pi * (k + 0.25) / (deg + 1))
        interior = np.sort(_newton_roots(lambda _, x: _jacobi10_body(deg, x),
                                         [deg], guesses))
    nodes = np.concatenate([interior, [1.0]])
    nodes.flags.writeable = False
    return QuadratureRule(kind="radau", order=N, nodes=nodes, weights=None)

