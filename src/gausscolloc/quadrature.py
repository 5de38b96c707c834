"""Gauss and Radau quadrature rules on [-1, 1] built from their recurrences.

Nodes are computed by Newton's method started from Chebyshev-type guesses,
with a step-halving safeguard that keeps every iterate inside (-1, 1).
No eigenvalue solver is involved, so rules stay cheap and deterministic
up to four-digit orders.  One builder makes any set of orders of either
kind in one Newton sweep over all their nodes, on the Legendre recurrence
for Gauss and the Jacobi(1, 0) one for Radau: recurrence step k touches
only the nodes of orders above k, and each order stops on its own test,
so every node sees the operations a one-order build would apply and the
rules are bit-identical to it.  Rules are built once per process and shared.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import IterationFailure

ROOT_TOL = 1e-15
ROOT_MAX_ITER = 100

_RULES = {}   # (kind, order) -> QuadratureRule, filled by _rules


def _recurrence(degree, x, p1, step):
    """P_n and P_{n-1} of the three-term family with P_0 = 1, P_1 = p1 and
    the given step, at the points of the 1-d array x, n being the point's
    entry of ``degree``, an ascending integer array as long as x.  Step k
    updates only the points with n > k.  Three buffers rotate roles without
    copying: a point's P_n is left in buffer n % 3 and its P_{n-1} in buffer
    (n - 1) % 3, and P_{k-1}'s, which takes P_{k+2} next, is step k's scratch.
    """
    buf = np.zeros((3, x.size))
    buf[0] = 1.0
    buf[1] = p1
    starts = np.flatnonzero(np.diff(degree, prepend=-1))
    k = 1
    for s, n in zip(starts.tolist(), degree[starts].tolist()):
        xs = x[s:]
        pm1, p, t = (buf[i % 3, s:] for i in (k - 1, k, k + 1))
        for k in range(k, n):     # no step for degrees 0 and 1
            step(float(k), xs, p, pm1, t, pm1)
            pm1, p, t = p, t, pm1
        k = max(k, n)
    cols = np.arange(x.size)
    return buf[degree % 3, cols], buf[(degree - 1) % 3, cols]


def _legendre_step(c, x, p, pm1, out, s):
    # out = ((2k+1) x p - k pm1) / (k+1) for c = k, in that operation order,
    # with scratch s; float scalars hold the integers exactly and dispatch faster
    np.multiply(2.0 * c + 1.0, x, out=out)
    out *= p
    np.multiply(c, pm1, out=s)
    out -= s
    out /= c + 1.0


def _jacobi10_step(c, x, p, pm1, out, s):
    # the Jacobi recurrence at (alpha, beta) = (1, 0) for n = k + 1, c = k:
    # out = ((d2 + d3 x) p - d4 pm1) / d1, in that operation order
    n = c + 1.0
    np.multiply(2.0 * n * (2.0 * n - 1.0) * (2.0 * n + 1.0), x, out=out)   # d3
    out += 2.0 * n                                                         # d2
    out *= p
    np.multiply(2.0 * n * (n - 1.0) * (2.0 * n + 1.0), pm1, out=s)         # d4
    out -= s
    out /= 2.0 * n * (n + 1.0) * (2.0 * n - 1.0)                           # d1


def _legendre_body(degree, x):
    """P_n and P_n' at points strictly inside (-1, 1), as ``_recurrence`` takes them."""
    p, pm1 = _recurrence(degree, x, x, _legendre_step)
    # (1 - t^2) P_n'(t) = n (P_{n-1}(t) - t P_n(t))
    dp = degree * (pm1 - x * p) / ((1.0 - x) * (1.0 + x))
    # P_0' = 0 and P_1' = 1 exactly
    return p, np.where(degree < 2, degree, dp)


def _jacobi10_body(n, x):
    """P_n^{(1,0)} (orthogonal for weight 1-t) and its derivative, for n >= 1."""
    p, pm1 = _recurrence(n, x, (3.0 * x + 1.0) / 2.0, _jacobi10_step)
    # (2n+1)(1 - t^2) dP = n (1 - (2n+1) t) P + 2 n (n+1) P_{n-1}
    dp = (n * (1.0 - (2 * n + 1) * x) * p + 2.0 * n * (n + 1) * pm1) \
        / ((2 * n + 1) * (1.0 - x) * (1.0 + x))
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
        _legendre_step(float(k), x, P[k], P[k - 1], P[k + 1, ...], s)
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
    roots of polynomials of the given ascending degrees (>= 1): the roots of
    the j-th are the next degrees[j] guesses, and ``body(n, x)`` evaluates
    the polynomials and their derivatives at x, n holding one degree a point.

    Any step that would leave (-1, 1) is halved back toward the previous
    iterate until it lands inside, which keeps the recurrence evaluations
    well defined.  A polynomial's roots stop, and leave the sweep, once
    their largest step falls below ROOT_TOL.  Raises IterationFailure if
    some have not stopped within ROOT_MAX_ITER sweeps.
    """
    x, roots, pos = guesses, np.empty_like(guesses), np.arange(guesses.size)
    degrees = np.asarray(degrees)
    for _ in range(ROOT_MAX_ITER):
        p, dp = body(degrees.repeat(degrees), x)
        xn = x - p / dp
        outside = np.abs(xn) >= 1.0
        while outside.any():
            xn = np.where(outside, 0.5 * (x + xn), xn)
            outside = np.abs(xn) >= 1.0
        done = np.maximum.reduceat(np.abs(xn - x), degrees.cumsum() - degrees) <= ROOT_TOL
        stop = done.repeat(degrees)
        roots[pos[stop]] = xn[stop]
        if done.all():
            return roots
        x, pos, degrees = xn[~stop], pos[~stop], degrees[~done]
    raise IterationFailure(
        f"root iteration did not reach {ROOT_TOL:g} in {ROOT_MAX_ITER} sweeps")


def _rules(kind, orders):
    """Rules of one kind for the given orders (any iterable of integers >= 1,
    in any order, repeats allowed), one per entry; ValueError for an empty
    set or an order below 1.  The orders not built yet in this process are
    built together: one Newton sweep over all their interior nodes, one sort
    within each order, then for Gauss one symmetrization and one more sweep
    for all their weights; each Radau order ends at +1.
    """
    orders = [int(operator.index(N)) for N in orders]
    if not orders:
        raise ValueError("at least one order is required")
    if min(orders) < 1:
        raise ValueError("order must be >= 1")
    new = sorted({N for N in orders if (kind, N) not in _RULES})
    if new:
        N = np.array(new)
        n = N if kind == "gauss" else N - 1      # interior nodes of each order
        first = n.cumsum() - n                    # offset of each order's nodes
        deg, head = n.repeat(n), first.repeat(n)
        j = np.arange(deg.size) - head            # index within its order
        if kind == "gauss":
            guesses, body = np.cos(np.pi * (4 * j + 3) / (4 * deg + 2)), _legendre_body
        else:
            guesses, body = np.cos(np.pi * (j + 1.25) / (deg + 1)), _jacobi10_body
        x = _newton_roots(body, n[n > 0], guesses)  # Radau order 1 has no node to sweep
        x = x[np.lexsort((x, deg))]               # ascending within each order
        if kind == "gauss":
            # then nodes[i] == -nodes[N-1-i] exactly
            x = 0.5 * (x - x[head + (deg - 1 - j)])
            _, dp = _legendre_body(deg, x)
            w = 2.0 / (((1.0 - x) * (1.0 + x)) * dp * dp)
            w.flags.writeable = False
        else:
            x, w = np.insert(x, first + n, 1.0), None
        x.flags.writeable = False
        for order, s in zip(new, (N.cumsum() - N).tolist()):
            _RULES[kind, order] = QuadratureRule(kind, order, x[s:s + order],
                                                 None if w is None else w[s:s + order])
    return [_RULES[kind, N] for N in orders]


def gauss_rules(orders):
    """Gauss rules of the given orders; see ``_rules`` and ``gauss_rule``."""
    return _rules("gauss", orders)


def gauss_rule(N):
    """Gauss rule of order N: the N roots of P_N with weights
    w_i = 2 / ((1 - tau_i^2) P_N'(tau_i)^2).

    Nodes are symmetrized about the origin after Newton converges, so the
    returned array satisfies nodes[i] == -nodes[N-1-i] exactly.  The rule
    is built once per process: every call for N, here or through
    ``gauss_rules``, returns the same object.
    """
    return gauss_rules([N])[0]


def radau_rules(orders):
    """Radau rules of the given orders; see ``_rules`` and ``radau_rule``."""
    return _rules("radau", orders)


def radau_rule(N):
    """Right-sided Radau abscissa of order N: the N-1 roots of the Jacobi
    polynomial with weight (1 - tau), plus the fixed endpoint tau_N = +1.

    Quadrature weights are not needed by any consumer of this rule and are
    left unset (None).  N is taken, and the rule kept, as ``gauss_rule``
    takes and keeps its own: a float raises TypeError, one below 1 ValueError.
    """
    return radau_rules([N])[0]
