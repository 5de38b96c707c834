"""Collocation differentiation matrices over Gauss points.

Two rectangular operators are built from one Gauss rule:

* ``D`` (N x N+1) differentiates the degree-N interpolant through the
  point set {-1, tau_1..tau_N} at the collocation points tau_i.
* ``D_dagger`` (N x N+1) differentiates the degree-N interpolant through
  {tau_1..tau_N, +1} at the same points.  It is derived from ``D`` through
  the algebraic identity D_ij = -(w_j / w_i) Ddag_ji with the last column
  fixed by the row-sum condition Ddag_{i,N+1} = -sum_j Ddag_ij.

The inverse of the trailing square block D[:, 1:] is formed once with
``np.linalg.inv`` and stored read-only: the P1 and P2 certificates read
it, and linear solves against the block (or its transpose) are products
with it.  This module needs numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .quadrature import QuadratureRule

# slack added to every analytic pass/fail threshold before comparison
TOL_SLACK = 1e-10


def barycentric_weights(points):
    """Barycentric weights of a point set, up to a common scale.

    Pairwise differences are doubled before the product, which keeps the
    products inside double-precision range for point counts in the
    thousands; the common scale cancels wherever the weights are used.
    """
    pts = np.asarray(points, dtype=float)
    diff = 2.0 * np.subtract.outer(pts, pts)
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def differentiation_matrix(points):
    """Square first-derivative matrix on an arbitrary point set.

    Off-diagonal entries come from the barycentric form; diagonals are
    filled with negated row sums so constants are annihilated exactly.
    """
    pts = np.asarray(points, dtype=float)
    w = barycentric_weights(pts)
    diff = np.subtract.outer(pts, pts)
    np.fill_diagonal(diff, 1.0)
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def barycentric_matrix(nodes, t):
    """Evaluation matrix of interpolation through `nodes` at points t.

    Row q of the result holds the Lagrange basis values at t[q]; query
    points that coincide with a node, or lie so close to one that the
    barycentric quotient overflows, get a one-hot row.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(t, dtype=float))
    w = barycentric_weights(nodes)
    diff = np.subtract.outer(x, nodes)
    with np.errstate(divide="ignore", over="ignore"):
        kernel = w[None, :] / diff
    # an exact hit divides by zero and a near one can overflow: both rows
    # become one-hot at that node before the rows are normalized
    hit = (diff == 0.0) | np.isinf(kernel)
    exact_rows = np.any(hit, axis=1)
    if np.any(exact_rows):
        kernel[exact_rows] = 0.0
        rows = np.where(exact_rows)[0]
        kernel[rows, np.argmax(hit[rows], axis=1)] = 1.0
    kernel /= np.sum(kernel, axis=1)[:, None]
    return kernel


def barycentric_interpolate(nodes, values, t):
    """Evaluate the interpolant through (nodes, values) at points t.

    values may be (M,) or (M, d); the result has shape t.shape (+ (d,)).
    """
    vals = np.asarray(values, dtype=float)
    out = barycentric_matrix(nodes, t) @ vals
    if np.asarray(t).ndim == 0:
        return out[0]
    return out


@dataclass(frozen=True)
class CollocationOperators:
    """Differentiation operators bound to one Gauss rule."""

    rule: QuadratureRule
    D: np.ndarray
    D_dagger: np.ndarray
    D1N_inv: np.ndarray


@dataclass(frozen=True)
class P1Report:
    order: int
    norm_inf: float
    passed: bool


@dataclass(frozen=True)
class P2Report:
    order: int
    max_row_norm: float
    passed: bool
    last_row_gap: float


def build_operators(rule):
    """Build D, D_dagger, and the inverse of D[:, 1:]."""
    if rule.kind != "gauss":
        raise ValueError("collocation operators require a Gauss rule")
    N = rule.order
    tau, om = rule.nodes, rule.weights
    pts = np.concatenate(([-1.0], tau))
    D = differentiation_matrix(pts)[1:, :]
    Ddag = np.empty((N, N + 1))
    Ddag[:, :N] = -(om[None, :] / om[:, None]) * D[:, 1:].T
    Ddag[:, N] = -np.sum(Ddag[:, :N], axis=1)
    inv = np.linalg.inv(D[:, 1:])
    for arr in (D, Ddag, inv):
        arr.flags.writeable = False
    return CollocationOperators(rule=rule, D=D, D_dagger=Ddag, D1N_inv=inv)


def solve_D1N(ops, rhs, transposed=False):
    """Solve D[:, 1:] x = rhs (or its transpose) with the stored inverse.

    rhs has shape (N,) or (N, k); the n state components of a stacked
    system are passed as k right-hand-side columns.
    """
    b = np.asarray(rhs, dtype=float)
    N = ops.rule.order
    if b.shape[0] != N:
        raise DimensionMismatch(f"rhs has leading dimension {b.shape[0]}, expected {N}")
    return (ops.D1N_inv.T if transposed else ops.D1N_inv) @ b


def check_P1(ops):
    """Max row sum of |D[:, 1:]^{-1}|; passes when <= 2 (plus slack)."""
    norm_inf = float(np.max(np.sum(np.abs(ops.D1N_inv), axis=1)))
    return P1Report(order=ops.rule.order, norm_inf=norm_inf,
                    passed=norm_inf <= 2.0 + TOL_SLACK)


def check_P2(ops):
    """Largest Euclidean row norm of (W^{1/2} D[:, 1:])^{-1}.

    Passes when <= sqrt(2) (plus slack).  Also reports how far the last
    row of D[:, 1:]^{-1} sits from the quadrature weights, a gap that
    shrinks as the order grows.
    """
    inv = ops.D1N_inv
    om = ops.rule.weights
    scaled = inv / np.sqrt(om)[None, :]
    max_row = float(np.max(np.sqrt(np.sum(scaled * scaled, axis=1))))
    gap = float(np.max(np.abs(inv[-1, :] - om)))
    return P2Report(order=ops.rule.order, max_row_norm=max_row,
                    passed=max_row <= np.sqrt(2.0) + TOL_SLACK,
                    last_row_gap=gap)
