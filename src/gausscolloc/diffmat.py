"""Collocation differentiation matrices over Gauss points.

Two rectangular operators are built from one Gauss rule:

* ``D`` (N x N+1) differentiates the degree-N interpolant through the
  point set {-1, tau_1..tau_N} at the collocation points tau_i.
* ``D_dagger`` (N x N+1) differentiates the degree-N interpolant through
  {tau_1..tau_N, +1} at the same points.  It is derived from ``D`` through
  the algebraic identity D_ij = -(w_j / w_i) Ddag_ji with the last column
  fixed by the row-sum condition Ddag_{i,N+1} = -sum_j Ddag_ij.

``CollocationOperators`` holds both and the inverse of the trailing block
D[:, 1:], each built once, on first read, and read-only.  The P1 and P2
certificates and the appendix1 table read the inverse, and the solver
multiplies by it or by its transpose.  ``build_operators`` caches the
operators of four Gauss orders; ``props`` builds its own per order and never
fills that cache.  The module needs numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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
    # diff[j, i] = 2 (p_i - p_j): reducing over axis 0 multiplies whole rows
    # at once, each point's factors in the same order as a per-point product
    diff = 2.0 * (pts[None, :] - pts[:, None])
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.multiply.reduce(diff, axis=0)


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
    """Evaluation matrix of interpolation through `nodes` at a scalar or 1-d t.

    Row q of the result holds the Lagrange basis values at t[q]; query
    points that coincide with a node, or lie so close to one that the
    barycentric quotient overflows, get a one-hot row.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(t, dtype=float))
    if x.ndim > 1:
        raise DimensionMismatch(f"query points t must be a scalar or 1-d, got shape {x.shape}")
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


@dataclass(frozen=True)
class CollocationOperators:
    """The operators of one rule, each built on first read and kept read-only:
    ``D``, the rows at the nodes of the differentiation matrix on {-1, nodes};
    ``D1N_inv``, the inverse of its trailing block D[:, 1:]; and ``D_dagger``,
    from ``D`` and the weights, which a rule without weights cannot build."""

    rule: QuadratureRule

    @cached_property
    def D(self):
        D = differentiation_matrix(np.concatenate(([-1.0], self.rule.nodes)))[1:, :]
        D.flags.writeable = False
        return D

    @cached_property
    def D1N_inv(self):
        inv = np.linalg.inv(self.D[:, 1:])
        inv.flags.writeable = False
        return inv

    @cached_property
    def D_dagger(self):
        N, om = self.rule.order, self.rule.weights
        if om is None:
            raise ValueError(f"a {self.rule.kind} rule has no weights to build D_dagger")
        Ddag = np.empty((N, N + 1))
        Ddag[:, :N] = -(om[None, :] / om[:, None]) * self.D[:, 1:].T
        Ddag[:, N] = -np.sum(Ddag[:, :N], axis=1)
        Ddag.flags.writeable = False
        return Ddag


class P1Report(NamedTuple):
    norm_inf: float
    passed: bool


class P2Report(NamedTuple):
    max_row_norm: float
    passed: bool
    last_row_gap: float


@lru_cache(maxsize=4)
def build_operators(rule):
    """The operators of a Gauss rule, cached for the last four rules, which
    hash by identity (one per order); each matrix waits for its first read."""
    if rule.kind != "gauss":
        raise ValueError("collocation operators require a Gauss rule")
    return CollocationOperators(rule)


def check_P1(ops):
    """Max row sum of |D[:, 1:]^{-1}|; passes when <= 2 (plus slack)."""
    norm_inf = float(np.max(np.sum(np.abs(ops.D1N_inv), axis=1)))
    return P1Report(norm_inf=norm_inf, passed=norm_inf <= 2.0 + TOL_SLACK)


def check_P2(ops):
    """Largest Euclidean row norm of (W^{1/2} D[:, 1:])^{-1}.

    Passes when <= sqrt(2) (plus slack).  Also reports how far the last
    row of D[:, 1:]^{-1} sits from the quadrature weights, a gap that
    shrinks as the order grows.
    """
    inv = ops.D1N_inv
    om = ops.rule.weights
    scaled = inv / np.sqrt(om)[None, :]
    max_row = float(np.max(np.sqrt(np.sum(np.multiply(scaled, scaled, out=scaled), axis=1))))
    gap = float(np.max(np.abs(inv[-1, :] - om)))
    return P2Report(max_row_norm=max_row,
                    passed=max_row <= np.sqrt(2.0) + TOL_SLACK,
                    last_row_gap=gap)
