"""Discrete trajectories, optimality residuals, and multiplier maps.

A discrete trajectory stores the state on the grid {-1, tau_1..tau_N, +1},
the control at the N collocation points, and the costate on the same
(N+2)-point grid as the state.  ``eval_residual`` measures how far such a
triple is from satisfying the first-order optimality system; its combined
norm is the quantity the solver drives to zero.  The two collocated blocks,
the state and costate defects, are measured in one quadrature-weighted
norm, ``_omega_norm``, which also sets the state solve's Newton target.
A ``StateSolve`` records one state, its f, D X, defect G = D X - F and that
norm; ``_state_defect``, the one place G is formed, builds every record.

The costate used here is a scaled form of the raw equality multipliers of
the underlying nonlinear program.  ``costate_to_multipliers`` and
``multipliers_to_costate`` convert between the two, and ``kkt_residuals``
evaluates the stationarity conditions directly in multiplier variables
with the forward difference matrix only, giving an independent check that
the two formulations vanish together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diffmat import barycentric_matrix
from .errors import DimensionMismatch
from .problem import _checked


@dataclass(frozen=True)
class Trajectory:
    """State, control, and costate samples of one discretization.

    nodes: (N+2,) grid -1 < tau_1 < ... < tau_N < +1 with endpoints.
    X, Lambda: (N+2, n) on the full grid.  U: (N, m) at collocation points.
    """

    nodes: np.ndarray
    X: np.ndarray
    U: np.ndarray
    Lambda: np.ndarray

    @property
    def N(self):
        return self.U.shape[0]


def full_grid(rule):
    """Collocation nodes with both endpoints appended: (N+2,)."""
    return np.concatenate([[-1.0], rule.nodes, [1.0]])


def _omega_norm(w, Z):
    """sqrt(sum_i w_i |Z_i|^2) of an (N, n) stack Z, by the operations of
    ``np.sqrt(np.sum(w * np.sum(Z * Z, axis=1)))`` in their order, so with
    its bits; a BLAS dot product in place of the last sum would change them."""
    return math.sqrt(np.add.reduce(w * np.add.reduce(Z * Z, axis=1)))


class StateSolve(NamedTuple):
    """One state and its defect: the stack X (N+2, n), f at its collocation
    rows, the product D X of its first N+1 rows, G = D X - F and its omega
    norm ``defect``."""

    X: np.ndarray
    F: np.ndarray
    DX: np.ndarray
    G: np.ndarray
    defect: float


def _state_defect(ops, X, F, DX):
    """The ``StateSolve`` of X, f = F and D X[:N+1] = DX: G = DX - F and its omega norm."""
    G = DX - F
    return StateSolve(X, F, DX, G, _omega_norm(ops.rule.weights, G))


@dataclass(frozen=True)
class Residual:
    """First-order optimality residuals of one trajectory.

    Array fields keep the raw componentwise values; ``norms`` holds the
    scalar contribution of each block and ``y_norm`` their sum, mixing sup
    norms for the endpoint conditions with quadrature-weighted l2 norms
    for the two collocated blocks.
    """

    initial: np.ndarray
    state_defect: np.ndarray
    endpoint_defect: np.ndarray
    costate_endpoint: np.ndarray
    costate_defect: np.ndarray
    transversality: np.ndarray
    control_residual: np.ndarray
    norms: dict
    y_norm: float


def _check_trajectory(problem, N, traj):
    """Raise DimensionMismatch unless X and Lambda are (N+2, n) and U (N, m)."""
    shapes = tuple(np.shape(a) for a in (traj.X, traj.U, traj.Lambda))
    want = ((N + 2, problem.n), (N, problem.m), (N + 2, problem.n))
    if shapes != want:
        raise DimensionMismatch(f"trajectory X, U, Lambda have shapes {shapes}, expected {want}")


def eval_residual(problem, ops, traj):
    """Measure optimality-system violation of a trajectory; the solver calls
    ``_residual`` directly with the state record, H_x, P(U - H_u) and C_x it already holds.
    Raises DimensionMismatch unless X and Lambda are (N+2, n) and U (N, m),
    and unless the callbacks give f (N, n), f_x (N, n, n), f_u (N, n, m) and C_x (n,)."""
    N = ops.rule.order
    _check_trajectory(problem, N, traj)
    X, U, Lam = traj.X, traj.U, traj.Lambda
    Xc, Lc = X[1:N + 1], Lam[1:N + 1]
    F = _checked("dynamics", problem.dynamics(Xc, U), (N, problem.n))
    Hx, Hu = problem.ham_x(Xc, U, Lc), problem.ham_u(Xc, U, Lc)
    g = _checked("cost_grad", problem.cost_grad(X[N + 1]), (problem.n,))
    return _residual(problem, ops, traj, _state_defect(ops, X, F, ops.D @ X[:N + 1]), Hx,
                     problem.control_set.project(U - Hu), g)


def _residual(problem, ops, traj, state, Hx, proj, g):
    """Residual from the ``StateSolve`` of traj.X, H_x, proj = P(U - H_u) and C_x = g."""
    rule = ops.rule
    N = rule.order
    X, U, Lam = traj.X, traj.U, traj.Lambda
    w = rule.weights

    initial = X[0] - problem.x0
    endpoint_defect = X[N + 1] - X[0] - w @ state.F
    costate_endpoint = Lam[N + 1] - Lam[0] + w @ Hx
    costate_defect = ops.D_dagger @ Lam[1:] + Hx
    transversality = Lam[N + 1] - g
    control_residual = U - proj

    # endpoint blocks enter with their Euclidean length, collocated blocks
    # with the quadrature-weighted l2 norm, the control block with the
    # largest per-node Euclidean length; each is the operation sequence
    # np.linalg.norm runs for that case
    norms = {
        "initial": math.sqrt(initial.dot(initial)),
        "state_defect": state.defect,
        "endpoint_defect": math.sqrt(endpoint_defect.dot(endpoint_defect)),
        "costate_endpoint": math.sqrt(costate_endpoint.dot(costate_endpoint)),
        "costate_defect": _omega_norm(w, costate_defect),
        "transversality": math.sqrt(transversality.dot(transversality)),
        "control_residual": float(np.sqrt(np.add.reduce(
            control_residual * control_residual, axis=1)).max()),
    }
    return Residual(
        initial=initial, state_defect=state.G,
        endpoint_defect=endpoint_defect, costate_endpoint=costate_endpoint,
        costate_defect=costate_defect, transversality=transversality,
        control_residual=control_residual,
        norms=norms, y_norm=float(sum(norms.values())))


def costate_to_multipliers(Lam, rule):
    """Scaled costate stack (N+2, n) -> raw multiplier stack (N+2, n)."""
    Lam = np.asarray(Lam, dtype=float)
    N = rule.order
    if Lam.shape[0] != N + 2:
        raise DimensionMismatch(f"expected {N + 2} costate rows, got {Lam.shape[0]}")
    mu = np.empty_like(Lam)
    mu[0] = Lam[0]
    mu[1:N + 1] = rule.weights[:, None] * (Lam[1:N + 1] - Lam[N + 1])
    mu[N + 1] = Lam[N + 1]
    return mu


def multipliers_to_costate(mu, rule):
    """Raw multiplier stack (N+2, n) -> scaled costate stack (N+2, n)."""
    mu = np.asarray(mu, dtype=float)
    N = rule.order
    if mu.shape[0] != N + 2:
        raise DimensionMismatch(f"expected {N + 2} multiplier rows, got {mu.shape[0]}")
    Lam = np.empty_like(mu)
    Lam[0] = mu[0]
    Lam[1:N + 1] = mu[N + 1] + mu[1:N + 1] / rule.weights[:, None]
    Lam[N + 1] = mu[N + 1]
    return Lam


def kkt_residuals(problem, ops, traj, mu):
    """Stationarity residuals of the nonlinear program in raw multipliers.

    Uses only the forward matrix D (its column 0 covers the left endpoint)
    and never the scaled costate, so agreement of its zero set with the
    eval_residual blocks checks the multiplier transform end to end.
    Returns a dict of sup norms keyed by condition; mu, X and Lambda must
    have shape (N+2, n), U (N, m) and C_x (n,), or DimensionMismatch is raised.
    """
    rule = ops.rule
    N = rule.order
    w = rule.weights
    _check_trajectory(problem, N, traj)
    X, U = traj.X, traj.U
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (N + 2, problem.n):
        raise DimensionMismatch(f"expected multipliers of shape {(N + 2, problem.n)}, "
                                f"got {mu.shape}")
    mu_c = mu[1:N + 1]

    # Hamiltonian arguments: raw multiplier combination per node
    arg = mu_c + w[:, None] * mu[N + 1]
    Hx = problem.ham_x(X[1:N + 1], U, arg)
    Hu = problem.ham_u(X[1:N + 1], U, arg)

    left_coupling = mu[N + 1] - mu[0] - ops.D[:, 0] @ mu_c
    stationarity_x = ops.D[:, 1:].T @ mu_c - Hx
    terminal = mu[N + 1] - _checked("cost_grad", problem.cost_grad(X[N + 1]), (problem.n,))
    stationarity_u = U - problem.control_set.project(U - Hu)

    return {
        "left_coupling": float(np.max(np.abs(left_coupling))),
        "stationarity_x": float(np.max(np.abs(stationarity_x))),
        "terminal": float(np.max(np.abs(terminal))),
        "stationarity_u": float(np.max(np.abs(stationarity_u))),
    }


def interpolate_trajectory(traj, t):
    """Evaluate the state and costate polynomials of a trajectory at t.

    The degree-N state polynomial interpolates the grid values at
    {-1, tau_1..tau_N}; the costate polynomial interpolates those at
    {tau_1..tau_N, +1}.  Returns (x, lam): shape (n,) for scalar t, and
    (len(t), n) for a 1-d array; raises DimensionMismatch for more dims.
    """
    N = traj.N
    x = barycentric_matrix(traj.nodes[:N + 1], t) @ traj.X[:N + 1]
    lam = barycentric_matrix(traj.nodes[1:], t) @ traj.Lambda[1:]
    if np.ndim(t) == 0:
        return x[0], lam[0]
    return x, lam
