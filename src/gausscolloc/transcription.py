"""Discrete trajectories, optimality residuals, and multiplier maps.

A discrete trajectory stores the state on the grid {-1, tau_1..tau_N, +1},
the control at the N collocation points, and the costate on the same
(N+2)-point grid as the state.  ``eval_residual`` measures how far such a
triple is from satisfying the first-order optimality system; its combined
norm is the quantity the solver drives to zero.

The costate used here is a scaled form of the raw equality multipliers of
the underlying nonlinear program.  ``costate_to_multipliers`` and
``multipliers_to_costate`` convert between the two, and ``kkt_residuals``
evaluates the stationarity conditions directly in multiplier variables
with the forward difference matrix only, giving an independent check that
the two formulations vanish together.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffmat import barycentric_interpolate
from .errors import DimensionMismatch


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


def omega_norm(rule, values):
    """Quadrature-weighted l2 norm: sqrt(sum_i w_i |row_i|^2)."""
    z = np.asarray(values, dtype=float)
    if z.shape[0] != rule.order:
        raise DimensionMismatch(
            f"expected {rule.order} rows to match the rule, got {z.shape[0]}")
    sq = z * z if z.ndim == 1 else np.sum(z * z, axis=1)
    return float(np.sqrt(np.sum(rule.weights * sq)))


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


def eval_residual(problem, ops, traj):
    """Measure optimality-system violation of a trajectory."""
    rule = ops.rule
    N = rule.order
    X, U, Lam = traj.X, traj.U, traj.Lambda
    if X.shape != (N + 2, problem.n) or Lam.shape != (N + 2, problem.n):
        raise DimensionMismatch("trajectory grid does not match the rule")

    Xc, Lc = X[1:N + 1], Lam[1:N + 1]
    F = problem.dynamics(Xc, U)
    Hx = problem.ham_x(Xc, U, Lc)
    Hu = problem.ham_u(Xc, U, Lc)
    w = rule.weights

    initial = X[0] - problem.x0
    state_defect = ops.D @ X[:N + 1] - F
    endpoint_defect = X[N + 1] - X[0] - w @ F
    costate_endpoint = Lam[N + 1] - Lam[0] + w @ Hx
    costate_defect = ops.D_dagger @ Lam[1:] + Hx
    transversality = Lam[N + 1] - problem.cost_grad(X[N + 1])
    pre = U - Hu
    control_residual = U - problem.control_set.project(pre)

    # endpoint blocks enter with their Euclidean length, collocated blocks
    # with the quadrature-weighted l2 norm, the control block with the
    # largest per-node Euclidean length
    norms = {
        "initial": float(np.linalg.norm(initial)),
        "state_defect": omega_norm(rule, state_defect),
        "endpoint_defect": float(np.linalg.norm(endpoint_defect)),
        "costate_endpoint": float(np.linalg.norm(costate_endpoint)),
        "costate_defect": omega_norm(rule, costate_defect),
        "transversality": float(np.linalg.norm(transversality)),
        "control_residual": float(np.max(np.linalg.norm(control_residual, axis=1))),
    }
    return Residual(
        initial=initial, state_defect=state_defect,
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
    Returns a dict of sup norms keyed by condition.
    """
    rule = ops.rule
    N = rule.order
    w = rule.weights
    X, U = traj.X, traj.U
    mu = np.asarray(mu, dtype=float)
    mu_c = mu[1:N + 1]

    # Hamiltonian arguments: raw multiplier combination per node
    arg = mu_c + w[:, None] * mu[N + 1]
    Hx = problem.ham_x(X[1:N + 1], U, arg)
    Hu = problem.ham_u(X[1:N + 1], U, arg)

    left_coupling = mu[N + 1] - mu[0] - ops.D[:, 0] @ mu_c
    stationarity_x = ops.D[:, 1:].T @ mu_c - Hx
    terminal = mu[N + 1] - problem.cost_grad(X[N + 1])
    pre = U - Hu
    stationarity_u = U - problem.control_set.project(pre)

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
    (len(t), n) for an array.
    """
    N = traj.N
    x = barycentric_interpolate(traj.nodes[:N + 1], traj.X[:N + 1], t)
    lam = barycentric_interpolate(traj.nodes[1:], traj.Lambda[1:], t)
    return x, lam
