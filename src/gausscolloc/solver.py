"""Collocation solver: projected gradient on the control with exact
state and costate elimination.

Each outer iteration solves the collocated state equations for the current
control and the collocated adjoint equations in one linear pass, then takes
a projected, Hessian-scaled descent step on the control with an Armijo
backtracking line search, until the combined optimality residual drops
below ``tol_y``.

Both eliminations use one Newton matrix M = I - (Dinv x I) blockdiag(f_x),
preconditioned by the inverse Dinv of the trailing block D[:, 1:] (sup norm
below 2 at every order) and factored once per accepted iterate.  As the
collocation Jacobian is J = (D[:, 1:] x I) M, line-search trials run chord
Newton on those factors and the costate solves with J transposed.  The
state defect is measured in the residual's quadrature-weighted norm and
driven a decade below ``tol_y`` (never below ``newton_tol``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diffmat import build_operators, solve_D1N
from .errors import DimensionMismatch, NewtonDivergence
from .quadrature import gauss_rule
from .transcription import Residual, Trajectory, eval_residual, full_grid, omega_norm

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    tol_y: float = 1e-10
    max_outer: int = 200
    newton_tol: float = 1e-12
    newton_max: int = 50
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    step_init: float = 1.0
    max_halvings: int = 60
    activity_tol: float = 1e-8


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: converged flag, iterate, and diagnostics."""

    name: str
    order: int
    converged: bool
    outer_iters: int
    y_norm: float
    objective: float
    traj: Trajectory
    active_set: np.ndarray
    residual: Residual
    objective_history: list = field(default_factory=list)


class NewtonFactors(NamedTuple):
    """f_x (N, n, n) at one state and the LU factors of M built from it."""

    A: np.ndarray
    lu: tuple


def newton_factors(problem, ops, Xc, U):
    """Evaluate f_x at the collocation states Xc (N, n) and factor M;
    raises DimensionMismatch unless f_x is an (N, n, n) stack."""
    from scipy.linalg import lu_factor

    N, n = ops.rule.order, problem.n
    A = problem.dynamics_x(Xc, U)
    if np.shape(A) != (N, n, n):
        raise DimensionMismatch(f"dynamics_x gave {np.shape(A)}, expected {(N, n, n)}")
    # M[(i,k), (j,l)] = delta - Dinv[i, j] A[j, k, l], built as its transpose:
    # M^T in row-major order is M in the column-major order LAPACK factors in place
    MT = np.einsum("ij,jkl->jlik", ops.D1N_inv, -A,
                   out=np.empty((N, n, N, n))).reshape(N * n, N * n)
    MT.flat[::N * n + 1] += 1.0
    return NewtonFactors(A, lu_factor(MT.T, overwrite_a=True, check_finite=False))


def solve_state(problem, ops, U, x0=None, X_guess=None, config=SolverConfig(),
                factors=None):
    """Chord Newton solve of the collocated state equations for a fixed control.

    x0 defaults to the problem's initial state.  Returns the state stack
    (N+2, n): initial point, collocation values, and the quadrature
    endpoint.  Steps use ``factors`` (by default taken at the first iterate)
    and refactor whenever the defect fails to halve.  Convergence requires
    the defect G = D X - F(X, U) to fall below max(newton_tol, 0.1 * tol_y)
    in the norm sqrt(sum_i w_i |G_i|^2) that ``eval_residual`` reports for
    ``state_defect``.  Raises NewtonDivergence when the iteration exhausts
    its budget or produces non-finite values.
    """
    from scipy.linalg import lu_solve

    rule = ops.rule
    N, n = rule.order, problem.n
    x0 = np.asarray(problem.x0 if x0 is None else x0, dtype=float)
    if X_guess is not None:
        Xc = np.array(X_guess[1:N + 1], dtype=float)
    else:
        Xc = np.tile(x0, (N, 1))

    target = max(config.newton_tol, 0.1 * config.tol_y)
    prev = np.inf
    for _ in range(config.newton_max):
        Xfull = np.vstack([x0[None, :], Xc])
        F = problem.dynamics(Xc, U)
        G = ops.D @ Xfull - F
        defect = omega_norm(rule, G)
        if not np.isfinite(defect):
            raise NewtonDivergence("state Newton iteration produced non-finite values")
        if defect <= target:
            XN1 = x0 + rule.weights @ F
            return np.vstack([Xfull, XN1[None, :]])
        if factors is None or defect > 0.5 * prev:
            factors = newton_factors(problem, ops, Xc, U)
        prev = defect
        # J delta = -G with J = (D[:, 1:] x I) M
        Y = solve_D1N(ops, -G)
        Xc = Xc + lu_solve(factors.lu, Y.ravel(), check_finite=False).reshape(N, n)

    raise NewtonDivergence(
        f"state Newton did not reach its defect target in {config.newton_max} steps")


def solve_costate(problem, ops, X, U, terminal, factors=None):
    """Solve the collocated adjoint system for a given trajectory.

    The Hamiltonian is linear in the costate, so after scaling each
    collocation row by its quadrature weight the system is the transpose of
    the state Newton system at X, whose ``factors`` are computed when
    omitted.  Returns the costate stack (N+2, n) whose first row satisfies
    the left endpoint coupling identity and whose last row equals
    ``terminal``.
    """
    from scipy.linalg import lu_solve

    rule = ops.rule
    N, n = rule.order, problem.n
    w = rule.weights
    terminal = np.asarray(terminal, dtype=float)
    if factors is None:
        factors = newton_factors(problem, ops, X[1:N + 1], U)

    # row i of the weight-scaled adjoint system J^T Y = M^T (D1N^T x I) Y = rhs:
    #   (D1N^T Y)_i - A_i^T Y_i = w_i * Ddag[i, -1] * terminal,  Y_i = w_i Lam_i
    rhs = (w * ops.D_dagger[:, -1])[:, None] * terminal[None, :]
    Z = lu_solve(factors.lu, rhs.ravel(), trans=1, check_finite=False)
    Y = solve_D1N(ops, Z.reshape(N, n), transposed=True)

    Lam = np.empty((N + 2, n))
    Lam[1:N + 1] = Y / w[:, None]
    Lam[N + 1] = terminal
    Lam[0] = terminal + w @ np.einsum("kij,ki->kj", factors.A, Lam[1:N + 1])
    return Lam


def _descent_direction(problem, X, U, Lam, Hu):
    """Per-node direction: Hessian-scaled gradient where the control
    Hessian of the Hamiltonian is positive definite, raw gradient else."""
    R = problem.ham_hess_uu(X[1:-1], U, Lam[1:-1])
    pd = np.linalg.eigvalsh(R)[:, 0] > 0.0
    d = Hu.copy()
    d[pd] = np.linalg.solve(R[pd], Hu[pd, :, None])[:, :, 0]
    return d


def solve(problem, N, config=None, warm_start=None):
    """Drive the control iteration to a stationary point.

    N is the number of collocation points.  A warm_start Trajectory seeds
    the control and the state guess.  Returns a SolveReport whose
    converged flag reports an exhausted outer loop honestly (never an
    exception), with the last iterate and its residual attached.
    """
    if config is None:
        config = SolverConfig()
    rule = gauss_rule(N)
    ops = build_operators(rule)
    m = problem.m
    nodes = full_grid(rule)
    w = rule.weights

    if warm_start is None:
        U = problem.control_set.project(np.zeros((N, m)))
        X_seed = None
    else:
        U = problem.control_set.project(np.array(warm_start.U, dtype=float))
        X_seed = warm_start.X

    X = solve_state(problem, ops, U, X_guess=X_seed, config=config)
    factors = newton_factors(problem, ops, X[1:N + 1], U)
    Lam = solve_costate(problem, ops, X, U, problem.cost_grad(X[N + 1]), factors)

    history = []
    converged = False
    outer = 0
    report = None
    for outer in range(1, config.max_outer + 1):
        traj = Trajectory(nodes=nodes, X=X, U=U, Lambda=Lam)
        report = eval_residual(problem, ops, traj)
        obj = float(problem.cost(X[N + 1]))
        history.append(obj)
        if report.y_norm <= config.tol_y:
            converged = True
            break

        Hu = problem.ham_u(X[1:N + 1], U, Lam[1:N + 1])
        grad = w[:, None] * Hu
        d = _descent_direction(problem, X, U, Lam, Hu)

        step = config.step_init
        accepted = False
        for _ in range(config.max_halvings):
            U_t = problem.control_set.project(U - step * d)
            pred = float(np.sum(grad * (U_t - U)))
            try:
                X_t = solve_state(problem, ops, U_t, X_guess=X, config=config,
                                  factors=factors)
            except NewtonDivergence:
                step *= config.backtrack
                continue
            obj_t = float(problem.cost(X_t[N + 1]))
            # second test: expected decrease is below objective roundoff
            if obj_t <= obj + config.armijo_c * pred \
                    or abs(pred) <= 8.0 * _EPS * (1.0 + abs(obj)):
                accepted = True
                break
            step *= config.backtrack
        if not accepted:
            break

        U, X = U_t, X_t
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        Lam = solve_costate(problem, ops, X, U, problem.cost_grad(X[N + 1]), factors)

    traj = Trajectory(nodes=nodes, X=X, U=U, Lambda=Lam)
    report = eval_residual(problem, ops, traj)
    pre = U - problem.ham_u(X[1:N + 1], U, Lam[1:N + 1])
    active = np.abs(pre - problem.control_set.project(pre)) > config.activity_tol

    return SolveReport(
        name=problem.name, order=N, converged=converged,
        outer_iters=outer, y_norm=report.y_norm,
        objective=float(problem.cost(X[N + 1])),
        traj=traj, active_set=active, residual=report,
        objective_history=history)
