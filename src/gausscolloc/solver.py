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
driven a decade below ``tol_y`` (never below ``NEWTON_TOL``).

A state that no dynamics read, such as the integrator of a running cost
that ``augment_bolza`` appends, has a zero column of f_x at every node.
Its block of M is the identity, so M is block lower triangular and only
the block of the other ("live") states is LU-factored; the rest of a
solve is one product with Dinv.  For the built-ins this halves the order
of the factored matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diffmat import build_operators, solve_D1N
from .errors import DimensionMismatch, NewtonDivergence
from .quadrature import gauss_rule
from .transcription import Residual, Trajectory, eval_residual, full_grid, omega_norm

_EPS = float(np.finfo(float).eps)
_NON_FINITE = "state Newton iteration produced non-finite values"

NEWTON_TOL = 1e-12    # floor of the state Newton defect target
NEWTON_MAX = 50       # state Newton steps per solve_state call
ARMIJO_C = 1e-4       # sufficient-decrease fraction of the predicted decrease
BACKTRACK = 0.5       # line-search step factor per rejected trial
STEP_INIT = 1.0       # first trial step of every line search
MAX_HALVINGS = 60     # line-search trials per outer iteration
ACTIVITY_TOL = 1e-8   # projection gap above which a control is active


@dataclass(frozen=True)
class SolverConfig:
    """Outer stopping test: residual norm target and iteration budget."""

    tol_y: float = 1e-10
    max_outer: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol_y) and self.tol_y > 0):
            raise ValueError(f"tol_y must be finite and positive, got {self.tol_y!r}")
        if not self.max_outer >= 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer!r}")


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
    """f_x (N, n, n) at one state and M factored by blocks.

    ``live`` indexes the states whose column of f_x is nonzero at some
    node and ``dead`` those whose column is zero at every node.  ``lu``
    holds the LU factors of the live block M_LL (None when no state is
    live).  ``coupling`` is f_x[:, dead][:, :, live], through which the dead
    states follow the live ones: over the live and dead columns, the dead
    rows of M are [-(Dinv x I) blockdiag(coupling), I].
    """

    A: np.ndarray
    lu: tuple | None
    live: np.ndarray
    dead: np.ndarray
    coupling: np.ndarray


def newton_factors(problem, ops, Xc, U):
    """Evaluate f_x at the collocation states Xc (N, n) and factor M;
    raises DimensionMismatch unless f_x is an (N, n, n) stack.

    Only the live block of M is factored: a dead state's column of M is
    the identity's, so it never needs an LU (see ``NewtonFactors``).
    """
    from scipy.linalg import lu_factor

    N, n = ops.rule.order, problem.n
    A = problem.dynamics_x(Xc, U)
    if np.shape(A) != (N, n, n):
        raise DimensionMismatch(f"dynamics_x gave {np.shape(A)}, expected {(N, n, n)}")
    read = np.any(A != 0.0, axis=(0, 1))
    live, dead = np.flatnonzero(read), np.flatnonzero(~read)
    L = live.size
    lu = None
    if L:
        # M_LL[(i,k), (j,l)] = delta - Dinv[i, j] A[j, k, l], built as its transpose:
        # M^T in row-major order is M in the column-major order LAPACK factors in place
        MT = np.einsum("ij,jkl->jlik", ops.D1N_inv, -A[:, live[:, None], live],
                       out=np.empty((N, L, N, L))).reshape(N * L, N * L)
        MT.flat[::N * L + 1] += 1.0
        lu = lu_factor(MT.T, overwrite_a=True, check_finite=False)
    return NewtonFactors(A, lu, live, dead, A[:, dead[:, None], live])


def _newton_solve(ops, factors, R, transposed=False):
    """Solve M Z = R, or M^T Z = R, for a right-hand side R (N, n).

    Forward, Z_L = M_LL^-1 R_L and then Z_D = R_D + Dinv (coupling Z_L);
    transposed, Z_D = R_D and Z_L = M_LL^-T (R_L + coupling^T (Dinv^T Z_D)).
    """
    from scipy.linalg import lu_solve

    live, dead, C = factors.live, factors.dead, factors.coupling
    Z = np.array(R, dtype=float)
    if transposed and dead.size:
        Z[:, live] += np.einsum("jkl,jk->jl", C, ops.D1N_inv.T @ Z[:, dead])
    if factors.lu is not None:
        Z[:, live] = lu_solve(factors.lu, Z[:, live].ravel(), trans=int(transposed),
                              check_finite=False).reshape(len(Z), live.size)
    if not transposed and dead.size:
        Z[:, dead] += ops.D1N_inv @ np.einsum("jkl,jl->jk", C, Z[:, live])
    return Z


def solve_state(problem, ops, U, X_guess=None, config=SolverConfig(), factors=None):
    """Chord Newton solve of the collocated state equations for a fixed control.

    Returns the state stack (N+2, n) from the problem's initial state:
    initial point, collocation values, and the quadrature endpoint.  Steps
    use ``factors`` (by default taken at the first iterate) and refactor
    whenever the defect fails to halve.  Convergence requires
    the defect G = D X - F(X, U) to fall below max(NEWTON_TOL, 0.1 * tol_y)
    in the norm sqrt(sum_i w_i |G_i|^2) that ``eval_residual`` reports for
    ``state_defect``.  Raises NewtonDivergence when the iteration exhausts
    its budget or produces non-finite values, and DimensionMismatch when
    finite dynamics values are not an (N, n) stack.
    """
    rule = ops.rule
    N, n = rule.order, problem.n
    x0 = np.asarray(problem.x0, dtype=float)
    if X_guess is not None:
        Xc = np.array(X_guess[1:N + 1], dtype=float)
    else:
        Xc = np.tile(x0, (N, 1))

    target = max(NEWTON_TOL, 0.1 * config.tol_y)
    prev = np.inf
    for _ in range(NEWTON_MAX):
        Xfull = np.vstack([x0[None, :], Xc])
        F = problem.dynamics(Xc, U)
        if np.shape(F) != (N, n):
            # non-finite values are a divergence, whatever their shape
            if not np.all(np.isfinite(F)):
                raise NewtonDivergence(_NON_FINITE)
            raise DimensionMismatch(f"dynamics gave {np.shape(F)}, expected {(N, n)}")
        G = ops.D @ Xfull - F
        defect = omega_norm(rule, G)
        if not np.isfinite(defect):
            raise NewtonDivergence(_NON_FINITE)
        if defect <= target:
            XN1 = x0 + rule.weights @ F
            return np.vstack([Xfull, XN1[None, :]])
        if factors is None or defect > 0.5 * prev:
            factors = newton_factors(problem, ops, Xc, U)
        prev = defect
        # J delta = -G with J = (D[:, 1:] x I) M
        Xc = Xc + _newton_solve(ops, factors, solve_D1N(ops, -G))

    raise NewtonDivergence(
        f"state Newton did not reach its defect target in {NEWTON_MAX} steps")


def solve_costate(problem, ops, X, U, terminal, factors=None):
    """Solve the collocated adjoint system for a given trajectory.

    The Hamiltonian is linear in the costate, so after scaling each
    collocation row by its quadrature weight the system is the transpose of
    the state Newton system at X, whose ``factors`` are computed when
    omitted.  Returns the costate stack (N+2, n) whose first row satisfies
    the left endpoint coupling identity and whose last row equals
    ``terminal``, the terminal cost gradient; raises DimensionMismatch
    unless it has shape (n,).
    """
    rule = ops.rule
    N, n = rule.order, problem.n
    w = rule.weights
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (n,):
        raise DimensionMismatch(f"cost_grad gave {terminal.shape}, expected {(n,)}")
    if factors is None:
        factors = newton_factors(problem, ops, X[1:N + 1], U)

    # row i of the weight-scaled adjoint system J^T Y = M^T (D1N^T x I) Y = rhs:
    #   (D1N^T Y)_i - A_i^T Y_i = w_i * Ddag[i, -1] * terminal,  Y_i = w_i Lam_i
    rhs = (w * ops.D_dagger[:, -1])[:, None] * terminal[None, :]
    Z = _newton_solve(ops, factors, rhs, transposed=True)
    Y = solve_D1N(ops, Z, transposed=True)

    Lam = np.empty((N + 2, n))
    Lam[1:N + 1] = Y / w[:, None]
    Lam[N + 1] = terminal
    Lam[0] = terminal + w @ np.einsum("kij,ki->kj", factors.A, Lam[1:N + 1])
    return Lam


def _descent_direction(problem, X, U, Lam, Hu):
    """Per-node direction: Hessian-scaled gradient where the control
    Hessian of the Hamiltonian is positive definite, raw gradient else."""
    R = problem.ham_hess_uu(X[1:-1], U, Lam[1:-1])
    if np.shape(R) != (len(U), problem.m, problem.m):
        raise DimensionMismatch(
            f"ham_hess_uu gave {np.shape(R)}, expected {(len(U), problem.m, problem.m)}")
    pd = np.linalg.eigvalsh(R)[:, 0] > 0.0
    d = Hu.copy()
    d[pd] = np.linalg.solve(R[pd], Hu[pd, :, None])[:, :, 0]
    return d


def solve(problem, N, config=None, warm_start=None):
    """Drive the control iteration to a stationary point.

    N is the number of collocation points.  A warm_start Trajectory of
    order N seeds the control and the state guess; any other shape raises
    DimensionMismatch.  Returns a SolveReport whose converged flag reports
    an exhausted outer loop honestly (never an exception), with the last
    iterate and its residual attached.
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
        shapes = (np.shape(warm_start.U), np.shape(warm_start.X))
        if shapes != ((N, m), (N + 2, problem.n)):
            raise DimensionMismatch(
                f"warm start has U {shapes[0]} and X {shapes[1]}, "
                f"expected U {(N, m)} and X {(N + 2, problem.n)}")
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

        step = STEP_INIT
        accepted = False
        for _ in range(MAX_HALVINGS):
            U_t = problem.control_set.project(U - step * d)
            pred = float(np.sum(grad * (U_t - U)))
            try:
                X_t = solve_state(problem, ops, U_t, X_guess=X, config=config,
                                  factors=factors)
            except NewtonDivergence:
                step *= BACKTRACK
                continue
            obj_t = float(problem.cost(X_t[N + 1]))
            # second test: expected decrease is below objective roundoff
            if obj_t <= obj + ARMIJO_C * pred \
                    or abs(pred) <= 8.0 * _EPS * (1.0 + abs(obj)):
                accepted = True
                break
            step *= BACKTRACK
        if not accepted:
            break

        U, X = U_t, X_t
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        Lam = solve_costate(problem, ops, X, U, problem.cost_grad(X[N + 1]), factors)

    traj = Trajectory(nodes=nodes, X=X, U=U, Lambda=Lam)
    report = eval_residual(problem, ops, traj)
    pre = U - problem.ham_u(X[1:N + 1], U, Lam[1:N + 1])
    active = np.abs(pre - problem.control_set.project(pre)) > ACTIVITY_TOL

    return SolveReport(
        name=problem.name, order=N, converged=converged,
        outer_iters=outer, y_norm=report.y_norm,
        objective=float(problem.cost(X[N + 1])),
        traj=traj, active_set=active, residual=report,
        objective_history=history)
