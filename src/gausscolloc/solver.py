"""Collocation solver: Newton-CG or projected gradient on the control, with
exact state and costate elimination.

Each outer iteration solves the collocated state equations for the current
control and the collocated adjoint equations in one linear pass, then
backtracks on P(U - t d) to an Armijo decrease, until the combined optimality
residual drops below ``tol_y``.  A trial is also accepted when its predicted
decrease is below the objective's roundoff, or below what the two state
solves' defects can move the two objectives by: a defect G moves one by about
<mu, G> for the multipliers mu = w (Lam_c - Lam_end), at most
||Lam_c - Lam_end||_w ||G||_w.  With no control active, d solves the reduced
Hessian system H d = w H_u by truncated Newton-CG, preconditioned by the
control Hessian H_uu, differenced from f_u; else d is H_u scaled by H_uu.

Both eliminations use one collocation Jacobian J = (D[:, 1:] x I) M, with
M = I - (Dinv x I) blockdiag(f_x) preconditioned by the inverse Dinv of the
trailing block D[:, 1:] (sup norm below 2 at every order) and factored once
per accepted iterate.  Line-search trials run chord Newton on the accepted
iterate's factors.  The state defect is measured in the residual's
quadrature-weighted norm and driven a decade below ``tol_y`` (never below
``NEWTON_TOL``), or by the last step to its roundoff.  Nothing an order or an
iterate fixes is computed twice: the operators are cached per order;
``solve_state`` returns an iterate's ``StateSolve`` and ``solve_costate`` its
H_x beside its costate, and the residual reads them; each trial is seeded by
the accepted record, so its first defect reads that state's D X; one H_u and
one P(U - H_u) serve step, residual and report.

A state that no dynamics read ("dead"), such as the integrator of a running
cost that ``augment_bolza`` appends, has a zero column of f_x at every node, so
J is block lower triangular over the other ("live") states and the dead ones,
and ``_jacobian_solve`` solves the live block alone.  As in the integral form
of Gauss collocation, a dead state is x0 + Dinv f and its costate the terminal
row, since Dinv^T (w Ddag[:, -1]) = w.  When no live state reads a live one
(the built-ins: x reads nothing), the live block is the identity: a Newton
step is one product with Dinv, and nothing is factored or loads ``scipy.linalg``.

Each ``solve_state`` call writes into one (N+2, n) buffer: the initial
point, the collocation iterates, which each Newton step updates in place,
and at convergence the quadrature endpoint.  The defect reads the first N+1
rows through a view, so no step stacks or copies the state.  A callback
result that is a view of the iterate (f handing back its input, f_x a view
of it) is read only before the update: a step gathers the live columns of G,
the fill the dead columns of f, and the LU factors are copies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import NamedTuple

import numpy as np

from .diffmat import build_operators
from .errors import DimensionMismatch, EvaluationFailure, NewtonDivergence
from .problem import _checked
from .quadrature import gauss_rule
from .transcription import Residual, Trajectory, _omega_norm, _residual, _state_defect, full_grid

_EPS = float(np.finfo(float).eps)
_NON_FINITE = "state Newton iteration produced non-finite values"

NEWTON_TOL = 1e-12    # floor of the state Newton defect target
NEWTON_MAX = 50       # state Newton steps per solve_state call
FLOOR = 4             # roundoff floor of the last state defect, in eps * ||(|D| |X|)||
ARMIJO_C = 1e-4       # sufficient-decrease fraction of the predicted decrease
BACKTRACK = 0.5       # line-search step factor per rejected trial
STEP_INIT = 1.0       # first trial step of every line search
MAX_HALVINGS = 60     # line-search trials per outer iteration
ACTIVITY_TOL = 1e-8   # projection gap above which a control is active
CG_RTOL = 1e-11       # Newton-CG residual target, relative to the gradient norm
CG_ATOL = 1e-13       # floor of the Newton-CG residual target
CG_MAX = 50           # Newton-CG iterations per step
FD_HVP = 1e-4         # sup-norm step of the Hessian product's central differences
HESS_STEP = 1e-3      # control step of the differenced H_uu, relative to max(1, max|U|)


@dataclass(frozen=True)
class SolverConfig:
    """Outer stopping test: residual norm target and budget of evaluated iterates."""

    tol_y: float = 1e-10
    max_outer: int = 200

    def __post_init__(self):
        t = self.tol_y
        if isinstance(t, bool) or not isinstance(t, Real) or not (math.isfinite(t) and t > 0):
            raise ValueError(f"tol_y must be a finite positive real number, got {t!r}")
        n = self.max_outer
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_outer must be an integer of at least 1, got {n!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: the last of ``outer_iters`` (at most ``max_outer``)
    evaluated iterates, and ``objective_history`` with one objective per iterate.

    ``termination`` names the exit the iteration took: "converged" (the last
    iterate is within ``tol_y``), "max_iter" (``max_outer`` iterates were
    evaluated) or "line_search_failed" (no trial step was accepted).
    """

    name: str
    order: int
    converged: bool
    termination: str
    outer_iters: int
    y_norm: float
    objective: float
    traj: Trajectory
    active_set: np.ndarray
    residual: Residual
    objective_history: list = field(default_factory=list)


class NewtonFactors(NamedTuple):
    """f_x (N, n, n) at one state and the live block of M factored.

    ``live`` indexes the states whose column of f_x is nonzero at some
    node and ``dead`` those whose column is zero at every node.  ``lu``
    holds the LU factors of the live block M_LL, or None when that block
    is the identity (no live state reads a live one).  ``coupling`` is
    f_x[:, dead][:, :, live], through which the dead states read the live
    ones.  Every J solve of the iterate runs on the live block alone: the
    state solve fills the dead columns from f, and the costate solve takes
    them from the terminal row.
    """

    A: np.ndarray
    lu: tuple | None
    live: np.ndarray
    dead: np.ndarray
    coupling: np.ndarray


def newton_factors(problem, ops, Xc, U):
    """Evaluate f_x at the collocation states Xc (N, n) and factor M;
    raises DimensionMismatch unless f_x is an (N, n, n) stack.

    Only the live block of M is factored, and only when f_x has a nonzero
    entry in it: a dead state's column of M is the identity's, and so is
    the live block when no live state reads a live one (see
    ``NewtonFactors``).
    """
    N, n = ops.rule.order, problem.n
    A = _checked("dynamics_x", problem.dynamics_x(Xc, U), (N, n, n))
    # reads[k, l]: k reads l at some node; a live state reads a live one iff it reads any
    reads = (A != 0.0).any(axis=0)
    read = reads.any(axis=0)
    live, dead = read.nonzero()[0], (~read).nonzero()[0]
    L, lu = live.size, None
    if reads[live].any():
        from scipy.linalg import lu_factor

        # M_LL[(i,k), (j,l)] = delta - Dinv[i, j] A[j, k, l], built as its transpose:
        # M^T in row-major order is M in the column-major order LAPACK factors in place
        MT = np.einsum("ij,jkl->jlik", ops.D1N_inv, -A[:, live[:, None], live],
                       out=np.empty((N, L, N, L))).reshape(N * L, N * L)
        MT.flat[::N * L + 1] += 1.0
        lu = lu_factor(MT.T, overwrite_a=True, check_finite=False)
    return NewtonFactors(A, lu, live, dead, A[:, dead[:, None], live])


def _jacobian_solve(ops, factors, R, transposed=False):
    """Solve J_LL Z = R, or J_LL^T Z = R, for R (N, L) over the live columns,
    where J_LL = (D[:, 1:] x I) M_LL is the live block of the collocation
    Jacobian at the factored iterate: Z = M_LL^-1 (Dinv R), or Z = Dinv^T (M_LL^-T R),
    one product with Dinv either way.  J is block lower triangular over the live
    and dead columns, so this is the live part of every forward J solve.
    """
    inv = ops.D1N_inv
    Z = R if transposed else inv @ R
    if factors.lu is not None:
        from scipy.linalg import lu_solve

        Z = lu_solve(factors.lu, Z.ravel(), trans=int(transposed),
                     check_finite=False).reshape(Z.shape)
    return inv.T @ Z if transposed else Z


def _dynamics(problem, Xc, U):
    """f at the collocation rows Xc, checked to be (N, n): a result of another shape
    raises NewtonDivergence if a value is not finite, DimensionMismatch otherwise."""
    F = problem.dynamics(Xc, U)
    if np.shape(F) != Xc.shape and not np.all(np.isfinite(F)):
        raise NewtonDivergence(_NON_FINITE)
    return _checked("dynamics", F, Xc.shape)


def solve_state(problem, ops, U, start=None, config=SolverConfig(), factors=None):
    """Chord Newton solve of the collocated state equations for a fixed control.

    Returns the ``StateSolve`` of the converged check: the state stack X (N+2, n)
    from the problem's initial state (initial point, collocation values, and the
    quadrature endpoint), with f, D X, the defect G and its norm.  Steps use
    ``factors`` (by default taken at the first iterate) and refactor whenever
    the defect fails to halve.  A step solves the live columns of J Z = -G and
    sets the dead ones to x0 + Dinv f at the new live values; the next f and D X
    measure the defect there, honest if a trial reads a state dead at ``factors``.
    Convergence requires the defect G = D X - F(X, U) to fall below
    max(NEWTON_TOL, 0.1 * tol_y) in the norm sqrt(sum_i w_i |G_i|^2) that
    ``eval_residual`` reports for ``state_defect``, or, at the last of the
    NEWTON_MAX steps, below FLOOR * eps * ||(|D| |X|)||, the roundoff of D X.
    The rows start.X[1:N+1] of a ``StateSolve`` ``start``, x0 by default, seed
    the iteration unchecked, and the first defect reads start.DX in place of the
    product, so start.X[0] must be x0: ``solve`` passes the accepted iterate's
    record and factors.  Raises NewtonDivergence when the iteration exhausts its
    budget or produces non-finite values, and DimensionMismatch when finite
    dynamics values are not an (N, n) stack; x0 was checked where the problem was built.
    """
    rule = ops.rule
    N, n = rule.order, problem.n
    x0 = problem.x0
    X = np.empty((N + 2, n))
    X[0] = x0
    X[1:N + 1] = x0 if start is None else start.X[1:N + 1]
    Xfull, Xc = X[:N + 1], X[1:N + 1]

    target = max(NEWTON_TOL, 0.1 * config.tol_y)
    prev = math.inf
    for step in range(NEWTON_MAX):
        F = _dynamics(problem, Xc, U)
        state = _state_defect(ops, X, F, ops.D @ Xfull if step or start is None else start.DX)
        if not math.isfinite(state.defect):
            raise NewtonDivergence(_NON_FINITE)
        if state.defect <= target or step == NEWTON_MAX - 1 and state.defect <= FLOOR * _EPS \
                * _omega_norm(rule.weights, np.abs(ops.D) @ np.abs(Xfull)):
            X[N + 1] = x0 + rule.weights @ F
            return state
        if factors is None or state.defect > 0.5 * prev:
            factors = newton_factors(problem, ops, Xc, U)
        prev = state.defect
        live, dead = factors.live, factors.dead
        Xc[:, live] -= _jacobian_solve(ops, factors, state.G[:, live])
        if dead.size:
            Xc[:, dead] = x0[dead] + ops.D1N_inv @ _dynamics(problem, Xc, U)[:, dead]

    raise NewtonDivergence(
        f"state Newton did not reach its defect target in {NEWTON_MAX} steps")


def solve_costate(problem, ops, factors, terminal):
    """Solve the collocated adjoint system at the state whose Newton ``factors`` are given.

    The Hamiltonian is linear in the costate, so the weight-scaled system is the
    transpose of the state Newton system: one J_LL^T solve on ``factors``, the
    dead columns being the terminal row (see ``NewtonFactors``).  Returns
    the costate stack Lam (N+2, n), whose first row satisfies the left endpoint
    coupling identity and whose last row equals ``terminal``, the terminal cost
    gradient, and H_x (N, n); raises DimensionMismatch unless ``terminal`` is (n,).
    """
    rule = ops.rule
    N, n = rule.order, problem.n
    w = rule.weights
    terminal = _checked("cost_grad", np.asarray(terminal, dtype=float), (n,))

    # row i of the weight-scaled adjoint system J^T Y = M^T (D1N^T x I) Y = rhs:
    #   (D1N^T Y)_i - A_i^T Y_i = w_i * Ddag[i, -1] * terminal,  Y_i = w_i Lam_i;
    # a dead column's Y is Dinv^T (w Ddag[:, -1]) terminal = w terminal, read by live rows
    live, dead = factors.live, factors.dead
    rhs = (w * ops.D_dagger[:, -1])[:, None] * terminal[live] \
        + w[:, None] * np.einsum("jkl,k->jl", factors.coupling, terminal[dead])
    Lam = np.empty((N + 2, n))
    Lam[1:N + 1, live] = _jacobian_solve(ops, factors, rhs, transposed=True) / w[:, None]
    Lam[1:N + 1, dead] = terminal[dead]
    Lam[N + 1] = terminal
    Hx = np.einsum("kij,ki->kj", factors.A, Lam[1:N + 1])
    Lam[0] = terminal + w @ Hx
    return Lam, Hx


def _control_hessian(problem, Xc, U, Lc, B):
    """H_uu (N, m, m) at rows Xc, U, Lc where f_u is B: column j is f_u at U + h e_j
    less B over the realized step, contracted with Lc, h = HESS_STEP max(1, max|U|).
    Raises EvaluationFailure unless finite, DimensionMismatch unless f_u is (N, n, m)."""
    h = HESS_STEP * max(1.0, np.abs(U).max())
    R = np.empty((len(U), problem.m, problem.m))
    for j in range(problem.m):
        Uj = U.copy()
        Uj[:, j] += h
        Bj = _checked("dynamics_u", problem.dynamics_u(Xc, Uj), B.shape)
        R[:, :, j] = np.einsum("kij,ki->kj", (Bj - B) / (Uj[:, j] - U[:, j])[:, None, None], Lc)
    R = 0.5 * (R + R.transpose(0, 2, 1)) if problem.m > 1 else R
    if not np.isfinite(R).all():
        raise EvaluationFailure("the control Hessian differenced from dynamics_u is not finite")
    return R


@np.errstate(over="ignore")  # overflow is ignored, as LAPACK raises no flag for it
def _divided(G, r):
    return np.divide(G, r, out=G.copy(), where=r > 0.0)


def _descent_direction(R):
    """The function taking a gradient G (N, m) to its per-node step: the control
    Hessian R (N, m, m) solved against G where it is positive definite, G itself else."""
    if R.shape[1] == 1:  # a 1x1 block is its eigenvalue, and LAPACK solves it by division
        return lambda G: _divided(G, R[:, 0])
    pd = np.linalg.eigvalsh(R)[:, 0] > 0.0

    def direction(G):
        d = G.copy()
        d[pd] = np.linalg.solve(R[pd], G[pd, :, None])[:, :, 0]
        return d
    return direction


def _hessian_product(problem, ops, factors, X, U, Lam, B, V):
    """H V for the reduced Hessian H, whose gradient in U is w H_u, at the iterate
    with ``factors`` and f_u = B (N, n, m): w (H_ux dX + H_uu V + f_u^T dLam), with
    dX a J solve of f_u V and dLam a J^T solve of the terminal row at C_xx dx_end
    plus w (H_xx dX + H_xu V).  Second-order terms are central differences of H_x,
    H_u and C_x along (dX, V), with Lam fixed, over a sup-norm step FD_HVP.  dX is
    solved over the live columns and its dead ones filled with Dinv (f_u V + f_x dX),
    as a state dead at the iterate can be read by the differences; dLam's dead
    columns are w C_xx, or one Dinv^T product where H_x differs on a dead column."""
    w, Xc, Lc, inv = ops.rule.weights, X[1:-1], Lam[1:-1], ops.D1N_inv
    live, dead, C = factors.live, factors.dead, factors.coupling
    dF = np.einsum("kij,kj->ki", B, V)
    dX = np.empty_like(Xc)
    dX[:, live] = _jacobian_solve(ops, factors, dF[:, live])
    dX[:, dead] = inv @ (dF[:, dead] + np.einsum("jkl,jl->jk", C, dX[:, live]))
    dx_end = w @ (np.einsum("kij,kj->ki", factors.A, dX) + dF)
    h = FD_HVP / max(np.abs(dX).max(), np.abs(V).max())
    Hx, Hu = ((fn(Xc + h * dX, U + h * V, Lc) - fn(Xc - h * dX, U - h * V, Lc)) / (2.0 * h)
              for fn in (problem.ham_x, problem.ham_u))
    Cxx = (np.asarray(problem.cost_grad(X[-1] + h * dx_end))
           - np.asarray(problem.cost_grad(X[-1] - h * dx_end))) / (2.0 * h)
    rhs = (w * ops.D_dagger[:, -1])[:, None] * Cxx + w[:, None] * Hx
    Y = np.empty_like(rhs)
    Y[:, dead] = inv.T @ rhs[:, dead] if Hx[:, dead].any() else w[:, None] * Cxx[dead]
    rhs[:, live] += np.einsum("jkl,jk->jl", C, Y[:, dead])
    Y[:, live] = _jacobian_solve(ops, factors, rhs[:, live], transposed=True)
    return w[:, None] * (Hu + np.einsum("kij,ki->kj", B, Y / w[:, None]))


def _newton_cg(hessian, precondition, b):
    """Truncated PCG for H d = b from d = 0: stops at |r| <= max(CG_RTOL |b|,
    CG_ATOL), after CG_MAX products or at curvature p.Hp <= 0 (Steihaug), and
    returns its iterate, or the preconditioned gradient if it has none."""
    d, r = np.zeros_like(b), b.copy()
    p = z = precondition(r)
    rz, tol = np.vdot(r, z), max(CG_RTOL * np.linalg.norm(b), CG_ATOL)
    for it in range(CG_MAX + 1):
        if it == CG_MAX or np.linalg.norm(r) <= tol:
            break
        Hp = hessian(p)
        pHp = np.vdot(p, Hp)
        if pHp <= 0.0:
            break
        d += rz / pHp * p
        r -= rz / pHp * Hp
        z = precondition(r)
        rz, rz_old = np.vdot(r, z), rz
        p = z + rz / rz_old * p
    return d if it else z


def solve(problem, N, config=None):
    """Drive the control iteration from the projected zero control to a stationary point.

    N is the number of collocation points, taken as ``gauss_rule`` takes
    it (a float raises TypeError, an order below 1 ValueError), and the
    report's ``order`` is the int the rule holds.  Evaluates at most
    ``config.max_outer`` iterates, stopping at the first within ``tol_y``
    or when no step is accepted, and reports the last; raises
    EvaluationFailure if its objective or residual norm, or the control
    Hessian a step uses, is not finite, and DimensionMismatch if a callback
    gives a stack of the wrong shape (x0 and the bounds are checked where built).

    A line-search trial is accepted at an Armijo decrease, or when its
    predicted decrease |pred| is at most 8 eps (1 + |obj|) or at most
    ||Lam_c - Lam_end||_w (defect + defect_t), the most that the accepted and
    the trial state's defects move the two objectives by.  Each trial's state
    solve is seeded by the accepted ``StateSolve``: its rows and its D X.
    """
    if config is None:
        config = SolverConfig()
    rule = gauss_rule(N)
    N = rule.order
    ops = build_operators(rule)
    m = problem.m
    nodes = full_grid(rule)
    w = rule.weights

    project = problem.control_set.project
    U = project(np.zeros((N, m)))

    # both solves are read from the module at call time, so a wrapper set there sees each
    state = solve_state(problem, ops, U, config=config)
    obj = float(problem.cost(state.X[N + 1]))

    history = []
    for outer in range(1, config.max_outer + 1):
        X = state.X
        factors = newton_factors(problem, ops, X[1:N + 1], U)
        g = problem.cost_grad(X[N + 1])
        Lam, Hx = solve_costate(problem, ops, factors, g)
        B = _checked("dynamics_u", problem.dynamics_u(X[1:N + 1], U), (N, problem.n, m))
        Hu = np.einsum("kij,ki->kj", B, Lam[1:N + 1])
        pre = U - Hu
        proj = project(pre)
        active = np.abs(pre - proj) > ACTIVITY_TOL
        traj = Trajectory(nodes=nodes, X=X, U=U, Lambda=Lam)
        report = _residual(problem, ops, traj, state, Hx, proj, g)
        if not (math.isfinite(obj) and math.isfinite(report.y_norm)):
            raise EvaluationFailure(f"iterate {outer}: objective {obj}, y_norm {report.y_norm}")
        history.append(obj)
        converged = report.y_norm <= config.tol_y
        if converged or outer == config.max_outer:
            break

        grad = w[:, None] * Hu
        direction = _descent_direction(_control_hessian(problem, X[1:N + 1], U, Lam[1:N + 1], B))
        d = direction(Hu) if active.any() else _newton_cg(
            lambda V: _hessian_product(problem, ops, factors, X, U, Lam, B, V),
            lambda r: direction(r / w[:, None]), grad)

        step = STEP_INIT
        for _ in range(MAX_HALVINGS):
            U_t = project(U - step * d)
            pred = float((grad * (U_t - U)).sum())
            try:
                state_t = solve_state(problem, ops, U_t, state, config, factors)
            except NewtonDivergence:
                step *= BACKTRACK
                continue
            obj_t = float(problem.cost(state_t.X[N + 1]))
            # second test: expected decrease is below objective roundoff; third:
            # below what the two state defects move the objectives by, at most
            # |<mu, G>| <= ||Lam_c - Lam_end||_w ||G||_w for the multipliers mu
            if obj_t <= obj + ARMIJO_C * pred \
                    or abs(pred) <= 8.0 * _EPS * (1.0 + abs(obj)) \
                    or abs(pred) <= _omega_norm(w, Lam[1:N + 1] - Lam[N + 1]) \
                    * (state.defect + state_t.defect):
                break
            step *= BACKTRACK
        else:
            break

        U, state, obj = U_t, state_t, obj_t

    termination = ("converged" if converged else
                   "max_iter" if outer == config.max_outer else "line_search_failed")

    return SolveReport(
        name=problem.name, order=N, converged=converged,
        termination=termination, outer_iters=outer, y_norm=report.y_norm, objective=obj,
        traj=traj, active_set=active, residual=report,
        objective_history=history)
