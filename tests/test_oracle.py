"""The discrete LQ optimum, computed without the solver.

For xdot = A x + B u on [-1, 1] with running cost (|x|^2 + |u|^2) / 2,
folded in by ``augment_bolza``, and no control bound, the collocated
problem is a strictly convex QP in the states X_c and controls U at the
Gauss points:

    minimise    sum_i w_i (|x_i|^2 + |u_i|^2) / 2
    subject to  D[:, 1:] X_c + D[:, 0] x0^T = X_c A^T + U B^T.

``_oracle`` solves its KKT system with one dense solve.  With a box on
the controls, ``_box_oracle`` eliminates the states, X_c = S U + s_0, by
one dense solve and minimises the objective over the box by bounded-variable
least squares.  Both read only D and the quadrature weights, so they share
no code with ``solve``.
"""

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from gausscolloc import (ControlProblem, ControlSet, RunningCost, augment_bolza,
                         build_operators, gauss_rule, solve)

# solve stops once its residual norm y is at most tol_y = 1e-10.  On the
# converging rows its controls and states end within 5.7e-11 of the oracle's,
# so 10 tol_y covers that gap; the stalled rows end 5.7e-9 to 9.2e-8 away
BOUND = 1e-9
STALLS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the H_uu-scaled projected-gradient step stalls: 200 iterates end at y "
           "between 3e-8 and 2.3e-7; a semismooth Newton step should fix it")

# (A, B, x0, marks): the scalar rows are given as numbers
LQ_CASES = {
    "decay": (-1.0, 1.0, 2.0, ()),
    "grow": (0.5, 1.0, 1.0, STALLS),
    "gain3": (0.3, 3.0, -0.7, STALLS),
    "oscillator": ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [1.0, 0.0], STALLS),
}
# (A, B, x0, lower, upper, marks) of scalar problems with a one-sided box,
# active at some nodes; None leaves a side open
BOX_CASES = {
    "decay-floor": (-1.0, 1.0, 2.0, -0.5, None, ()),
    "grow-ceiling": (0.5, 1.0, 1.0, None, -0.2, STALLS),
}


def _data(name):
    A, B, x0, _ = LQ_CASES[name]
    return _arrays(A, B, x0)


def _arrays(A, B, x0):
    return (np.atleast_2d(A).astype(float), np.atleast_2d(B).astype(float),
            np.atleast_1d(x0).astype(float))


def _lq_problem(A, B, x0, control_set=ControlSet.unconstrained()):
    n, m = B.shape
    base = ControlProblem(
        name="", n=n, m=m,
        dynamics=lambda X, U: X @ A.T + U @ B.T,
        dynamics_x=lambda X, U: np.tile(A, (len(X), 1, 1)),
        dynamics_u=lambda X, U: np.tile(B, (len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(n),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), m, m)),
        x0=x0,
        control_set=control_set)
    running = RunningCost(
        value=lambda X, U: 0.5 * (np.sum(X * X, axis=1) + np.sum(U * U, axis=1)),
        grad_x=lambda X, U: X.copy(),
        grad_u=lambda X, U: U.copy(),
        hess_uu=lambda X, U: np.tile(np.eye(m), (len(X), 1, 1)))
    return augment_bolza(base, running, name="lq")


def _oracle(A, B, x0, N):
    """(X_c, U, D) of the collocated QP at order N, from one dense KKT solve
    in the unknowns vec(X_c), vec(U) (row-major) and the multipliers."""
    rule = gauss_rule(N)
    D, w = build_operators(rule).D, rule.weights
    n, m = B.shape
    C = np.hstack([np.kron(D[:, 1:], np.eye(n)) - np.kron(np.eye(N), A),
                   -np.kron(np.eye(N), B)])
    H = np.diag(np.concatenate([np.repeat(w, n), np.repeat(w, m)]))
    K = np.block([[H, C.T], [C, np.zeros((N * n, N * n))]])
    rhs = np.concatenate([np.zeros(N * (n + m)), -np.outer(D[:, 0], x0).ravel()])
    v = np.linalg.solve(K, rhs)
    return v[:N * n].reshape(N, n), v[N * n:N * (n + m)].reshape(N, m), D


def _box_oracle(A, B, x0, N, lower, upper):
    """(X_c, U) of the collocated QP at order N with every control in
    [lower, upper] (None leaves a side open).  One dense solve of the
    dynamics gives X_c = S U + s_0, and the objective is half the squared
    norm of sqrt(w) (S U + s_0) stacked on sqrt(w) U, which bounded-variable
    least squares minimises over the box."""
    rule = gauss_rule(N)
    D, w = build_operators(rule).D, rule.weights
    n, m = B.shape
    M = np.kron(D[:, 1:], np.eye(n)) - np.kron(np.eye(N), A)
    S = np.linalg.solve(M, np.column_stack([np.kron(np.eye(N), B),
                                            -np.outer(D[:, 0], x0).ravel()]))
    S, s0 = S[:, :-1], S[:, -1]
    rx, ru = np.sqrt(np.repeat(w, n)), np.sqrt(np.repeat(w, m))
    U = lsq_linear(np.vstack([rx[:, None] * S, np.diag(ru)]),
                   np.concatenate([-rx * s0, np.zeros(N * m)]),
                   bounds=(-np.inf if lower is None else lower,
                           np.inf if upper is None else upper),
                   method="bvls", tol=1e-14).x
    return (S @ U + s0).reshape(N, n), U.reshape(N, m)


def _max_defect(A, B, x0, X, U, D):
    return np.abs(D[:, 1:] @ X + np.outer(D[:, 0], x0) - X @ A.T - U @ B.T).max()


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", [pytest.param(name, marks=case[3])
                                  for name, case in LQ_CASES.items()])
def test_solve_reaches_the_oracle(name, N):
    A, B, x0 = _data(name)
    X, U, _ = _oracle(A, B, x0, N)
    report = solve(_lq_problem(A, B, x0), N)
    assert report.converged, (report.termination, report.outer_iters, report.y_norm)
    np.testing.assert_allclose(report.traj.U, U, rtol=0.0, atol=BOUND)
    np.testing.assert_allclose(report.traj.X[1:N + 1, :len(x0)], X, rtol=0.0, atol=BOUND)


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", list(LQ_CASES))
def test_oracle_meets_the_discrete_dynamics(name, N):
    A, B, x0 = _data(name)
    X, U, D = _oracle(A, B, x0, N)
    assert _max_defect(A, B, x0, X, U, D) <= 1e-12


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", [pytest.param(name, marks=case[5])
                                  for name, case in BOX_CASES.items()])
def test_solve_reaches_the_box_oracle(name, N):
    A, B, x0, lower, upper, _ = BOX_CASES[name]
    A, B, x0 = _arrays(A, B, x0)
    X, U = _box_oracle(A, B, x0, N, lower, upper)
    report = solve(_lq_problem(A, B, x0, ControlSet.box(lower, upper)), N)
    assert report.converged, (report.termination, report.outer_iters, report.y_norm)
    np.testing.assert_allclose(report.traj.U, U, rtol=0.0, atol=BOUND)
    np.testing.assert_allclose(report.traj.X[1:N + 1, :len(x0)], X, rtol=0.0, atol=BOUND)


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", list(BOX_CASES))
def test_box_oracle_keeps_the_box_and_the_dynamics(name, N):
    A, B, x0, lower, upper, _ = BOX_CASES[name]
    A, B, x0 = _arrays(A, B, x0)
    X, U = _box_oracle(A, B, x0, N, lower, upper)
    assert _max_defect(A, B, x0, X, U, build_operators(gauss_rule(N)).D) <= 1e-12
    # inside the box and on it at some node, or the case would test no bound
    if lower is not None:
        assert U.min() == lower
    if upper is not None:
        assert U.max() == upper


@pytest.mark.parametrize("N", [10, 40])
def test_an_inactive_box_gives_the_kkt_optimum(N):
    A, B, x0 = _data("decay")
    X, U, _ = _oracle(A, B, x0, N)
    Xb, Ub = _box_oracle(A, B, x0, N, -10.0, 10.0)
    np.testing.assert_allclose(Ub, U, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(Xb, X, rtol=0.0, atol=1e-12)
