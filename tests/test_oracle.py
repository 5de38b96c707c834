"""The discrete LQ optimum, computed without the solver.

For xdot = A x + B u on [-1, 1] with running cost (|x|^2 + |u|^2) / 2,
folded in by ``augment_bolza``, and no control bound, the collocated
problem is a strictly convex QP in the states X_c and controls U at the
Gauss points:

    minimise    sum_i w_i (|x_i|^2 + |u_i|^2) / 2
    subject to  D[:, 1:] X_c + D[:, 0] x0^T = X_c A^T + U B^T.

``_oracle`` solves its KKT system with one dense solve.  It reads only D
and the quadrature weights, so it shares no code with ``solve``.
"""

import numpy as np
import pytest

from gausscolloc import (ControlProblem, ControlSet, RunningCost, augment_bolza,
                         build_operators, gauss_rule, solve)

# solve stops once its residual norm y is at most tol_y = 1e-10.  On the
# converging row its controls and states end within 5.7e-11 of the oracle's,
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


def _data(name):
    A, B, x0, _ = LQ_CASES[name]
    return (np.atleast_2d(A).astype(float), np.atleast_2d(B).astype(float),
            np.atleast_1d(x0).astype(float))


def _lq_problem(A, B, x0):
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
        control_set=ControlSet.unconstrained())
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
    defect = D[:, 1:] @ X + np.outer(D[:, 0], x0) - X @ A.T - U @ B.T
    assert np.abs(defect).max() <= 1e-12
