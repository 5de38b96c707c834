"""The discrete LQ optimum, computed without the solver.

For xdot = A x + B u on [-1, 1] with running cost (|x|^2 + |u|^2) / 2,
folded in by ``augment_bolza``, and no control bound, the collocated
problem is a strictly convex QP in the states X_c and controls U at the
Gauss points:

    minimise    sum_i w_i (|x_i|^2 + |u_i|^2) / 2
    subject to  D[:, 1:] X_c + D[:, 0] x0^T = X_c A^T + U B^T.

``_oracle`` solves its KKT system with one dense solve, which also gives
the multipliers of the dynamics; ``_oracle_trajectory`` carries them over
to the transcribed problem, so the package's own residuals check the
oracle.  With a box on the controls, ``_box_oracle`` eliminates the states,
X_c = S U + s_0, by one dense solve and minimises the objective over the
box by bounded-variable least squares.  Both read only D and the quadrature
weights, so they share no code with ``solve``.

The cases are four hand-picked problems, twelve seeded draws with n and m
in 1..3, and the two-control problem xdot = u1 + 2 u2, each at N = 10 and 40,
and a property over drawn problems with n, m in 1..3 and N in 3..40.

``_nonlinear_oracle`` solves the collocated NLP of a nonlinear problem with
a box, xdot = -x^3/6 + sin(x) u, u >= -0.3, by SLSQP, again from D and the
weights alone, and certifies its own point before ``solve`` is held to it.
``_cubic_oracle`` does the same for two coupled states, the cubic problem
with u >= -0.5 and the running cost u^2 / 2, whose collocated state equations
need an LU of the whole 2N x 2N block; it polishes SLSQP's point by a Newton
solve of the KKT equations on SLSQP's active set.

``_stability`` measures the paper's stability constant on the same system,
rescaled to the state, costate and control equations: the norm of its
inverse, split by perturbation block as the paper's proof uses it, settles
as N grows to 320.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import Bounds, lsq_linear, minimize, root

from gausscolloc import (ControlProblem, ControlSet, SolverConfig, Trajectory,
                         augment_bolza, build_operators, eval_residual, full_grid,
                         gauss_rule, kkt_residuals, multipliers_to_costate, solve)
from gausscolloc.solver import newton_factors

TOL_Y = SolverConfig().tol_y
# the oracle's own residuals, at N <= 40 on these data, read at most 2.4e-13
ROUNDING = 1e-12
STALLS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="an iterate with an active control takes the H_uu-scaled projected-"
           "gradient step, which stalls: 200 iterates end at y = 1.3e-7 (N = 10) "
           "and 9.6e-8 (N = 40), the objective rising by at most 4.6e-15 and "
           "2.1e-14 on a step, since a line-search trial is also accepted when its "
           "predicted decrease lies within the state defects' reach; the "
           "active-set half of semismooth Newton (ROADMAP item 1) should fix it")


def _seeded_cases():
    """Twelve draws from default_rng(0): n, m in 1..3, A ~ N(0, 1),
    B ~ N(0, 1) U(0.5, 3) and x0 ~ N(0, 1)."""
    rng = np.random.default_rng(0)
    cases = {}
    for i in range(12):
        n, m = rng.integers(1, 4), rng.integers(1, 4)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m)) * rng.uniform(0.5, 3.0)
        cases[f"draw{i}"] = (A, B, rng.standard_normal(n))
    return cases


# (A, B, x0): the scalar rows are given as numbers
LQ_CASES = {
    "decay": (-1.0, 1.0, 2.0),
    "grow": (0.5, 1.0, 1.0),
    "gain3": (0.3, 3.0, -0.7),
    "oscillator": ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [1.0, 0.0]),
    **_seeded_cases(),
    "two-control": (0.0, [[1.0, 2.0]], 1.0),
}
# (A, B, x0, lower, upper, marks) of scalar problems with a one-sided box,
# active at some nodes; None leaves a side open
BOX_CASES = {
    "decay-floor": (-1.0, 1.0, 2.0, -0.5, None, ()),
    "grow-ceiling": (0.5, 1.0, 1.0, None, -0.2, STALLS),
}


def _data(name):
    return _arrays(*LQ_CASES[name])


def _arrays(A, B, x0):
    return (np.atleast_2d(A).astype(float), np.atleast_2d(B).astype(float),
            np.atleast_1d(x0).astype(float))


def _lq_problem(A, B, x0, control_set=ControlSet()):
    n, m = B.shape
    base = ControlProblem(
        name="", n=n, m=m,
        dynamics=lambda X, U: X @ A.T + U @ B.T,
        dynamics_x=lambda X, U: np.tile(A, (len(X), 1, 1)),
        dynamics_u=lambda X, U: np.tile(B, (len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(n),
        x0=x0,
        control_set=control_set)
    return augment_bolza(
        base, name="lq",
        value=lambda X, U: 0.5 * (np.sum(X * X, axis=1) + np.sum(U * U, axis=1)),
        grad_x=lambda X, U: X.copy(),
        grad_u=lambda X, U: U.copy())


def _oracle(A, B, x0, N):
    """(X_c, U, nu, D) of the collocated QP at order N, from one dense KKT
    solve in the unknowns vec(X_c), vec(U) (row-major) and the multipliers
    nu (N, n) of the dynamics, with Lagrangian objective + nu . (dynamics)."""
    rule = gauss_rule(N)
    D, w = build_operators(rule).D, rule.weights
    n, m = B.shape
    C = np.hstack([np.kron(D[:, 1:], np.eye(n)) - np.kron(np.eye(N), A),
                   -np.kron(np.eye(N), B)])
    H = np.diag(np.concatenate([np.repeat(w, n), np.repeat(w, m)]))
    K = np.block([[H, C.T], [C, np.zeros((N * n, N * n))]])
    rhs = np.concatenate([np.zeros(N * (n + m)), -np.outer(D[:, 0], x0).ravel()])
    v = np.linalg.solve(K, rhs)
    X, U, nu = np.split(v, [N * n, N * (n + m)])
    return X.reshape(N, n), U.reshape(N, m), nu.reshape(N, n), D


def _oracle_trajectory(A, B, x0, N):
    """The oracle as a trajectory of the transcribed problem, with states
    (x, z) for z the running-cost integrator, and its raw multipliers mu.

    The transcription's Lagrangian subtracts mu_c . (D X - f) at the nodes,
    so mu_c = (-nu, 0): nothing reads z.  Its terminal multiplier is the
    cost gradient (0, 1), and the left one mu_end - D[:, 0] . mu_c."""
    X_c, U, nu, D = _oracle(A, B, x0, N)
    rule = gauss_rule(N)
    w = rule.weights
    n = len(x0)
    running = 0.5 * (np.sum(X_c * X_c, axis=1) + np.sum(U * U, axis=1))
    X = np.zeros((N + 2, n + 1))
    X[0, :n] = x0
    X[1:N + 1] = np.column_stack([X_c, np.linalg.solve(D[:, 1:], running)])
    X[N + 1] = np.append(x0 + w @ (X_c @ A.T + U @ B.T), w @ running)
    mu = np.zeros((N + 2, n + 1))
    mu[1:N + 1, :n] = -nu
    mu[N + 1, n] = 1.0
    mu[0] = mu[N + 1] - D[:, 0] @ mu[1:N + 1]
    traj = Trajectory(nodes=full_grid(rule), X=X, U=U,
                      Lambda=multipliers_to_costate(mu, rule))
    return traj, mu


def _state_map(A, B, x0, N):
    """(S, s_0, M) with X_c = S U + s_0 on vec(X_c) and vec(U), from one
    dense solve of the collocated dynamics M X_c = (I x B) U - D[:, 0] x0."""
    D = build_operators(gauss_rule(N)).D
    n = len(x0)
    M = np.kron(D[:, 1:], np.eye(n)) - np.kron(np.eye(N), A)
    S = np.linalg.solve(M, np.column_stack([np.kron(np.eye(N), B),
                                            -np.outer(D[:, 0], x0).ravel()]))
    return S[:, :-1], S[:, -1], M


def _bounds(A, B, x0, N, box):
    """How far a solve that stops at y <= tol_y can be from the optimum, in
    U and in X_c, at every node.

    y bounds the control residual r_i = U_i - P(U_i - H_u,i) at each node.
    With the states eliminated, H_u is the gradient of the QP in U in the
    quadrature metric |V|_W^2 = sum_i w_i |V_i|^2, in which its Hessian
    W^-1/2 (S^T W S + W) W^-1/2 has extreme eigenvalues mu >= 1 and L.  So
    |U - U*|_W <= c |r|_W, with c = 1 / mu without a box and the
    natural-residual constant c = (1 + L) / mu with one; |r|_W <= sqrt(2) y
    since the weights sum to 2, and a node's error is at most
    |U - U*|_W / sqrt(min w).  The states carry the state defect G too:
    X_c - X_c* = S (U - U*) + M^-1 G, for M the collocated dynamics'
    matrix.  The first term scales the U bound by the largest row sum of
    |S|; y bounds |G|_W as well, so the second is at most the largest row
    sum of |M^-1| times y / sqrt(min w).  Where S = 0 (B = 0) the second is
    the whole state bound: a state guess already within the state solve's
    defect target is kept without a step.  A defect this small moves H_u far
    less than the U bound allows, so H_u is taken as the QP's gradient."""
    w = gauss_rule(N).weights
    n, m = B.shape
    S, _, M = _state_map(A, B, x0, N)
    Sw = S / np.sqrt(np.repeat(w, m))
    mu, L = np.linalg.eigvalsh(Sw.T @ (np.repeat(w, n)[:, None] * Sw)
                               + np.eye(N * m))[[0, -1]]
    c = (1.0 + L) / mu if box else 1.0 / mu
    bound_u = c * np.sqrt(2.0) * TOL_Y / np.sqrt(w.min())
    bound_g = np.abs(np.linalg.inv(M)).sum(axis=1).max() * TOL_Y / np.sqrt(w.min())
    return bound_u, np.abs(S).sum(axis=1).max() * bound_u + bound_g


def _box_oracle(A, B, x0, N, lower, upper):
    """(X_c, U) of the collocated QP at order N with every control in
    [lower, upper] (None leaves a side open).  With X_c = S U + s_0, the
    objective is half the squared norm of sqrt(w) (S U + s_0) stacked on
    sqrt(w) U, which bounded-variable least squares minimises over the box."""
    w = gauss_rule(N).weights
    n, m = B.shape
    S, s0, _ = _state_map(A, B, x0, N)
    rx, ru = np.sqrt(np.repeat(w, n)), np.sqrt(np.repeat(w, m))
    U = lsq_linear(np.vstack([rx[:, None] * S, np.diag(ru)]),
                   np.concatenate([-rx * s0, np.zeros(N * m)]),
                   bounds=(-np.inf if lower is None else lower,
                           np.inf if upper is None else upper),
                   method="bvls", tol=1e-14).x
    return (S @ U + s0).reshape(N, n), U.reshape(N, m)


def _max_defect(A, B, x0, X, U, D):
    return np.abs(D[:, 1:] @ X + np.outer(D[:, 0], x0) - X @ A.T - U @ B.T).max()


def _assert_solve_reaches_the_oracle(A, B, x0, N):
    X, U, _, _ = _oracle(A, B, x0, N)
    bound_u, bound_x = _bounds(A, B, x0, N, box=False)
    report = solve(_lq_problem(A, B, x0), N)
    assert report.converged, (report.termination, report.outer_iters, report.y_norm)
    np.testing.assert_allclose(report.traj.U, U, rtol=0.0, atol=bound_u)
    np.testing.assert_allclose(report.traj.X[1:N + 1, :len(x0)], X, rtol=0.0, atol=bound_x)


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", list(LQ_CASES))
def test_solve_reaches_the_oracle(name, N):
    _assert_solve_reaches_the_oracle(*_data(name), N)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), m=st.integers(1, 3), N=st.integers(3, 40))
def test_solve_reaches_the_oracle_on_drawn_problems(data, n, m, N):
    # A + A^T = -2c I with c >= 0 makes exp(A t) a contraction, so with B
    # bounded the reduced Hessian's condition number is bounded too; B may
    # be zero, where the state bound is _bounds' defect allowance alone
    G = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    A = (G - G.T) / 2.0 - data.draw(st.floats(0.0, 1.0)) * np.eye(n)
    B = data.draw(arrays(float, (n, m), elements=st.floats(-2.0, 2.0)))
    x0 = data.draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    _assert_solve_reaches_the_oracle(A, B, x0, N)


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", list(LQ_CASES))
def test_oracle_meets_the_discrete_dynamics(name, N):
    A, B, x0 = _data(name)
    X, U, _, D = _oracle(A, B, x0, N)
    assert _max_defect(A, B, x0, X, U, D) <= 1e-12


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", list(LQ_CASES))
def test_oracle_is_a_kkt_point_of_the_transcription(name, N):
    # the multipliers, mapped to the costate by multipliers_to_costate,
    # zero both the multiplier-form and the costate-form residuals
    A, B, x0 = _data(name)
    problem, ops = _lq_problem(A, B, x0), build_operators(gauss_rule(N))
    traj, mu = _oracle_trajectory(A, B, x0, N)
    assert max(kkt_residuals(problem, ops, traj, mu).values()) <= ROUNDING
    assert eval_residual(problem, ops, traj).y_norm <= ROUNDING


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", list(LQ_CASES))
def test_converged_solve_is_the_oracle_trajectory(name, N):
    # where solve converges, its state, control and costate all agree with
    # the oracle's to tol_y
    A, B, x0 = _data(name)
    traj, _ = _oracle_trajectory(A, B, x0, N)
    report = solve(_lq_problem(A, B, x0), N)
    assert report.converged
    for got, want in zip((report.traj.X, report.traj.U, report.traj.Lambda),
                         (traj.X, traj.U, traj.Lambda)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL_Y)


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("name", [pytest.param(name, marks=case[5])
                                  for name, case in BOX_CASES.items()])
def test_solve_reaches_the_box_oracle(name, N):
    A, B, x0, lower, upper, _ = BOX_CASES[name]
    A, B, x0 = _arrays(A, B, x0)
    X, U = _box_oracle(A, B, x0, N, lower, upper)
    bound_u, bound_x = _bounds(A, B, x0, N, box=True)
    report = solve(_lq_problem(A, B, x0, ControlSet(lower, upper)), N)
    assert report.converged, (report.termination, report.outer_iters, report.y_norm)
    np.testing.assert_allclose(report.traj.U, U, rtol=0.0, atol=bound_u)
    np.testing.assert_allclose(report.traj.X[1:N + 1, :len(x0)], X, rtol=0.0, atol=bound_x)


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
    X, U, _, _ = _oracle(A, B, x0, N)
    Xb, Ub = _box_oracle(A, B, x0, N, -10.0, 10.0)
    np.testing.assert_allclose(Ub, U, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(Xb, X, rtol=0.0, atol=1e-12)


def _stability(A, B, N):
    """The norms of the inverse of the scaled collocated LQ optimality
    system at order N, into the sup norm of (X, U, Lambda) at the nodes:
    (state, costate, control, unsplit).

    The rows are the state equation D[:, 1:] X - X A^T - U B^T, the costate
    equation divided by the weights, D_dagger[:, :N] Lambda + X + Lambda A
    (Lambda_{N+1} = 0, as no cost reads x at +1), and the control equation
    U + Lambda B: the oracle's KKT system with the costate Lambda = -nu / w.
    A perturbation of the state or costate rows is measured in the
    w-weighted 2-norm, so its block's norm is the largest
    |row W^-1/2|_2; one of the control rows in the sup norm, the largest
    absolute row sum.  The unsplit norm measures every row in the
    w-weighted 2-norm."""
    rule = gauss_rule(N)
    ops, w = build_operators(rule), rule.weights
    n, m = B.shape
    eye = np.eye(N)
    T = np.block([
        [np.kron(ops.D[:, 1:], np.eye(n)) - np.kron(eye, A), -np.kron(eye, B),
         np.zeros((N * n, N * n))],
        [np.eye(N * n), np.zeros((N * n, N * m)),
         np.kron(ops.D_dagger[:, :N], np.eye(n)) + np.kron(eye, A.T)],
        [np.zeros((N * m, N * n)), np.eye(N * m), np.kron(eye, B.T)]])
    inv = np.linalg.inv(T)
    scaled = inv / np.sqrt(np.concatenate([np.repeat(w, n), np.repeat(w, n),
                                           np.repeat(w, m)]))
    state, costate = (np.sqrt(np.sum(scaled[:, k * N * n:(k + 1) * N * n] ** 2, axis=1)).max()
                      for k in (0, 1))
    control = np.abs(inv[:, 2 * N * n:]).sum(axis=1).max()
    return state, costate, control, np.sqrt(np.sum(scaled ** 2, axis=1)).max()


# Each block's constant at N = 320 and its growth from N = 160, measured
# under one BLAS thread, with each case's test time on a two-core Xeon:
#
#   case         state   costate  control   growth x (state, costate, control)   time
#   decay        0.5952  0.5952   1.3371    1.00007  1.00007  1.0049            0.14 s
#   grow         0.9954  0.9954   2.1206    1.00004  1.00004  1.0003            0.12 s
#   gain3        0.4500  1.3499   2.0937    1.00003  1.00003  1.0007            0.11 s
#   oscillator   1.3183  1.2016   1.6562    1.00001  1.00002  1.0070            0.39 s
#   two-control  0.4733  1.0560   2.1723    1.00024  1.00000  1.0004            0.23 s
#
# The windows the growths must stay in, per block:
STABILITY_WINDOWS = ((0.999, 1.001), (0.999, 1.001), (0.999, 1.01))


@pytest.mark.parametrize("name", ["decay", "grow", "gain3", "oscillator", "two-control"])
def test_split_stability_constant_is_bounded(name):
    # the paper's stability constant: split as its proof uses it, each
    # block's norm settles as N grows; measured in one w-weighted 2-norm,
    # the control rows' weights, about 1/N^2, make the norm grow like N
    # (slope 0.991 from N = 20 to 320 on every case)
    A, B, _ = _data(name)
    coarse, mid, fine = (_stability(A, B, N) for N in (20, 160, 320))
    for block, lo_hi in enumerate(STABILITY_WINDOWS):
        growth = fine[block] / mid[block]
        assert lo_hi[0] <= growth <= lo_hi[1], (block, growth)
    slope = np.log(fine[3] / coarse[3]) / np.log(320 / 20)
    assert 0.98 <= slope <= 1.0, slope


# The nonlinear case: xdot = -x^3/6 + sin(x) u on [-1, 1] from x(-1) = 1,
# with the running cost (x^2 + u^2) / 2 and the box u >= -0.3
NL_LOWER, NL_X0 = -0.3, 1.0


def _nl_f(x, u):
    return -x ** 3 / 6.0 + np.sin(x) * u


def _nl_f_x(x, u):
    return -x ** 2 / 2.0 + np.cos(x) * u


def _nl_problem():
    base = ControlProblem(
        name="", n=1, m=1,
        dynamics=_nl_f,
        dynamics_x=lambda X, U: _nl_f_x(X, U)[:, :, None],
        dynamics_u=lambda X, U: np.sin(X)[:, :, None],
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(1),
        x0=np.array([NL_X0]),
        control_set=ControlSet(lower=[NL_LOWER]))
    return augment_bolza(
        base, name="nonlinear",
        value=lambda X, U: 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2),
        grad_x=lambda X, U: X.copy(),
        grad_u=lambda X, U: U.copy())


def _cubic_problem():
    """Two states with cubic decay and a sin(3 x1) gain: f_x varies strongly."""
    def dynamics(X, U):
        return np.stack([-X[:, 0] ** 3 + U[:, 0],
                         np.sin(3 * X[:, 0]) * X[:, 1]], axis=1)

    def dynamics_x(X, U):
        A = np.zeros((len(X), 2, 2))
        A[:, 0, 0] = -3 * X[:, 0] ** 2
        A[:, 1, 0] = 3 * np.cos(3 * X[:, 0]) * X[:, 1]
        A[:, 1, 1] = np.sin(3 * X[:, 0])
        return A

    return ControlProblem(
        name="cubic", n=2, m=1,
        dynamics=dynamics,
        dynamics_x=dynamics_x,
        dynamics_u=lambda X, U: np.tile([[[1.0], [0.0]]], (len(X), 1, 1)),
        cost=lambda x: float(x[0]),
        cost_grad=lambda x: np.array([1.0, 0.0]),
        x0=np.array([2.0, 1.0]),
        control_set=ControlSet())


def _nonlinear_oracle(N):
    """(x, u, defect, projected gradient) of the collocated NLP at order N:
    minimise sum_i w_i (x_i^2 + u_i^2) / 2 over x = X_c and u subject to
    c = D[:, 1:] x + D[:, 0] x0 - f(x, u) = 0 and u >= lower, by SLSQP with
    the analytic Jacobians and the box as variable bounds.

    The certificate is the point's largest defect |c| and its projected
    reduced gradient |u - max(u - g / w, lower)|: with x eliminated through
    c, the reduced gradient is g = w u - c_u^T c_x^-T (w x), and dividing
    by the weights puts it on the scale of H_u.

    One SLSQP run stops on its iteration limit, or on a failed line search,
    short of the optimum at some orders and BLAS thread counts (a projected
    gradient of 5e-9 at N = 20 under two threads); a second run from its
    point starts a fresh quasi-Newton Hessian and reaches it."""
    rule = gauss_rule(N)
    D, w = build_operators(rule).D, rule.weights
    D1, d0 = D[:, 1:], D[:, 0] * NL_X0

    def defect(v):
        return D1 @ v[:N] + d0 - _nl_f(v[:N], v[N:])

    def defect_jac(v):
        x, u = v[:N], v[N:]
        return np.hstack([D1 - np.diag(_nl_f_x(x, u)), -np.diag(np.sin(x))])

    v = np.r_[np.full(N, NL_X0), np.zeros(N)]
    for _ in range(2):
        v = minimize(
            lambda v: 0.5 * w @ (v[:N] ** 2 + v[N:] ** 2), v,
            jac=lambda v: np.r_[w * v[:N], w * v[N:]], method="SLSQP",
            bounds=Bounds(np.r_[np.full(N, -np.inf), np.full(N, NL_LOWER)], np.inf),
            constraints={"type": "eq", "fun": defect, "jac": defect_jac},
            options={"ftol": 1e-15, "maxiter": 500}).x
    x, u = v[:N], v[N:]
    c_x, c_u = np.hsplit(defect_jac(v), 2)
    g = w * u - c_u.T @ np.linalg.solve(c_x.T, w * x)
    gap = np.abs(u - np.maximum(u - g / w, NL_LOWER)).max()
    return x, u, np.abs(defect(v)).max(), gap


# Measured under one BLAS thread, and in brackets under two, where they differ:
#
#   N    defect             projected gradient   |U - u|            |X - x|            time
#   5    6.0e-16 (3.1e-16)  4.3e-15 (5.4e-11)    1.6e-11 (6.5e-11)  4.4e-12 (1.7e-11)  0.02 s
#   10   9.4e-15 (2.4e-15)  3.1e-14 (3.7e-13)    6.2e-11            2.0e-11            0.26 s
#   20   7.5e-14 (2.4e-14)  1.4e-14 (1.9e-13)    5.7e-11            1.8e-11            0.26 s
#
# with 3, 5 and 10 nodes active.  Windows, in the same order: defect,
# projected gradient, U and X
NL_WINDOWS = (1e-12, 1e-9, 1e-9, 3e-10)


@pytest.mark.parametrize("N", [5, 10, 20])
def test_solve_reaches_the_nonlinear_oracle(N):
    x, u, defect, gap = _nonlinear_oracle(N)
    assert defect <= NL_WINDOWS[0] and gap <= NL_WINDOWS[1], (defect, gap)
    report = solve(_nl_problem(), N)
    assert report.converged, (report.termination, report.outer_iters, report.y_norm)
    np.testing.assert_allclose(report.traj.U[:, 0], u, rtol=0.0, atol=NL_WINDOWS[2])
    np.testing.assert_allclose(report.traj.X[1:N + 1, 0], x, rtol=0.0, atol=NL_WINDOWS[3])
    # the next inactive node sits at least 8e-3 above the bound
    np.testing.assert_array_equal(report.active_set[:, 0], u - NL_LOWER <= 1e-12)


# The coupled case: the cubic problem (x1' = -x1^3 + u, x2' = sin(3 x1) x2
# from x(-1) = (2, 1), terminal cost x1(1)) with the running cost u^2 / 2 and
# the box u >= -0.5, where 3, 7 and 13 of N = 5, 10 and 20 nodes are active
# (at lower = -1 none is).  x1 and x2 are both live and x1 reads itself, so
# the state solves factor the live block of M, 2N x 2N, by an LU
CUBIC_LOWER, CUBIC_X0 = -0.5, np.array([2.0, 1.0])


def _cubic_box_problem():
    return augment_bolza(
        replace(_cubic_problem(), control_set=ControlSet(lower=[CUBIC_LOWER])),
        name="cubic-box",
        value=lambda X, U: 0.5 * U[:, 0] ** 2,
        grad_x=lambda X, U: np.zeros_like(X),
        grad_u=lambda X, U: U.copy())


def _cubic_oracle(N):
    """(X_c (N, 2), u, defect, projected gradient) of the collocated NLP at
    order N: minimise x1(1) + sum_i w_i u_i^2 / 2, with x1(1) = x1(-1) +
    sum_i w_i f1_i, subject to c = D[:, 1:] X_c + D[:, :1] x0^T - f(X_c, u) = 0
    and u >= lower.

    SLSQP, with the analytic Jacobians and the box as variable bounds, stops
    on a failed line search at N = 10 (projected gradient about 2e-9) and on
    its iteration limit at N = 20, so it only finds the active set: the nodes
    within 1e-6 of the bound.  Newton on the KKT equations with that set held
    at the bound (scipy's hybr with the exact Jacobian, the Hessian of the
    Lagrangian bordered by c's Jacobian) then gives the point.  The
    certificate is ``_nonlinear_oracle``'s, with x = (x1, x2) eliminated
    through c; it also fails an active node whose bound multiplier is
    negative, and an inactive node below the bound."""
    rule = gauss_rule(N)
    D, w = build_operators(rule).D, rule.weights
    D1, d0 = D[:, 1:], D[:, 0]
    eye, zero = np.eye(N), np.zeros((N, N))

    def defect(v):
        x1, x2, u = np.split(v, 3)
        return np.r_[D1 @ x1 + d0 * CUBIC_X0[0] + x1 ** 3 - u,
                     D1 @ x2 + d0 * CUBIC_X0[1] - np.sin(3 * x1) * x2]

    def defect_jac(v):
        x1, x2, _ = np.split(v, 3)
        return np.block([[D1 + np.diag(3 * x1 ** 2), zero, -eye],
                         [np.diag(-3 * np.cos(3 * x1) * x2), D1 - np.diag(np.sin(3 * x1)), zero]])

    def grad(v):
        x1, _, u = np.split(v, 3)
        return np.r_[-3 * w * x1 ** 2, np.zeros(N), w * (1 + u)]

    v = minimize(
        lambda v: w @ (-v[:N] ** 3 + v[2 * N:] + 0.5 * v[2 * N:] ** 2),
        np.r_[np.full(N, CUBIC_X0[0]), np.full(N, CUBIC_X0[1]), np.zeros(N)], jac=grad,
        method="SLSQP",
        bounds=Bounds(np.r_[np.full(2 * N, -np.inf), np.full(N, CUBIC_LOWER)], np.inf),
        constraints={"type": "eq", "fun": defect, "jac": defect_jac},
        options={"ftol": 1e-15, "maxiter": 100}).x
    held = 2 * N + np.flatnonzero(v[2 * N:] - CUBIC_LOWER <= 1e-6)

    def kkt(z):
        # stationarity of the Lagrangian, its row replaced by u_i - lower at a
        # held node, and the defect
        v, mu = z[:3 * N], z[3 * N:]
        r = grad(v) + defect_jac(v).T @ mu
        r[held] = v[held] - CUBIC_LOWER
        return np.r_[r, defect(v)]

    def kkt_jac(z):
        (x1, x2, _), (m1, m2) = np.split(z[:3 * N], 3), np.split(z[3 * N:], 2)
        H = np.zeros((3 * N, 3 * N))
        H[:N, :N] = np.diag(-6 * w * x1 + 6 * x1 * m1 + 9 * np.sin(3 * x1) * x2 * m2)
        H[:N, N:2 * N] = H[N:2 * N, :N] = np.diag(-3 * np.cos(3 * x1) * m2)
        H[2 * N:, 2 * N:] = np.diag(w)
        C = defect_jac(z[:3 * N])
        top = np.hstack([H, C.T])
        top[held] = 0.0
        top[held, held] = 1.0
        return np.vstack([top, np.hstack([C, np.zeros((2 * N, 2 * N))])])

    C_x = defect_jac(v)[:, :2 * N]
    mu = np.linalg.lstsq(C_x.T, -grad(v)[:2 * N], rcond=None)[0]
    v = root(kkt, np.r_[v, mu], jac=kkt_jac, method="hybr", options={"xtol": 1e-14}).x[:3 * N]
    u, J, g = v[2 * N:], defect_jac(v), grad(v)
    g = g[2 * N:] - J[:, 2 * N:].T @ np.linalg.solve(J[:, :2 * N].T, g[:2 * N])
    gap = np.abs(u - np.maximum(u - g / w, CUBIC_LOWER)).max()
    return v[:2 * N].reshape(2, N).T, u, np.abs(defect(v)).max(), gap


# Measured under one BLAS thread; two threads give the same to the digits shown,
# except the defect and projected gradient, which stay below 6e-14 and 5e-16:
#
#   N    defect   projected gradient   |U - u|   |X - x|   time
#   5    1.2e-15  0.0                  1.4e-10   8.3e-11   0.03 s
#   10   7.3e-15  1.9e-16              2.1e-11   5.7e-12   0.04 s
#   20   5.0e-14  2.8e-16              4.9e-11   1.3e-11   0.07 s
#
# Windows, in the same order: defect, projected gradient, U and X
CUBIC_WINDOWS = (1e-12, 1e-12, 1e-9, 3e-10)


@pytest.mark.parametrize("N", [5, 10, 20])
def test_solve_reaches_the_coupled_oracle(N):
    X, u, defect, gap = _cubic_oracle(N)
    assert defect <= CUBIC_WINDOWS[0] and gap <= CUBIC_WINDOWS[1], (defect, gap)
    problem = _cubic_box_problem()
    report = solve(problem, N)
    assert report.converged, (report.termination, report.outer_iters, report.y_norm)
    np.testing.assert_allclose(report.traj.U[:, 0], u, rtol=0.0, atol=CUBIC_WINDOWS[2])
    np.testing.assert_allclose(report.traj.X[1:N + 1, :2], X, rtol=0.0, atol=CUBIC_WINDOWS[3])
    # the next inactive node sits at least 3e-2 above the bound
    np.testing.assert_array_equal(report.active_set[:, 0], u - CUBIC_LOWER <= 1e-12)
    factors = newton_factors(problem, build_operators(gauss_rule(N)),
                             report.traj.X[1:N + 1], report.traj.U)
    assert factors.lu[0].shape == (2 * N, 2 * N)
