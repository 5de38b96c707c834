"""Verification studies for the collocation machinery.

Four study families, each returning plain report objects:

* ``interpolation_study`` measures the derivative-space (H1 seminorm)
  interpolation error over the support {-1, tau_1..tau_N}.
* ``verify_appendix1`` samples random polynomials with p(-1) = 0 built by
  integrating interpolated derivative data and certifies sup|p| <= 2, the
  bound behind the trailing-block inverse estimate.
* ``verify_appendix2`` works in the basis psi_k = (1 - t^2) P_k' of
  polynomials vanishing at both endpoints: it reproduces the closed-form
  norms, checks orthogonality, and tests the projection inequality
  ||u - pi_N u||_0 <= |u - pi_N u|_1 / N.
* ``convergence_study`` reruns the solver across orders against an
  attached analytic solution and fits log-log error slopes.

Dense-grid evaluation uses a 2048-panel composite 8-point Gauss rule, so
singular endpoint weights are only ever evaluated at interior points; sup
norms additionally sample a uniform grid including both endpoints.  The
appendix1 sup walks that grid in blocks of ``SUP_BLOCK`` rows and keeps a
running per-column maximum of max(v) and -min(v), which is exactly max|v|,
so memory stays bounded by one block of polynomial values whatever the
order and sample count.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diffmat import barycentric_matrix, differentiation_matrix
from .quadrature import gauss_rule, legendre_deriv_table, legendre_table, radau_rule
from .solver import SolverConfig, solve

PANELS = 2048
PANEL_ORDER = 8
# sup-grid rows evaluated at once by the appendix1 suite
SUP_BLOCK = 512
APPENDIX1_ORDERS = (2, 4, 8, 16, 32, 64)
APPENDIX2_ORDERS = (4, 8, 16, 32, 64)


@lru_cache(maxsize=1)
def _dense_grid():
    """Composite quadrature grid on [-1, 1]: (points, weights), read-only."""
    base = gauss_rule(PANEL_ORDER)
    edges = np.linspace(-1.0, 1.0, PANELS + 1)
    h = edges[1] - edges[0]
    pts = (edges[:-1, None] + h * (base.nodes[None, :] + 1.0) / 2.0).ravel()
    wts = np.tile(base.weights * h / 2.0, PANELS)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


@lru_cache(maxsize=1)
def _sup_grid():
    """Dense point set for sup norms; includes both endpoints."""
    pts, _ = _dense_grid()
    grid = np.sort(np.concatenate([pts, np.linspace(-1.0, 1.0, 2049)]))
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log10(error) against log10(order)."""

    slope: float
    intercept: float
    r_squared: float
    n_range: tuple


def fit_rate(orders, errors, discard=2):
    """Fit a convergence rate, discarding the smallest `discard` orders.

    Non-positive errors cannot enter a log fit and are dropped; at least
    three points must survive or ValueError is raised.
    """
    orders = np.asarray(orders, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if orders.shape != errors.shape:
        raise ValueError("orders and errors must align")
    idx = np.argsort(orders)
    orders, errors = orders[idx], errors[idx]
    orders, errors = orders[discard:], errors[discard:]
    keep = errors > 0.0
    orders, errors = orders[keep], errors[keep]
    if orders.size < 3:
        raise ValueError(
            f"rate fit needs at least 3 usable points after discarding {discard}, "
            f"got {orders.size}")
    lx, ly = np.log10(orders), np.log10(errors)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=float(r2),
                   n_range=(int(orders[0]), int(orders[-1])))


# ---------------------------------------------------------------------------
# interpolation study

def interpolation_study(u, udot, orders):
    """Derivative-space interpolation error over {-1, tau_1..tau_N}.

    For each order the degree-N interpolant of u is differentiated at its
    own support and the derivative polynomial is compared against the
    exact derivative in the dense-grid L2 norm.  Returns (N, error) rows.
    """
    pts, wts = _dense_grid()
    target = udot(pts)
    rows = []
    for N in orders:
        support = np.concatenate([[-1.0], gauss_rule(int(N)).nodes])
        dsamp = differentiation_matrix(support) @ u(support)
        dI = barycentric_matrix(support, pts) @ dsamp
        rows.append((int(N), float(np.sqrt(wts @ (target - dI) ** 2))))
    return rows


@dataclass(frozen=True)
class InterpFunction:
    name: str
    u: callable
    udot: callable
    orders: tuple
    passes: callable
    criterion: str


def _poly5(t):
    return 3 * t ** 5 - t ** 3 + 0.5 * t - 2.0


def _poly5_dot(t):
    return 15 * t ** 4 - 3 * t ** 2 + 0.5


def _monotone_tail(rows, beyond=6):
    errs = [e for n, e in rows if n >= beyond]
    return all(b < a for a, b in zip(errs, errs[1:]))


INTERP_FUNCTIONS = {
    "cospi": InterpFunction(
        name="cospi",
        u=lambda t: np.cos(np.pi * t),
        udot=lambda t: -np.pi * np.sin(np.pi * t),
        orders=(4, 8, 16, 32),
        passes=lambda rows: _monotone_tail(rows) and rows[-1][1] <= 1e-10,
        criterion="errors decrease monotonically beyond N=6 and bottom out below 1e-10"),
    "abs52": InterpFunction(
        name="abs52",
        u=lambda t: np.abs(t) ** 2.5,
        udot=lambda t: 2.5 * np.sign(t) * np.abs(t) ** 1.5,
        orders=(8, 16, 32, 64),
        passes=lambda rows: fit_rate(*zip(*rows), discard=0).slope <= -1.0,
        criterion="fitted slope <= -1.0 across all listed orders"),
    "poly5": InterpFunction(
        name="poly5",
        u=_poly5,
        udot=_poly5_dot,
        orders=(5, 8),
        passes=lambda rows: max(e for _, e in rows) <= 1e-11,
        criterion="degree-5 polynomial reproduced to 1e-11"),
}


def run_interp_suite(name):
    """Run one registered interpolation case: (rows, passed, criterion)."""
    fn = INTERP_FUNCTIONS[name]
    rows = interpolation_study(fn.u, fn.udot, fn.orders)
    return rows, bool(fn.passes(rows)), fn.criterion


# ---------------------------------------------------------------------------
# uniform bound on antiderivatives of interpolated data

@dataclass(frozen=True)
class Appendix1Row:
    order: int
    max_abs: float
    extremal_max: float
    passed: bool


@dataclass(frozen=True)
class Appendix1Report:
    kind: str
    samples: int
    seed: int
    bound: float
    tol: float
    rows: list
    passed: bool


def _antiderivative_coeffs(a):
    """Legendre coefficients of the antiderivative vanishing at -1.

    a has shape (N, cols) over degrees 0..N-1; the result has shape
    (N+1, cols).  Uses the three-term integral identity and fixes the
    constant so every column vanishes at -1.
    """
    N = a.shape[0]
    b = np.zeros((N + 1, a.shape[1]))
    b[1] += a[0]
    b[0] += a[0]
    for k in range(1, N):
        b[k + 1] += a[k] / (2 * k + 1)
        b[k - 1] -= a[k] / (2 * k + 1)
    return b


def _integrated_coeffs(deriv_nodes, deriv_values):
    """Legendre coefficients (N+1, cols) of the degree-N antiderivatives,
    vanishing at -1, of the interpolants of deriv_values (cols, N) given at
    deriv_nodes."""
    N = deriv_nodes.size
    quad = gauss_rule(N)
    T = barycentric_matrix(deriv_nodes, quad.nodes)
    Pg = legendre_table(N - 1, quad.nodes)
    pg = deriv_values @ T.T
    scale = ((2.0 * np.arange(N) + 1.0) / 2.0)[:, None]
    a = (Pg * quad.weights[None, :]) @ pg.T * scale
    return _antiderivative_coeffs(a)


def _integrated_sup(deriv_nodes, deriv_values):
    """Sup over [-1,1] of antiderivatives of interpolated derivative data.

    deriv_values: (cols, N) prescribed derivative samples at deriv_nodes.
    Returns per-column maxima of |p| on the dense sup grid, where p is the
    degree-N antiderivative of the interpolant with p(-1) = 0.  The grid is
    evaluated SUP_BLOCK rows at a time.
    """
    N = deriv_nodes.size
    b = _integrated_coeffs(deriv_nodes, deriv_values)
    grid = _sup_grid()
    sup = np.zeros(b.shape[1])
    for start in range(0, grid.size, SUP_BLOCK):
        v = legendre_table(N, grid[start:start + SUP_BLOCK]).T @ b
        np.maximum(sup, v.max(axis=0), out=sup)
        np.maximum(sup, -v.min(axis=0), out=sup)
    return sup


def _order_list(suite, orders, smallest):
    """orders as a list of ints; an empty one would certify nothing."""
    orders = [int(N) for N in orders]
    if not orders:
        raise ValueError(f"{suite} has no order to check; its smallest order is {smallest}")
    return orders


def verify_appendix1(orders=APPENDIX1_ORDERS, samples=1000, kind="gauss", seed=7):
    """Certify the uniform bound sup|p| <= 2 on random antiderivatives.

    For each order, `samples` random derivative vectors with entries in
    [-1, 1] are prescribed at the chosen node family, interpolated, and
    integrated from -1; the bound is checked on a dense grid.  The
    extremal derivative data (all ones) must attain the bound exactly.
    An empty `orders` raises ValueError, as it would certify nothing.
    """
    orders = _order_list("appendix1", orders, APPENDIX1_ORDERS[0])
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    rows = []
    for N in orders:
        nodes = gauss_rule(N).nodes if kind == "gauss" else radau_rule(N).nodes
        # the extremal all-ones row rides in the last column of one grid walk
        vals = np.vstack([rng.uniform(-1.0, 1.0, size=(samples, N)), np.ones((1, N))])
        sup = _integrated_sup(nodes, vals)
        max_abs, extremal = float(np.max(sup[:-1])), float(sup[-1])
        rows.append(Appendix1Row(
            order=N, max_abs=max_abs, extremal_max=extremal,
            passed=max_abs <= 2.0 + 1e-9 and abs(extremal - 2.0) <= 1e-12))
    return Appendix1Report(kind=kind, samples=samples, seed=seed,
                           bound=2.0, tol=1e-9, rows=rows,
                           passed=all(r.passed for r in rows))


# ---------------------------------------------------------------------------
# endpoint-vanishing projection inequality

@dataclass(frozen=True)
class PsiNormRow:
    k: int
    h1_num: float
    h1_exact: float
    l0_num: float
    l0_exact: float


@dataclass(frozen=True)
class Appendix2Row:
    order: int
    err0: float
    err1: float
    bound_ok: bool


@dataclass(frozen=True)
class Appendix2Report:
    norm_rows: list
    max_offdiag: float
    norms_ok: bool
    rows: list
    passed: bool


@lru_cache(maxsize=4)
def _psi_tables(kmax=12):
    """Dense-grid tables of P_k, psi_k = (1-t^2)P_k', and psi_k' for k <= kmax."""
    pts, _ = _dense_grid()
    P, dP = legendre_deriv_table(kmax, pts)
    one_m = (1.0 - pts) * (1.0 + pts)
    psi = one_m * dP
    ks = np.arange(kmax + 1)
    dpsi = -(ks * (ks + 1))[:, None] * P
    return P, psi, dpsi, one_m


def psi_norm_table(kmax=12):
    """Numeric vs closed-form norms of the psi basis: (rows, max_offdiag).

    h1 is the seminorm integral of (psi_k')^2; l0 weights psi_k^2 by
    1/(1-t^2).  Off-diagonal h1 inner products measure orthogonality.
    """
    pts, wts = _dense_grid()
    P, psi, dpsi, one_m = _psi_tables(max(kmax, 12))
    rows = []
    for k in range(1, kmax + 1):
        h1 = float(wts @ dpsi[k] ** 2)
        l0 = float(wts @ (psi[k] ** 2 / one_m))
        rows.append(PsiNormRow(
            k=k,
            h1_num=h1, h1_exact=2.0 * k * k * (k + 1) * (k + 1) / (2 * k + 1),
            l0_num=l0, l0_exact=2.0 * k * (k + 1) / (2 * k + 1)))
    worst = 0.0
    for j in range(1, kmax + 1):
        for k in range(j + 1, kmax + 1):
            worst = max(worst, abs(float(wts @ (dpsi[j] * dpsi[k]))))
    return rows, worst


def project_psi(u, udot, N, kmax=None):
    """Coefficients of the order-N projection of u onto span{psi_1..psi_{N-1}}.

    Projection is orthogonal in the derivative inner product, so each
    coefficient is an independent integral against psi_k' = -k(k+1)P_k.
    """
    pts, wts = _dense_grid()
    kmax = max(N, 12) if kmax is None else kmax
    P, _, _, _ = _psi_tables(kmax)
    du = udot(pts)
    ks = np.arange(1, N)
    coeffs = np.array([
        -(k * (k + 1)) * float(wts @ (du * P[k]))
        / (2.0 * k * k * (k + 1) * (k + 1) / (2 * k + 1))
        for k in ks])
    return coeffs


def verify_appendix2(u, udot, orders=APPENDIX2_ORDERS, kmax=12):
    """Check the projection inequality err0 <= err1 / N for one function.

    u must vanish at both endpoints.  err0 is the endpoint-weighted L2
    error of the projection, err1 the L2 error of its derivative; the
    report also carries the psi norm table and orthogonality check.  An
    empty `orders` raises ValueError.
    """
    orders = _order_list("appendix2", orders, APPENDIX2_ORDERS[0])
    pts, wts = _dense_grid()
    table_k = max(kmax, max(orders))
    P, psi, dpsi, one_m = _psi_tables(table_k)
    uvals = u(pts)
    duvals = udot(pts)

    rows = []
    for N in orders:
        coeffs = project_psi(u, udot, N, kmax=table_k)
        piN = coeffs @ psi[1:N]
        dpiN = coeffs @ dpsi[1:N]
        err0 = float(np.sqrt(wts @ ((uvals - piN) ** 2 / one_m)))
        err1 = float(np.sqrt(wts @ (duvals - dpiN) ** 2))
        rows.append(Appendix2Row(
            order=N, err0=err0, err1=err1,
            bound_ok=err0 <= err1 / N + 1e-10))

    norm_rows, worst = psi_norm_table(kmax)
    norms_ok = all(
        abs(r.h1_num - r.h1_exact) <= 1e-12 * r.h1_exact
        and abs(r.l0_num - r.l0_exact) <= 1e-12 * r.l0_exact
        for r in norm_rows) and worst <= 1e-10
    return Appendix2Report(
        norm_rows=norm_rows, max_offdiag=worst, norms_ok=norms_ok,
        rows=rows, passed=norms_ok and all(r.bound_ok for r in rows))


APPENDIX2_FUNCTIONS = {
    "sinpi": (lambda t: np.sin(np.pi * t),
              lambda t: np.pi * np.cos(np.pi * t)),
    "bump": (lambda t: (1.0 - t * t) * np.exp(t),
             lambda t: (1.0 - 2.0 * t - t * t) * np.exp(t)),
    "coshalf": (lambda t: np.cos(np.pi * t / 2.0),
                lambda t: -np.pi / 2.0 * np.sin(np.pi * t / 2.0)),
}


# ---------------------------------------------------------------------------
# solver convergence study

@dataclass(frozen=True)
class ConvergenceRow:
    """One solve of the study; errors are sup norms at the grid points,
    state and costate over the full grid including endpoints, control at
    the collocation points."""

    N: int
    err_x: float
    err_u: float
    err_lambda: float
    residual_y: float
    iters: int
    wall_ms: float
    converged: bool


def convergence_study(problem, orders, config=None):
    """Solve across orders and fit error slopes against the analytic answer.

    Returns (rows, fits) with one RateFit per error series, fitted on
    converged rows only; the two smallest orders are discarded as
    pre-asymptotic, and fits is empty when too few converged rows remain
    for ``fit_rate``.  Requires problem.analytic.
    """
    if problem.analytic is None:
        raise ValueError("convergence study requires an attached analytic solution")
    if config is None:
        config = SolverConfig()
    rows = []
    for N in orders:
        N = int(N)
        t0 = time.perf_counter()
        rep = solve(problem, N, config=config)
        wall_ms = (time.perf_counter() - t0) * 1e3
        nodes = rep.traj.nodes
        X_star = problem.analytic.state(nodes)
        U_star = problem.analytic.control(nodes[1:N + 1])
        L_star = problem.analytic.costate(nodes)
        rows.append(ConvergenceRow(
            N=N,
            err_x=float(np.max(np.abs(rep.traj.X - X_star))),
            err_u=float(np.max(np.abs(rep.traj.U - U_star))),
            err_lambda=float(np.max(np.abs(rep.traj.Lambda - L_star))),
            residual_y=rep.y_norm,
            iters=rep.outer_iters,
            wall_ms=wall_ms,
            converged=rep.converged))

    good = [r for r in rows if r.converged]
    try:
        fits = {series: fit_rate([r.N for r in good], [getattr(r, series) for r in good])
                for series in ("err_x", "err_u", "err_lambda")}
    except ValueError:
        fits = {}
    return rows, fits
