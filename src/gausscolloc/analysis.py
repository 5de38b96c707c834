"""Verification studies for the collocation machinery.

Four study families, each returning plain report objects:

* ``interpolation_study`` measures the derivative-space (H1 seminorm)
  interpolation error over the support {-1, tau_1..tau_N}.
* ``verify_appendix1`` certifies sup|p| <= 2, the bound behind the
  trailing-block inverse estimate, for every polynomial p of degree N with
  p(-1) = 0 and derivative data in [-1, 1] at the N nodes, by its exact
  worst case over that data.
* ``verify_appendix2`` works in the basis psi_k = (1 - t^2) P_k' of
  polynomials vanishing at both endpoints: for a mapping of test
  functions it builds the basis once (the Gram matrix, the norms and psi
  all come from the Legendre table, with at most two grid-sized tables
  alive at once), reproduces the closed-form norms, checks orthogonality,
  and tests the projection inequality ||u - pi_N u||_0 <= |u - pi_N u|_1 / N
  for each function, in one report per call.  The projection is orthogonal
  in the derivative inner product, so one product against the Legendre rows
  gives the coefficients of every order at once.
* ``convergence_study`` reruns the solver across orders against an
  attached analytic solution and fits log-log error slopes.

Dense-grid evaluation uses a 2048-panel composite 8-point Gauss rule, so
singular endpoint weights are only ever evaluated at interior points; sup
norms additionally sample a uniform grid including both endpoints.  Both
the interpolation study and the appendix1 sup evaluate their polynomials on
a grid ``SUP_BLOCK`` rows at a time, into one buffer, so no grid-sized
evaluation matrix is ever formed: the study copies each block into its
derivative vector, and the sup reduces each block's rows to their absolute
and signed sums and keeps the largest, so its memory stays bounded by that
buffer and the (N+1) x N table whatever the order.  The suites need numpy
alone.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diffmat import barycentric_matrix, differentiation_matrix
from .quadrature import gauss_rule, legendre_table, radau_rule
from .solver import solve

PANELS = 2048
PANEL_ORDER = 8
# grid rows evaluated at once: copied out by the interpolation study,
# reduced to row sums by the appendix1 sup
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
    three distinct orders must survive or ValueError is raised, as it is
    for a non-finite order or error.
    """
    orders = np.asarray(orders, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if orders.shape != errors.shape:
        raise ValueError("orders and errors must align")
    if not (np.isfinite(orders).all() and np.isfinite(errors).all()):
        raise ValueError("orders and errors must be finite")
    idx = np.argsort(orders)
    orders, errors = orders[idx], errors[idx]
    orders, errors = orders[discard:], errors[discard:]
    keep = errors > 0.0
    orders, errors = orders[keep], errors[keep]
    distinct = np.unique(orders).size
    if distinct < 3:
        raise ValueError(
            f"rate fit needs at least 3 distinct usable orders after discarding {discard}, "
            f"got {distinct}")
    lx, ly = np.log10(orders), np.log10(errors)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=float(r2),
                   n_range=(int(orders[0]), int(orders[-1])))


def _grid_blocks(support, grid, values):
    """barycentric_matrix(support, grid) @ values, SUP_BLOCK grid rows at a
    time: yields (rows, block) with rows the slice of grid evaluated, each
    block written into one buffer that the next block overwrites."""
    buf = np.empty((SUP_BLOCK,) + values.shape[1:])
    for start in range(0, grid.size, SUP_BLOCK):
        rows = slice(start, start + SUP_BLOCK)
        B = barycentric_matrix(support, grid[rows])
        yield rows, np.matmul(B, values, out=buf[:len(B)])


# ---------------------------------------------------------------------------
# interpolation study

def interpolation_study(u, udot, orders):
    """Derivative-space interpolation error over {-1, tau_1..tau_N}.

    For each order the degree-N interpolant of u is differentiated at its
    own support and the derivative polynomial is compared against the
    exact derivative in the dense-grid L2 norm.  Returns (rule.order, error) rows.
    """
    pts, wts = _dense_grid()
    target = udot(pts)
    dI = np.empty(pts.size)
    rows = []
    for N in orders:
        rule = gauss_rule(N)
        support = np.concatenate([[-1.0], rule.nodes])
        dsamp = differentiation_matrix(support) @ u(support)
        for block, v in _grid_blocks(support, pts, dsamp):
            dI[block] = v
        rows.append((rule.order, float(np.sqrt(wts @ (target - dI) ** 2))))
    return rows


@dataclass(frozen=True)
class InterpFunction:
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
        u=lambda t: np.cos(np.pi * t),
        udot=lambda t: -np.pi * np.sin(np.pi * t),
        orders=(4, 8, 16, 32),
        passes=lambda rows: _monotone_tail(rows) and rows[-1][1] <= 1e-10,
        criterion="errors decrease monotonically beyond N=6 and bottom out below 1e-10"),
    "abs52": InterpFunction(
        u=lambda t: np.abs(t) ** 2.5,
        udot=lambda t: 2.5 * np.sign(t) * np.abs(t) ** 1.5,
        orders=(8, 16, 32, 64),
        passes=lambda rows: fit_rate(*zip(*rows), discard=0).slope <= -1.0,
        criterion="fitted slope <= -1.0 across all listed orders"),
    "poly5": InterpFunction(
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
    bound: float
    rows: list
    passed: bool


def _order_list(suite, orders, smallest, floor):
    """orders as ints, taken as ``gauss_rules`` takes them; an empty list, or
    an order below floor, certifies nothing."""
    orders = [int(operator.index(N)) for N in orders]
    if not orders:
        raise ValueError(f"{suite} has no order to check; its smallest order is {smallest}")
    if min(orders) < floor:
        raise ValueError(f"{suite} order {min(orders)} is below {floor}")
    return orders


def verify_appendix1(orders=APPENDIX1_ORDERS, kind="gauss"):
    """Certify sup|p| <= 2 for every admissible p by its exact worst case.

    p has degree N, p(-1) = 0 and derivative data in [-1, 1] at the N nodes
    of the chosen family.  p is linear in the data: column j of its table
    is the antiderivative from -1 of the j-th Lagrange basis polynomial.  So
    ``max_abs``, the worst case over all data, is the grid maximum of the
    table's absolute row sums, and ``extremal_max``, the sup for the
    all-ones data, that of |signed row sum|, which must reach 2 to 1e-12.
    On the support {-1, nodes} the table is the inverse of the trailing
    block of the differentiation matrix (p(-1) = 0 drops its first column;
    p'(-1) is not prescribed, which drops its first row), and barycentric
    interpolation evaluates it SUP_BLOCK grid rows at a time.
    An empty `orders` raises ValueError, as it would certify nothing, and
    so does a `kind` other than "gauss" or "radau".
    """
    orders = _order_list("appendix1", orders, APPENDIX1_ORDERS[0], 1)
    rule = {"gauss": gauss_rule, "radau": radau_rule}.get(kind)
    if rule is None:
        raise ValueError(f"unknown node kind {kind!r}; expected 'gauss' or 'radau'")
    rows = []
    for N in orders:
        support = np.concatenate([[-1.0], rule(N).nodes])
        table = np.zeros((N + 1, N))
        table[1:] = np.linalg.inv(differentiation_matrix(support)[1:, 1:])
        max_abs = extremal = 0.0
        for _, v in _grid_blocks(support, _sup_grid(), table):
            extremal = max(extremal, float(np.abs(v.sum(axis=1)).max()))
            max_abs = max(max_abs, float(np.abs(v).sum(axis=1).max()))
        rows.append(Appendix1Row(
            order=N, max_abs=max_abs, extremal_max=extremal,
            passed=max_abs <= 2.0 + 1e-9 and abs(extremal - 2.0) <= 1e-12))
    return Appendix1Report(kind=kind, bound=2.0, rows=rows,
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
    rows: dict
    passed: bool


def _psi_basis(kmax):
    """Dense-grid rows k = 1..kmax of P_k and of psi_k = (1 - t^2) P_k', the
    h1 Gram matrix and l0 norms of psi_1..psi_kmax, and their closed forms:
    (P, psi, gram, l0, h1_exact, l0_exact).

    h1 is the seminorm integral of (psi_k')^2, with psi_k' = -k(k+1) P_k;
    l0 weights psi_k^2 by 1/(1-t^2).  At most two grid-sized tables are
    alive at once.  Each product is made whole, as in the one-shot formulas,
    since a Gram matrix built by row blocks moves bits once BLAS splits the
    whole product over threads.  The Gram matrix needs the psi_k' table and
    its weighted copy, so the Legendre table is dropped before them and
    computed again after (it is pointwise, so its bits repeat).  psi comes
    from the identity (1 - t^2) P_k' = k (P_{k-1} - t P_k), written into the
    weighted copy's buffer; it is squared in place for l0 and written again.
    """
    pts, wts = _dense_grid()
    ks = np.arange(1, kmax + 1)
    dpsi = -(ks * (ks + 1))[:, None] * legendre_table(kmax, pts)[1:]
    psi = dpsi * wts  # weighted psi_k', until psi is written into its buffer
    gram = psi @ dpsi.T
    del dpsi
    P = legendre_table(kmax, pts)

    def fill_psi():
        np.multiply(pts, P[1:], out=psi)
        np.subtract(P[:-1], psi, out=psi)
        np.multiply(ks[:, None], psi, out=psi)

    fill_psi()
    l0 = np.multiply(psi, psi, out=psi) @ (wts / ((1.0 - pts) * (1.0 + pts)))
    fill_psi()
    return (P[1:], psi, gram, l0,
            2.0 * ks * ks * (ks + 1) * (ks + 1) / (2 * ks + 1), 2.0 * ks * (ks + 1) / (2 * ks + 1))


def verify_appendix2(functions, orders=APPENDIX2_ORDERS):
    """Check the projection inequality err0 <= err1 / N for each function.

    `functions` maps a name to (u, udot), u vanishing at both endpoints;
    the one report maps each name to its rows and passes when ``norms_ok``
    and every row's bound hold.  The order-N
    projection onto span{psi_1..psi_{N-1}} is orthogonal in the derivative
    inner product, so its coefficients <u', psi_k'> / |psi_k|_1^2 do not
    depend on N: one product against the P_k rows gives them for the
    largest order, and each order takes a prefix.  err0 is the
    endpoint-weighted L2 error of the projection, err1 the L2 error of its
    derivative.

    The psi basis is built once per call, for k up to max(12, largest
    order - 1).  The report carries the norm table and the absolute
    orthogonality check of its 12 x 12 prefix; ``norms_ok`` also requires
    the closed-form norms for every k built and, for every psi_k the
    projections use, orthogonality relative to the h1 norms, which grow
    like k^3.  An empty `functions` or `orders`, or an order below 2,
    raises ValueError.
    """
    if not functions:
        raise ValueError("appendix2 has no function to check")
    orders = _order_list("appendix2", orders, APPENDIX2_ORDERS[0], 2)
    K = max(orders) - 1
    P, psi, gram, l0, h1, l0_exact = _psi_basis(max(12, K))
    norm_rows = [PsiNormRow(
        k=k,
        h1_num=float(gram[k - 1, k - 1]), h1_exact=float(h1[k - 1]),
        l0_num=float(l0[k - 1]), l0_exact=float(l0_exact[k - 1]))
        for k in range(1, 13)]
    worst = float(np.abs(gram[np.triu_indices(12, 1)]).max())
    off = ~np.eye(K, dtype=bool)
    norms_ok = bool(np.all(np.abs(np.diag(gram) - h1) <= 1e-12 * h1)
                    and np.all(np.abs(l0 - l0_exact) <= 1e-12 * l0_exact)
                    and worst <= 1e-10
                    and np.all(np.abs(gram[:K, :K][off])
                               <= 1e-13 * np.sqrt(np.outer(h1[:K], h1[:K]))[off]))
    pts, wts = _dense_grid()
    l0_wts = wts / ((1.0 - pts) * (1.0 + pts))
    P, psi, ks = P[:K], psi[:K], np.arange(1, K + 1)
    rows = {}
    for name, (u, udot) in functions.items():
        uvals, duvals = u(pts), udot(pts)
        # psi_k' = -k(k+1) P_k and |psi_k|_1^2 = 2 k^2 (k+1)^2 / (2k+1)
        coeffs = -(2 * ks + 1) / (2.0 * ks * (ks + 1)) * (P @ (wts * duvals))
        dcoeffs = -(ks * (ks + 1)) * coeffs
        rows[name] = []
        for N in orders:
            piN = coeffs[:N - 1] @ psi[:N - 1]
            dpiN = dcoeffs[:N - 1] @ P[:N - 1]
            err0 = float(np.sqrt(l0_wts @ (uvals - piN) ** 2))
            err1 = float(np.sqrt(wts @ (duvals - dpiN) ** 2))
            rows[name].append(Appendix2Row(order=N, err0=err0, err1=err1,
                                           bound_ok=err0 <= err1 / N + 1e-10))
    return Appendix2Report(
        norm_rows=norm_rows, max_offdiag=worst, norms_ok=norms_ok, rows=rows,
        passed=norms_ok and all(r.bound_ok for fn in rows.values() for r in fn))


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


def convergence_study(problem, orders):
    """Solve across orders and fit error slopes against the analytic answer.

    Returns (rows, fits) with one RateFit per error series, fitted on
    converged rows only; the two smallest orders are discarded as
    pre-asymptotic, and fits is empty when too few converged rows remain
    for ``fit_rate``.  Each order is taken as ``solve`` takes it, and a
    row's N is the int order of its report.  Requires problem.analytic.
    """
    if problem.analytic is None:
        raise ValueError("convergence study requires an attached analytic solution")
    rows = []
    for N in orders:
        t0 = time.perf_counter()
        rep = solve(problem, N)
        wall_ms = (time.perf_counter() - t0) * 1e3
        nodes = rep.traj.nodes
        X_star = problem.analytic.state(nodes)
        U_star = problem.analytic.control(nodes[1:-1])
        L_star = problem.analytic.costate(nodes)
        rows.append(ConvergenceRow(
            N=rep.order,
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
