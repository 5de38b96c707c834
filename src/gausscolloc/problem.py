"""Optimal control problem containers.

Problems are kept in Mayer form on the reference interval [-1, 1]: minimize
a terminal cost C(x(1)) subject to autonomous dynamics xdot = f(x, u), a
fixed initial state, and a pointwise control constraint u(t) in U given by a
``ControlSet``, the projection onto U.  Every problem, built-in or custom, is one
``ControlProblem``.  Helpers convert the two common departures from that
normal form: ``augment_bolza`` adds the integral of a ``RunningCost`` to a
problem's terminal cost through an extra integrator state, which makes it a
Bolza problem, and ``map_domain`` rescales a problem posed on [a, b].
The built-ins are written in closed form: each callback allocates its result
once and gives the bits of the same problem composed with those two helpers.

Every problem carries the callbacks the solver reads: the dynamics and its
Jacobians, the terminal cost and its gradient, and the control Hessian
H_uu of the Hamiltonian H = lambda . f(x, u), whose positive definiteness
scales the descent step.  ``audit_derivatives`` cross-checks the supplied
derivatives against central finite differences at fixed points, taken over
all points at once with two batched callback calls per perturbed coordinate,
and is run for every built-in problem at construction.

Dynamics and Hamiltonian callbacks are evaluated once per grid: they take
stacks of K rows, X (K, n), U (K, m) and Lam (K, n), and return one result
per row: f (K, n), f_x (K, n, n), f_u (K, n, m), H_uu (K, m, m).  A
``RunningCost`` follows the same layout, with value (K,).  The terminal
cost and its gradient stay pointwise: C(x) is a float and C_x (n,).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EvaluationFailure, UnknownProblem


@dataclass(frozen=True)
class ControlSet:
    """Closed convex admissible set for the control, given by its Euclidean
    projection: ``project`` takes (m,) or (N, m) and returns a new float array.
    Box bounds may be one-sided (None means unbounded on that side)."""

    project: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def unconstrained():
        return ControlSet(lambda u: np.asarray(u, dtype=float).copy())

    @staticmethod
    def box(lower=None, upper=None):
        lo = None if lower is None else np.asarray(lower, dtype=float)
        hi = None if upper is None else np.asarray(upper, dtype=float)
        if any(b is not None and np.isnan(b).any() for b in (lo, hi)):
            raise ValueError("box control set bound is NaN")
        if lo is not None and hi is not None and not np.all(lo < hi):
            raise ValueError("box control set needs lower < upper componentwise")
        # one bound takes the ufunc np.clip would run, without its slower dispatch
        if lo is None and hi is not None:
            return ControlSet(lambda u: np.minimum(np.asarray(u, dtype=float), hi))
        if hi is None and lo is not None:
            return ControlSet(lambda u: np.maximum(np.asarray(u, dtype=float), lo))
        return ControlSet(lambda u: np.clip(np.asarray(u, dtype=float), lo, hi))

    @staticmethod
    def custom(projector):
        return ControlSet(lambda u: np.asarray(projector(np.asarray(u, dtype=float)), dtype=float))


@dataclass(frozen=True)
class AnalyticSolution:
    """Known optimal trajectory, each callable mapping a 1-D array of times
    on the problem's own domain to an array of shape (len(t), dim)."""

    state: Callable[[np.ndarray], np.ndarray]
    control: Callable[[np.ndarray], np.ndarray]
    costate: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RunningCost:
    """Integrand l(x, u) of a Bolza objective, with derivatives, evaluated
    on stacks like the dynamics callbacks."""

    value: Callable
    grad_x: Callable
    grad_u: Callable
    hess_uu: Callable


@dataclass(frozen=True)
class ControlProblem:
    """Mayer-form optimal control problem on a fixed interval."""

    name: str
    n: int
    m: int
    dynamics: Callable
    dynamics_x: Callable
    dynamics_u: Callable
    cost: Callable
    cost_grad: Callable
    ham_hess_uu: Callable
    x0: np.ndarray
    control_set: ControlSet
    analytic: AnalyticSolution | None = None

    def ham_x(self, X, U, Lam):
        """Gradient of H = lambda . f with respect to x, per row: (K, n);
        raises DimensionMismatch unless f_x is a (K, n, n) stack."""
        J = _checked("dynamics_x", self.dynamics_x(X, U), (len(X), self.n, self.n))
        return np.einsum("kij,ki->kj", J, Lam)

    def ham_u(self, X, U, Lam):
        """Gradient of H = lambda . f with respect to u, per row: (K, m);
        raises DimensionMismatch unless f_u is a (K, n, m) stack."""
        J = _checked("dynamics_u", self.dynamics_u(X, U), (len(X), self.n, self.m))
        return np.einsum("kij,ki->kj", J, Lam)


def _checked(label, value, shape):
    """``value``, which the callback or call ``label`` gave, once it has ``shape``;
    raises DimensionMismatch otherwise."""
    if np.shape(value) != shape:
        raise DimensionMismatch(f"{label} gave {np.shape(value)}, expected {shape}")
    return value


def augment_bolza(base, running, name=""):
    """Fold a running cost into an extra integrator state.

    The returned Mayer problem has n+1 states: the appended component obeys
    zdot = l(x, u) and starts at zero, and the objective is the base
    problem's terminal cost plus z(end).
    """
    n, m = base.n, base.m

    def f(X, U):
        # filled in place, so a wrong shape is caught here and not broadcast
        K = len(X)
        Fb, value = base.dynamics(X[:, :n], U), running.value(X[:, :n], U)
        if np.shape(Fb) != (K, n) or np.shape(value) != (K,):
            raise DimensionMismatch(
                f"base dynamics gave {np.shape(Fb)} and running cost {np.shape(value)}, "
                f"expected {(K, n)} and {(K,)}")
        F = np.empty((K, n + 1))
        F[:, :n] = Fb
        F[:, n] = value
        return F

    def jac_x(X, U):
        J = np.zeros((len(X), n + 1, n + 1))
        J[:, :n, :n] = base.dynamics_x(X[:, :n], U)
        J[:, n, :n] = running.grad_x(X[:, :n], U)
        return J

    def jac_u(X, U):
        J = np.zeros((len(X), n + 1, m))
        J[:, :n, :] = base.dynamics_u(X[:, :n], U)
        J[:, n, :] = running.grad_u(X[:, :n], U)
        return J

    def cost(x):
        return float(base.cost(x[:n]) + x[n])

    def cost_grad(x):
        g = np.empty(n + 1)
        g[:n] = _checked("base cost_grad", base.cost_grad(x[:n]), (n,))
        g[n] = 1.0
        return g

    def ham_hess_uu(X, U, Lam):
        return base.ham_hess_uu(X[:, :n], U, Lam[:, :n]) \
            + Lam[:, n, None, None] * running.hess_uu(X[:, :n], U)

    x0 = np.concatenate([np.asarray(base.x0, dtype=float), [0.0]])
    x0.flags.writeable = False
    return ControlProblem(
        name=name, n=n + 1, m=m,
        dynamics=f, dynamics_x=jac_x, dynamics_u=jac_u,
        cost=cost, cost_grad=cost_grad, ham_hess_uu=ham_hess_uu,
        x0=x0, control_set=base.control_set)


def map_domain(problem, a, b):
    """Rescale an autonomous problem from [a, b] onto [-1, 1].

    Dynamics and Hamiltonian derivatives pick up the factor (b - a) / 2;
    cost, initial state, control set, and costate values are unchanged.
    An attached analytic solution is re-parametrized accordingly.  The
    bounds must be finite with a < b, or ValueError is raised.
    """
    s = (b - a) / 2.0
    if not (np.isfinite(s) and s > 0):
        raise ValueError(f"domain [{a}, {b}] must be finite with positive length")

    def to_native(tau):
        return a + (b - a) * (np.asarray(tau, dtype=float) + 1.0) / 2.0

    old = problem.analytic
    return replace(
        problem,
        dynamics=lambda X, U: s * np.asarray(problem.dynamics(X, U), dtype=float),
        dynamics_x=lambda X, U: s * np.asarray(problem.dynamics_x(X, U), dtype=float),
        dynamics_u=lambda X, U: s * np.asarray(problem.dynamics_u(X, U), dtype=float),
        ham_hess_uu=lambda X, U, Lam: s * np.asarray(problem.ham_hess_uu(X, U, Lam), dtype=float),
        analytic=None if old is None else AnalyticSolution(
            state=lambda tau: old.state(to_native(tau)),
            control=lambda tau: old.control(to_native(tau)),
            costate=lambda tau: old.costate(to_native(tau))))


# ---------------------------------------------------------------------------
# derivative audit

AUDIT_POINTS = 8      # fixed points per audit
AUDIT_REL_TOL = 1e-6  # allowed gap, relative to max(1, largest entry)
FD_STEP = 1e-6        # central-difference step, relative to max(1, |v_j|)
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _fd_stack(fn, V):
    """Central differences of fn, which maps a stack V (K, d) to one row of
    r values per row of V, at every row at once: (K, r, d), two calls of fn
    per coordinate."""
    cols = []
    for j in range(V.shape[1]):
        step = FD_STEP * np.maximum(1.0, np.abs(V[:, j]))
        Vp, Vm = V.copy(), V.copy()
        Vp[:, j] += step
        Vm[:, j] -= step
        cols.append((np.asarray(fn(Vp), dtype=float) - np.asarray(fn(Vm), dtype=float))
                    / (2 * step[:, None]))
    return np.stack(cols, axis=-1)


def _audit_stack(label, exact, fd):
    """Per point k, a finite exact stack with max|exact - fd| <=
    AUDIT_REL_TOL * max(1, max|exact|); a NaN gap fails the comparison."""
    exact = np.asarray(exact, dtype=float)
    if exact.shape != fd.shape:
        raise EvaluationFailure(
            f"{label}: shape {exact.shape} does not match finite differences {fd.shape}")
    if not np.isfinite(exact).all():
        raise EvaluationFailure(f"{label}: supplied derivative is not finite")
    scale = np.maximum(1.0, np.abs(exact).max(axis=(1, 2)))
    gap = np.abs(exact - fd).max(axis=(1, 2))
    bad = np.flatnonzero(~(gap <= AUDIT_REL_TOL * scale))
    if bad.size:
        k = bad[0]
        raise EvaluationFailure(
            f"{label}: supplied derivative differs from finite differences "
            f"by {gap[k]:.3e} (scale {scale[k]:.3e}, tolerance {AUDIT_REL_TOL:g})")


def audit_derivatives(problem):
    """Cross-check every derivative callback against central differences.

    The AUDIT_POINTS evaluation points are fixed: golden-ratio fractional
    parts mapped to (-1.5, 1.5) give the offsets of x from the initial state
    and the values of u and lambda.  The stacked callbacks take all points
    as one batch, so each central difference of f (for f_x and f_u) and of
    H_u (for H_uu) costs two calls per coordinate; the pointwise C_x is
    checked against C point by point.  Raises EvaluationFailure on the
    first mismatch, or when a callback raises; returns the number of points
    audited otherwise.
    """
    n, m = problem.n, problem.m
    k = np.arange(1, AUDIT_POINTS * (2 * n + m) + 1)
    S = (3.0 * (k * _GOLDEN % 1.0) - 1.5).reshape(AUDIT_POINTS, 2 * n + m)
    X, U, L = problem.x0 + S[:, :n], S[:, n:n + m], S[:, n + m:]
    try:
        _audit_stack("dynamics_x", problem.dynamics_x(X, U),
                     _fd_stack(lambda V: problem.dynamics(V, U), X))
        _audit_stack("dynamics_u", problem.dynamics_u(X, U),
                     _fd_stack(lambda V: problem.dynamics(X, V), U))
        _audit_stack("cost_grad", [[problem.cost_grad(x)] for x in X],
                     _fd_stack(lambda V: [[problem.cost(v)] for v in V], X))
        _audit_stack("ham_hess_uu", problem.ham_hess_uu(X, U, L),
                     _fd_stack(lambda V: problem.ham_u(X, V, L), U))
    except EvaluationFailure:
        raise
    except Exception as exc:  # noqa: BLE001 - surface callback failures uniformly
        raise EvaluationFailure(f"problem callback raised: {exc!r}") from exc
    return AUDIT_POINTS


# ---------------------------------------------------------------------------
# built-in benchmark: scalar linear-quadratic problem with a control ceiling
#
#   minimize  (1/2) integral_0^1  x(t)^2 + u(t)^2 dt
#   subject to  xdot = u,  x(0) = (1 + 3e) / (2(1 - e)),  u(t) <= 1
#
# The optimal control rides the ceiling u = 1 until t = 1/2 and then turns
# smoothly toward u(1) = 0; state, control, and costate all have closed
# forms, which makes the problem a sharp accuracy benchmark.  On [-1, 1] with
# states (x, z), f = s (u, (x^2 + u^2) / 2) and C = z; each callback runs the
# operations of map_domain(augment_bolza(base, running), 0, 1) in its order.

_E = float(np.e)
_HAGER_X0 = (1.0 + 3.0 * _E) / (2.0 * (1.0 - _E))
_SIG = np.sqrt(_E) * (1.0 - _E)
_Z_HALF = ((0.5 + _HAGER_X0) ** 3 - _HAGER_X0 ** 3) / 6.0 + 0.25


def _u_free(t):
    # unconstrained-arc control; costate is its exact negative
    return (np.exp(t) - np.exp(2.0 - t)) / _SIG


def _hager_x(t):
    return np.where(t <= 0.5, t + _HAGER_X0,
                    (np.exp(t) + np.exp(2.0 - t)) / _SIG)


def _hager_u(t):
    return np.where(t <= 0.5, 1.0, _u_free(t))


def _hager_lam(t):
    left = -1.0 + (0.125 + _HAGER_X0 / 2.0 - t * t / 2.0 - _HAGER_X0 * t)
    return np.where(t <= 0.5, left, -_u_free(t))


def _hager_z(t):
    left = ((t + _HAGER_X0) ** 3 - _HAGER_X0 ** 3) / 6.0 + t / 2.0
    right = _Z_HALF + (np.exp(2.0 * t) - np.exp(4.0 - 2.0 * t) - _E + _E ** 3) \
        / (2.0 * _SIG ** 2)
    return np.where(t <= 0.5, left, right)


_UNCON_DEN = 1.0 + _E ** 2


def _uncon_x(t):
    return _HAGER_X0 * (np.exp(t) + np.exp(2.0 - t)) / _UNCON_DEN


def _uncon_u(t):
    return _HAGER_X0 * (np.exp(t) - np.exp(2.0 - t)) / _UNCON_DEN


def _uncon_z(t):
    return _HAGER_X0 ** 2 * (np.exp(2.0 * t) - np.exp(4.0 - 2.0 * t) - 1.0 + _E ** 4) \
        / (2.0 * _UNCON_DEN ** 2)


def hager_optimal_cost(constrained=True):
    """Closed-form optimal objective of the built-in benchmark."""
    if constrained:
        return _Z_HALF + (_E + 1.0) / (2.0 * (_E - 1.0))
    return _HAGER_X0 ** 2 * (_E ** 2 - 1.0) / (2.0 * _UNCON_DEN)


def _columns(*fns):
    """Analytic callable of tau: t by map_domain's to_native on [0, 1], a column per fn."""
    def evaluate(tau):
        x = np.atleast_1d(0.0 + 1.0 * (np.asarray(tau, dtype=float) + 1.0) / 2.0)
        return np.column_stack([fn(x) for fn in fns])
    return evaluate


def _hager_analytic(constrained):
    x, z, u = (_hager_x, _hager_z, _hager_u) if constrained else (_uncon_x, _uncon_z, _uncon_u)
    lam = _hager_lam if constrained else (lambda t: -_uncon_u(t))
    return AnalyticSolution(_columns(x, z), _columns(u), _columns(lam, np.ones_like))


def _build_hager(name, constrained):
    s = 0.5  # (b - a) / 2, the factor map_domain takes from [0, 1] onto [-1, 1]

    def f(X, U):
        F = np.empty((len(X), 2))
        F[:, 0] = s * U[:, 0]
        F[:, 1] = s * (0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2))  # the running cost, then s
        return F

    def f_x(X, U):
        J = np.zeros((len(X), 2, 2))
        J[:, 1, 0] = s * X[:, 0]
        return J

    def f_u(X, U):
        B = np.empty((len(X), 2, 1))
        B[:, 0, 0], B[:, 1, 0] = s, s * U[:, 0]
        return B

    def h_uu(X, U, Lam):
        R = np.empty((len(X), 1, 1))
        R[:, 0, 0] = s * (0.0 + Lam[:, 1])  # 0.0 + turns -0 into +0, as in the composition
        return R

    x0 = np.array([_HAGER_X0, 0.0])
    x0.flags.writeable = False
    prob = ControlProblem(
        name=name, n=2, m=1, dynamics=f, dynamics_x=f_x, dynamics_u=f_u,
        cost=lambda x: float(0.0 + x[1]), cost_grad=lambda x: np.array([0.0, 1.0]),
        ham_hess_uu=h_uu, x0=x0, analytic=_hager_analytic(constrained),
        control_set=ControlSet.box(upper=np.array([1.0])) if constrained
        else ControlSet.unconstrained())
    audit_derivatives(prob)
    return prob


BUILTIN_NAMES = ("hager84-constrained", "hager84-unconstrained")


def builtin(name):
    """Construct a registered benchmark problem (audited, on [-1, 1])."""
    if name == "hager84-constrained":
        return _build_hager(name, constrained=True)
    if name == "hager84-unconstrained":
        return _build_hager(name, constrained=False)
    raise UnknownProblem(
        f"unknown problem {name!r}; available: {', '.join(BUILTIN_NAMES)}")
