"""Optimal control problem containers.

Problems are kept in Mayer form on the reference interval [-1, 1]: minimize
a terminal cost C(x(1)) subject to autonomous dynamics xdot = f(x, u), a
fixed initial state x0, and a pointwise control constraint u(t) in a box U: a
``ControlSet``, given by its bounds, which owns the projection onto U.  Every
problem, built-in or custom, is one ``ControlProblem``, checked where it is
built: x0 is (n,) and each bound a scalar or (m,).  ``augment_bolza`` folds
the integral of a running cost l(x, u) into the terminal cost through an extra
integrator state, and ``map_domain`` rescales a problem posed on [a, b].  The
built-ins are written in closed form: each callback allocates its result once
and gives the bits of the same problem composed with those two helpers.

Every problem carries the five callbacks the solver reads: the dynamics, its
Jacobians f_x and f_u, the terminal cost and its gradient; the solver
differences f_u for the control Hessian.  ``audit_derivatives`` cross-checks
them against central finite differences at fixed points, two batched callback
calls per perturbed coordinate, and is run for every built-in at construction.

Dynamics callbacks are evaluated once per grid: they take stacks of K rows,
X (K, n) and U (K, m), and return one result per row: f (K, n), f_x (K, n, n)
and f_u (K, n, m), and a running cost's value (K,).  The terminal cost and its
gradient stay pointwise: C(x) is a float and C_x (n,).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EvaluationFailure, UnknownProblem


@dataclass(frozen=True, eq=False)
class ControlSet:
    """Box admissible set for the control, lower <= u <= upper componentwise.

    Each bound is None (unbounded on that side), a scalar or an (m,) array,
    kept as a read-only float copy.  A NaN bound, a bound of more than one
    dimension or an empty box (lower < upper failing anywhere, a missing
    bound taken as -inf or +inf) raises ValueError here, so every set is valid.
    Sets compare and hash by identity: an array field has no one truth value."""

    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        for side in ("lower", "upper"):
            if (b := getattr(self, side)) is not None:
                b = np.array(b, dtype=float)
                if np.isnan(b).any():
                    raise ValueError("box control set bound is NaN")
                if b.ndim > 1:
                    raise ValueError(f"box control set {side} bound has shape {b.shape}, "
                                     "expected a scalar or (m,)")
                b.flags.writeable = False
                object.__setattr__(self, side, b)
        if not np.all((-np.inf if self.lower is None else self.lower)
                      < (np.inf if self.upper is None else self.upper)):
            raise ValueError("box control set needs lower < upper componentwise")

    def project(self, u):
        """Euclidean projection of (m,) or (N, m) ``u`` onto the box, a new float array."""
        u = np.asarray(u, dtype=float)
        if self.lower is None and self.upper is None:
            return u.copy()  # ndarray.clip(None, None) raises before numpy 2.1
        return u.clip(self.lower, self.upper)  # one bound: np.maximum or np.minimum


@dataclass(frozen=True)
class AnalyticSolution:
    """Known optimal trajectory, each callable mapping a 1-D array of times
    on the problem's own domain to an array of shape (len(t), dim)."""

    state: Callable[[np.ndarray], np.ndarray]
    control: Callable[[np.ndarray], np.ndarray]
    costate: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Mayer-form optimal control problem on a fixed interval, compared and hashed
    by identity.  x0 is kept as a read-only float copy, and DimensionMismatch is
    raised here unless it is (n,) and each control-set bound a scalar or (m,); no
    callback is called."""

    name: str
    n: int
    m: int
    dynamics: Callable
    dynamics_x: Callable
    dynamics_u: Callable
    cost: Callable
    cost_grad: Callable
    x0: np.ndarray
    control_set: ControlSet
    analytic: AnalyticSolution | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.array(self.x0, dtype=float))
        self.x0.flags.writeable = False
        if self.x0.shape != (self.n,):
            raise DimensionMismatch(f"x0 has shape {self.x0.shape}, expected {(self.n,)}")
        for side in ("lower", "upper"):
            if np.shape(b := getattr(self.control_set, side)) not in ((), (self.m,)):
                raise DimensionMismatch(f"control_set {side} bound has shape {b.shape}, "
                                        f"expected () or {(self.m,)}")

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


def augment_bolza(base, *, value, grad_x, grad_u, name=""):
    """Fold the running cost l(x, u) into an extra integrator state.

    The three callbacks take the base problem's stacks X (K, n) and U (K, m)
    and give l as value (K,) and its gradients grad_x (K, n) and grad_u (K, m).
    The returned Mayer problem has n+1 states: the appended component obeys
    zdot = l(x, u) and starts at zero, and the objective is the base
    problem's terminal cost plus z(end).  Its callbacks raise
    DimensionMismatch when a base or running cost result has another shape,
    rather than broadcast it.
    """
    n, m = base.n, base.m

    def f(X, U):
        # filled in place, so a wrong shape is caught here and not broadcast
        K = len(X)
        Fb, lv = base.dynamics(X[:, :n], U), value(X[:, :n], U)
        if np.shape(Fb) != (K, n) or np.shape(lv) != (K,):
            raise DimensionMismatch(
                f"base dynamics gave {np.shape(Fb)} and running cost {np.shape(lv)}, "
                f"expected {(K, n)} and {(K,)}")
        F = np.empty((K, n + 1))
        F[:, :n] = Fb
        F[:, n] = lv
        return F

    def jac_x(X, U):
        K = len(X)
        J = np.zeros((K, n + 1, n + 1))
        J[:, :n, :n] = _checked("base dynamics_x", base.dynamics_x(X[:, :n], U), (K, n, n))
        J[:, n, :n] = _checked("running cost grad_x", grad_x(X[:, :n], U), (K, n))
        return J

    def jac_u(X, U):
        K = len(X)
        J = np.zeros((K, n + 1, m))
        J[:, :n, :] = _checked("base dynamics_u", base.dynamics_u(X[:, :n], U), (K, n, m))
        J[:, n, :] = _checked("running cost grad_u", grad_u(X[:, :n], U), (K, m))
        return J

    def cost(x):
        return float(base.cost(x[:n]) + x[n])

    def cost_grad(x):
        g = np.empty(n + 1)
        g[:n] = _checked("base cost_grad", base.cost_grad(x[:n]), (n,))
        g[n] = 1.0
        return g

    return ControlProblem(
        name=name, n=n + 1, m=m,
        dynamics=f, dynamics_x=jac_x, dynamics_u=jac_u,
        cost=cost, cost_grad=cost_grad,
        x0=np.append(base.x0, 0.0), control_set=base.control_set)


def map_domain(problem, a, b):
    """Rescale an autonomous problem from [a, b] onto [-1, 1].

    The dynamics and its Jacobians pick up the factor (b - a) / 2;
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
    and the values of u.  The stacked callbacks take all points as one batch,
    so each central difference of f (for f_x and f_u) costs two calls per
    coordinate; the pointwise C_x is checked against C point by point.
    Raises EvaluationFailure on the first mismatch, or when a callback
    raises; returns the number of points audited otherwise.
    """
    n, m = problem.n, problem.m
    k = np.arange(1, AUDIT_POINTS * (n + m) + 1)
    S = (3.0 * (k * _GOLDEN % 1.0) - 1.5).reshape(AUDIT_POINTS, n + m)
    X, U = problem.x0 + S[:, :n], S[:, n:]
    try:
        _audit_stack("dynamics_x", problem.dynamics_x(X, U),
                     _fd_stack(lambda V: problem.dynamics(V, U), X))
        _audit_stack("dynamics_u", problem.dynamics_u(X, U),
                     _fd_stack(lambda V: problem.dynamics(X, V), U))
        _audit_stack("cost_grad", [[problem.cost_grad(x)] for x in X],
                     _fd_stack(lambda V: [[problem.cost(v)] for v in V], X))
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
# operations of map_domain(augment_bolza(base, **running), 0, 1) in its order.

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
    """Closed-form optimal objective of the built-in benchmark: z(1)."""
    return float((_hager_z if constrained else _uncon_z)(1.0))


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

    prob = ControlProblem(
        name=name, n=2, m=1, dynamics=f, dynamics_x=f_x, dynamics_u=f_u,
        cost=lambda x: float(0.0 + x[1]), cost_grad=lambda x: np.array([0.0, 1.0]),
        x0=[_HAGER_X0, 0.0], analytic=_hager_analytic(constrained),
        control_set=ControlSet(upper=[1.0]) if constrained else ControlSet())
    audit_derivatives(prob)
    return prob


BUILTIN_NAMES = ("hager84-constrained", "hager84-unconstrained")


def builtin(name):
    """Construct a registered benchmark problem (audited, on [-1, 1]): the first
    of ``BUILTIN_NAMES`` bounds the control by u <= 1, the second leaves it free."""
    if name not in BUILTIN_NAMES:
        raise UnknownProblem(
            f"unknown problem {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return _build_hager(name, constrained=name == BUILTIN_NAMES[0])
