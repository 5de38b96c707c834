"""Optimal control problem containers.

Problems are kept in Mayer form on the reference interval [-1, 1]: minimize
a terminal cost C(x(1)) subject to autonomous dynamics xdot = f(x, u), a
fixed initial state, and a pointwise control constraint u(t) in U expressed
through a Euclidean projection.  Every problem, built-in or custom, is one
``ControlProblem``.  Helpers convert the two common departures from that
normal form: ``augment_bolza`` adds the integral of a ``RunningCost`` to a
problem's terminal cost through an extra integrator state, which makes it a
Bolza problem, and ``map_domain`` rescales a problem posed on [a, b].

Every problem carries the callbacks the solver reads: the dynamics and its
Jacobians, the terminal cost and its gradient, and the control Hessian
H_uu of the Hamiltonian H = lambda . f(x, u), whose positive definiteness
scales the descent step.  ``audit_derivatives`` cross-checks the supplied
derivatives against central finite differences at random points and is run
for every built-in problem at construction.

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
    """Closed convex admissible set for the control, given by its projection.

    kind is one of "unconstrained", "box", "custom".  Box bounds may be
    one-sided (None means unbounded on that side).
    """

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    projector: Callable[[np.ndarray], np.ndarray] | None = None

    @staticmethod
    def unconstrained():
        return ControlSet(kind="unconstrained")

    @staticmethod
    def box(lower=None, upper=None):
        lo = None if lower is None else np.asarray(lower, dtype=float)
        hi = None if upper is None else np.asarray(upper, dtype=float)
        if lo is not None and hi is not None and not np.all(lo < hi):
            raise ValueError("box control set needs lower < upper componentwise")
        return ControlSet(kind="box", lower=lo, upper=hi)

    @staticmethod
    def custom(projector):
        return ControlSet(kind="custom", projector=projector)

    def project(self, u):
        """Euclidean projection onto the set; accepts (m,) or (N, m)."""
        v = np.asarray(u, dtype=float)
        if self.kind == "unconstrained":
            return v.copy()
        if self.kind == "box":
            return np.clip(v, self.lower, self.upper)
        return np.asarray(self.projector(v), dtype=float)


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
        """Gradient of H = lambda . f with respect to x, per row: (K, n)."""
        return np.einsum("kij,ki->kj", self.dynamics_x(X, U), Lam)

    def ham_u(self, X, U, Lam):
        """Gradient of H = lambda . f with respect to u, per row: (K, m);
        raises DimensionMismatch unless f_u is a (K, n, m) stack."""
        B = self.dynamics_u(X, U)
        if np.shape(B) != (len(X), self.n, self.m):
            raise DimensionMismatch(
                f"dynamics_u gave {np.shape(B)}, expected {(len(X), self.n, self.m)}")
        return np.einsum("kij,ki->kj", B, Lam)


def augment_bolza(base, running, name=""):
    """Fold a running cost into an extra integrator state.

    The returned Mayer problem has n+1 states: the appended component obeys
    zdot = l(x, u) and starts at zero, and the objective is the base
    problem's terminal cost plus z(end).
    """
    n, m = base.n, base.m

    def f(X, U):
        return np.column_stack([base.dynamics(X[:, :n], U), running.value(X[:, :n], U)])

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
        return np.append(base.cost_grad(x[:n]), 1.0)

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
    An attached analytic solution is re-parametrized accordingly.
    """
    s = (b - a) / 2.0
    if s <= 0:
        raise ValueError("domain must have positive length")

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

AUDIT_POINTS = 8      # random points per audit
AUDIT_SEED = 2024
AUDIT_REL_TOL = 1e-6  # allowed gap, relative to max(1, largest entry)
FD_STEP = 1e-6        # central-difference step, relative to max(1, |v_j|)


def _fd_jacobian(fn, v):
    v = np.asarray(v, dtype=float)
    base = np.atleast_1d(np.asarray(fn(v), dtype=float))
    J = np.empty((base.size, v.size))
    for j in range(v.size):
        step = FD_STEP * max(1.0, abs(v[j]))
        vp = v.copy()
        vm = v.copy()
        vp[j] += step
        vm[j] -= step
        J[:, j] = (np.atleast_1d(np.asarray(fn(vp), dtype=float)).ravel()
                   - np.atleast_1d(np.asarray(fn(vm), dtype=float)).ravel()) / (2 * step)
    return J


def _audit_pair(label, exact, fd):
    exact = np.atleast_2d(np.asarray(exact, dtype=float))
    fd = np.atleast_2d(fd)
    if exact.shape != fd.shape:
        raise EvaluationFailure(
            f"{label}: shape {exact.shape} does not match finite differences {fd.shape}")
    scale = max(1.0, float(np.max(np.abs(exact))))
    gap = float(np.max(np.abs(exact - fd)))
    if gap > AUDIT_REL_TOL * scale:
        raise EvaluationFailure(
            f"{label}: supplied derivative differs from finite differences "
            f"by {gap:.3e} (scale {scale:.3e}, tolerance {AUDIT_REL_TOL:g})")


def audit_derivatives(problem):
    """Cross-check every derivative callback against central differences.

    AUDIT_POINTS random evaluation points are drawn around the initial
    state; each is passed to the stacked callbacks as a batch of one row.
    Raises EvaluationFailure on the first mismatch; returns the number of
    points audited otherwise.
    """
    rng = np.random.default_rng(AUDIT_SEED)
    n, m = problem.n, problem.m
    for _ in range(AUDIT_POINTS):
        x = problem.x0 + rng.standard_normal(n)
        u = rng.standard_normal(m)
        lam = rng.standard_normal(n)
        X, U, L = x[None], u[None], lam[None]
        try:
            _audit_pair("dynamics_x", problem.dynamics_x(X, U)[0],
                        _fd_jacobian(lambda v: problem.dynamics(v[None], U)[0], x))
            _audit_pair("dynamics_u", problem.dynamics_u(X, U)[0],
                        _fd_jacobian(lambda v: problem.dynamics(X, v[None])[0], u))
            _audit_pair("cost_grad", problem.cost_grad(x)[None, :],
                        _fd_jacobian(lambda v: problem.cost(v), x))
            _audit_pair("ham_hess_uu", problem.ham_hess_uu(X, U, L)[0],
                        _fd_jacobian(lambda v: problem.ham_u(X, v[None], L)[0], u))
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
# forms, which makes the problem a sharp accuracy benchmark.

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


def _hager_base(constrained):
    cset = ControlSet.box(upper=np.array([1.0])) if constrained \
        else ControlSet.unconstrained()
    return ControlProblem(
        name="", n=1, m=1,
        dynamics=lambda X, U: U[:, [0]],
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(1),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([_HAGER_X0]),
        control_set=cset)


_HAGER_RUNNING = RunningCost(
    value=lambda X, U: 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2),
    grad_x=lambda X, U: X[:, [0]],
    grad_u=lambda X, U: U[:, [0]],
    hess_uu=lambda X, U: np.ones((len(X), 1, 1)))


def _stack(*cols):
    return np.column_stack([np.atleast_1d(np.asarray(c, dtype=float)) for c in cols])


def _hager_analytic(constrained):
    if constrained:
        return AnalyticSolution(
            state=lambda t: _stack(_hager_x(np.atleast_1d(np.asarray(t, float))),
                                   _hager_z(np.atleast_1d(np.asarray(t, float)))),
            control=lambda t: _stack(_hager_u(np.atleast_1d(np.asarray(t, float)))),
            costate=lambda t: _stack(_hager_lam(np.atleast_1d(np.asarray(t, float))),
                                     np.ones_like(np.atleast_1d(np.asarray(t, float)))))
    return AnalyticSolution(
        state=lambda t: _stack(_uncon_x(np.atleast_1d(np.asarray(t, float))),
                               _uncon_z(np.atleast_1d(np.asarray(t, float)))),
        control=lambda t: _stack(_uncon_u(np.atleast_1d(np.asarray(t, float)))),
        costate=lambda t: _stack(-_uncon_u(np.atleast_1d(np.asarray(t, float))),
                                 np.ones_like(np.atleast_1d(np.asarray(t, float)))))


def _build_hager(name, constrained):
    bolza = augment_bolza(_hager_base(constrained), _HAGER_RUNNING, name=name)
    bolza = replace(bolza, analytic=_hager_analytic(constrained))
    prob = map_domain(bolza, 0.0, 1.0)
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
