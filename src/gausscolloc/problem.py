"""Optimal control problem containers.

Problems are kept in Mayer form on the reference interval [-1, 1]: minimize
a terminal cost C(x(1)) subject to autonomous dynamics xdot = f(x, u), a
fixed initial state, and a pointwise control constraint u(t) in U expressed
through a Euclidean projection.  Helpers convert the two common departures
from that normal form: ``augment_bolza`` folds a running cost into an extra
integrator state, and ``map_domain`` rescales a problem posed on [a, b].

Every problem carries callbacks for first and second derivatives of the
dynamics, cost, and Hamiltonian H = lambda . f(x, u); ``audit_derivatives``
cross-checks the supplied derivatives against central finite differences at
random points and is run for every built-in problem at construction.

Dynamics and Hamiltonian callbacks are evaluated once per grid: they take
stacks of K rows, X (K, n), U (K, m) and Lam (K, n), and return one result
per row: f (K, n), f_x (K, n, n), f_u (K, n, m), H_xx (K, n, n),
H_ux (K, m, n), H_uu (K, m, m).  A ``RunningCost`` follows the same layout,
with value (K,).  The terminal cost and its derivatives stay pointwise:
C(x) is a float, C_x (n,) and C_xx (n, n).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import EvaluationFailure, UnknownProblem


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
    hess_xx: Callable
    hess_ux: Callable
    hess_uu: Callable


@dataclass(frozen=True)
class Dynamics:
    """Dynamics block of a problem before a cost is attached.

    ham_hess_* are second derivatives of H = lambda . f(x, u) with respect
    to the indicated variables, at fixed lambda.
    """

    n: int
    m: int
    f: Callable
    jac_x: Callable
    jac_u: Callable
    ham_hess_xx: Callable
    ham_hess_ux: Callable
    ham_hess_uu: Callable
    x0: np.ndarray
    control_set: ControlSet


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
    cost_hess: Callable
    ham_hess_xx: Callable
    ham_hess_ux: Callable
    ham_hess_uu: Callable
    x0: np.ndarray
    control_set: ControlSet
    analytic: AnalyticSolution | None = None

    def ham_x(self, X, U, Lam):
        """Gradient of H = lambda . f with respect to x, per row: (K, n)."""
        return np.einsum("kij,ki->kj", self.dynamics_x(X, U), Lam)

    def ham_u(self, X, U, Lam):
        """Gradient of H = lambda . f with respect to u, per row: (K, m)."""
        return np.einsum("kij,ki->kj", self.dynamics_u(X, U), Lam)


@dataclass(frozen=True)
class Linearization:
    """Derivative blocks stacked over rows: A = f_x, B = f_u, Q = H_xx,
    S = H_ux, R = H_uu; T = C_xx is the single terminal cost Hessian."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    T: np.ndarray


def linearize_at(problem, X, U, Lam, terminal_x=None):
    """Evaluate the Linearization blocks on stacks X, U, Lam.

    T is the cost Hessian, evaluated at ``terminal_x`` when given and at
    the last row of ``X`` otherwise.
    """
    xt = X[-1] if terminal_x is None else terminal_x
    return Linearization(
        A=np.asarray(problem.dynamics_x(X, U), dtype=float),
        B=np.asarray(problem.dynamics_u(X, U), dtype=float),
        Q=np.asarray(problem.ham_hess_xx(X, U, Lam), dtype=float),
        S=np.asarray(problem.ham_hess_ux(X, U, Lam), dtype=float),
        R=np.asarray(problem.ham_hess_uu(X, U, Lam), dtype=float),
        T=np.asarray(problem.cost_hess(xt), dtype=float),
    )


def augment_bolza(base, running, name=""):
    """Fold a running cost into an extra integrator state.

    The returned Mayer problem has n+1 states: the appended component obeys
    zdot = l(x, u), starts at zero, and supplies the objective C = z(end).
    """
    n, m = base.n, base.m

    def f(X, U):
        return np.column_stack([base.f(X[:, :n], U), running.value(X[:, :n], U)])

    def jac_x(X, U):
        J = np.zeros((len(X), n + 1, n + 1))
        J[:, :n, :n] = base.jac_x(X[:, :n], U)
        J[:, n, :n] = running.grad_x(X[:, :n], U)
        return J

    def jac_u(X, U):
        J = np.zeros((len(X), n + 1, m))
        J[:, :n, :] = base.jac_u(X[:, :n], U)
        J[:, n, :] = running.grad_u(X[:, :n], U)
        return J

    def cost(x):
        return float(x[n])

    def cost_grad(x):
        g = np.zeros(n + 1)
        g[n] = 1.0
        return g

    def cost_hess(x):
        return np.zeros((n + 1, n + 1))

    def ham_hess_xx(X, U, Lam):
        H = np.zeros((len(X), n + 1, n + 1))
        H[:, :n, :n] = base.ham_hess_xx(X[:, :n], U, Lam[:, :n]) \
            + Lam[:, n, None, None] * running.hess_xx(X[:, :n], U)
        return H

    def ham_hess_ux(X, U, Lam):
        H = np.zeros((len(X), m, n + 1))
        H[:, :, :n] = base.ham_hess_ux(X[:, :n], U, Lam[:, :n]) \
            + Lam[:, n, None, None] * running.hess_ux(X[:, :n], U)
        return H

    def ham_hess_uu(X, U, Lam):
        return base.ham_hess_uu(X[:, :n], U, Lam[:, :n]) \
            + Lam[:, n, None, None] * running.hess_uu(X[:, :n], U)

    x0 = np.concatenate([np.asarray(base.x0, dtype=float), [0.0]])
    x0.flags.writeable = False
    return ControlProblem(
        name=name, n=n + 1, m=m,
        dynamics=f, dynamics_x=jac_x, dynamics_u=jac_u,
        cost=cost, cost_grad=cost_grad, cost_hess=cost_hess,
        ham_hess_xx=ham_hess_xx, ham_hess_ux=ham_hess_ux,
        ham_hess_uu=ham_hess_uu,
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

    scaled = ControlProblem(
        name=problem.name, n=problem.n, m=problem.m,
        dynamics=lambda X, U: s * np.asarray(problem.dynamics(X, U), dtype=float),
        dynamics_x=lambda X, U: s * np.asarray(problem.dynamics_x(X, U), dtype=float),
        dynamics_u=lambda X, U: s * np.asarray(problem.dynamics_u(X, U), dtype=float),
        cost=problem.cost, cost_grad=problem.cost_grad, cost_hess=problem.cost_hess,
        ham_hess_xx=lambda X, U, Lam: s * np.asarray(problem.ham_hess_xx(X, U, Lam), dtype=float),
        ham_hess_ux=lambda X, U, Lam: s * np.asarray(problem.ham_hess_ux(X, U, Lam), dtype=float),
        ham_hess_uu=lambda X, U, Lam: s * np.asarray(problem.ham_hess_uu(X, U, Lam), dtype=float),
        x0=problem.x0, control_set=problem.control_set)

    if problem.analytic is None:
        return scaled

    def to_native(tau):
        return a + (b - a) * (np.asarray(tau, dtype=float) + 1.0) / 2.0

    old = problem.analytic
    remapped = AnalyticSolution(
        state=lambda tau: old.state(to_native(tau)),
        control=lambda tau: old.control(to_native(tau)),
        costate=lambda tau: old.costate(to_native(tau)))
    return replace(scaled, analytic=remapped)


# ---------------------------------------------------------------------------
# derivative audit

def _fd_jacobian(fn, v, h):
    v = np.asarray(v, dtype=float)
    base = np.atleast_1d(np.asarray(fn(v), dtype=float))
    J = np.empty((base.size, v.size))
    for j in range(v.size):
        step = h * max(1.0, abs(v[j]))
        vp = v.copy()
        vm = v.copy()
        vp[j] += step
        vm[j] -= step
        J[:, j] = (np.atleast_1d(np.asarray(fn(vp), dtype=float)).ravel()
                   - np.atleast_1d(np.asarray(fn(vm), dtype=float)).ravel()) / (2 * step)
    return J


def _audit_pair(label, exact, fd, rel_tol):
    exact = np.atleast_2d(np.asarray(exact, dtype=float))
    fd = np.atleast_2d(fd)
    if exact.shape != fd.shape:
        raise EvaluationFailure(
            f"{label}: shape {exact.shape} does not match finite differences {fd.shape}")
    scale = max(1.0, float(np.max(np.abs(exact))))
    gap = float(np.max(np.abs(exact - fd)))
    if gap > rel_tol * scale:
        raise EvaluationFailure(
            f"{label}: supplied derivative differs from finite differences "
            f"by {gap:.3e} (scale {scale:.3e}, tolerance {rel_tol:g})")


def audit_derivatives(problem, points=8, seed=2024, rel_tol=1e-6, fd_step=1e-6):
    """Cross-check every derivative callback against central differences.

    Random evaluation points are drawn around the initial state; each is
    passed to the stacked callbacks as a batch of one row.  Raises
    EvaluationFailure on the first mismatch; returns the number of points
    audited otherwise.
    """
    rng = np.random.default_rng(seed)
    n, m = problem.n, problem.m
    for _ in range(points):
        x = problem.x0 + rng.standard_normal(n)
        u = rng.standard_normal(m)
        lam = rng.standard_normal(n)
        X, U, L = x[None], u[None], lam[None]
        try:
            _audit_pair("dynamics_x", problem.dynamics_x(X, U)[0],
                        _fd_jacobian(lambda v: problem.dynamics(v[None], U)[0], x, fd_step),
                        rel_tol)
            _audit_pair("dynamics_u", problem.dynamics_u(X, U)[0],
                        _fd_jacobian(lambda v: problem.dynamics(X, v[None])[0], u, fd_step),
                        rel_tol)
            _audit_pair("cost_grad", problem.cost_grad(x)[None, :],
                        _fd_jacobian(lambda v: problem.cost(v), x, fd_step), rel_tol)
            _audit_pair("cost_hess", problem.cost_hess(x),
                        _fd_jacobian(lambda v: problem.cost_grad(v), x, fd_step), rel_tol)
            _audit_pair("ham_hess_xx", problem.ham_hess_xx(X, U, L)[0],
                        _fd_jacobian(lambda v: problem.ham_x(v[None], U, L)[0], x, fd_step),
                        rel_tol)
            _audit_pair("ham_hess_ux", problem.ham_hess_ux(X, U, L)[0],
                        _fd_jacobian(lambda v: problem.ham_u(v[None], U, L)[0], x, fd_step),
                        rel_tol)
            _audit_pair("ham_hess_uu", problem.ham_hess_uu(X, U, L)[0],
                        _fd_jacobian(lambda v: problem.ham_u(X, v[None], L)[0], u, fd_step),
                        rel_tol)
        except EvaluationFailure:
            raise
        except Exception as exc:  # noqa: BLE001 - surface callback failures uniformly
            raise EvaluationFailure(f"problem callback raised: {exc!r}") from exc
    return points


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
    return Dynamics(
        n=1, m=1,
        f=lambda X, U: U[:, [0]],
        jac_x=lambda X, U: np.zeros((len(X), 1, 1)),
        jac_u=lambda X, U: np.ones((len(X), 1, 1)),
        ham_hess_xx=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        ham_hess_ux=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
        x0=np.array([_HAGER_X0]),
        control_set=cset)


_HAGER_RUNNING = RunningCost(
    value=lambda X, U: 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2),
    grad_x=lambda X, U: X[:, [0]],
    grad_u=lambda X, U: U[:, [0]],
    hess_xx=lambda X, U: np.ones((len(X), 1, 1)),
    hess_ux=lambda X, U: np.zeros((len(X), 1, 1)),
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
