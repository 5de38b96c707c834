"""Problem definitions: control sets, augmentation, mapping, builtins."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gausscolloc import (BUILTIN_NAMES, AnalyticSolution, ControlProblem, ControlSet,
                         audit_derivatives, augment_bolza, builtin,
                         gauss_rule, hager_optimal_cost, map_domain, solve)
from gausscolloc.diffmat import differentiation_matrix
from gausscolloc.errors import (DimensionMismatch, EvaluationFailure, GaussCollocError,
                               UnknownProblem)
from gausscolloc.problem import (_HAGER_X0, _hager_lam, _hager_u, _hager_x, _hager_z,
                                 _uncon_u, _uncon_x, _uncon_z)
from gausscolloc.solver import _control_hessian


# The benchmark as a composition: a one-state base problem on the native
# domain [0, 1], the running cost (x^2 + u^2) / 2 folded in by augment_bolza,
# and map_domain onto [-1, 1].  The built-ins are this composition written out
# in closed form, and these tests hold them to its bits.
def _hager_base(constrained):
    cset = ControlSet(upper=np.array([1.0])) if constrained else ControlSet()
    return ControlProblem(
        name="", n=1, m=1,
        dynamics=lambda X, U: U[:, [0]],
        dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
        dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
        cost=lambda x: 0.0,
        cost_grad=lambda x: np.zeros(1),
        x0=np.array([_HAGER_X0]),
        control_set=cset)


_HAGER_RUNNING = dict(
    value=lambda X, U: 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2),
    grad_x=lambda X, U: X[:, [0]],
    grad_u=lambda X, U: U[:, [0]])


def _native_columns(*fns):
    """Analytic callable of the native time t: one column per fn."""
    def evaluate(t):
        x = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack([fn(x) for fn in fns])
    return evaluate


def _composed_hager(name):
    """map_domain(augment_bolza(base, **running), 0, 1) with the native analytic solution."""
    if name == "hager84-constrained":
        analytic = AnalyticSolution(state=_native_columns(_hager_x, _hager_z),
                                    control=_native_columns(_hager_u),
                                    costate=_native_columns(_hager_lam, np.ones_like))
    else:
        analytic = AnalyticSolution(state=_native_columns(_uncon_x, _uncon_z),
                                    control=_native_columns(_uncon_u),
                                    costate=_native_columns(lambda x: -_uncon_u(x),
                                                            np.ones_like))
    base = _hager_base(name == "hager84-constrained")
    bolza = dataclasses.replace(augment_bolza(base, **_HAGER_RUNNING, name=name), analytic=analytic)
    return map_domain(bolza, 0.0, 1.0)


def _linear_problem():
    """ndot = A0 x + B0 u with quadratic terminal cost; H is linear in x,u."""
    A0 = np.array([[0.0, 2.0], [-1.0, 0.5]])
    B0 = np.array([[1.0], [3.0]])
    return ControlProblem(
        name="linear-2d", n=2, m=1,
        dynamics=lambda X, U: X @ A0.T + U @ B0.T,
        dynamics_x=lambda X, U: np.broadcast_to(A0, (len(X), 2, 2)),
        dynamics_u=lambda X, U: np.broadcast_to(B0, (len(X), 2, 1)),
        cost=lambda x: 0.5 * float(x @ x),
        cost_grad=lambda x: x,
        x0=np.array([1.0, 0.0]),
        control_set=ControlSet())


def _nonlinear_problem(x0):
    """Two states and two controls; f is nonlinear in x and in u, so every
    derivative the audit checks varies from point to point."""
    def f(X, U):
        return np.column_stack([X[:, 1] * U[:, 0] + np.sin(X[:, 0]),
                                X[:, 0] * X[:, 1] + U[:, 0] * U[:, 1] + U[:, 1] ** 2])

    def f_x(X, U):
        J = np.empty((len(X), 2, 2))
        J[:, 0, 0], J[:, 0, 1] = np.cos(X[:, 0]), U[:, 0]
        J[:, 1, 0], J[:, 1, 1] = X[:, 1], X[:, 0]
        return J

    def f_u(X, U):
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 0] = X[:, 1]
        J[:, 1, 0], J[:, 1, 1] = U[:, 1], U[:, 0] + 2.0 * U[:, 1]
        return J

    return ControlProblem(
        name="nonlinear-2d", n=2, m=2, dynamics=f, dynamics_x=f_x, dynamics_u=f_u,
        cost=lambda x: float(x[0] * x[1]), cost_grad=lambda x: x[::-1].copy(),
        x0=x0, control_set=ControlSet())


class TestControlSet:
    def test_is_its_bounds(self):
        assert [f.name for f in dataclasses.fields(ControlSet)] == ["lower", "upper"]
        assert [n for n in vars(ControlSet) if not n.startswith("_")] == ["lower", "upper", "project"]
        cs = ControlSet(upper=0.0)
        np.testing.assert_array_equal(cs.project(np.array([-1.0, 2.0])), [-1.0, 0.0])
        two = ControlSet(upper=[0.0, 1.0])
        assert two == two and two != ControlSet(upper=[0.0, 1.0]) and hash(two) == hash(two)

    def test_unconstrained_is_identity(self):
        cs = ControlSet()
        v = np.array([3.0, -7.0])
        out = cs.project(v)
        np.testing.assert_array_equal(out, v)
        assert not np.shares_memory(out, v)
        out = cs.project([1, 2])
        assert out.dtype == float
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_box_clips(self):
        cs = ControlSet(lower=[-1.0], upper=[1.0])
        np.testing.assert_array_equal(cs.project(np.array([2.5])), [1.0])
        np.testing.assert_array_equal(cs.project(np.array([-3.0])), [-1.0])
        np.testing.assert_array_equal(cs.project(np.array([0.25])), [0.25])

    def test_box_one_sided(self):
        cs = ControlSet(upper=[1.0])
        np.testing.assert_array_equal(cs.project(np.array([-9.0])), [-9.0])
        np.testing.assert_array_equal(cs.project(np.array([9.0])), [1.0])

    def test_box_stacked_rows(self):
        cs = ControlSet(lower=[0.0], upper=[1.0])
        U = np.array([[-1.0], [0.5], [2.0]])
        np.testing.assert_array_equal(cs.project(U), [[0.0], [0.5], [1.0]])
        out = cs.project([[-1], [2]])
        assert out.dtype == float
        np.testing.assert_array_equal(out, [[0.0], [1.0]])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 3), sides=st.sampled_from(
        ["lower", "upper", "both", "neither"]))
    def test_box_has_the_bytes_of_clip(self, data, m, sides):
        # a one-sided box takes np.minimum or np.maximum, which np.clip itself
        # calls for one bound: signed zeros, NaN and infinities come out alike
        entries = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
        v = data.draw(arrays(float, data.draw(st.sampled_from([(m,), (4, m)])),
                             elements=entries))
        lo = hi = None
        if sides in ("lower", "both"):
            lo = data.draw(arrays(float, m, elements=st.floats(-5.0, 0.0)))
        if sides in ("upper", "both"):
            hi = data.draw(arrays(float, m, elements=st.floats(0.0, 5.0, exclude_min=True)))
        out = ControlSet(lower=lo, upper=hi).project(v)
        ref = np.clip(v, lo, hi)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()
        assert not np.shares_memory(out, v)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 3), sides=st.sampled_from(
        ["lower", "upper", "neither"]))
    def test_one_bound_has_its_ufuncs_bytes_and_none_keeps_u(self, data, m, sides):
        entries = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
        v = data.draw(arrays(float, data.draw(st.sampled_from([(m,), (4, m)])),
                             elements=entries))
        bound = data.draw(arrays(float, m, elements=st.sampled_from([0.0, -0.0, 1.5, -1.5])))
        if sides == "lower":
            cs, ref = ControlSet(lower=bound), np.maximum(v, bound)
        elif sides == "upper":
            cs, ref = ControlSet(upper=bound), np.minimum(v, bound)
        else:
            cs, ref = ControlSet(), v
        out = cs.project(v)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()
        assert not np.shares_memory(out, v)

    @pytest.mark.parametrize("bounds", [
        {"lower": [1.0], "upper": [1.0]}, {"lower": [2.0], "upper": [-2.0]},
        {"lower": [0.0, 1.0], "upper": 0.5}, {"lower": np.inf}, {"upper": -np.inf},
    ], ids=["touching", "crossed", "one-component", "lower-inf", "upper-minus-inf"])
    def test_box_rejects_empty_interior(self, bounds):
        # a missing bound counts as -inf or +inf, so an infinite bound on the
        # wrong side leaves nothing to project onto
        with pytest.raises(ValueError, match="lower < upper"):
            ControlSet(**bounds)

    @pytest.mark.parametrize("bounds", [
        {"lower": [[0.0]]}, {"upper": np.ones((2, 1))},
        {"lower": [0.0, 0.0], "upper": [1.0, 1.0, 1.0]},
    ], ids=["lower-2d", "upper-2d", "lengths-differ"])
    def test_box_rejects_malformed_bounds(self, bounds):
        # a 2-D bound would broadcast a control stack to another shape
        with pytest.raises(ValueError):
            ControlSet(**bounds)

    def test_bounds_are_read_only_copies(self):
        # the set keeps its own bounds: changing the caller's arrays after
        # construction neither empties the box nor moves a solve's ceiling
        lo, hi = np.array([-1.0]), np.array([1.0])
        cs = ControlSet(lo, hi)
        lo[0], hi[0] = 5.0, -2.0
        np.testing.assert_array_equal(cs.lower, [-1.0])
        np.testing.assert_array_equal(cs.upper, [1.0])
        np.testing.assert_array_equal(cs.project([[0.0], [3.0], [-3.0]]), [[0.0], [1.0], [-1.0]])
        with pytest.raises(ValueError):
            cs.upper[0] = 0.5
        ceiling = np.array([1.0])
        box = builtin("hager84-constrained")
        moved = dataclasses.replace(box, control_set=ControlSet(upper=ceiling))
        ceiling[0] = 0.5
        got, want = solve(moved, 20), solve(box, 20)
        for a, b in ((got.traj.U, want.traj.U), (got.active_set, want.active_set)):
            _assert_same_bits(a, b)

    @pytest.mark.parametrize("bounds", [
        {"lower": np.nan}, {"upper": np.nan}, {"lower": [0.0, np.nan]},
        {"lower": [np.nan], "upper": [1.0]},
    ], ids=["lower", "upper", "one-component", "two-sided"])
    def test_box_rejects_a_nan_bound(self, bounds):
        # a NaN bound would project every control to NaN, found only inside solve
        with pytest.raises(ValueError, match="NaN"):
            ControlSet(**bounds)

    @pytest.mark.parametrize("cs", [
        ControlSet(),
        ControlSet(lower=[-1.0, 0.0], upper=[1.0, 2.0]),
        ControlSet(lower=[-0.5, -0.5]),
    ])
    def test_projection_idempotent_and_nonexpansive(self, cs):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.uniform(-3.0, 3.0, 2)
            b = rng.uniform(-3.0, 3.0, 2)
            pa, pb = cs.project(a), cs.project(b)
            assert np.max(np.abs(cs.project(pa) - pa)) <= 1e-12
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestControlProblem:
    def test_x0_is_a_read_only_copy(self):
        # the problem keeps its own x0: changing the caller's array after
        # construction moves neither x0 nor a solve
        x0 = np.array(builtin("hager84-constrained").x0)
        problem = dataclasses.replace(builtin("hager84-constrained"), x0=x0)
        want = solve(problem, 20)
        x0[0] = 0.0
        np.testing.assert_array_equal(problem.x0, [_HAGER_X0, 0.0])
        got = solve(problem, 20)
        for a, b in ((got.traj.X, want.traj.X), (got.traj.U, want.traj.U),
                     (got.objective_history, want.objective_history)):
            _assert_same_bits(np.asarray(a), np.asarray(b))
        with pytest.raises(ValueError):
            problem.x0[0] = 0.0
        ints = dataclasses.replace(_linear_problem(), x0=[1, 0])
        assert ints.x0.dtype == float and not ints.x0.flags.writeable

    def test_compares_and_hashes_by_identity(self):
        # x0 is an array, so field-wise equality has no one truth value: a
        # problem equals itself alone, and hashes
        problem = builtin("hager84-constrained")
        twin = dataclasses.replace(problem)
        assert problem == problem and problem != twin
        assert problem != builtin("hager84-constrained")
        assert hash(problem) == hash(problem) and len({problem, twin, problem}) == 2

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), m=st.integers(1, 3))
    def test_constructs_exactly_when_x0_and_bounds_fit(self, data, n, m):
        # x0 must be (n,) and each bound a scalar or (m,); the check calls no
        # callback, and an accepted problem with zero dynamics solves or
        # raises one of the package's errors
        length = data.draw(st.integers(0, 4), label="x0 length")
        k = data.draw(st.integers(0, 4).filter(lambda k: k != m), label="k")
        shapes = [data.draw(st.sampled_from([None, (), (m,), (k,)]), label=side)
                  for side in ("lower", "upper")]
        lower, upper = (None if shape is None else
                        data.draw(arrays(float, shape, elements=st.floats(lo, hi)))
                        for shape, (lo, hi) in zip(shapes, ((-2.0, -0.5), (0.5, 2.0))))
        x0 = data.draw(arrays(float, length, elements=st.floats(-2.0, 2.0)))
        fits = length == n and all(shape in (None, (), (m,)) for shape in shapes)
        try:
            control_set = ControlSet(lower, upper)
        except ValueError:
            assert not fits  # (k,) against (m,) fails in numpy's broadcast
            return
        calls = []

        def record(value):
            return lambda *args: calls.append(args) or value(*args)

        def build():
            return ControlProblem(
                name="still", n=n, m=m, x0=x0, control_set=control_set,
                dynamics=record(lambda X, U: np.zeros((len(X), n))),
                dynamics_x=record(lambda X, U: np.zeros((len(X), n, n))),
                dynamics_u=record(lambda X, U: np.zeros((len(X), n, m))),
                cost=record(lambda x: float(x.sum())), cost_grad=record(lambda x: np.ones(n)))

        if not fits:
            with pytest.raises(DimensionMismatch, match="x0 has shape|control_set .* bound"):
                build()
            assert not calls
            return
        problem = build()
        assert not calls
        assert not np.shares_memory(problem.x0, x0) and not problem.x0.flags.writeable
        try:
            report = solve(problem, 3)
        except GaussCollocError:
            return
        U = report.traj.U
        assert U.shape == (3, m) and np.array_equal(control_set.project(U), U)


class TestAugmentBolza:
    def test_zero_running_cost(self):
        prob = augment_bolza(
            _hager_base(True), name="zero-cost",
            value=lambda X, U: np.zeros(len(X)),
            grad_x=lambda X, U: np.zeros((len(X), 1)),
            grad_u=lambda X, U: np.zeros((len(X), 1)))
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert prob.cost(x * np.array([1.0, 0.0])) == 0.0

    def test_base_terminal_cost_is_kept(self):
        # C(x) = x^2 / 2 on the base: the augmented objective is C + z
        base = dataclasses.replace(_hager_base(True), cost=lambda x: 0.5 * x[0] * x[0],
                                   cost_grad=lambda x: np.array([x[0]]))
        prob = augment_bolza(base, **_HAGER_RUNNING, name="bolza")
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, z = rng.standard_normal(2)
            assert prob.cost(np.array([x, z])) == 0.5 * x * x + z
            np.testing.assert_array_equal(prob.cost_grad(np.array([x, z])), [x, 1.0])
        assert audit_derivatives(prob) > 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), K=st.integers(1, 30), n=st.integers(1, 4))
    def test_dynamics_and_cost_grad_match_stacking(self, data, K, n):
        # f and C_x are filled in place: the bits of column_stack and append
        floats = st.floats(allow_nan=True, allow_infinity=True)
        Fb, value, gb = (data.draw(arrays(float, shape, elements=floats))
                         for shape in ((K, n), (K,), (n,)))
        base = dataclasses.replace(_linear_problem(), n=n, dynamics=lambda X, U: Fb,
                                   cost_grad=lambda x: gb, x0=np.zeros(n))
        prob = augment_bolza(base, **{**_HAGER_RUNNING, "value": lambda X, U: value})
        F = prob.dynamics(np.zeros((K, n + 1)), np.zeros((K, 1)))
        np.testing.assert_array_equal(F, np.column_stack([Fb, value]))
        np.testing.assert_array_equal(prob.cost_grad(np.zeros(n + 1)), np.append(gb, 1.0))

    @pytest.mark.parametrize("base_change,value,message", [
        ({"dynamics": lambda X, U: np.ones((len(X), 1))}, None,
         "base dynamics gave (4, 1) and running cost (4,)"),
        ({}, lambda X, U: np.ones((len(X), 1)),
         "base dynamics gave (4, 2) and running cost (4, 1)"),
        ({"cost_grad": lambda x: 0.0}, None, "base cost_grad gave (), expected (2,)"),
    ], ids=["narrow-base-dynamics", "column-running-cost", "scalar-cost-grad"])
    def test_wrong_shape_is_rejected_not_broadcast(self, base_change, value, message):
        running = _HAGER_RUNNING if value is None else {**_HAGER_RUNNING, "value": value}
        prob = augment_bolza(dataclasses.replace(_linear_problem(), **base_change), **running)
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            prob.dynamics(np.zeros((4, 3)), np.zeros((4, 1)))
            prob.cost_grad(np.zeros(3))

    @pytest.mark.parametrize("base_change,running_change,callback,message", [
        ({"dynamics_x": lambda X, U: np.ones((len(X), 1, 1))}, {}, "dynamics_x",
         "base dynamics_x gave (4, 1, 1), expected (4, 2, 2)"),
        ({"dynamics_u": lambda X, U: np.ones((len(X), 1, 1))}, {}, "dynamics_u",
         "base dynamics_u gave (4, 1, 1), expected (4, 2, 1)"),
        ({}, {}, "dynamics_x", "running cost grad_x gave (4, 1), expected (4, 2)"),
        ({}, {"grad_u": lambda X, U: U[:, 0]}, "dynamics_u",
         "running cost grad_u gave (4,), expected (4, 1)"),
    ], ids=["base-dynamics_x", "base-dynamics_u", "running-grad_x", "running-grad_u"])
    def test_misshapen_derivative_is_rejected_not_broadcast(self, base_change, running_change,
                                                            callback, message):
        # the hager running cost reads only x_1, so on the two-state base its
        # (K, 1) grad_x is one column short; numpy would copy it into both
        base = dataclasses.replace(_linear_problem(), **base_change)
        prob = augment_bolza(base, **{**_HAGER_RUNNING, **running_change})
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            getattr(prob, callback)(np.zeros((4, 3)), np.zeros((4, 1)))

    def test_solve_rejects_a_short_running_cost_gradient(self):
        prob = augment_bolza(_linear_problem(), **_HAGER_RUNNING)
        with pytest.raises(DimensionMismatch, match=re.escape("running cost grad_x gave (20, 1)")):
            solve(prob, 20)

    def test_benchmark_has_two_states(self):
        prob = augment_bolza(_hager_base(True), **_HAGER_RUNNING)
        assert prob.n == 2 and prob.m == 1
        assert prob.x0[1] == 0.0

    def test_constant_running_cost_measures_domain(self):
        from gausscolloc import build_operators
        from gausscolloc.solver import solve_state
        one = augment_bolza(
            _hager_base(True),
            value=lambda X, U: np.ones(len(X)),
            grad_x=lambda X, U: np.zeros((len(X), 1)),
            grad_u=lambda X, U: np.zeros((len(X), 1)))
        # native domain [0, 1]: integral of 1 is its length
        prob = map_domain(one, 0.0, 1.0)
        ops = build_operators(gauss_rule(8))
        X = solve_state(prob, ops, np.zeros((8, 1))).X
        assert abs(prob.cost(X[-1]) - 1.0) <= 1e-12

    def test_objective_equals_quadrature_of_running_cost(self):
        from gausscolloc import build_operators
        from gausscolloc.solver import solve_state
        prob = _composed_hager("hager84-constrained")
        rule = gauss_rule(10)
        ops = build_operators(rule)
        rng = np.random.default_rng(11)
        U = rng.uniform(-0.5, 1.0, (10, 1))
        X = solve_state(prob, ops, U).X
        # z(1) must be the quadrature of the scaled integrand
        direct = 0.5 * sum(
            w * 0.5 * (x[0] ** 2 + u[0] ** 2)
            for w, x, u in zip(rule.weights, X[1:11], U))
        assert abs(prob.cost(X[-1]) - direct) <= 1e-10


class TestMapDomain:
    def test_identity_interval(self):
        prob = _linear_problem()
        mapped = map_domain(prob, -1.0, 1.0)
        x, u = np.array([[0.3, -0.2]]), np.array([[0.7]])
        np.testing.assert_allclose(mapped.dynamics(x, u),
                                   prob.dynamics(x, u), rtol=1e-15)

    def test_unit_interval_halves_dynamics(self):
        prob = _linear_problem()
        mapped = map_domain(prob, 0.0, 1.0)
        x, u = np.array([[0.3, -0.2], [1.5, 0.4]]), np.array([[0.7], [-2.0]])
        np.testing.assert_allclose(mapped.dynamics(x, u),
                                   0.5 * prob.dynamics(x, u), rtol=1e-15)
        np.testing.assert_allclose(mapped.dynamics_x(x, u),
                                   0.5 * prob.dynamics_x(x, u), rtol=1e-15)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            map_domain(_linear_problem(), 1.0, 1.0)
        with pytest.raises(ValueError):
            map_domain(_linear_problem(), 2.0, -1.0)

    @pytest.mark.parametrize("a, b", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf),
                                      (-np.inf, 0.0), (-np.inf, np.inf)])
    def test_rejects_non_finite_bounds(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            map_domain(augment_bolza(_hager_base(True), **_HAGER_RUNNING), a, b)

    def test_analytic_control_remap(self):
        # ceiling arc of the benchmark occupies the left half after mapping
        prob = _composed_hager("hager84-constrained")
        tau = np.linspace(-1.0, 0.0, 21)
        np.testing.assert_array_equal(prob.analytic.control(tau),
                                      np.ones((21, 1)))


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def builtin_pairs():
    """Each built-in with its composed oracle."""
    return {name: (builtin(name), _composed_hager(name)) for name in BUILTIN_NAMES}


class TestClosedFormBuiltins:
    """The closed-form built-ins give the bits of their composition."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(BUILTIN_NAMES), K=st.integers(1, 40))
    def test_callbacks_have_the_bits_of_the_composition(self, builtin_pairs, data, name, K):
        # signed zeros exercise the 0.0 + in the cost; infinities
        # and NaN the operation order
        entries = st.one_of(st.floats(-1e3, 1e3), st.floats(),
                            st.sampled_from([0.0, -0.0, 1e200, -1e-200, 5e-324]))
        X, U = (data.draw(arrays(float, shape, elements=entries)) for shape in ((K, 2), (K, 1)))
        prob, oracle = builtin_pairs[name]
        with np.errstate(all="ignore"):
            for field in ("dynamics", "dynamics_x", "dynamics_u"):
                _assert_same_bits(getattr(prob, field)(X, U), getattr(oracle, field)(X, U))
            for x in X:
                cost = prob.cost(x)
                assert type(cost) is float
                _assert_same_bits(cost, oracle.cost(x))
                _assert_same_bits(prob.cost_grad(x), oracle.cost_grad(x))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_fields_and_analytic_solution_match(self, builtin_pairs, name):
        prob, oracle = builtin_pairs[name]
        assert (prob.name, prob.n, prob.m) == (oracle.name, oracle.n, oracle.m)
        _assert_same_bits(prob.x0, oracle.x0)
        assert not prob.x0.flags.writeable
        # the control set is its projection: the same bytes, signed zeros,
        # infinities and NaN included, on a stack, a row and one value
        V = np.array([[0.0], [-0.0], [0.5], [1.0], [1.5], [-np.inf], [np.inf], [np.nan], [-np.nan]])
        for v in (V, V[:, 0], V[4]):
            _assert_same_bits(prob.control_set.project(v), oracle.control_set.project(v))
        tau = np.concatenate([np.linspace(-1.0, 1.0, 401), [-0.0, 0.0, 1e-300]])
        for field in ("state", "control", "costate"):
            for t in (tau, 0.25, np.float64(-0.5)):
                _assert_same_bits(getattr(prob.analytic, field)(t),
                                  getattr(oracle.analytic, field)(t))

    @pytest.mark.parametrize("N", [1, 2, 10, 80, 320])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_solve_has_the_bits_of_the_composition(self, builtin_pairs, name, N):
        prob, oracle = builtin_pairs[name]
        got, want = solve(prob, N), solve(oracle, N)
        for field in ("X", "U", "Lambda"):
            _assert_same_bits(getattr(got.traj, field), getattr(want.traj, field))
        _assert_same_bits(got.y_norm, want.y_norm)
        assert got.residual.norms.keys() == want.residual.norms.keys()
        for key, value in got.residual.norms.items():
            _assert_same_bits(value, want.residual.norms[key])
        _assert_same_bits(got.objective_history, want.objective_history)
        assert (got.outer_iters, got.termination) == (want.outer_iters, want.termination)
        assert got.termination == "converged"


class TestBuiltin:
    def test_initial_state(self):
        prob = builtin("hager84-constrained")
        exact = (1.0 + 3.0 * np.e) / (2.0 * (1.0 - np.e))
        assert prob.x0[0] == exact
        np.testing.assert_allclose(prob.x0[0], -2.66395341, atol=5e-9)

    def test_control_on_the_ceiling(self):
        prob = builtin("hager84-constrained")
        # native t=0.25 maps to tau=-0.5
        assert prob.analytic.control(np.array([-0.5]))[0, 0] == 1.0

    def test_control_at_final_time(self):
        prob = builtin("hager84-constrained")
        assert abs(prob.analytic.control(np.array([1.0]))[0, 0]) <= 1e-15

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            builtin("hager84-typo")

    def test_unconstrained_variant(self):
        prob = builtin("hager84-unconstrained")
        # its projection is a new array with the bytes of its input
        v = np.array([[-np.inf], [-0.0], [3.5], [np.nan]])
        out = prob.control_set.project(v)
        assert not np.shares_memory(out, v) and out.tobytes() == v.tobytes()
        # interior optimal control exceeds no bound but differs from the
        # constrained one on the left half
        u = prob.analytic.control(np.array([-0.5]))[0, 0]
        assert u > 1.0

    @pytest.mark.parametrize("name", ["hager84-constrained",
                                      "hager84-unconstrained"])
    def test_analytic_solves_the_dynamics(self, name):
        # integrated form of xdot = f over 50 panels per smooth arc;
        # differentiation oracles carry O(N^2 eps) noise, quadrature does not
        prob = builtin(name)
        rule = gauss_rule(12)
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            edges = np.linspace(lo, hi, 51)
            ends = prob.analytic.state(edges)
            for k in range(50):
                a, b = edges[k], edges[k + 1]
                pts = a + (b - a) * (rule.nodes + 1.0) / 2.0
                X = prob.analytic.state(pts)
                U = prob.analytic.control(pts)
                F = prob.dynamics(X, U)
                integral = (b - a) / 2.0 * (rule.weights @ F)
                gap = ends[k + 1] - ends[k] - integral
                assert np.max(np.abs(gap)) <= 1e-12

    @pytest.mark.parametrize("name", ["hager84-constrained",
                                      "hager84-unconstrained"])
    def test_analytic_costate_equation(self, name):
        # lambdadot = -H_x along the optimum, arc by arc; the costate of
        # the appended integrator state is identically 1
        prob = builtin(name)
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            pts = lo + (hi - lo) * (gauss_rule(50).nodes + 1.0) / 2.0
            Dfull = differentiation_matrix(pts)
            X = prob.analytic.state(pts)
            U = prob.analytic.control(pts)
            L = prob.analytic.costate(pts)
            G = prob.ham_x(X, U, L)
            assert np.max(np.abs(Dfull @ L + G)) <= 1e-10

    @pytest.mark.parametrize("name", ["hager84-constrained",
                                      "hager84-unconstrained"])
    def test_analytic_minimum_principle(self, name):
        prob = builtin(name)
        tau = np.linspace(-1.0, 1.0, 101)
        X = prob.analytic.state(tau)
        U = prob.analytic.control(tau)
        L = prob.analytic.costate(tau)
        g = prob.ham_u(X, U, L)
        residual = U - prob.control_set.project(U - g)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_terminal_costate_matches_cost_gradient(self):
        prob = builtin("hager84-constrained")
        lam_end = prob.analytic.costate(np.array([1.0]))[0]
        x_end = prob.analytic.state(np.array([1.0]))[0]
        np.testing.assert_allclose(lam_end, prob.cost_grad(x_end), atol=1e-14)


class TestOptimalCost:
    @pytest.mark.parametrize("constrained,expected", [
        (True, 2.7939778111277835),
        (False, 2.702382742087184),
    ])
    def test_frozen_values(self, constrained, expected):
        assert hager_optimal_cost(constrained=constrained) == pytest.approx(
            expected, rel=1e-15)

    @pytest.mark.parametrize("name,constrained", [
        ("hager84-constrained", True),
        ("hager84-unconstrained", False),
    ])
    def test_against_quadrature_of_closed_forms(self, name, constrained):
        # independent check: integrate (x*^2 + u*^2)/2 arc by arc
        prob = builtin(name)
        rule = gauss_rule(40)
        total = 0.0
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            pts = lo + (hi - lo) * (rule.nodes + 1.0) / 2.0
            X = prob.analytic.state(pts)
            U = prob.analytic.control(pts)
            vals = 0.5 * (X[:, 0] ** 2 + U[:, 0] ** 2)
            # d(native t)/d(tau) = 1/2, times the arc half-width
            total += (hi - lo) / 2.0 * 0.5 * (rule.weights @ vals)
        np.testing.assert_allclose(total, hager_optimal_cost(constrained),
                                   rtol=1e-13)


class TestLinearizeAt:
    """The derivative blocks the solver reads: A = f_x, B = f_u, and R = H_uu
    differenced from B."""

    def test_benchmark_blocks_before_mapping(self):
        # with unit costate on the integrator state the classic matrices
        # appear in the leading blocks: A=0, B=1, R=1
        prob = augment_bolza(_hager_base(True), **_HAGER_RUNNING)
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.uniform(-3.0, 0.0, 5), rng.uniform(0.0, 2.0, 5)])
        U = rng.uniform(-1.0, 1.0, (5, 1))
        Lam = np.column_stack([rng.standard_normal(5), np.ones(5)])
        assert np.all(prob.dynamics_x(X, U)[:, 0, 0] == 0.0)
        assert np.all(prob.dynamics_u(X, U)[:, 0, 0] == 1.0)
        R = _control_hessian(prob, X, U, Lam, prob.dynamics_u(X, U))
        assert np.all(R[:, 0, 0] == 1.0)

    def test_linear_dynamics_constant_jacobians(self):
        prob = _linear_problem()
        rng = np.random.default_rng(6)
        X, U = rng.standard_normal((4, 2)), rng.standard_normal((4, 1))
        A, B = prob.dynamics_x(X, U), prob.dynamics_u(X, U)
        for k in range(1, 4):
            np.testing.assert_array_equal(A[k], A[0])
            np.testing.assert_array_equal(B[k], B[0])

    def test_hessian_symmetry(self):
        # lam_2 f_2 holds u1 u2 + u2^2, so H_uu = lam_2 [[0, 1], [1, 2]]: f_u is
        # affine in u and the difference is exact to rounding
        prob = _nonlinear_problem(np.zeros(2))
        rng = np.random.default_rng(7)
        X, U, Lam = (rng.standard_normal((5, 2)) for _ in range(3))
        R = _control_hessian(prob, X, U, Lam, prob.dynamics_u(X, U))
        assert R.tobytes() == R.transpose(0, 2, 1).tobytes()
        np.testing.assert_allclose(R, Lam[:, 1, None, None] * [[0.0, 1.0], [1.0, 2.0]],
                                   rtol=1e-12, atol=1e-12)


class TestAuditDerivatives:
    def test_builtin_passes(self):
        assert audit_derivatives(builtin("hager84-constrained")) == 8

    @pytest.mark.parametrize("field", ["dynamics_x", "dynamics_u", "cost_grad"])
    def test_detects_wrong_jacobian(self, field):
        good = _linear_problem()
        exact = getattr(good, field)
        bad = dataclasses.replace(good, **{field: lambda *args: exact(*args) + 0.01})
        with pytest.raises(EvaluationFailure, match=f"^{field}: supplied derivative"):
            audit_derivatives(bad)

    def test_detects_a_misshapen_jacobian(self):
        good = _linear_problem()
        bad = dataclasses.replace(
            good, dynamics_x=lambda X, U: np.zeros((len(X), good.n, good.n + 1)))
        with pytest.raises(EvaluationFailure, match=re.escape(
                "dynamics_x: shape (8, 2, 3) does not match finite differences (8, 2, 2)")):
            audit_derivatives(bad)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("dynamics_x", "dynamics_u")
        for value in (np.nan, np.inf)] + [("cost_grad", np.nan)])
    def test_detects_non_finite_derivative(self, field, value):
        # a NaN gap compares False against any tolerance, and an inf gap
        # sits inside an inf scale: both once audited clean
        good = builtin("hager84-constrained")
        exact = getattr(good, field)
        bad = dataclasses.replace(good, **{field: lambda *args: np.full_like(exact(*args), value)})
        with pytest.raises(EvaluationFailure, match=f"^{field}: "):
            audit_derivatives(bad)

    @pytest.mark.parametrize("field", ["dynamics", "dynamics_x", "dynamics_u", "cost",
                                       "cost_grad"])
    def test_a_raising_callback_is_an_evaluation_failure(self, field):
        def broken(*args):
            raise ZeroDivisionError(field)

        bad = dataclasses.replace(_linear_problem(), **{field: broken})
        with pytest.raises(EvaluationFailure, match="problem callback raised") as excinfo:
            audit_derivatives(bad)
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    @settings(max_examples=100, deadline=None)
    @given(x0=arrays(float, 2, elements=st.floats(-2.0, 2.0)),
           field=st.sampled_from(["dynamics_x", "dynamics_u"]),
           entry=st.tuples(st.integers(0, 1), st.integers(0, 1)),
           delta=st.floats(1e-4, 1.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_detects_one_offset_entry(self, x0, field, entry, delta, sign):
        good = _nonlinear_problem(x0)
        assert audit_derivatives(good) == 8
        exact = getattr(good, field)

        def offset(*args):
            J = np.array(exact(*args))
            J[:, entry[0], entry[1]] += sign * delta
            return J

        with pytest.raises(EvaluationFailure, match=f"^{field}: supplied derivative"):
            audit_derivatives(dataclasses.replace(good, **{field: offset}))
