"""Property tests of the stacked callback protocol and the control sets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gausscolloc import BUILTIN_NAMES, ControlSet, builtin

PROBLEMS = {name: builtin(name) for name in BUILTIN_NAMES}
EPS = np.finfo(float).eps

_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def stacks(draw, cols):
    """Tuple of (K, c) float stacks sharing one row count K >= 1."""
    K = draw(st.integers(1, 12))
    return tuple(draw(arrays(float, (K, c), elements=_finite)) for c in cols)


def _row_by_row(fn, args):
    K = len(args[0])
    return np.concatenate([fn(*(a[k:k + 1] for a in args)) for k in range(K)])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(BUILTIN_NAMES), xul=stacks((2, 1, 2)))
def test_callbacks_return_stacks_equal_to_row_by_row(name, xul):
    p = PROBLEMS[name]
    X, U, L = xul
    K, n, m = len(X), p.n, p.m
    cases = [
        (p.dynamics, (X, U), (K, n)),
        (p.dynamics_x, (X, U), (K, n, n)),
        (p.dynamics_u, (X, U), (K, n, m)),
        (p.ham_hess_uu, (X, U, L), (K, m, m)),
    ]
    for fn, args, shape in cases:
        batched = fn(*args)
        assert batched.shape == shape, fn
        np.testing.assert_array_equal(batched, _row_by_row(fn, args), err_msg=str(fn))

    # the Hamiltonian gradients contract a Jacobian with the costate and may
    # sum in another order on a batch than on one row: allow a few roundoffs
    for ham, jac, shape in ((p.ham_x, p.dynamics_x, (K, n)),
                            (p.ham_u, p.dynamics_u, (K, m))):
        batched = ham(X, U, L)
        assert batched.shape == shape
        bound = 4 * EPS * np.einsum("kij,ki->kj", np.abs(jac(X, U)), np.abs(L))
        assert np.all(np.abs(batched - _row_by_row(ham, (X, U, L))) <= bound)


@settings(max_examples=60, deadline=None)
@given(cs=st.sampled_from([ControlSet.unconstrained(),
                           ControlSet.box(upper=np.array([1.0, 1.0])),
                           ControlSet.box(lower=[-1.0, 0.0], upper=[1.0, 2.0])]),
       ab=stacks((2, 2)))
def test_projection_idempotent_and_nonexpansive_on_stacks(cs, ab):
    A, B = ab
    PA, PB = cs.project(A), cs.project(B)
    assert PA.shape == A.shape
    np.testing.assert_array_equal(cs.project(PA), PA)
    gap = np.linalg.norm(PA - PB, axis=1)
    assert np.all(gap <= np.linalg.norm(A - B, axis=1) + 1e-12)
