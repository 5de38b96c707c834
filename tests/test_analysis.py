"""Rate fitting and the verification studies."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre

from gausscolloc import (builtin, convergence_study, fit_rate, gauss_rule,
                         interpolation_study, radau_rule, run_interp_suite,
                         verify_appendix1, verify_appendix2)
from gausscolloc import analysis
from gausscolloc.analysis import (APPENDIX1_ORDERS, APPENDIX2_FUNCTIONS,
                                  INTERP_FUNCTIONS, _dense_grid, _grid_blocks,
                                  _psi_basis, _sup_grid)
from gausscolloc.diffmat import barycentric_matrix, differentiation_matrix
from gausscolloc.quadrature import _legendre_body, legendre_table


class TestFitRate:
    def test_recovers_exact_power_law(self):
        orders = np.array([4, 8, 16, 32, 64, 128])
        errors = 3.5 * orders ** -2.0
        fit = fit_rate(orders, errors)
        np.testing.assert_allclose(fit.slope, -2.0, atol=1e-12)
        np.testing.assert_allclose(fit.r_squared, 1.0, atol=1e-12)
        assert fit.n_range == (16, 128)

    def test_discard_shields_preasymptotic_points(self):
        orders = [2, 4, 8, 16, 32]
        errors = [9.9, 9.9] + [float(n) ** -3.0 for n in orders[2:]]
        fit = fit_rate(orders, errors)
        np.testing.assert_allclose(fit.slope, -3.0, atol=1e-12)

    def test_nonpositive_errors_are_dropped(self):
        fit = fit_rate([2, 4, 8, 16, 32, 64],
                       [1.0, 0.5, 0.25, 0.125, 0.0625, 0.0],
                       discard=0)
        np.testing.assert_allclose(fit.slope, -1.0, atol=1e-12)
        assert fit.n_range == (2, 32)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate([4, 8, 12], [1e-2, 1e-3, 1e-4])

    def test_repeated_orders_count_once(self):
        # copies of one order are one point of the fit, however many there are
        with pytest.raises(ValueError, match="at least 3 distinct usable orders.*got 1"):
            fit_rate([10] * 5, [1e-2, 2e-3, 3e-4, 4e-5, 5e-6], discard=0)
        with pytest.raises(ValueError, match="got 2"):
            fit_rate([4, 8, 8, 8, 8], [1.0, 0.5, 0.25, 0.2, 0.1], discard=0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="align"):
            fit_rate([4, 8], [1.0, 0.5, 0.25])

    @pytest.mark.parametrize("orders, errors", [
        (range(1, 7), [1.0, 0.5, 0.3, 0.1, 0.05, np.nan]),
        (range(1, 7), [1.0, 0.5, 0.3, 0.1, 0.05, np.inf]),
        ([1, 2, 3, 4, 5, np.nan], [1.0, 0.5, 0.3, 0.1, 0.05, 0.01]),
    ], ids=["nan error", "inf error", "nan order"])
    def test_non_finite_input_raises(self, orders, errors):
        # a NaN error is not a non-positive one to drop, and an inf one
        # would fit NaN
        with pytest.raises(ValueError, match="finite"):
            fit_rate(orders, errors)


class TestInterpolationStudy:
    def test_polynomial_reproduced_exactly(self):
        fn = INTERP_FUNCTIONS["poly5"]
        rows = interpolation_study(fn.u, fn.udot, (5, 8, 13))
        assert [n for n, _ in rows] == [5, 8, 13]
        assert max(err for _, err in rows) <= 1e-11

    def test_smooth_function_errors_collapse(self):
        fn = INTERP_FUNCTIONS["cospi"]
        rows = interpolation_study(fn.u, fn.udot, (8, 16, 32))
        errs = [err for _, err in rows]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[-1] <= 1e-10

    def test_kinked_function_converges_algebraically(self):
        fn = INTERP_FUNCTIONS["abs52"]
        rows = interpolation_study(fn.u, fn.udot, fn.orders)
        fit = fit_rate(*zip(*rows), discard=0)
        assert fit.slope <= -1.0

    @pytest.mark.parametrize("name", sorted(INTERP_FUNCTIONS))
    def test_registered_cases_pass(self, name):
        rows, passed, criterion = run_interp_suite(name)
        assert passed, f"{name}: {criterion}, rows={rows}"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_interp_suite("sawtooth")

    @pytest.mark.parametrize("block", [None, 1000, 18433, 20000])
    @pytest.mark.parametrize("name", sorted(INTERP_FUNCTIONS))
    def test_blocked_derivative_matches_full_grid(self, monkeypatch, block, name):
        # 16384 dense points: blocks of 512 divide them, 1000 leaves a short
        # last block, 18433 and 20000 make a single block
        if block is not None:
            monkeypatch.setattr(analysis, "SUP_BLOCK", block)
        fn = INTERP_FUNCTIONS[name]
        pts, wts = _dense_grid()
        rows = []
        for N in fn.orders:
            support = np.concatenate([[-1.0], gauss_rule(N).nodes])
            dsamp = differentiation_matrix(support) @ fn.u(support)
            full = barycentric_matrix(support, pts) @ dsamp
            blocked = np.empty(pts.size)
            for part, v in _grid_blocks(support, pts, dsamp):
                blocked[part] = v
            np.testing.assert_array_equal(blocked, full)
            rows.append((N, float(np.sqrt(wts @ (fn.udot(pts) - full) ** 2))))
        assert interpolation_study(fn.u, fn.udot, fn.orders) == rows

    @pytest.mark.parametrize("name", sorted(INTERP_FUNCTIONS))
    def test_peak_memory_is_bounded(self, name):
        # barycentric_matrix on one block holds two float tables of SUP_BLOCK
        # x (N+1), the differences and the kernel, and three boolean masks of
        # that shape (3/8 of a float table): three float tables bound it.  The
        # study also holds vectors over the dense grid: the exact derivative,
        # the interpolated one and the temporaries of udot and of the error
        # norm, six at most.  A full-grid evaluation matrix alone is
        # 16384 x (N+1), 32 times a block's.
        _dense_grid(), _sup_grid()
        N = max(INTERP_FUNCTIONS[name].orders)
        bound = 8 * (3 * analysis.SUP_BLOCK * (N + 1) + 6 * _dense_grid()[0].size)
        tracemalloc.start()
        try:
            rows, passed, _ = run_interp_suite(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < bound


class TestAppendix1:
    @pytest.mark.parametrize("kind", ["gauss", "radau"])
    def test_bound_holds_on_small_sample(self, kind):
        # order 1 is a valid check here, where appendix2 needs order 2
        report = verify_appendix1(orders=(1, 2, 4, 8), kind=kind)
        assert report.passed
        assert report.kind == kind
        for row in report.rows:
            assert row.max_abs <= 2.0 + 1e-9
            assert abs(row.extremal_max - 2.0) <= 1e-12

    @pytest.mark.parametrize("kind", ["gauss", "radau"])
    def test_all_ones_data_is_the_worst_case(self, kind):
        # at t = 1 every antiderivative of a Lagrange basis polynomial is a
        # positive weight, so the all-ones data attain the worst case there,
        # and the absolute and signed row sums add the same numbers
        report = verify_appendix1(kind=kind)
        assert [r.order for r in report.rows] == list(APPENDIX1_ORDERS)
        for row in report.rows:
            assert row.max_abs == row.extremal_max
            assert abs(row.max_abs - 2.0) <= 1e-12

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="'lobatto'"):
            verify_appendix1(orders=(4,), kind="lobatto")

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError, match="appendix1 .* smallest order is 2"):
            verify_appendix1(orders=())

    def test_orders_may_be_an_iterator(self):
        report = verify_appendix1(orders=iter([2, 4]))
        assert [r.order for r in report.rows] == [2, 4]

    @pytest.mark.parametrize("block", [None, 1000, 18433, 20000])
    @pytest.mark.parametrize("N, kind", [(3, "radau"), (17, "gauss"), (64, "gauss")])
    def test_blocked_sup_matches_full_grid(self, monkeypatch, block, N, kind):
        # 18433 grid points: blocks of 512 and 1000 leave a short last block,
        # 18433 and 20000 make a single block
        assert _sup_grid().size == 18433
        if block is not None:
            monkeypatch.setattr(analysis, "SUP_BLOCK", block)
        nodes = (gauss_rule if kind == "gauss" else radau_rule)(N).nodes
        # the antiderivatives' values on {-1, nodes} by the trailing-block
        # inverse, then one evaluation over the whole grid
        support = np.concatenate([[-1.0], nodes])
        table = np.zeros((N + 1, N))
        table[1:] = np.linalg.inv(differentiation_matrix(support)[1:, 1:])
        full = barycentric_matrix(support, _sup_grid()) @ table
        row, = verify_appendix1(orders=(N,), kind=kind).rows
        np.testing.assert_allclose(row.max_abs, np.abs(full).sum(axis=1).max(),
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(row.extremal_max, np.abs(full.sum(axis=1)).max(),
                                   rtol=0.0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(a=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
           kind=st.sampled_from(["gauss", "radau"]))
    def test_integrated_polynomial_matches_legendre_antiderivative(self, a, kind):
        # a Legendre series of degree N-1, scaled so that its data at the N
        # nodes lie in [-1, 1]: its antiderivative from -1, which numpy
        # integrates independently, is one of the polynomials the worst
        # case bounds
        a = np.array(a)
        N = a.size
        nodes = (gauss_rule if kind == "gauss" else radau_rule)(N).nodes
        scale = np.abs(legendre.legval(nodes, a)).max()
        assume(scale > 0.0)
        a = a / scale
        exact = legendre.legint(a, lbnd=-1)
        tol = 1e-13 * (1.0 + np.sum(np.abs(a)))
        row, = verify_appendix1(orders=(N,), kind=kind).rows
        assert np.max(np.abs(legendre.legval(_sup_grid(), exact))) <= row.max_abs + tol

    def test_peak_memory_is_bounded(self):
        # blocked, the suite peaks near 1.2 MiB at N = 64; one evaluation
        # over the whole grid peaks near 30 MiB, just inside this bound
        tracemalloc.start()
        try:
            report = verify_appendix1(orders=(64,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 32 * 2**20


def _bump_gram(gram, l0, h1):
    # psi_20 and psi_4 no longer orthogonal, 1e4 times past the tolerance
    bump = 1e-9 * np.sqrt(h1[19] * h1[3])
    gram[19, 3] += bump
    gram[3, 19] += bump


def _bump_l0(gram, l0, h1):
    l0[19] *= 1.0 + 1e-9


class TestAppendix2:
    def test_psi_rows_match_pointwise_derivative(self):
        pts, _ = _dense_grid()
        P, psi = _psi_basis(64)[:2]
        for k in range(1, 65):
            val, der = _legendre_body(k, pts)
            np.testing.assert_array_equal(P[k - 1], val)
            np.testing.assert_allclose(psi[k - 1], (1.0 - pts) * (1.0 + pts) * der,
                                       rtol=0.0, atol=1e-14)

    def test_psi_norm_closed_forms(self):
        functions = {"sinpi": APPENDIX2_FUNCTIONS["sinpi"]}
        report = verify_appendix2(functions, orders=(4,))
        rows = report.norm_rows
        assert [r.k for r in rows] == list(range(1, 13))
        first = rows[0]
        np.testing.assert_allclose(first.h1_exact, 8.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(first.l0_exact, 4.0 / 3.0, rtol=1e-15)
        for row in rows:
            np.testing.assert_allclose(row.h1_num, row.h1_exact, rtol=1e-12)
            np.testing.assert_allclose(row.l0_num, row.l0_exact, rtol=1e-12)
        assert report.max_offdiag <= 1e-10

    def test_norm_table_is_the_prefix_of_the_basis_built(self):
        # the k <= 12 table is the same whatever order sizes the basis
        small, large = (verify_appendix2({"sinpi": APPENDIX2_FUNCTIONS["sinpi"]}, orders)
                        for orders in ((4,), (4, 64)))
        assert (small.norm_rows, small.max_offdiag) == (large.norm_rows, large.max_offdiag)

    @pytest.mark.parametrize("kmax", [12, 63])
    def test_basis_matches_three_table_formulas(self, kmax):
        # the one-shot formulas, with a third grid-sized table alive at the
        # Gram product and at the l0 squares
        pts, wts = _dense_grid()
        P = legendre_table(kmax, pts)
        ks = np.arange(1, kmax + 1)
        dpsi = -(ks * (ks + 1))[:, None] * P[1:]
        gram = (dpsi * wts) @ dpsi.T
        psi = ks[:, None] * (P[:-1] - pts * P[1:])
        l0 = (psi * psi) @ (wts / ((1.0 - pts) * (1.0 + pts)))
        for got, want in zip(_psi_basis(kmax), (P[1:], psi, gram, l0)):
            assert got.tobytes() == want.tobytes()

    def test_one_basis_per_call(self, monkeypatch):
        # the Legendre table is computed twice per basis, never per function
        sizes = []
        table = analysis.legendre_table

        def counted(kmax, t):
            sizes.append(kmax)
            return table(kmax, t)

        monkeypatch.setattr(analysis, "legendre_table", counted)
        report = verify_appendix2(APPENDIX2_FUNCTIONS)
        assert sizes == [max(analysis.APPENDIX2_ORDERS) - 1] * 2
        verify_appendix2(APPENDIX2_FUNCTIONS, orders=(4, 8))
        assert sizes[2:] == [12, 12]
        assert list(report.rows) == list(APPENDIX2_FUNCTIONS)
        assert report.passed

    def test_peak_memory_is_bounded(self):
        # at the default orders the basis holds two grid-sized tables, P of
        # 64 rows and psi of 63 (8 MiB each); the quarter table on top covers
        # the dense-grid vectors of the projections.  A third table would
        # show here and in the CLI process's RSS
        _dense_grid(), _sup_grid()
        table = max(analysis.APPENDIX2_ORDERS) * _dense_grid()[0].size * 8
        tracemalloc.start()
        try:
            report = verify_appendix2(APPENDIX2_FUNCTIONS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2.25 * table

    def test_basis_member_projects_onto_itself(self):
        # psi_3 = (1-t^2)(15t^2-3)/2 lies in span{psi_1..psi_4}
        u = lambda t: (1.0 - t * t) * (15.0 * t * t - 3.0) / 2.0
        udot = lambda t: -12.0 * (5.0 * t ** 3 - 3.0 * t) / 2.0
        report = verify_appendix2({"psi3": (u, udot)}, orders=(5, 9))
        assert report.passed
        for row in report.rows["psi3"]:
            assert row.err0 <= 1e-11
            assert row.err1 <= 1e-10

    @pytest.mark.parametrize("corrupt", [_bump_gram, _bump_l0],
                             ids=["psi-derivative-not-orthogonal", "psi-l0-norm"])
    def test_corrupt_basis_row_above_twelve_fails(self, monkeypatch, corrupt):
        # the k <= 12 table never sees row k = 20; the check over the rows
        # the order-32 projection uses does
        functions = {"sinpi": APPENDIX2_FUNCTIONS["sinpi"]}
        clean = verify_appendix2(functions, orders=(4, 8, 32))
        basis = analysis._psi_basis

        def corrupted(kmax):
            P, psi, gram, l0, h1, l0_exact = basis(kmax)
            corrupt(gram, l0, h1)
            return P, psi, gram, l0, h1, l0_exact

        monkeypatch.setattr(analysis, "_psi_basis", corrupted)
        report = verify_appendix2(functions, orders=(4, 8, 32))
        assert clean.passed and clean.norms_ok
        assert (report.norm_rows, report.max_offdiag) == (clean.norm_rows, clean.max_offdiag)
        assert report.rows == clean.rows
        assert not report.norms_ok and not report.passed

    def test_rejects_empty_functions(self):
        # the one report holds the basis check once, so an empty mapping
        # would pass on the basis alone
        with pytest.raises(ValueError, match="appendix2 has no function to check"):
            verify_appendix2({})

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError, match="appendix2 .* smallest order is 4"):
            verify_appendix2(APPENDIX2_FUNCTIONS, orders=[])

    @pytest.mark.parametrize("orders, low", [((0,), 0), ((1,), 1), ((16, 1), 1),
                                             ((16, 0, 1), 0)],
                             ids=["0", "1", "16,1", "16,0,1"])
    def test_rejects_an_order_below_two(self, orders, low):
        # order 1 projects onto the empty span of psi_1..psi_0, a vacuous pass
        with pytest.raises(ValueError, match=f"appendix2 order {low} is below 2"):
            verify_appendix2(APPENDIX2_FUNCTIONS, orders=orders)

    def test_orders_may_be_an_iterator(self):
        # the orders are read twice: for the table size, then for the rows
        report = verify_appendix2(APPENDIX2_FUNCTIONS, orders=iter([4, 8]))
        assert [r.order for r in report.rows["sinpi"]] == [4, 8]

    @pytest.mark.parametrize("name", sorted(APPENDIX2_FUNCTIONS))
    def test_registered_functions_pass(self, name):
        report = verify_appendix2({name: APPENDIX2_FUNCTIONS[name]}, orders=(4, 8, 16))
        assert report.norms_ok
        assert report.passed
        for row in report.rows[name]:
            assert row.err0 <= row.err1 / row.order + 1e-10


class TestOrders:
    """Every study takes its orders as the rules layer does: through
    ``operator.index``, so a float is refused and not truncated, and the
    order a row reports is a Python int."""

    @pytest.mark.parametrize("study", [
        lambda: verify_appendix1(orders=[2.7, 4.2]),
        lambda: verify_appendix2(APPENDIX2_FUNCTIONS, orders=[4, 8.5]),
        lambda: interpolation_study(np.cos, lambda t: -np.sin(t), [4, 8.0]),
        lambda: convergence_study(builtin("hager84-constrained"), [4.5, 8, 12, 16, 20]),
    ], ids=["appendix1", "appendix2", "interpolation", "convergence"])
    def test_float_order_raises_type_error(self, study):
        with pytest.raises(TypeError):
            study()

    def test_integer_orders_come_back_as_int(self):
        orders = [True, np.int64(4)]
        reported = [r.order for r in verify_appendix1(orders=orders).rows]
        a2 = verify_appendix2({"sinpi": APPENDIX2_FUNCTIONS["sinpi"]},
                              orders=[np.int64(2), np.int64(4)])
        reported += [r.order for r in a2.rows["sinpi"]]
        reported += [N for N, _ in interpolation_study(np.cos, lambda t: -np.sin(t), orders)]
        rows, _ = convergence_study(builtin("hager84-constrained"), orders)
        reported += [r.N for r in rows]
        assert reported == [1, 4, 2, 4, 1, 4, 1, 4]
        assert all(type(N) is int for N in reported)


class TestConvergenceStudy:
    def test_benchmark_slopes(self):
        problem = builtin("hager84-constrained")
        orders = list(range(4, 25, 4))
        rows, fits = convergence_study(problem, orders)
        assert [r.N for r in rows] == orders
        assert all(r.converged for r in rows)
        assert all(r.residual_y <= 1e-10 for r in rows)
        assert set(fits) == {"err_x", "err_u", "err_lambda"}
        for fit in fits.values():
            assert fit.slope < -1.0

    def test_requires_analytic_solution(self):
        from gausscolloc import ControlProblem, ControlSet
        bare = ControlProblem(
            name="bare", n=1, m=1,
            dynamics=lambda X, U: U.copy(),
            dynamics_x=lambda X, U: np.zeros((len(X), 1, 1)),
            dynamics_u=lambda X, U: np.ones((len(X), 1, 1)),
            cost=lambda x: float(x[0] ** 2),
            cost_grad=lambda x: 2.0 * x,
            ham_hess_uu=lambda X, U, Lam: np.zeros((len(X), 1, 1)),
            x0=np.array([1.0]),
            control_set=ControlSet.unconstrained())
        with pytest.raises(ValueError, match="analytic"):
            convergence_study(bare, [4, 8, 16, 32, 64])
