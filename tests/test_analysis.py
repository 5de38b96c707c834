"""Rate fitting and the verification studies."""

import tracemalloc

import numpy as np
import pytest

from gausscolloc import (builtin, convergence_study, fit_rate, gauss_rule,
                         interpolation_study, psi_norm_table, radau_rule,
                         run_interp_suite, verify_appendix1, verify_appendix2)
from gausscolloc import analysis
from gausscolloc.analysis import (APPENDIX2_FUNCTIONS, INTERP_FUNCTIONS,
                                  _integrated_coeffs, _integrated_sup, _sup_grid)
from gausscolloc.quadrature import legendre_table


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

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="align"):
            fit_rate([4, 8], [1.0, 0.5, 0.25])


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


class TestAppendix1:
    @pytest.mark.parametrize("kind", ["gauss", "radau"])
    def test_bound_holds_on_small_sample(self, kind):
        report = verify_appendix1(orders=(2, 4, 8), samples=200, kind=kind,
                                  seed=3)
        assert report.passed
        assert report.kind == kind
        for row in report.rows:
            assert row.max_abs <= 2.0 + 1e-9
            assert abs(row.extremal_max - 2.0) <= 1e-12

    def test_seed_reproducibility(self):
        a = verify_appendix1(orders=(4,), samples=64, seed=11)
        b = verify_appendix1(orders=(4,), samples=64, seed=11)
        assert a.rows[0].max_abs == b.rows[0].max_abs

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="positive"):
            verify_appendix1(samples=0)

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError, match="appendix1 .* smallest order is 2"):
            verify_appendix1(orders=())

    def test_orders_may_be_an_iterator(self):
        report = verify_appendix1(orders=iter([2, 4]), samples=8)
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
        vals = np.vstack([np.ones(N),
                          np.random.default_rng(N).uniform(-1.0, 1.0, (40, N))])
        b = _integrated_coeffs(nodes, vals)
        full = np.max(np.abs(legendre_table(N, _sup_grid()).T @ b), axis=0)
        np.testing.assert_allclose(_integrated_sup(nodes, vals), full,
                                   rtol=0.0, atol=1e-15)

    def test_peak_memory_is_bounded(self):
        # a full-grid table times 1000 columns would be ~150 MB at N = 64
        tracemalloc.start()
        try:
            report = verify_appendix1(orders=(64,), samples=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 32 * 2**20


class TestAppendix2:
    def test_psi_norm_closed_forms(self):
        rows, worst = psi_norm_table(kmax=12)
        first = rows[0]
        assert first.k == 1
        np.testing.assert_allclose(first.h1_exact, 8.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(first.l0_exact, 4.0 / 3.0, rtol=1e-15)
        for row in rows:
            np.testing.assert_allclose(row.h1_num, row.h1_exact, rtol=1e-12)
            np.testing.assert_allclose(row.l0_num, row.l0_exact, rtol=1e-12)
        assert worst <= 1e-10

    def test_basis_member_projects_onto_itself(self):
        # psi_3 = (1-t^2)(15t^2-3)/2 lies in span{psi_1..psi_4}
        u = lambda t: (1.0 - t * t) * (15.0 * t * t - 3.0) / 2.0
        udot = lambda t: -12.0 * (5.0 * t ** 3 - 3.0 * t) / 2.0
        report = verify_appendix2(u, udot, orders=(5, 9))
        assert report.passed
        for row in report.rows:
            assert row.err0 <= 1e-11
            assert row.err1 <= 1e-10

    def test_rejects_empty_orders(self):
        u, udot = APPENDIX2_FUNCTIONS["sinpi"]
        with pytest.raises(ValueError, match="appendix2 .* smallest order is 4"):
            verify_appendix2(u, udot, orders=[])

    def test_orders_may_be_an_iterator(self):
        # the orders are read twice: for the table size, then for the rows
        u, udot = APPENDIX2_FUNCTIONS["sinpi"]
        report = verify_appendix2(u, udot, orders=iter([4, 8]))
        assert [r.order for r in report.rows] == [4, 8]

    @pytest.mark.parametrize("name", sorted(APPENDIX2_FUNCTIONS))
    def test_registered_functions_pass(self, name):
        u, udot = APPENDIX2_FUNCTIONS[name]
        report = verify_appendix2(u, udot, orders=(4, 8, 16))
        assert report.norms_ok
        assert report.passed
        for row in report.rows:
            assert row.err0 <= row.err1 / row.order + 1e-10


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
