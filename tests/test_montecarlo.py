import math
from dataclasses import replace

import numpy as np
import pytest

from privacy_lab import (
    BatchParams,
    InconclusiveResolution,
    MarketParams,
    ParamError,
    ResourceLimit,
    SimConfig,
    batched_equilibrium,
    estimate_lambda_regression,
    estimate_price_moments,
    estimate_welfare,
    posterior_slope,
    simulate,
    simulate_batched,
    solve_closed_form,
    verify_best_response,
    welfare_decomposition,
)

UNIT = MarketParams(1.0, 1.0, 1.0)
UNIT_EQ = solve_closed_form(UNIT)


class TestConfigValidation:
    @pytest.mark.parametrize("cfg", [
        ((0, 1), "n_paths"),
        ((10, -1), "seed"),
        ((10, 1, 0), "chunk_size"),
        ((10, 2.5), "seed"),
    ])
    def test_bad_config(self, cfg):
        args, field = cfg
        with pytest.raises(ParamError) as exc:
            SimConfig(*args)
        assert exc.value.field == field

    def test_materialize_budget(self):
        with pytest.raises(ResourceLimit):
            simulate(UNIT, UNIT_EQ, SimConfig(10_000_001, 1), materialize=True)

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "lots")
        with pytest.raises(ValueError):
            simulate(UNIT, UNIT_EQ, SimConfig(100, 1))


class TestDeterminism:
    def test_same_seed_same_estimates(self):
        cfg = SimConfig(100_000, 42)
        a = estimate_welfare(simulate(UNIT, UNIT_EQ, cfg))
        b = estimate_welfare(simulate(UNIT, UNIT_EQ, cfg))
        assert a == b

    def test_thread_cap_does_not_change_results(self, monkeypatch):
        cfg = SimConfig(300_000, 99, chunk_size=32_768)
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "1")
        serial = simulate(UNIT, UNIT_EQ, cfg, materialize=False)
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "6")
        threaded = simulate(UNIT, UNIT_EQ, cfg, materialize=False)
        assert estimate_welfare(serial) == estimate_welfare(threaded)
        assert estimate_lambda_regression(serial) == estimate_lambda_regression(threaded)
        assert serial.stats == threaded.stats

    def test_materialized_and_summary_agree(self):
        cfg = SimConfig(50_000, 5)
        a = simulate(UNIT, UNIT_EQ, cfg, materialize=True)
        b = simulate(UNIT, UNIT_EQ, cfg, materialize=False)
        assert a.stats == b.stats
        assert b.arrays is None


class TestPathInvariants:
    def test_stored_identities_hold_exactly(self):
        p = MarketParams(2.0, 0.7, 1.3, p0=5.0)
        eq = solve_closed_form(p)
        sample = simulate(p, eq, SimConfig(10_000, 11))
        a = sample.arrays
        assert np.array_equal(a.y, a.x + a.u)
        assert np.array_equal(a.y_tilde, a.y + a.eps)
        assert np.array_equal(a.x, eq.beta * (a.v - p.p0))
        assert np.array_equal(a.p, p.p0 + eq.lam * a.y_tilde)

    def test_single_path_access(self):
        sample = simulate(UNIT, UNIT_EQ, SimConfig(100, 3))
        r = sample.path(7)
        assert r.y == r.x + r.u
        assert r.y_tilde == r.y + r.eps

    def test_summary_only_sample_has_no_paths(self):
        sample = simulate(UNIT, UNIT_EQ, SimConfig(100, 3), materialize=False)
        with pytest.raises(ValueError):
            sample.path(0)

    def test_no_privacy_noise_means_exact_signal(self):
        p = MarketParams(1.0, 1.0, 0.0)
        sample = simulate(p, solve_closed_form(p), SimConfig(10_000, 21))
        assert np.array_equal(sample.arrays.y_tilde, sample.arrays.y)
        assert not sample.arrays.eps.any()

    def test_skipping_privacy_stream_leaves_other_draws_alone(self):
        noisy = simulate(UNIT, UNIT_EQ, SimConfig(5_000, 17))
        quiet_p = MarketParams(1.0, 1.0, 0.0)
        quiet = simulate(quiet_p, solve_closed_form(quiet_p), SimConfig(5_000, 17))
        assert np.array_equal(noisy.arrays.v, quiet.arrays.v)
        assert np.array_equal(noisy.arrays.u, quiet.arrays.u)

    def test_pathwise_zero_sum(self):
        sample = simulate(UNIT, UNIT_EQ, SimConfig(50_000, 13))
        a = sample.arrays
        terms = (a.v - a.p) * a.x + (a.v - a.p) * a.u + (a.p - a.v) * a.y
        scale = np.abs((a.v - a.p) * a.x) + np.abs((a.v - a.p) * a.u) + np.abs((a.p - a.v) * a.y)
        assert np.all(np.abs(terms) <= 1e-12 * scale + 1e-300)

    def test_observed_flow_mean_and_variance(self):
        # Var(y_tilde) = beta^2*sigma_v^2 + sigma_u^2 + sigma_eps^2 = 4 here
        sample = simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 42), materialize=False)
        flow = sample.stats.signal_value
        assert abs(flow.mean_x) <= 3.0 * 2.0 / 1000.0
        assert abs(flow.m2_x / (flow.n - 1) - 4.0) <= 5.0 * 4.0 * math.sqrt(2.0 / flow.n)


class TestWelfareEstimation:
    def test_estimates_match_closed_forms(self):
        w = welfare_decomposition(UNIT)
        est = estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 42), materialize=False))
        assert abs(est.mean_pi_I - w.pi_I) <= 3.0 * est.se_pi_I
        assert abs(est.mean_pi_N - w.pi_N) <= 3.0 * est.se_pi_N
        assert abs(est.mean_pi_M - w.pi_M) <= 3.0 * est.se_pi_M

    def test_maker_breaks_even_without_noise(self):
        p = MarketParams(1.0, 1.0, 0.0)
        est = estimate_welfare(simulate(p, solve_closed_form(p), SimConfig(1_000_000, 42), materialize=False))
        assert abs(est.mean_pi_M) <= 3.0 * est.se_pi_M

    def test_estimate_means_sum_to_zero(self):
        est = estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(200_000, 8), materialize=False))
        total = est.mean_pi_I + est.mean_pi_N + est.mean_pi_M
        assert abs(total) <= 1e-10 * abs(est.mean_pi_I)

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(1, 1)))

    def test_coverage_calibration(self):
        # 3*se intervals for the welfare triple should cover the closed forms
        # in >= 99 of 100 fixed-seed repetitions
        w = welfare_decomposition(UNIT)
        fails = 0
        for i in range(100):
            est = estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 2000 + i), materialize=False))
            ok = (
                abs(est.mean_pi_I - w.pi_I) <= 3.0 * est.se_pi_I
                and abs(est.mean_pi_N - w.pi_N) <= 3.0 * est.se_pi_N
                and abs(est.mean_pi_M - w.pi_M) <= 3.0 * est.se_pi_M
            )
            fails += not ok
        assert fails <= 1


class TestRegressionEstimators:
    def test_lambda_recovered_at_equilibrium(self):
        est = estimate_lambda_regression(simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 42), materialize=False))
        assert abs(est.slope - UNIT_EQ.lam) <= 3.0 * est.se

    def test_lambda_no_noise(self):
        p = MarketParams(1.0, 1.0, 0.0)
        est = estimate_lambda_regression(simulate(p, solve_closed_form(p), SimConfig(1_000_000, 42), materialize=False))
        assert abs(est.slope - 0.5) <= 3.0 * est.se

    @pytest.mark.parametrize("scale", [0.8, 1.2, 2.0])
    def test_off_equilibrium_slope_tracks_projection(self, scale):
        # the estimator recovers the projection slope at the conjectured
        # coefficient, not the equilibrium lam
        perturbed = replace(UNIT_EQ, beta=scale * UNIT_EQ.beta)
        sample = simulate(UNIT, perturbed, SimConfig(1_000_000, 77), materialize=False)
        est = estimate_lambda_regression(sample)
        predicted = posterior_slope(UNIT, perturbed.beta)
        assert abs(est.slope - predicted) <= 3.0 * est.se
        if scale != 1.0:
            assert abs(predicted - UNIT_EQ.lam) > 10.0 * est.se

    def test_needs_hundred_paths(self):
        with pytest.raises(ValueError):
            estimate_lambda_regression(simulate(UNIT, UNIT_EQ, SimConfig(50, 1)))


class TestPriceMoments:
    def test_slope_and_residual_variance(self):
        for se_noise in (0.0, 1.0, 2.0):
            p = MarketParams(1.0, 1.0, se_noise)
            sample = simulate(p, solve_closed_form(p), SimConfig(1_000_000, 42), materialize=False)
            pm = estimate_price_moments(sample, p)
            assert pm.slope_expected == 0.5
            assert abs(pm.slope - 0.5) <= 3.0 * pm.slope_se
            assert abs(pm.resid_var - 0.25) <= 3.0 * pm.resid_var_se

    def test_scaled_market(self):
        p = MarketParams(2.0, 1.0, 1.0)
        sample = simulate(p, solve_closed_form(p), SimConfig(1_000_000, 7), materialize=False)
        pm = estimate_price_moments(sample, p)
        assert math.isclose(pm.resid_var_expected, 1.0, rel_tol=1e-14)
        assert abs(pm.resid_var - 1.0) <= 3.0 * pm.resid_var_se

    def test_intercept_tracks_prior(self):
        p = MarketParams(1.0, 1.0, 1.0, p0=50.0)
        sample = simulate(p, solve_closed_form(p), SimConfig(500_000, 15), materialize=False)
        pm = estimate_price_moments(sample, p)
        assert pm.intercept_expected == 25.0
        assert abs(pm.intercept - 25.0) <= 4.0 * pm.intercept_se

    def test_materialized_and_summary_se_agree_roughly(self):
        cfg = SimConfig(200_000, 4)
        pm_arr = estimate_price_moments(simulate(UNIT, UNIT_EQ, cfg, materialize=True))
        pm_sum = estimate_price_moments(simulate(UNIT, UNIT_EQ, cfg, materialize=False))
        assert pm_arr.resid_var == pm_sum.resid_var
        assert abs(pm_arr.resid_var_se - pm_sum.resid_var_se) <= 0.1 * pm_sum.resid_var_se


class TestBestResponse:
    def test_no_edge_no_trade(self):
        chk = verify_best_response(UNIT, UNIT_EQ, v=0.0, grid_halfwidth=0.5, n_grid=9, cfg=SimConfig(10_000, 3))
        assert chk.x_star == 0.0
        assert chk.argmax_x == 0.0

    def test_argmax_near_optimum(self):
        chk = verify_best_response(UNIT, UNIT_EQ, v=1.0, grid_halfwidth=0.5, n_grid=21, cfg=SimConfig(400_000, 7))
        assert math.isclose(chk.x_star, math.sqrt(2.0), rel_tol=1e-12)
        assert abs(chk.argmax_x - chk.x_star) <= chk.grid_step * (1.0 + 1e-12)

    def test_curve_matches_analytic_within_three_se(self):
        chk = verify_best_response(UNIT, UNIT_EQ, v=1.0, grid_halfwidth=0.5, n_grid=21, cfg=SimConfig(400_000, 7))
        assert np.all(np.abs(chk.estimates - chk.analytic) <= 3.0 * chk.ses + 1e-300)

    def test_underpowered_run_is_flagged(self):
        with pytest.raises(InconclusiveResolution):
            verify_best_response(UNIT, UNIT_EQ, v=1.0, grid_halfwidth=0.5, n_grid=21, cfg=SimConfig(1000, 7))

    @pytest.mark.parametrize("n_grid", [2, 4, 1])
    def test_grid_must_be_odd(self, n_grid):
        with pytest.raises(ValueError):
            verify_best_response(UNIT, UNIT_EQ, v=1.0, grid_halfwidth=0.5, n_grid=n_grid, cfg=SimConfig(1000, 7))


class TestBatchedSimulation:
    def test_maker_pnl_vanishes_for_all_tau(self):
        p = MarketParams(1.0, 1.0)
        for tau in (1, 2, 4, 16):
            bp = BatchParams(p, tau)
            est = simulate_batched(bp, batched_equilibrium(bp), SimConfig(200_000, 31))
            assert abs(est.mean_pi_M) <= 3.0 * est.se_pi_M

    def test_informed_profit_grows_with_batch_length(self):
        p = MarketParams(1.0, 1.0)
        bp = BatchParams(p, 4)
        est = simulate_batched(bp, batched_equilibrium(bp), SimConfig(1_000_000, 42))
        assert abs(est.mean_pi_I - 1.0) <= 3.0 * est.se_pi_I

    def test_tau_one_is_bit_identical_to_plain_no_noise_run(self):
        p = MarketParams(1.3, 0.8, 0.0, p0=2.0)
        eq = solve_closed_form(p)
        cfg = SimConfig(100_000, 55)
        batched = simulate_batched(BatchParams(p, 1), eq, cfg)
        plain = estimate_welfare(simulate(p, eq, cfg, materialize=False))
        assert batched == plain

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            simulate_batched(BatchParams(MarketParams(1.0, 1.0), 0), UNIT_EQ, SimConfig(100, 1))
