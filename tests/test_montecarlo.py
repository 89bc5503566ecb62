import contextlib
import functools
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from privacy_lab import (
    BatchParams,
    Check,
    InconclusiveResolution,
    MarketParams,
    ParamError,
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
    verify_simulation,
    welfare_decomposition,
)
from privacy_lab import montecarlo
from privacy_lab.montecarlo import RunningCross, RunningMoments, _chunk_paths, _chunk_rng, _merge, _ols, _per_chunk
from privacy_lab.montecarlo import _row_moments, _stats_of

ROOT = Path(__file__).resolve().parents[1]
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
        serial = simulate(UNIT, UNIT_EQ, cfg)
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "6")
        threaded = simulate(UNIT, UNIT_EQ, cfg)
        assert estimate_welfare(serial) == estimate_welfare(threaded)
        assert estimate_lambda_regression(serial) == estimate_lambda_regression(threaded)
        assert serial.stats == threaded.stats

    def test_materialized_and_summary_agree(self):
        # the run's statistics are those of its chunks' paths, folded in order;
        # the rows are (y_tilde, q, w, pnl_noise, pnl_informed, -pnl_maker),
        # with w = v - p0 and q = p - p0
        cfg = SimConfig(50_000, 5, chunk_size=8192)
        stats = simulate(UNIT, UNIT_EQ, cfg).stats
        widths = [min(8192, 50_000 - 8192 * k) for k in range(7)]
        chunks = [_stats_of(_chunk_paths(UNIT, UNIT_EQ, 5, k, m)[:, None])[0] for k, m in enumerate(widths)]
        n, means, m2, (c_price, c_signal) = functools.reduce(_merge, chunks)
        assert astuple(stats) == (
            (n, means[4], m2[4]),
            (n, means[3], m2[3]),
            (n, -means[5], m2[5]),
            (n, means[0], means[2], m2[0], m2[2], c_signal),
            (n, UNIT.p0 + means[2], UNIT.p0 + means[1], m2[2], m2[1], c_price),
        )

    def test_optimized_interpreter_gives_the_same_stats(self):
        # the zero-sum check runs under -O too, and never feeds the results
        cfg = SimConfig(50_000, 5, chunk_size=8192)
        p = MarketParams(2.0, 0.7, 1.3, p0=5.0)
        code = (
            "from privacy_lab import MarketParams, SimConfig, simulate, solve_closed_form\n"
            "p = MarketParams(2.0, 0.7, 1.3, p0=5.0)\n"
            "print(repr(simulate(p, solve_closed_form(p), SimConfig(50_000, 5, chunk_size=8192)).stats))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(simulate(p, solve_closed_form(p), cfg).stats)


class TestPathInvariants:
    def test_stored_identities_hold_exactly(self):
        # on the centred rows: w = v - p0 and q = p - p0
        p = MarketParams(2.0, 0.7, 1.3, p0=5.0)
        eq = solve_closed_form(p)
        u, eps, x, y, y_tilde, q, w = _chunk_paths(p, eq, 11, 0, 10_000)
        assert np.array_equal(y, x + u)
        assert np.array_equal(y_tilde, y + eps)
        assert np.array_equal(x, eq.beta * w)
        assert np.array_equal(q, eq.lam * y_tilde)

    def test_single_path_access(self):
        sample = simulate(UNIT, UNIT_EQ, SimConfig(100, 3))
        r = sample.path(7)
        assert r.y == r.x + r.u
        assert r.y_tilde == r.y + r.eps

    def test_path_replays_its_chunk(self):
        cs, n = 4096, 10_000
        p = MarketParams(2.0, 0.7, 1.3, p0=5.0)
        eq = solve_closed_form(p)
        sample = simulate(p, eq, SimConfig(n, 19, chunk_size=cs))
        for i in (0, cs - 1, cs, n - 1):
            chunk = _chunk_paths(p, eq, 19, i // cs, min(cs, n - i // cs * cs))
            u, eps, x, y, y_tilde, q, w = (float(a[i % cs]) for a in chunk)
            assert astuple(sample.path(i)) == (p.p0 + w, u, eps, x, y, y_tilde, p.p0 + q)
        for i in (n, -1):
            with pytest.raises(IndexError):
                sample.path(i)
        assert sample.path(np.int64(cs)) == sample.path(cs)

    @pytest.mark.parametrize("i", [True, 1.0, 1.5, "3"], ids=repr)
    def test_path_index_must_be_an_integer(self, i):
        sample = simulate(UNIT, UNIT_EQ, SimConfig(10, 19))
        with pytest.raises(TypeError, match="path index must be an integer") as exc:
            sample.path(i)
        assert repr(i) in str(exc.value)

    def test_no_privacy_noise_means_exact_signal(self):
        p = MarketParams(1.0, 1.0, 0.0)
        _, eps, _, y, y_tilde, _, _ = _chunk_paths(p, solve_closed_form(p), 21, 0, 10_000)
        assert np.array_equal(y_tilde, y)
        assert not eps.any()

    def test_skipping_privacy_stream_leaves_other_draws_alone(self):
        quiet_p = MarketParams(1.0, 1.0, 0.0)
        for k in (0, 1):
            noisy = _chunk_paths(UNIT, UNIT_EQ, 17, k, 5_000)
            quiet = _chunk_paths(quiet_p, solve_closed_form(quiet_p), 17, k, 5_000)
            assert np.array_equal(noisy[0], quiet[0])  # u
            assert np.array_equal(noisy[6], quiet[6])  # w

    def test_pathwise_zero_sum(self):
        # v - p = w - q on the centred rows
        u, _, x, y, _, q, w = _chunk_paths(UNIT, UNIT_EQ, 13, 0, 50_000)
        terms = (w - q) * x + (w - q) * u + (q - w) * y
        scale = np.abs((w - q) * x) + np.abs((w - q) * u) + np.abs((q - w) * y)
        assert np.all(np.abs(terms) <= 1e-12 * scale + 1e-300)

    def test_broken_zero_sum_trips_the_check(self):
        # p enters all three P&L terms alike, so it is y = x + u that must break
        paths = _chunk_paths(UNIT, UNIT_EQ, 13, 1, 4096)
        paths[3, 5] += 1.0  # the y row
        with pytest.raises(AssertionError):
            _stats_of(paths[:, None])

    def test_observed_flow_mean_and_variance(self):
        # Var(y_tilde) = beta^2*sigma_v^2 + sigma_u^2 + sigma_eps^2 = 4 here
        sample = simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 42))
        flow = sample.stats.signal_value
        assert abs(flow.mean_x) <= 3.0 * 2.0 / 1000.0
        assert abs(flow.m2_x / (flow.n - 1) - 4.0) <= 5.0 * 4.0 * math.sqrt(2.0 / flow.n)


class TestWelfareEstimation:
    def test_estimates_match_closed_forms(self):
        w = welfare_decomposition(UNIT)
        est = estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 42)))
        assert abs(est.mean_pi_I - w.pi_I) <= 3.0 * est.se_pi_I
        assert abs(est.mean_pi_N - w.pi_N) <= 3.0 * est.se_pi_N
        assert abs(est.mean_pi_M - w.pi_M) <= 3.0 * est.se_pi_M

    def test_maker_breaks_even_without_noise(self):
        p = MarketParams(1.0, 1.0, 0.0)
        est = estimate_welfare(simulate(p, solve_closed_form(p), SimConfig(1_000_000, 42)))
        assert abs(est.mean_pi_M) <= 3.0 * est.se_pi_M

    def test_estimate_means_sum_to_zero(self):
        est = estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(200_000, 8)))
        total = est.mean_pi_I + est.mean_pi_N + est.mean_pi_M
        assert abs(total) <= 1e-10 * abs(est.mean_pi_I)

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(1, 1)))

    def test_a_standard_error_of_one_path_names_n_paths(self):
        # the rule is RunningMoments' own, so a sample's raw stats keep it too
        params = MarketParams(1, 1, 0.5)
        stats = simulate(params, solve_closed_form(params), SimConfig(1, 0)).stats
        for moments in (RunningMoments(1, 0.0, 0.0), stats.pnl_informed):
            with pytest.raises(ParamError) as exc:
                moments.se  # noqa: B018
            assert exc.value.field == "n_paths"

    def test_coverage_calibration(self):
        # 3*se intervals for the welfare triple should cover the closed forms
        # in >= 99 of 100 fixed-seed repetitions
        w = welfare_decomposition(UNIT)
        fails = 0
        for i in range(100):
            est = estimate_welfare(simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 2000 + i)))
            ok = (
                abs(est.mean_pi_I - w.pi_I) <= 3.0 * est.se_pi_I
                and abs(est.mean_pi_N - w.pi_N) <= 3.0 * est.se_pi_N
                and abs(est.mean_pi_M - w.pi_M) <= 3.0 * est.se_pi_M
            )
            fails += not ok
        assert fails <= 1


class TestRegressionEstimators:
    def test_lambda_recovered_at_equilibrium(self):
        est = estimate_lambda_regression(simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 42)))
        assert abs(est.slope - UNIT_EQ.lam) <= 3.0 * est.se

    def test_lambda_no_noise(self):
        p = MarketParams(1.0, 1.0, 0.0)
        est = estimate_lambda_regression(simulate(p, solve_closed_form(p), SimConfig(1_000_000, 42)))
        assert abs(est.slope - 0.5) <= 3.0 * est.se

    @pytest.mark.parametrize("scale", [0.8, 1.2, 2.0])
    def test_off_equilibrium_slope_tracks_projection(self, scale):
        # the estimator recovers the projection slope at the conjectured
        # coefficient, not the equilibrium lam
        perturbed = replace(UNIT_EQ, beta=scale * UNIT_EQ.beta)
        sample = simulate(UNIT, perturbed, SimConfig(1_000_000, 77))
        est = estimate_lambda_regression(sample)
        predicted = posterior_slope(UNIT, perturbed.beta)
        assert abs(est.slope - predicted) <= 3.0 * est.se
        if scale != 1.0:
            assert abs(predicted - UNIT_EQ.lam) > 10.0 * est.se

    def test_needs_hundred_paths(self):
        with pytest.raises(ValueError):
            estimate_lambda_regression(simulate(UNIT, UNIT_EQ, SimConfig(50, 1)))

    @pytest.mark.parametrize("m2", [1e-170, 1e200])
    def test_residual_stays_in_the_range_of_the_moments(self, m2):
        # c_xy**2 would underflow to 0 at 1e-170, doubling the residual, and
        # overflow at 1e200; slope*c_xy never leaves the moments' range
        slope, se, resid_var = _ols(RunningCross(1000, 0.0, 0.0, m2, 2 * m2, m2))
        assert (slope, resid_var) == (1.0, m2 / 998)
        assert se == math.sqrt(resid_var / m2)

    def test_unresolvable_fit_fails_its_checks(self):
        # at beta x 1e8 the flow is all but exactly 1e8*beta*(v - p0), and the
        # residual sum of squares can round below zero (on seeds 1, 3, 11, 15
        # and 42): the fit reports a NaN se, and the checks that read it fail
        p = MarketParams(1.0, 1.0)
        eq = solve_closed_form(p)
        eq = replace(eq, beta=eq.beta * 1e8)
        unresolved = 0
        for seed in (*range(20), 42):
            checks = verify_simulation(p, eq, SimConfig(1000, seed))
            assert len(checks) == 6
            for check in checks:
                if math.isnan(check.se):
                    unresolved += 1
                    assert check.z == math.inf and not check.passed
        assert unresolved > 0


class TestPriceMoments:
    def test_slope_and_residual_variance(self):
        for se_noise in (0.0, 1.0, 2.0):
            p = MarketParams(1.0, 1.0, se_noise)
            sample = simulate(p, solve_closed_form(p), SimConfig(1_000_000, 42))
            pm = estimate_price_moments(sample, p)
            assert pm.slope_expected == 0.5
            assert abs(pm.slope - 0.5) <= 3.0 * pm.slope_se
            assert abs(pm.resid_var - 0.25) <= 3.0 * pm.resid_var_se

    def test_scaled_market(self):
        p = MarketParams(2.0, 1.0, 1.0)
        sample = simulate(p, solve_closed_form(p), SimConfig(1_000_000, 7))
        pm = estimate_price_moments(sample, p)
        assert math.isclose(pm.resid_var_expected, 1.0, rel_tol=1e-14)
        assert abs(pm.resid_var - 1.0) <= 3.0 * pm.resid_var_se

    def test_intercept_tracks_prior(self):
        # p = p0 + lam*(x + u + eps) has mean p0
        p = MarketParams(1.0, 1.0, 1.0, p0=50.0)
        s = simulate(p, solve_closed_form(p), SimConfig(500_000, 15)).stats.price_value
        prices = RunningMoments(s.n, s.mean_y, s.m2_y)
        assert abs(prices.mean - 50.0) <= 4.0 * prices.se

    def test_materialized_and_summary_se_agree_roughly(self):
        # the Gaussian resid_var_se against the empirical SE of the squared
        # residuals of the replayed paths
        cfg = SimConfig(200_000, 4)
        sample = simulate(UNIT, UNIT_EQ, cfg)
        pm = estimate_price_moments(sample)
        s = sample.stats.price_value
        intercept = s.mean_y - pm.slope * s.mean_x
        parts = []
        for k in range(4):
            *_, q, w = _chunk_paths(UNIT, UNIT_EQ, 4, k, min(65_536, 200_000 - 65_536 * k))
            # v = w and p = q at p0 = 0
            parts += _per_chunk(_row_moments((q - (intercept + pm.slope * w))[None, None] ** 2))
        n, (mean,), (m2,), _ = functools.reduce(_merge, parts)
        squares = RunningMoments(n, mean, m2)
        assert pm.resid_var_se == pm.resid_var * math.sqrt(2.0 / (200_000 - 2))
        assert abs(squares.se - pm.resid_var_se) <= 0.1 * pm.resid_var_se


class TestCheck:
    @pytest.mark.parametrize("expected,estimate,se,z", [
        (1.0, 1.5, 0.25, 2.0),
        (1.0, math.nan, 0.25, math.inf),
        (1.0, math.inf, 0.25, math.inf),
        (1.0, 1.5, math.inf, math.inf),
        (1.0, 1.0, 0.0, 0.0),
        (1.0, 1.5, 0.0, math.inf),
    ])
    def test_z_rule(self, expected, estimate, se, z):
        check = Check.of("x", expected, estimate, se)
        assert check.z == z and check.passed == (z <= 3.0)

    def test_gate_is_three_standard_errors(self):
        assert Check.of("x", 0.0, 3.0, 1.0).passed
        assert not Check.of("x", 0.0, 3.0 + 1e-12, 1.0).passed


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

    @pytest.mark.parametrize("bad", [
        ({"v": math.nan}, "v"),
        ({"v": math.inf}, "v"),
        ({"grid_halfwidth": math.nan}, "grid_halfwidth"),
        ({"grid_halfwidth": math.inf}, "grid_halfwidth"),
        ({"grid_halfwidth": 0.0}, "grid_halfwidth"),
        ({"grid_halfwidth": -0.5}, "grid_halfwidth"),
        ({"grid_halfwidth": 1e308, "v": 10.0}, "grid_halfwidth"),  # grid_halfwidth*|x*| overflows
        ({"grid_halfwidth": 1.2e308}, "grid_halfwidth"),  # finite half-width, but the span overflows
        ({"n_grid": 21.0}, "n_grid"),
        ({"n_grid": 4}, "n_grid"),
        ({"v": "1"}, "v"),
        ({"grid_halfwidth": "0.5"}, "grid_halfwidth"),
    ], ids=lambda bad: "{}={}".format(*next(iter(bad[0].items()))))
    def test_bad_input_names_the_field(self, bad):
        kwargs, field = bad
        args = {"v": 1.0, "grid_halfwidth": 0.5, "n_grid": 21, "cfg": SimConfig(1000, 7)} | kwargs
        with pytest.raises(ParamError) as exc:
            verify_best_response(UNIT, UNIT_EQ, **args)
        assert exc.value.field == field

    @pytest.mark.parametrize("n_grid", [2, 4, 1])
    def test_grid_must_be_odd(self, n_grid):
        with pytest.raises(ValueError):
            verify_best_response(UNIT, UNIT_EQ, v=1.0, grid_halfwidth=0.5, n_grid=n_grid, cfg=SimConfig(1000, 7))

    @pytest.mark.parametrize("params", [UNIT, MarketParams(1.3, 0.8, 0.0, p0=2.0)], ids=["noisy", "quiet"])
    def test_noise_moments_are_simulates_draws(self, params):
        # z = u + eps, from the rows of simulate's own chunks
        cfg = SimConfig(20_000, 5, chunk_size=4096)
        eq = solve_closed_form(params)
        parts = []
        for k in range(-(-cfg.n_paths // cfg.chunk_size)):
            u, eps, *_ = _chunk_paths(params, eq, cfg.seed, k, min(cfg.chunk_size, cfg.n_paths - k * cfg.chunk_size))
            parts += _per_chunk(_row_moments((u + eps)[None, None]))
        n, (mean,), (m2,), _ = functools.reduce(_merge, parts)
        zm = RunningMoments(n, mean, m2)
        chk = verify_best_response(params, eq, v=params.p0 + 1.0, grid_halfwidth=0.5, n_grid=5, cfg=cfg)
        lam_x = eq.lam * chk.grid
        assert chk.estimates.tolist() == (chk.analytic - lam_x * zm.mean).tolist()
        assert chk.ses.tolist() == (np.abs(lam_x) * zm.se).tolist()

    def test_overflowing_curvature_gap_is_inconclusive(self):
        # z = u + eps at sigma_eps = 1e160 squares beyond the double range, so
        # z's second moment and its se are inf and no grid step exceeds 3 se
        params = MarketParams(1.0, 1.0, 1e160)
        with pytest.raises(InconclusiveResolution), pytest.warns(RuntimeWarning, match="overflow"):
            verify_best_response(params, solve_closed_form(params), v=1.0, grid_halfwidth=0.5, n_grid=21,
                                 cfg=SimConfig(1000, 7))

    def test_optimum_past_an_overflowing_two_lam(self):
        # lam = 9.44e307, so 2*lam overflows, yet x* = (v - p0)/(2*lam) is 0.9
        params = MarketParams(1.7e308, 0.9)
        eq, cfg = solve_closed_form(params), SimConfig(20_000, 7)
        chk = verify_best_response(params, eq, v=1.7e308, grid_halfwidth=0.5, n_grid=21, cfg=cfg)
        assert chk.x_star == 0.9
        assert abs(chk.argmax_x - chk.x_star) <= chk.grid_step
        # at v = 1 the grid step, ~2.6e-310, is far below 3 se of the mean noise
        with pytest.raises(InconclusiveResolution):
            verify_best_response(params, eq, v=1.0, grid_halfwidth=0.5, n_grid=21, cfg=cfg)

    def test_profit_curve_below_the_normal_range_is_inconclusive(self):
        # 3 se of the mean noise is below the grid step 5e-163, but profits of
        # ~5e-323 round the curvature gap lam*step^2 ~ 1e-325 away, so the
        # argmax would be any grid point
        params = MarketParams(1e-161, 1e-161)
        with pytest.raises(InconclusiveResolution, match="rounds its peak away"):
            verify_best_response(params, solve_closed_form(params), v=1e-161, grid_halfwidth=0.5, n_grid=21,
                                 cfg=SimConfig(20_000, 42))


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
        plain = estimate_welfare(simulate(p, eq, cfg))
        assert batched == plain

    @staticmethod
    def one_draw_per_chunk(bp, eq, cfg):
        """The P&L moments of a run that draws each chunk's (m, tau)
        increments at once and sums them with numpy, played in centred units
        w = v - p0 and q = p - p0."""
        p, tau = bp.base, bp.tau
        parts = []
        for k in range(-(-cfg.n_paths // cfg.chunk_size)):
            m = min(cfg.chunk_size, cfg.n_paths - k * cfg.chunk_size)
            w = p.sigma_v * _chunk_rng(cfg.seed, 0, k).standard_normal(m)
            u = (p.sigma_u * _chunk_rng(cfg.seed, 1, k).standard_normal((m, tau))).sum(axis=1)
            x = eq.beta * w
            y = x + u
            q = eq.lam * y
            edge = w - q
            parts += _per_chunk(_row_moments(np.array([edge * x, edge * u, (q - w) * y])[:, None]))
        n, means, m2, _ = functools.reduce(_merge, parts)
        return [RunningMoments(n, mean, q) for mean, q in zip(means, m2)]

    @pytest.mark.parametrize("tau, cfg", [
        (3, SimConfig(10_000, 61, chunk_size=4096)),
        (12, SimConfig(70_000, 62)),
        (50, SimConfig(9, 63, chunk_size=2)),  # fewer spare floats in a chunk's workspace than tau
        (300, SimConfig(3_000, 64, chunk_size=1000)),  # beyond numpy's 128-wide pairwise block
    ])
    def test_blocked_increments_match_one_draw_per_chunk(self, tau, cfg):
        bp = BatchParams(MarketParams(1.3, 0.9, p0=-0.5), tau)
        eq = batched_equilibrium(bp)
        folded = self.one_draw_per_chunk(bp, eq, cfg)
        est = simulate_batched(bp, eq, cfg)
        assert [est.mean_pi_I, est.mean_pi_N, est.mean_pi_M] == [s.mean for s in folded]
        assert [est.se_pi_I, est.se_pi_N, est.se_pi_M] == [s.se for s in folded]

    @pytest.mark.parametrize("cfg", [SimConfig(4, 65), SimConfig(3, 66, chunk_size=2)])
    def test_long_batches_draw_within_a_path_in_blocks(self, cfg, monkeypatch):
        tau = 2 * montecarlo._INCREMENT_BLOCK + 3  # two whole blocks and a part of one per path
        bp = BatchParams(MarketParams(1.3, 0.9, p0=-0.5), tau)
        eq = batched_equilibrium(bp)
        folded = self.one_draw_per_chunk(bp, eq, cfg)
        monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "1")  # one workspace, reused by the traced run
        simulate_batched(bp, eq, cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = simulate_batched(bp, eq, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * tau  # no buffer of a whole batch
        got = [est.mean_pi_I, est.mean_pi_N, est.mean_pi_M, est.se_pi_I, est.se_pi_N, est.se_pi_M]
        want = [s.mean for s in folded] + [s.se for s in folded]
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("tau", [1, 4])
    def test_privacy_noise_in_base_is_ignored(self, tau):
        noisy, quiet = (BatchParams(MarketParams(1.3, 0.9, sigma_eps, p0=-0.5), tau) for sigma_eps in (5.0, 0.0))
        eq = batched_equilibrium(quiet)
        cfg = SimConfig(30_000, 67, chunk_size=8192)
        assert simulate_batched(noisy, eq, cfg) == simulate_batched(quiet, eq, cfg)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            simulate_batched(BatchParams(MarketParams(1.0, 1.0), 0), UNIT_EQ, SimConfig(100, 1))


POOL_CFG = SimConfig(100_000, 23, chunk_size=4096)


def _send_stats(conn):
    conn.send(simulate(UNIT, UNIT_EQ, POOL_CFG).stats)
    conn.close()


class TestWorkerPool:
    """Runs share one process-wide pool; none of that may show in the results."""

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "2")
        stats = simulate(UNIT, UNIT_EQ, POOL_CFG).stats  # the parent's pool exists from here on
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_stats, args=(send,))
        child.start()
        try:
            assert recv.poll(60), "the forked child's simulate did not finish"
            assert recv.recv() == stats
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0

    def test_concurrent_callers_get_serial_results(self, monkeypatch):
        # every entry point at once, sharing the pool and its workspaces
        noisy = MarketParams(2.0, 0.7, 1.3, p0=5.0)
        noisy_eq = solve_closed_form(noisy)
        bp = BatchParams(MarketParams(1.0, 1.0, p0=1.0), 5)
        bp_eq = batched_equilibrium(bp)

        def jobs(i):
            cfg = SimConfig(60_000 + 5_000 * i, 40 + i, chunk_size=(4096, 65_536, 16_384)[i])
            sample = simulate(noisy, noisy_eq, cfg)
            return [
                sample.stats,
                sample.path(cfg.n_paths - 1 - 7 * i),
                simulate_batched(bp, bp_eq, cfg),
                verify_best_response(UNIT, UNIT_EQ, v=1.0, grid_halfwidth=0.5, n_grid=5, cfg=cfg).estimates.tolist(),
            ]

        monkeypatch.setenv("PRIVACY_LAB_THREADS", "1")
        serial = [jobs(i) for i in range(3)]
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "6")
        results = [[] for _ in serial]

        def call(i):
            for _ in range(3):
                results[i].append(jobs(i))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(serial))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[s] * 3 for s in serial]

    def test_wide_chunks_leave_only_shared_workspaces(self, monkeypatch):
        idle = []
        monkeypatch.setattr(montecarlo, "_idle_workspaces", idle)
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "2")
        simulate(UNIT, UNIT_EQ, SimConfig(1000, 8))  # one shared workspace, room for one more
        assert [w.size for w in idle] == [montecarlo._WORKSPACE_SIZE]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate(UNIT, UNIT_EQ, SimConfig(2**20 + 5, 8, chunk_size=2**20))
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before >= 7 * 8 * 2**20  # a wide workspace was in use
        assert after - before < 2**20  # and none outlived the call
        assert [w.size for w in idle] == [montecarlo._WORKSPACE_SIZE]

    def test_a_run_holds_one_seven_row_workspace_per_thread(self, monkeypatch):
        # a default chunk's workspace is its 7 path rows, so two threads hold
        # at most two of 7 x 65536 floats, and little else
        monkeypatch.setattr(montecarlo, "_idle_workspaces", [])
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "2")
        simulate(UNIT, UNIT_EQ, SimConfig(1000, 9))  # the pool's threads start outside the traced run
        montecarlo._idle_workspaces.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate(UNIT, UNIT_EQ, SimConfig(1_000_000, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * 7 * 65_536 * 8 + 256 * 1024

    def test_runner_memory_does_not_grow_with_the_chunk_count(self, monkeypatch):
        # one idle workspace per thread, so neither traced run allocates one
        monkeypatch.setattr(montecarlo, "_idle_workspaces", [np.empty(montecarlo._WORKSPACE_SIZE) for _ in range(2)])
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "2")
        runs = [SimConfig(1024 * chunks, 29, chunk_size=1024) for chunks in (150, 1500)]
        simulate(UNIT, UNIT_EQ, runs[0])  # first-use allocations outside the traced runs
        peaks = []
        for cfg in runs:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                simulate(UNIT, UNIT_EQ, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20

    def test_a_run_returns_while_every_pool_thread_is_busy(self, monkeypatch):
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "2")
        cfg = SimConfig(30_000, 31, chunk_size=4096)
        expected = simulate(UNIT, UNIT_EQ, cfg).stats
        busy, release, got = threading.Semaphore(0), threading.Event(), []

        def block():
            busy.release()
            release.wait(60)

        montecarlo._submit(2, block, 2)
        run = threading.Thread(target=lambda: got.append(simulate(UNIT, UNIT_EQ, cfg).stats))
        try:
            assert busy.acquire(timeout=10) and busy.acquire(timeout=10)
            run.start()
            run.join(10)
            returned = not run.is_alive()
        finally:
            release.set()
            run.join(10)
        assert returned, "the run waited on the busy pool"
        assert got == [expected]

    def test_the_caller_draws_too(self, monkeypatch):
        drawers = set()

        def chunk_rng(*args):
            drawers.add(threading.get_ident())
            return _chunk_rng(*args)

        monkeypatch.setattr(montecarlo, "_chunk_rng", chunk_rng)
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "2")
        simulate(UNIT, UNIT_EQ, SimConfig(50_000, 37, chunk_size=4096))
        assert threading.get_ident() in drawers
        # with no helpers there is no pool: one task (one chunk, one stream), then cap 1
        monkeypatch.setattr(montecarlo, "_pool", None)
        quiet = MarketParams(1.0, 1.0)
        verify_best_response(quiet, solve_closed_form(quiet), v=1.0, grid_halfwidth=0.5, n_grid=5, cfg=SimConfig(1000, 37))
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "1")
        simulate(UNIT, UNIT_EQ, SimConfig(50_000, 37, chunk_size=4096))
        assert montecarlo._pool is None

    def test_default_cap_counts_the_cpus_this_process_may_use(self, monkeypatch):
        # one CPU allowed of eight: the caller draws every chunk and submits no helper
        submitted = []
        monkeypatch.delenv("PRIVACY_LAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(montecarlo, "_submit", lambda *args: submitted.append(args) or [])
        assert montecarlo._thread_cap() == 1
        assert simulate(UNIT, UNIT_EQ, POOL_CFG).n == POOL_CFG.n_paths
        assert submitted == []
        # without an affinity mask, the CPU count, still at most 8
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 12)
        assert montecarlo._thread_cap() == 8

    def test_changing_the_cap_keeps_the_bits(self, monkeypatch):
        runs = []
        for cap in ("1", "6", "2", "6"):
            monkeypatch.setenv("PRIVACY_LAB_THREADS", cap)
            runs.append(simulate(UNIT, UNIT_EQ, POOL_CFG).stats)
        assert runs == [runs[0]] * 4

    def test_finish_runs_once_per_group(self, monkeypatch):
        # 48 chunks of 4096 and one of 3392: groups of 16, 16, 16 and 1
        calls = []

        def stats_of(*args):
            calls.append(args[0].shape)
            return _stats_of(*args)

        monkeypatch.setattr(montecarlo, "_stats_of", stats_of)
        for threads in ("1", "2"):
            monkeypatch.setenv("PRIVACY_LAB_THREADS", threads)
            calls.clear()
            assert simulate(UNIT, UNIT_EQ, SimConfig(200_000, 5, chunk_size=4096)).n == 200_000
            assert sorted(calls) == [(7, 1, 3392)] + [(7, 16, 4096)] * 3  # in any order across threads

    def test_failing_chunk_stops_the_run(self, monkeypatch):
        # once from inside a stream's draw, once from inside a group's reduction
        monkeypatch.setenv("PRIVACY_LAB_THREADS", "2")
        cfg = SimConfig(64 * 16_384, 3, chunk_size=16_384)  # 16 groups of 4 chunks
        expected = simulate(UNIT, UNIT_EQ, cfg).stats
        lock = threading.Lock()

        @contextlib.contextmanager
        def task(name, fails):
            with lock:
                started.append(name)
                running[0] += 1
            try:
                if fails:
                    raise RuntimeError(f"{name} failed")
                yield
            finally:
                with lock:
                    running[0] -= 1

        class Stream:
            """A chunk's generator whose draws are watched."""

            def __init__(self, seed, stream, k):
                self.rng, self.key = _chunk_rng(seed, stream, k), (stream, k)

            def standard_normal(self, *args, **kwargs):
                with task(f"draw {self.key}", stage == "draw" and self.key == (1, 1)):
                    return self.rng.standard_normal(*args, **kwargs)

        def stats_of(*args):
            with task("reduction", stage == "reduction" and next(reductions) == 1):
                return _stats_of(*args)

        for stage in ("draw", "reduction"):
            started, running, reductions = [], [0], itertools.count()
            monkeypatch.setattr(montecarlo, "_chunk_rng", Stream)
            monkeypatch.setattr(montecarlo, "_stats_of", stats_of)
            with pytest.raises(RuntimeError, match=f"{stage}.* failed"):
                simulate(UNIT, UNIT_EQ, cfg)
            taken = len(started)
            assert running[0] == 0
            assert taken < 64  # of 3 * 64 draws and 16 reductions: none was taken once one had failed
            time.sleep(0.05)
            assert len(started) == taken
            monkeypatch.setattr(montecarlo, "_chunk_rng", _chunk_rng)
            monkeypatch.setattr(montecarlo, "_stats_of", _stats_of)
            assert simulate(UNIT, UNIT_EQ, cfg).stats == expected
