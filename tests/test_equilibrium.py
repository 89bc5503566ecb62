import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from privacy_lab import (
    BatchParams,
    Equilibrium,
    MarketParams,
    ParamError,
    SimConfig,
    batched_equilibrium,
    posterior_slope,
    solve_closed_form,
    solve_fixed_point,
    subsidy_analysis,
    verify_best_response,
    welfare_at,
    welfare_decomposition,
)
from privacy_lab import equilibrium

SQRT2 = math.sqrt(2.0)


class TestValidation:
    def test_ok(self):
        p = MarketParams(1.0, 1.0, 0.0, p0=0.0)
        assert (p.sigma_v, p.sigma_u, p.sigma_eps, p.p0) == (1.0, 1.0, 0.0, 0.0)

    def test_negative_p0_and_zero_sigma_eps_are_fine(self):
        MarketParams(2.5, 0.1, 0.0, p0=-10.0)

    def test_zero_sigma_u(self):
        with pytest.raises(ParamError) as exc:
            MarketParams(1.0, 0.0, 1.0)
        assert exc.value.field == "sigma_u"
        assert str(exc.value) == "sigma_u must be > 0, got 0.0"

    def test_negative_sigma_eps(self):
        with pytest.raises(ParamError) as exc:
            MarketParams(1.0, 1.0, -0.5)
        assert exc.value.field == "sigma_eps"
        assert str(exc.value) == "sigma_eps must be >= 0, got -0.5"

    def test_non_positive_sigma_v(self):
        for sigma_v in (0.0, -3.0):
            with pytest.raises(ParamError) as exc:
                MarketParams(sigma_v, 1.0, 0.0)
            assert exc.value.field == "sigma_v"
            assert str(exc.value) == f"sigma_v must be > 0, got {sigma_v!r}"

    @pytest.mark.parametrize("field,params", [
        ("sigma_v", (math.nan, 1.0, 0.0)),
        ("sigma_u", (1.0, math.inf, 0.0)),
        ("sigma_eps", (1.0, 1.0, math.nan)),
        ("p0", (1.0, 1.0, 0.0, math.inf)),
    ])
    def test_non_finite(self, field, params):
        with pytest.raises(ParamError) as exc:
            MarketParams(*params)
        assert exc.value.field == field
        assert str(exc.value).startswith(f"{field} must be finite, got ")

    def test_replace_revalidates(self):
        with pytest.raises(ParamError) as exc:
            replace(MarketParams(1.0, 1.0), sigma_eps=-1.0)
        assert exc.value.field == "sigma_eps"

    @pytest.mark.parametrize("field,args", [
        ("lam", (math.inf, 1.0)),
        ("lam", (0.0, 1.0)),
        ("beta", (0.5, -1.0)),
        ("beta", (0.5, math.nan)),
    ])
    def test_equilibrium_coefficients(self, field, args):
        with pytest.raises(ParamError) as exc:
            Equilibrium(*args)
        assert exc.value.field == field

    @pytest.mark.parametrize("make,args,field", [
        (MarketParams, ("1", 1), "sigma_v"),
        (MarketParams, (1, 1, None), "sigma_eps"),
        (MarketParams, (True, 1), "sigma_v"),
        (MarketParams, (1, 1, 0, False), "p0"),
        (Equilibrium, ("1", 1), "lam"),
        (Equilibrium, (True, 1), "lam"),
        (SimConfig, (True, 1), "n_paths"),
        (SimConfig, (10, False), "seed"),
        (BatchParams, (MarketParams(1, 1), True), "tau"),
        (MarketParams, (10**400, 1), "sigma_v"),
        (Equilibrium, (10**400, 1), "lam"),
    ])
    def test_non_numbers_and_bools_are_rejected(self, make, args, field):
        with pytest.raises(ParamError) as exc:
            make(*args)
        assert exc.value.field == field

    # explicit ids: a row keeps its id when rows before it are removed
    @pytest.mark.parametrize("func,args,field", [
        pytest.param(welfare_at, (MarketParams(1, 1), 0.0, 1.0), "lam", id="welfare_at-args0-lam"),
        pytest.param(welfare_at, (MarketParams(1, 1), 0.5, -1.0), "beta", id="welfare_at-args1-beta"),
        pytest.param(welfare_at, (MarketParams(1, 1), math.nan, 1.0), "lam", id="welfare_at-args8-lam"),
        pytest.param(  # lam underflows, as in the closed form
            solve_fixed_point, (MarketParams(1e-200, 1e200),), "lam", id="solve_fixed_point-args10-lam"
        ),
        pytest.param(posterior_slope, (MarketParams(1, 1, 0.5), math.nan), "beta", id="posterior_slope-args11-beta"),
    ])
    def test_function_arguments_name_their_field(self, func, args, field):
        with pytest.raises(ParamError) as exc:
            func(*args)
        assert exc.value.field == field


class TestClosedForm:
    def test_no_privacy_is_classical_kyle_exactly(self):
        eq = solve_closed_form(MarketParams(1.0, 1.0, 0.0))
        assert eq.lam == 0.5
        assert eq.beta == 1.0

    def test_unit_market_values(self):
        eq = solve_closed_form(MarketParams(1.0, 1.0, 1.0))
        assert math.isclose(eq.lam, 0.35355339059327373, rel_tol=1e-15)
        assert math.isclose(eq.beta, SQRT2, rel_tol=1e-15)

        eq2 = solve_closed_form(MarketParams(1.0, 1.0, 2.0))
        assert math.isclose(eq2.lam, 0.22360679774997896, rel_tol=1e-15)
        assert math.isclose(eq2.beta, 2.23606797749979, rel_tol=1e-15)

    def test_classical_limit_is_exact_for_any_scale(self):
        # the last two have a subnormal lam, which must be rounded once:
        # dividing before halving misses the last one by a subnormal ulp
        for sv, su in [(1.0, 1.0), (3000.0, 1000.0), (0.002, 17.0), (1.0, 5e307), (0.4312389706509774, 4.192669938020125e307)]:
            p = MarketParams(sv, su, 0.0)
            eq = solve_closed_form(p)
            assert eq.lam == sv / (2.0 * su)
            assert eq.beta == su / sv
            assert subsidy_analysis(p).low_privacy_coeff == sv / (2.0 * su)

    def test_half_revealing_identity_on_grid(self, grid1000):
        for p in grid1000:
            eq = solve_closed_form(p)
            assert abs(eq.lam * eq.beta - 0.5) <= 1e-12 * 0.5

    def test_monotone_in_sigma_eps(self):
        for sv, su in [(1.0, 1.0), (3000.0, 1000.0), (0.01, 5.0)]:
            lams, betas = [], []
            for se in [0.0, 0.25 * su, su, 2.0 * su, 10.0 * su]:
                eq = solve_closed_form(MarketParams(sv, su, se))
                lams.append(eq.lam)
                betas.append(eq.beta)
            assert all(b < a for a, b in zip(lams, lams[1:]))
            assert all(b > a for a, b in zip(betas, betas[1:]))


class TestFixedPoint:
    def test_agrees_with_closed_form_on_grid(self, grid1000):
        for p in grid1000:
            lam_cf = solve_closed_form(p).lam
            fp = solve_fixed_point(p)
            assert abs(fp.lam - lam_cf) / lam_cf <= 1e-12

    def test_unit_market(self):
        fp = solve_fixed_point(MarketParams(1.0, 1.0, 1.0))
        assert abs(fp.lam - 0.35355339059327373) / 0.35355339059327373 <= 1e-12

    def test_large_scale(self):
        fp = solve_fixed_point(MarketParams(3000.0, 1000.0, 1000.0))
        expected = 3000.0 / (2.0 * SQRT2 * 1000.0)
        assert abs(fp.lam - expected) / expected <= 1e-12

    def test_no_privacy_limit(self):
        fp = solve_fixed_point(MarketParams(1.0, 1.0, 0.0))
        assert abs(fp.lam - 0.5) <= 1e-12 * 0.5

    def test_beta_is_best_response_to_lam(self):
        fp = solve_fixed_point(MarketParams(2.0, 0.5, 1.5))
        assert fp.beta == 1.0 / (2.0 * fp.lam)

    def test_within_ulps_of_closed_form_on_grid(self, grid1000):
        for p in grid1000:
            lam_cf = solve_closed_form(p).lam
            assert abs(solve_fixed_point(p).lam - lam_cf) <= 8 * math.ulp(lam_cf), p

    def test_calls_no_closed_form_and_no_sqrt(self, monkeypatch):
        # the oracle stays independent: no closed form, hypot or sqrt on its route
        params = [MarketParams(1.0, 1.0, 1.0), MarketParams(3000.0, 1000.0, 1000.0), MarketParams(1.0, 1.0, 0.0)]
        want = [solve_fixed_point(p) for p in params]

        def closed_forms(*args):
            raise AssertionError("solve_fixed_point called _closed_forms")

        monkeypatch.setattr(equilibrium, "_closed_forms", closed_forms)
        monkeypatch.setattr(equilibrium, "math", SimpleNamespace(isfinite=math.isfinite))
        assert [solve_fixed_point(p) for p in params] == want


class TestPosteriorPrice:
    # the maker quotes p = p0 + posterior_slope(params, beta) * y_tilde
    def test_unit_case(self):
        assert posterior_slope(MarketParams(1.0, 1.0, 0.0), beta=1.0) == 0.5

    def test_shifted_case(self):
        # the prior mean shifts the quote, not its slope
        for p0 in [0.0, 100.0, -7.5]:
            got = posterior_slope(MarketParams(1.0, 1.0, 1.0, p0=p0), beta=SQRT2)
            assert math.isclose(got, 0.35355339059327373, rel_tol=1e-14)

    def test_slope_at_equilibrium_beta_equals_lam(self, grid1000):
        # pricing consistency: the projection slope at the equilibrium
        # trader coefficient reproduces the equilibrium price impact
        for p in grid1000:
            eq = solve_closed_form(p)
            slope = posterior_slope(p, eq.beta)
            assert abs(slope - eq.lam) / eq.lam <= 1e-12


class TestInformedTrader:
    def test_best_response_values(self):
        # x* = (v - p0)/(2*lam): 1 at lam = 1/2, sqrt(2) at lam = 1/(2*sqrt(2))
        for params, want in ((MarketParams(1.0, 1.0), 1.0), (MarketParams(1.0, 1.0, 1.0), SQRT2)):
            chk = verify_best_response(
                params, solve_closed_form(params), v=1.0, grid_halfwidth=0.5, n_grid=3, cfg=SimConfig(1000, 7)
            )
            assert math.isclose(chk.x_star, want, rel_tol=1e-14)

    def test_profit_values(self, grid1000):
        # the best response earns (v - p0)^2 / (4*lam) given v; averaged over
        # v that is sigma_v^2 / (4*lam), the closed-form informed profit
        for p in grid1000[:200]:
            lam = solve_closed_form(p).lam
            pi_I = welfare_decomposition(p).pi_I
            assert math.isclose(pi_I, p.sigma_v**2 / (4.0 * lam), rel_tol=1e-13)

    def test_profit_peaks_at_grid_point_nearest_best_response(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = 10.0 ** rng.uniform(-2, 2)
            p0 = rng.normal(0.0, 5.0)
            v = p0 + rng.normal(0.0, 3.0)
            x_star = (v - p0) / (2.0 * lam)  # the x* of verify_best_response
            width = max(1.0, abs(x_star))
            offset = rng.uniform(-0.3, 0.3) * width
            grid = np.linspace(x_star - width + offset, x_star + width + offset, 10_001)
            profits = (v - p0) * grid - lam * grid**2  # expected profit of order x given v
            assert int(np.argmax(profits)) == int(np.argmin(np.abs(grid - x_star)))


class TestZeroProfitRule:
    def test_coincides_with_equilibrium_when_no_coarsening(self):
        # sigma_v / (2*sigma_u) breaks even against the executed flow; with
        # no privacy noise the maker sees that flow, and it is the equilibrium
        p = MarketParams(2.7, 0.4, 0.0)
        assert solve_closed_form(p).lam == p.sigma_v / (2.0 * p.sigma_u)


class TestBatchedEquilibrium:
    def test_single_period_batch_is_the_plain_market(self):
        base = MarketParams(1.7, 0.6, 0.0, p0=2.0)
        one = batched_equilibrium(BatchParams(base, 1))
        plain = solve_closed_form(base)
        assert (one.lam, one.beta) == (plain.lam, plain.beta)

    def test_unit_market_tau_4(self):
        eq = batched_equilibrium(BatchParams(MarketParams(1.0, 1.0), 4))
        assert eq.lam == 0.25
        assert eq.beta == 2.0

    def test_scale_tau_9(self):
        eq = batched_equilibrium(BatchParams(MarketParams(3000.0, 1000.0), 9))
        assert eq.lam == 0.5

    def test_privacy_noise_in_base_is_ignored(self):
        # the batch aggregate is observed exactly, so sigma_eps drops out
        a = batched_equilibrium(BatchParams(MarketParams(1.0, 1.0, 5.0), 4))
        b = batched_equilibrium(BatchParams(MarketParams(1.0, 1.0, 0.0), 4))
        assert (a.lam, a.beta) == (b.lam, b.beta)

    @pytest.mark.parametrize("tau", [0, -1, 2.5])
    def test_bad_tau(self, tau):
        with pytest.raises(ParamError) as exc:
            BatchParams(MarketParams(1.0, 1.0), tau)
        assert exc.value.field == "tau"
