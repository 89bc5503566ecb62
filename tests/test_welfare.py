import math

import numpy as np

from privacy_lab import (
    MarketParams,
    break_even_fee,
    incremental_gains,
    privacy_subsidy,
    solve_closed_form,
    subsidy_analysis,
    welfare_at,
    welfare_decomposition,
)

SQRT2 = math.sqrt(2.0)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


def benign_grid(n=200, seed=4):
    """Moderate scales where float64 finite differences are trustworthy."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        su = 10.0 ** rng.uniform(-1, 1)
        out.append(MarketParams(10.0 ** rng.uniform(-1, 1), su, float(rng.uniform(0.05, 3.0) * su)))
    return out


class TestDecomposition:
    def test_no_privacy_values(self):
        w = welfare_decomposition(MarketParams(1.0, 1.0, 0.0))
        assert (w.pi_I, w.pi_N, w.pi_M) == (0.5, -0.5, 0.0)

    def test_unit_privacy_values(self):
        w = welfare_decomposition(MarketParams(1.0, 1.0, 1.0))
        assert math.isclose(w.pi_I, 0.7071067811865476, rel_tol=1e-14)
        assert math.isclose(w.pi_N, -0.35355339059327373, rel_tol=1e-14)
        assert math.isclose(w.pi_M, -0.35355339059327373, rel_tol=1e-14)

    def test_btc_scale_maker_loss(self):
        w = welfare_decomposition(MarketParams(3000.0, 1000.0, 1000.0))
        assert math.isclose(w.pi_M, -1060660.1717798212, rel_tol=1e-14)

    def test_zero_sum_on_grid(self, grid1000):
        for p in grid1000:
            w = welfare_decomposition(p)
            assert abs(w.pi_I + w.pi_N + w.pi_M) <= 1e-12 * w.pi_I

    def test_signs_on_grid(self, grid1000):
        for p in grid1000:
            w = welfare_decomposition(p)
            assert w.pi_I > 0
            assert w.pi_N < 0
            assert (w.pi_M == 0.0) == (p.sigma_eps == 0.0)
            assert w.pi_M <= 0


class TestWelfareAt:
    def test_reduces_to_closed_form_at_equilibrium(self, grid1000):
        for p in grid1000[:200]:
            eq = solve_closed_form(p)
            w0 = welfare_decomposition(p)
            w = welfare_at(p, eq.lam, eq.beta)
            assert math.isclose(w.pi_I, w0.pi_I, rel_tol=1e-12)
            assert math.isclose(w.pi_N, w0.pi_N, rel_tol=1e-12)
            assert abs(w.pi_M - w0.pi_M) <= 1e-12 * w0.pi_I

    def test_zero_sum_off_equilibrium(self):
        p = MarketParams(1.0, 1.0, 1.0)
        eq = solve_closed_form(p)
        w = welfare_at(p, eq.lam, 1.7 * eq.beta)
        assert abs(w.pi_I + w.pi_N + w.pi_M) <= 1e-12 * abs(w.pi_I)

    def test_equilibrium_beta_maximizes_informed_profit(self):
        p = MarketParams(1.0, 1.0, 1.0)
        eq = solve_closed_form(p)
        best = welfare_at(p, eq.lam, eq.beta).pi_I
        for scale in (0.5, 0.9, 1.1, 2.0):
            assert welfare_at(p, eq.lam, scale * eq.beta).pi_I < best


class TestSubsidy:
    def test_zero_iff_no_noise(self):
        assert privacy_subsidy(MarketParams(1.0, 1.0, 0.0)) == 0.0
        assert privacy_subsidy(MarketParams(1.0, 1.0, 1e-8)) > 0.0

    def test_inflection_height(self):
        got = privacy_subsidy(MarketParams(1.0, 1.0, SQRT2))
        assert math.isclose(got, 0.5773502691896258, rel_tol=1e-14)

    def test_btc_low_noise_row(self):
        got = privacy_subsidy(MarketParams(3000.0, 1000.0, 100.0))
        assert math.isclose(got, 14925.557853149838, rel_tol=1e-14)

    def test_matches_negated_maker_pnl_exactly(self, grid1000):
        for p in grid1000[:200]:
            assert privacy_subsidy(p) == -welfare_decomposition(p).pi_M

    def test_strictly_increasing(self):
        for sv, su in [(1.0, 1.0), (3000.0, 1000.0), (0.05, 2.0)]:
            ses = [0.0, 0.1 * su, 0.5 * su, su, SQRT2 * su, 3.0 * su, 20.0 * su]
            subs = [privacy_subsidy(MarketParams(sv, su, se)) for se in ses]
            assert all(b > a for a, b in zip(subs, subs[1:]))


class TestSubsidyAnalysis:
    def test_unit_market_fields(self):
        a = subsidy_analysis(MarketParams(1.0, 1.0, 1.0))
        assert math.isclose(a.d1, 3.0 / (2.0 * 2.0**1.5), rel_tol=1e-14)
        assert math.isclose(a.inflection, 1.4142135623730951, rel_tol=1e-15)
        assert a.low_privacy_coeff == 0.5
        assert a.high_privacy_slope == 0.5

    def test_d2_vanishes_at_inflection(self):
        a = subsidy_analysis(MarketParams(1.0, 1.0, SQRT2))
        assert abs(a.d2) < 5e-16

    def test_inflection_bracketing(self):
        for sv, su in [(1.0, 1.0), (3000.0, 1000.0), (0.01, 7.0)]:
            star = SQRT2 * su
            below = subsidy_analysis(MarketParams(sv, su, star * (1.0 - 1e-6)))
            above = subsidy_analysis(MarketParams(sv, su, star * (1.0 + 1e-6)))
            assert below.d2 > 0.0
            assert above.d2 < 0.0

    def test_d1_positive_and_d2_sign_on_grid(self, grid1000):
        for p in grid1000:
            a = subsidy_analysis(p)
            if p.sigma_eps > 0:
                assert a.d1 > 0.0
            sign = 2.0 * p.sigma_u**2 - p.sigma_eps**2
            assert math.copysign(1.0, a.d2) == math.copysign(1.0, sign) or a.d2 == 0.0

    def test_d1_matches_finite_difference(self):
        for p in benign_grid():
            f = lambda se: privacy_subsidy(MarketParams(p.sigma_v, p.sigma_u, se))
            fd = central_diff(f, p.sigma_eps, 1e-5 * p.sigma_u)
            a = subsidy_analysis(p)
            assert abs(a.d1 - fd) / abs(a.d1) <= 1e-6

    def test_d2_matches_finite_difference(self):
        # float64 second differences need a coarser step than 1e-5*sigma_u:
        # at that step the roundoff floor is ~1e-5 relative.  The acceptance
        # suite repeats this check at step 1e-5*sigma_u in extended precision.
        for p in benign_grid():
            if abs(p.sigma_eps - SQRT2 * p.sigma_u) < 0.05 * p.sigma_u:
                continue  # relative error is meaningless where d2 crosses zero
            f = lambda se: privacy_subsidy(MarketParams(p.sigma_v, p.sigma_u, se))
            fd = second_diff(f, p.sigma_eps, 5e-4 * p.sigma_u)
            a = subsidy_analysis(p)
            assert abs(a.d2 - fd) / abs(a.d2) <= 1e-5


class TestNoisePnlDerivative:
    def test_positive_for_positive_noise(self, grid1000):
        # d pi_N / d sigma_eps > 0 for sigma_eps > 0: noise traders lose less
        # as the maker's signal gets coarser, so pi_N rises strictly over
        # sorted sigma_eps
        for p in grid1000:
            ses = (0.0, 0.5 * p.sigma_eps, p.sigma_eps, 2.0 * p.sigma_eps)
            pnl = [welfare_decomposition(MarketParams(p.sigma_v, p.sigma_u, se)).pi_N for se in ses]
            assert all(b > a for a, b in zip(pnl, pnl[1:])), (p, pnl)


class TestIncrementalGains:
    def test_zero_at_no_noise(self):
        assert incremental_gains(MarketParams(1.0, 1.0, 0.0)) == (0.0, 0.0)

    def test_unit_values(self):
        gi, gn = incremental_gains(MarketParams(1.0, 1.0, 1.0))
        assert math.isclose(gi, (SQRT2 - 1.0) / 2.0, rel_tol=1e-14)
        assert math.isclose(gn, (SQRT2 - 1.0) / (2.0 * SQRT2), rel_tol=1e-14)

    def test_match_direct_differences(self):
        for p in benign_grid(100):
            base = welfare_decomposition(MarketParams(p.sigma_v, p.sigma_u, 0.0))
            w = welfare_decomposition(p)
            gi, gn = incremental_gains(p)
            assert math.isclose(gi, w.pi_I - base.pi_I, rel_tol=1e-9)
            assert math.isclose(gn, w.pi_N - base.pi_N, rel_tol=1e-9)

    def test_sum_equals_subsidy(self, grid1000):
        for p in grid1000:
            gi, gn = incremental_gains(p)
            sub = privacy_subsidy(p)
            assert abs(gi + gn - sub) <= 1e-12 * max(sub, 1e-300)

    def test_leading_order_symmetry(self):
        # the two gains agree to leading order; their ratio tends to 1
        p_base = MarketParams(1.3, 0.7, 0.0)
        ratios = []
        for k in (1e-1, 1e-2, 1e-3):
            gi, gn = incremental_gains(MarketParams(p_base.sigma_v, p_base.sigma_u, k * p_base.sigma_u))
            ratios.append(gi / gn)
        assert abs(ratios[-1] - 1.0) < 1e-5
        assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)

    def test_taylor_coefficient(self):
        for sv, su in [(1.0, 1.0), (1.7, 0.9), (3000.0, 1000.0)]:
            coef = sv / (4.0 * su**3)
            for k in (1e-1, 1e-2, 1e-3):
                se = k * su
                remainder = abs(privacy_subsidy(MarketParams(sv, su, se)) - (sv / (2.0 * su)) * se**2)
                assert abs(remainder / se**4 - coef) <= 0.05 * coef

    def test_high_privacy_slope(self):
        for sv, su in [(1.0, 1.0), (1.7, 0.9), (3000.0, 1000.0)]:
            se = 1e4 * su
            got = privacy_subsidy(MarketParams(sv, su, se)) / se
            assert abs(got - sv / 2.0) / (sv / 2.0) <= 1e-3

    def test_noise_gain_saturates(self):
        # noise traders' gain over the no-privacy baseline caps at sigma_v*sigma_u/2
        sv, su = 2.0, 3.0
        _, gn = incremental_gains(MarketParams(sv, su, 1e8 * su))
        assert math.isclose(gn, sv * su / 2.0, rel_tol=1e-6)


class TestBreakEvenFee:
    def test_unit_market_record(self):
        fee = break_even_fee(MarketParams(1.0, 1.0, 1.0))
        assert math.isclose(fee.e_abs_x, 1.1283791670955128, rel_tol=1e-14)
        assert math.isclose(fee.e_abs_u, 0.7978845608028654, rel_tol=1e-14)
        assert math.isclose(fee.q_total, 1.926263727898378, rel_tol=1e-14)
        assert math.isclose(fee.fee_rate, 0.1835436059313711, rel_tol=1e-14)
        assert math.isclose(fee.fee_on_informed, 0.20710678118654752, rel_tol=1e-13)
        assert math.isclose(fee.fee_on_noise, 0.1464466094067262, rel_tol=1e-13)

    def test_informed_volume_matches_quadrature(self):
        # independent oracle: integrate |x| against the Gaussian density of
        # the informed order x ~ N(0, (beta*sigma_v)^2)
        for p in [MarketParams(1.0, 1.0, 1.0), MarketParams(2.0, 0.5, 1.5)]:
            eq = solve_closed_form(p)
            s = eq.beta * p.sigma_v
            xs = np.linspace(-12.0 * s, 12.0 * s, 400_001)
            pdf = np.exp(-0.5 * (xs / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            oracle = float(np.trapezoid(np.abs(xs) * pdf, xs))
            assert math.isclose(break_even_fee(p).e_abs_x, oracle, rel_tol=1e-8)

    def test_fee_neutrality_unit_sigma(self):
        for se in (0.0, 0.7, 1.0, 3.0):
            fee = break_even_fee(MarketParams(1.0, 1.0, se))
            assert abs(fee.net_pi_I - 0.5) <= 1e-12 * 0.5
            assert abs(fee.net_pi_N + 0.5) <= 1e-12 * 0.5

    def test_zero_noise_means_zero_fee(self):
        fee = break_even_fee(MarketParams(1.0, 1.0, 0.0))
        assert fee.fee_rate == 0.0

    def test_fee_revenue_covers_subsidy_on_grid(self, grid1000):
        for p in grid1000:
            fee = break_even_fee(p)
            sub = privacy_subsidy(p)
            assert abs(fee.fee_on_informed + fee.fee_on_noise - sub) <= 1e-12 * max(sub, 1e-300)

    def test_fee_burden_equals_incremental_gain_on_grid(self, grid1000):
        for p in grid1000:
            fee = break_even_fee(p)
            gi, gn = incremental_gains(p)
            assert abs(fee.fee_on_informed - gi) <= 1e-12 * max(gi, 1e-300)
            assert abs(fee.fee_on_noise - gn) <= 1e-12 * max(gn, 1e-300)

    def test_fee_neutrality_on_grid(self, grid1000):
        # |net - +/-sigma_v*sigma_u/2| measured against the natural scale
        # pi_I, mirroring the zero-sum convention; the subtraction itself
        # carries rounding of that magnitude when sigma_eps >> sigma_u
        for p in grid1000:
            fee = break_even_fee(p)
            target = p.sigma_v * p.sigma_u / 2.0
            scale = max(welfare_decomposition(p).pi_I, target)
            assert abs(fee.net_pi_I - target) <= 1e-12 * scale
            assert abs(fee.net_pi_N + target) <= 1e-12 * scale
