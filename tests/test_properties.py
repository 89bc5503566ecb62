"""Identities of the closed forms, and their accuracy at any magnitude.

Hypothesis checks the scale covariance, lam*beta = 1/2, the zero-sum split
and fee neutrality over sigmas spanning 200 orders of magnitude.  A
40-digit mpmath evaluation of the textbook formulas is the reference for
every public closed-form record, on the conftest grid and at magnitudes
where a naive double evaluation overflows or underflows; it is also the
reference for the expected values the Monte Carlo checks are judged against.
"""

import math
import sys
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privacy_lab import (
    MarketParams,
    SimConfig,
    break_even_fee,
    estimate_price_moments,
    incremental_gains,
    noise_pnl_derivative,
    posterior_slope,
    privacy_subsidy,
    simulate,
    solve_closed_form,
    solve_fixed_point,
    subsidy_analysis,
    sweep,
    SweepSpec,
    welfare_at,
    welfare_decomposition,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)

magnitude = st.floats(-100.0, 100.0).map(lambda e: 10.0**e)
sigma_eps = st.one_of(st.just(0.0), magnitude)
factor = st.floats(-50.0, 50.0).map(lambda e: 10.0**e)

# sigma_eps = 1e160 squares past the double range; 1e-200 squares below it
EXTREMES = (MarketParams(1.0, 1.0, 1e160), MarketParams(1e-200, 1e-200, 1e-200))

REF_RTOL = 1e-14
TINY = 5e-324  # smallest positive double: an underflowed result is this close


def close(got: float, want: float, rtol: float = 1e-14) -> bool:
    return abs(got - want) <= rtol * abs(want)


@PROPERTY
@given(magnitude, magnitude, sigma_eps, factor)
def test_joint_noise_scaling(sv, su, se, t):
    base, scaled = MarketParams(sv, su, se), MarketParams(sv, su * t, se * t)
    eq, eq_t = solve_closed_form(base), solve_closed_form(scaled)
    assert close(eq_t.lam, eq.lam / t)
    assert close(eq_t.beta, eq.beta * t)
    assert close(privacy_subsidy(scaled), privacy_subsidy(base) * t)


@PROPERTY
@given(magnitude, magnitude, sigma_eps, factor)
def test_value_scaling(sv, su, se, t):
    base, scaled = MarketParams(sv, su, se), MarketParams(sv * t, su, se)
    eq, eq_t = solve_closed_form(base), solve_closed_form(scaled)
    assert close(eq_t.lam, eq.lam * t)
    assert close(eq_t.beta, eq.beta / t)
    w, w_t = welfare_decomposition(base), welfare_decomposition(scaled)
    for got, want in zip((w_t.pi_I, w_t.pi_N, w_t.pi_M), (w.pi_I, w.pi_N, w.pi_M)):
        assert close(got, want * t)


@PROPERTY
@given(magnitude, magnitude, sigma_eps)
def test_half_revealing(sv, su, se):
    eq = solve_closed_form(MarketParams(sv, su, se))
    assert close(eq.lam * eq.beta, 0.5, rtol=1e-15)


@PROPERTY
@given(magnitude, magnitude, sigma_eps)
def test_zero_sum(sv, su, se):
    w = welfare_decomposition(MarketParams(sv, su, se))
    assert abs(w.pi_I + w.pi_N + w.pi_M) <= 1e-14 * w.pi_I


@PROPERTY
@given(magnitude, magnitude, sigma_eps)
def test_fee_neutrality(sv, su, se):
    p = MarketParams(sv, su, se)
    w, fee = welfare_decomposition(p), break_even_fee(p)
    classical = sv * su / 2.0
    assert close(fee.net_pi_I, classical, rtol=1e-15)
    assert close(fee.net_pi_N, -classical, rtol=1e-15)
    # the fee on each type is exactly its gain over the no-privacy market
    assert abs(w.pi_I - fee.fee_on_informed - classical) <= 1e-14 * (w.pi_I + fee.fee_on_informed)
    assert abs(w.pi_N - fee.fee_on_noise + classical) <= 1e-14 * (classical + fee.fee_on_noise)


def reference(sigma_v: float, sigma_u: float, sigma_eps: float) -> dict[str, tuple[mp.mpf, mp.mpf]]:
    """Textbook closed forms in 40 digits, as name -> (value, scale); the
    scale of a difference of terms is the size of those terms."""
    with mp.workdps(40):
        sv, su, se = mp.mpf(sigma_v), mp.mpf(sigma_u), mp.mpf(sigma_eps)
        s2 = su**2 + se**2
        s = mp.sqrt(s2)
        coef = mp.sqrt(2 / mp.pi)
        e_abs_x, e_abs_u = s * coef, su * coef
        subsidy = sv * se**2 / (2 * s)
        fee_rate = subsidy / (e_abs_x + e_abs_u)
        gap = se**2 / (s + su)
        values = {
            "lam": sv / (2 * s),
            "beta": s / sv,
            "pi_I": sv * s / 2,
            "pi_N": -sv * su**2 / (2 * s),
            "pi_M": -subsidy,
            "subsidy": subsidy,
            "d1": sv * se * (2 * su**2 + se**2) / (2 * s2**1.5),
            "inflection": mp.sqrt(2) * su,
            "low_privacy_coeff": sv / (2 * su),
            "high_privacy_slope": sv / 2,
            "noise_pnl_derivative": sv * su**2 * se / (2 * s2**1.5),
            "gain_informed": sv * gap / 2,
            "gain_noise": sv * su * gap / (2 * s),
            "e_abs_x": e_abs_x,
            "e_abs_u": e_abs_u,
            "q_total": e_abs_x + e_abs_u,
            "fee_rate": fee_rate,
            "fee_on_informed": fee_rate * e_abs_x,
            "fee_on_noise": fee_rate * e_abs_u,
        }
        out = {k: (v, abs(v)) for k, v in values.items()}
        for net, pnl, fee in (("net_pi_I", "pi_I", "fee_on_informed"), ("net_pi_N", "pi_N", "fee_on_noise")):
            out[net] = (values[pnl] - values[fee], abs(values[pnl]) + abs(values[fee]))
        d2_terms = sv * su**2 / (2 * s2**2.5)
        out["d2"] = (d2_terms * (2 * su**2 - se**2), d2_terms * (2 * su**2 + se**2))
        return out


def records(p: MarketParams) -> dict[str, float]:
    """Every field of every public closed-form record at `p`."""
    eq = solve_closed_form(p)
    out = {"lam": eq.lam, "beta": eq.beta}
    out.update(vars(welfare_decomposition(p)))
    out.update(vars(subsidy_analysis(p)))
    out.update(vars(break_even_fee(p)))
    out["gain_informed"], out["gain_noise"] = incremental_gains(p)
    out["noise_pnl_derivative"] = noise_pnl_derivative(p)
    assert privacy_subsidy(p) == out["subsidy"]
    return out


def assert_matches_reference(p: MarketParams) -> None:
    ref = reference(p.sigma_v, p.sigma_u, p.sigma_eps)
    got = records(p)
    assert got.keys() == ref.keys()
    for name, value in got.items():
        want, scale = ref[name]
        assert math.isfinite(value), (name, p)
        assert abs(mp.mpf(value) - want) <= REF_RTOL * scale + 2 * TINY, (name, p, value, want)


@pytest.mark.parametrize("p", EXTREMES, ids=("huge_eps", "tiny_all"))
def test_reference_at_extreme_magnitudes(p):
    assert_matches_reference(p)
    (row,) = sweep(SweepSpec(MarketParams(p.sigma_v, p.sigma_u), (p.sigma_eps,)))
    got = records(p)
    for name in ("lam", "beta", "pi_I", "pi_N", "pi_M", "subsidy", "d1", "d2", "fee_rate"):
        assert getattr(row, name) == got[name]


def test_reference_on_grid(grid1000):
    for p in grid1000:
        assert_matches_reference(p)


@pytest.mark.parametrize("p", EXTREMES, ids=("huge_eps", "tiny_all"))
def test_fixed_point_at_extreme_magnitudes(p):
    lam, _ = reference(p.sigma_v, p.sigma_u, p.sigma_eps)["lam"]
    fp = solve_fixed_point(p)
    assert abs(mp.mpf(fp.lam) - lam) <= 1e-12 * lam
    assert fp.beta == 1.0 / (2.0 * fp.lam)


def assert_simulation_targets_match(p: MarketParams, beta_scale: float) -> None:
    """welfare_at, posterior_slope and the expected residual variance of p on
    v against 40 digits, for the maker at lam and the trader at a scaled
    beta; a target beyond the double range must come out as inf."""
    eq = solve_closed_form(p)
    lam, beta = eq.lam, eq.beta * beta_scale
    with mp.workdps(40):
        sv, su, se, l, b = (mp.mpf(x) for x in (p.sigma_v, p.sigma_u, p.sigma_eps, lam, beta))
        informed = b * sv * sv
        impact = l * (b * b * sv * sv + su * su)  # lam * Var(x + u)
        slope = informed / (b * b * sv * sv + su * su + se * se)
        resid_var = l * l * (su * su + se * se)
        want = {
            "pi_I": (informed * (1 - l * b), informed + impact),
            "pi_N": (-l * su * su, l * su * su),
            "pi_M": (impact - informed, informed + impact),
            "slope": (slope, slope),
            "resid_var": (resid_var, resid_var),
        }
    w = welfare_at(p, lam, beta)
    sample = simulate(p, replace(eq, beta=beta), SimConfig(100, 1))
    got = {
        "pi_I": w.pi_I,
        "pi_N": w.pi_N,
        "pi_M": w.pi_M,
        "slope": posterior_slope(p, beta),
        "resid_var": estimate_price_moments(sample, p).resid_var_expected,
    }
    for name, value in got.items():
        target, scale = want[name]
        if abs(target) > sys.float_info.max:
            assert value == math.copysign(math.inf, target), (name, p)
        else:
            assert abs(mp.mpf(value) - target) <= REF_RTOL * scale + 2 * TINY, (name, p, value, target)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 100-path sample moments overflow
@pytest.mark.parametrize("beta_scale", (1.0, 1.2))
@pytest.mark.parametrize("p", (
    MarketParams(1.0, 1.0, 1e160),
    MarketParams(1e160, 1.0),
    MarketParams(1.0, 1e-160, 1e-160),
), ids=("huge_eps", "huge_v", "tiny_noise"))
def test_simulation_targets_at_extreme_magnitudes(p, beta_scale):
    assert_simulation_targets_match(p, beta_scale)


def test_simulation_targets_on_grid(grid1000):
    for p in grid1000:
        for beta_scale in (1.0, 1.2):
            assert_simulation_targets_match(p, beta_scale)
