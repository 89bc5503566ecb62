"""Identities of the closed forms, and their accuracy at any magnitude.

Hypothesis checks the scale covariance, lam*beta = 1/2, the zero-sum split,
fee neutrality, the informed trader's best response and the no-privacy
price impact over sigmas spanning 200 orders of magnitude, that every
sweep row holds the point functions' values bit for bit, and that the Monte
Carlo best-response check scales exactly under power-of-two rescaling.
`bench/oracle.py`, the one 40-digit mpmath reference that the tests and the
bench share, checks every public closed-form record, on the conftest grid
and at magnitudes where a naive double evaluation overflows or underflows;
it also checks every target of `_play_forms`, which the Monte Carlo checks
are judged against, there and over the same 200 orders of magnitude, and
the batched market's price impact and welfare targets on the grid.  In the
unit region, sigma_v and the larger noise sigma in [1, 2), every field and
target is checked against it as well.  The simulator's statistics are those
of the run at p0 = 0 bit for bit, but for the price level in two means.
Every numeric argument of the parameter types and of the functions that take
their own rejects a bad value with a ParamError naming that argument, and a
real field given an int holds the equal float.
"""

import math
import sys
from dataclasses import astuple, fields, replace
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from conftest import oracle
from privacy_lab import (
    BatchParams,
    Equilibrium,
    InconclusiveResolution,
    MarketParams,
    ParamError,
    SimConfig,
    batched_equilibrium,
    break_even_fee,
    incremental_gains,
    posterior_slope,
    privacy_subsidy,
    simulate,
    solve_closed_form,
    solve_fixed_point,
    subsidy_analysis,
    sweep,
    SweepSpec,
    verify_batched,
    verify_best_response,
    welfare_at,
    welfare_decomposition,
)
from privacy_lab.equilibrium import _play_forms
from privacy_lab.report import regime_label

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


@PROPERTY
@given(magnitude, magnitude, sigma_eps, st.floats(0.01, 10.0), st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 1.0))
def test_best_response_maximizes_profit(sv, su, se, z, sign, d):
    # given v, an order x earns (v - p0)*x - lam*x^2 in expectation; the best
    # response x* earns (v - p0)^2/(4*lam), more than x*(1 -+ d) for d > 0,
    # and averaged over v that is the closed-form informed profit
    p = MarketParams(sv, su, se)
    lam = solve_closed_form(p).lam
    edge = sign * z * sv  # v - p0

    def profit(x):
        return edge * x - lam * x * x

    x_star = edge / (2.0 * lam)  # (v - p0)/(2*lam), as verify_best_response centres its grid
    peak = profit(x_star)
    assert close(peak, edge * (edge / (4.0 * lam)))
    assert peak > max(profit(x_star * (1.0 - d)), profit(x_star * (1.0 + d)))
    assert close(welfare_decomposition(p).pi_I, sv * (sv / (4.0 * lam)))


def best_response_or_inconclusive(params, v):
    try:
        return verify_best_response(params, solve_closed_form(params), v, 0.5, 5, SimConfig(2000, 11))
    except InconclusiveResolution:
        return None


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(
    st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.integers(-200, 200), st.integers(-200, 200),
)
def test_best_response_is_power_of_two_covariant(sv, su, se, v, p0, j, k):
    # value side times 2**j and noise side times 2**k: lam scales by 2**(j - k),
    # the order sizes by 2**k and the profits by 2**(j + k), all exactly; the
    # resolution rule compares order sizes with order sizes and profits with
    # profits, so both runs resolve or neither does
    base = best_response_or_inconclusive(MarketParams(sv, su, se, p0), v)
    scaled = best_response_or_inconclusive(
        MarketParams(math.ldexp(sv, j), math.ldexp(su, k), math.ldexp(se, k), math.ldexp(p0, j)), math.ldexp(v, j)
    )
    if base is None or scaled is None:
        assert base is scaled
        return

    def times(xs, e):
        return [math.ldexp(float(x), e) for x in xs]

    for field in ("x_star", "grid_step", "argmax_x"):
        assert getattr(scaled, field) == math.ldexp(getattr(base, field), k), field
    assert scaled.grid.tolist() == times(base.grid, k)
    for field in ("analytic", "estimates", "ses"):
        assert getattr(scaled, field).tolist() == times(getattr(base, field), j + k), field
    assert scaled.n_paths == base.n_paths


@PROPERTY
@given(magnitude, magnitude)
def test_no_privacy_price_impact_is_the_executed_flow_slope(sv, su):
    # sigma_v/(2*sigma_u) breaks even against the executed flow; with
    # sigma_eps = 0 the maker sees that flow, so it is the equilibrium lam
    assert close(solve_closed_form(MarketParams(sv, su, 0.0)).lam, sv / (2.0 * su), rtol=1e-15)


@PROPERTY
@given(
    st.floats(0.0, 100.0).map(lambda e: 10.0**e),
    st.floats(300.0, math.log10(1.7e308)).map(lambda e: 10.0**e),
    magnitude,
    st.booleans(),
)
def test_halved_forms_near_the_double_limit(sv, big, small, big_privacy):
    # 2*hypot(sigma_u, sigma_eps) and 2*sigma_u overflow past ~9e307; the
    # forms that halve a ratio by them must not
    p = MarketParams(sv, small, big) if big_privacy else MarketParams(sv, big, small)
    forms = oracle.closed_forms(p.sigma_v, p.sigma_u, p.sigma_eps)
    eq, analysis = solve_closed_form(p), subsidy_analysis(p)
    got = {"lam": eq.lam, "beta": eq.beta, "d2": analysis.d2, "low_privacy_coeff": analysis.low_privacy_coeff}
    assert oracle.mismatches(got, forms, REF_RTOL) == [], p


# the ReportRow fields each sweep output group populates
SWEEP_GROUPS = {
    "equilibrium": ("lam", "beta"),
    "welfare": ("pi_I", "pi_N", "pi_M", "subsidy"),
    "subsidy_analysis": ("subsidy", "d1", "d2"),
    "fee": ("fee_rate",),
}


@PROPERTY
@given(
    magnitude,
    magnitude,
    st.lists(sigma_eps, min_size=1, max_size=6, unique=True),
    st.sets(st.sampled_from(sorted(SWEEP_GROUPS)), min_size=1),
)
def test_sweep_rows_equal_the_point_records(sv, su, values, outputs):
    # sweep picks each row's fields from the kernel tuple by position; every
    # populated field must be the point functions' value, bit for bit
    spec = SweepSpec(MarketParams(sv, su), tuple(sorted(values)), frozenset(outputs))
    populated = {f for kind in outputs for f in SWEEP_GROUPS[kind]}
    rows = sweep(spec)
    assert [row.sigma_eps for row in rows] == sorted(values)
    for row in rows:
        p = MarketParams(sv, su, row.sigma_eps)
        eq, welfare, analysis, fee = solve_closed_form(p), welfare_decomposition(p), subsidy_analysis(p), break_even_fee(p)
        want = {
            "lam": eq.lam,
            "beta": eq.beta,
            "pi_I": welfare.pi_I,
            "pi_N": welfare.pi_N,
            "pi_M": welfare.pi_M,
            "subsidy": analysis.subsidy,
            "d1": analysis.d1,
            "d2": analysis.d2,
            "fee_rate": fee.fee_rate,
        }
        assert row.note == regime_label(row.sigma_eps, su)
        for name, value in want.items():
            got = getattr(row, name)
            if name in populated:
                assert got.hex() == value.hex(), (name, p)
            else:
                assert got is None, (name, outputs)


def records(p: MarketParams) -> dict[str, float]:
    """Every field of every public closed-form record at `p`."""
    eq = solve_closed_form(p)
    out = {"lam": eq.lam, "beta": eq.beta}
    out.update(vars(welfare_decomposition(p)))
    out.update(vars(subsidy_analysis(p)))
    out.update(vars(break_even_fee(p)))
    out["gain_informed"], out["gain_noise"] = incremental_gains(p)
    assert privacy_subsidy(p) == out["subsidy"]
    return out


def assert_matches_reference(p: MarketParams) -> None:
    forms = oracle.closed_forms(p.sigma_v, p.sigma_u, p.sigma_eps)
    got = records(p)
    assert got.keys() == forms.keys()
    assert oracle.mismatches(got, forms, REF_RTOL) == [], p


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
    lam, _ = oracle.closed_forms(p.sigma_v, p.sigma_u, p.sigma_eps)["lam"]
    fp = solve_fixed_point(p)
    assert abs(fp.lam - lam) <= 1e-12 * lam
    assert fp.beta == 1.0 / (2.0 * fp.lam)


wide = st.floats(-200.0, 200.0).map(lambda e: 10.0**e)


def outcome(solve, p: MarketParams):
    """The solver's Equilibrium, or the field its ParamError names."""
    try:
        return solve(p)
    except ParamError as exc:
        return exc.field


@PROPERTY
@given(wide, wide, st.one_of(st.just(0.0), wide))
def test_fixed_point_fails_where_the_closed_form_does(sv, su, se):
    # lam = sigma_v/(2*hypot(sigma_u, sigma_eps)) leaves the double range for
    # such sigmas; the fixed point then names the field the closed form does
    p = MarketParams(sv, su, se)
    closed, fp = outcome(solve_closed_form, p), outcome(solve_fixed_point, p)
    if isinstance(fp, str):
        assert fp == closed
    else:
        assert not isinstance(closed, str)
        assert abs(fp.lam - closed.lam) <= 1e-12 * closed.lam + 2 * TINY  # a subnormal lam rounds absolutely


@PROPERTY
@given(wide, wide.flatmap(lambda su: st.tuples(st.just(su), st.one_of(st.just(0.0), st.just(su), wide))))
def test_fixed_point_within_ulps_of_the_closed_form(sv, su_se):
    # sigma_eps in {0, sigma_u, any} puts the unit noise variance at 1, at 2
    # and between them
    p = MarketParams(sv, *su_se)
    fp = outcome(solve_fixed_point, p)
    if not isinstance(fp, str):  # where it fails, the test above checks it fails as the closed form does
        lam = solve_closed_form(p).lam
        assert abs(fp.lam - lam) <= 8 * math.ulp(lam) + 2 * TINY  # a subnormal lam rounds absolutely


def assert_simulation_targets_match(p: MarketParams, beta_scale: float) -> None:
    """Every Monte Carlo target of `_play_forms` against 40 digits, for the
    maker at lam and the trader at a scaled beta; a target beyond the double
    range must come out as inf.  The oracle names the targets in the order
    `_play_forms` returns them."""
    eq = solve_closed_form(p)
    lam, beta = eq.lam, eq.beta * beta_scale
    want = oracle.simulation_targets(p.sigma_v, p.sigma_u, p.sigma_eps, lam, beta)
    got = _play_forms(p.sigma_v, p.sigma_u, p.sigma_eps, lam, beta)
    for value, (name, target) in zip(got, want.items(), strict=True):
        if abs(target[0]) > sys.float_info.max:
            assert value == math.copysign(math.inf, target[0]), (name, p)
        else:
            assert oracle.agrees(value, target, REF_RTOL), (name, p, value, target[0])


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


@PROPERTY
@given(magnitude, magnitude, sigma_eps, st.sampled_from((0.5, 1.0, 1.2, 2.0)))
def test_simulation_targets_match_the_reference(sv, su, se, beta_scale):
    # at beta_scale 2 the trader's lam*beta is 1, so pi_I is 0 up to rounding
    assert_simulation_targets_match(MarketParams(sv, su, se), beta_scale)


unit = st.floats(1.0, 2.0, exclude_max=True)


@PROPERTY
@given(unit, unit, st.floats(-323.0, 0.0).map(lambda e: 10.0**e), st.integers(0, 99))
def test_reference_in_the_unit_region(sv, big, small, case):
    # sigma_v and the larger noise sigma in [1, 2), the smaller log-uniform in
    # [1e-323, 1] in either order, and sigma_eps = 0 one time in 50: scaling
    # by powers of two takes every input into these two families.  The
    # oracle's net_pi_* is not used: each is +-sigma_v*sigma_u/2 exactly.
    su, se = (big, 0.0) if case < 2 else (big, small) if case % 2 else (small, big)
    p = MarketParams(sv, su, se)
    forms = oracle.closed_forms(sv, su, se)
    classical = mpf(sv) * mpf(su) / 2
    forms["net_pi_I"], forms["net_pi_N"] = (classical, classical), (-classical, classical)
    # a true value beyond the double range, such as low_privacy_coeff at a
    # subnormal sigma_u, is the output boundary's business
    got = {k: v for k, v in records(p).items() if abs(forms[k][0]) <= sys.float_info.max}
    assert oracle.mismatches(got, forms, REF_RTOL) == [], p
    assert_simulation_targets_match(p, 1.0)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from((0.0, 1.3)), st.integers(1, 5000))
@example(1e16, 1.3, 4096)
@example(1e300, 1.3, 4096)
@example(-1e300, 0.0, 4096)
def test_price_level_enters_only_the_price_means(p0, sigma_eps, chunk_size):
    # the simulator plays v - p0: every m2, co-moment and P&L mean is that of
    # the run at p0 = 0 bit for bit, and price_value's means are p0 plus its means
    centred = MarketParams(2.0, 0.7, sigma_eps)
    eq, cfg = solve_closed_form(centred), SimConfig(3000, 5, chunk_size)
    base = simulate(centred, eq, cfg)
    level = simulate(replace(centred, p0=p0), eq, cfg)
    prices = base.stats.price_value
    assert level.stats.price_value.mean_x == p0 + prices.mean_x
    assert level.stats.price_value.mean_y == p0 + prices.mean_y
    means = {"mean_x": level.stats.price_value.mean_x, "mean_y": level.stats.price_value.mean_y}
    assert repr(level.stats) == repr(replace(base.stats, price_value=replace(prices, **means)))
    # so are the replayed paths, but for their v and p
    for i in (0, cfg.n_paths - 1):
        v, *flows, p = astuple(base.path(i))
        assert astuple(level.path(i)) == (p0 + v, *flows, p0 + p)


@pytest.mark.parametrize("tau", (1, 4, 16))
def test_batched_targets_on_grid(grid1000, tau):
    # a two-path run is enough to read each check's expected value
    for p in grid1000[:100]:
        bp = BatchParams(MarketParams(p.sigma_v, p.sigma_u, p0=1.0), tau)
        got = {"lam": batched_equilibrium(bp).lam}
        got.update((c.name.replace("π", "pi"), c.expected) for c in verify_batched(bp, SimConfig(2, 0)))
        want = oracle.batched_targets(p.sigma_v, p.sigma_u, tau)
        assert got.keys() == want.keys()
        assert oracle.mismatches(got, want, REF_RTOL) == [], (p, tau)


UNIT = MarketParams(1.0, 1.0, 0.5)
REAL, INTEGER = "real", "integer"


def sweep_values(sigma_eps_values):
    return sweep(SweepSpec(UNIT, sigma_eps_values))


# Each callable with ordinary values of its numeric arguments, and the rule of
# each: (REAL, low, strict) for a finite float > low (>= low unless strict,
# unbounded when low is None), (INTEGER, low) for an int >= low.
CALLS = (
    (MarketParams, {"sigma_v": 1.0, "sigma_u": 1.0, "sigma_eps": 0.5, "p0": 0.0},
     {"sigma_v": (REAL, 0, True), "sigma_u": (REAL, 0, True), "sigma_eps": (REAL, 0, False), "p0": (REAL, None, True)}),
    (Equilibrium, {"lam": 0.5, "beta": 1.0}, {"lam": (REAL, 0, True), "beta": (REAL, 0, True)}),
    (partial(BatchParams, UNIT), {"tau": 4}, {"tau": (INTEGER, 1)}),
    (SimConfig, {"n_paths": 1000, "seed": 7, "chunk_size": 256},
     {"n_paths": (INTEGER, 1), "seed": (INTEGER, 0), "chunk_size": (INTEGER, 1)}),
    (partial(welfare_at, UNIT), {"lam": 0.5, "beta": 1.0}, {"lam": (REAL, 0, True), "beta": (REAL, 0, True)}),
    (partial(posterior_slope, UNIT), {"beta": 1.0}, {"beta": (REAL, 0, True)}),
    (sweep_values, {"sigma_eps_values": (0.5, 1.0)}, {"sigma_eps_values": (REAL, 0, False)}),
    (partial(verify_best_response, UNIT, solve_closed_form(UNIT), cfg=SimConfig(2000, 7)),
     {"v": 1.0, "grid_halfwidth": 0.5, "n_grid": 21},
     {"v": (REAL, None, True), "grid_halfwidth": (REAL, 0, True), "n_grid": (INTEGER, 3)}),
)
FIELDS = [(call, ordinary, field, rule) for call, ordinary, rules in CALLS for field, rule in rules.items()]
NOT_A_NUMBER = st.sampled_from(["1", "", None, True, False, [1.0], 1j])
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def bad_values(rule) -> st.SearchStrategy:
    """Values that break `rule`: not a number (a bool is not one), not
    finite, past the double range or not an integer, or just outside the bound."""
    if rule[0] == INTEGER:
        low = rule[1]
        fractional = st.floats(-1e15, 1e15).filter(lambda x: x != int(x))
        return NOT_A_NUMBER | NOT_FINITE | fractional | st.sampled_from([float(low), low - 1, -(10**400)])
    _, low, strict = rule
    beyond = st.sampled_from([10**400, -(10**400), 2**1024])
    if low is None:
        return NOT_A_NUMBER | NOT_FINITE | beyond
    edge = low if strict else math.nextafter(low, -math.inf)
    return NOT_A_NUMBER | NOT_FINITE | beyond | st.sampled_from([edge, low - 1]) | st.floats(-1e300, edge)


@pytest.mark.parametrize(
    "call,ordinary,field,rule", FIELDS, ids=[f"{getattr(c, 'func', c).__name__}-{f}" for c, _, f, _ in FIELDS]
)
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_one_bad_argument_raises_a_param_error_naming_it(call, ordinary, field, rule, data):
    bad = data.draw(bad_values(rule), label=field)
    if field == "sigma_eps_values":
        bad = (bad, 1.0)  # one bad value among ordinary ones
    with pytest.raises(ParamError) as exc:
        call(**{**ordinary, field: bad})
    assert exc.value.field == field


@PROPERTY
@given(
    st.integers(1, 10**300),
    st.integers(1, 10**300),
    st.integers(0, 10**300),
    st.integers(-(10**300), 10**300),
    st.integers(1, 2**64),
)
def test_int_fields_hold_the_equal_float(sv, su, se, p0, lam):
    ints, floats = MarketParams(sv, su, se, p0), MarketParams(float(sv), float(su), float(se), float(p0))
    assert [type(getattr(ints, f.name)) for f in fields(MarketParams)] == [float] * 4
    assert ints == floats
    assert {k: v.hex() for k, v in records(ints).items()} == {k: v.hex() for k, v in records(floats).items()}
    eq = Equilibrium(lam, 1)
    assert (type(eq.lam), type(eq.beta)) == (float, float) and eq == Equilibrium(float(lam), 1.0)
    assert sweep_values((se, 2 * se + 1)) == sweep_values((float(se), float(2 * se + 1)))
