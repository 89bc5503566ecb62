"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import time

import mpmath as mp
import numpy as np

from conftest import oracle
from privacy_lab import (
    BatchParams,
    MarketParams,
    SimConfig,
    batched_equilibrium,
    break_even_fee,
    estimate_lambda_regression,
    estimate_price_moments,
    estimate_welfare,
    incremental_gains,
    privacy_subsidy,
    simulate,
    solve_closed_form,
    solve_fixed_point,
    subsidy_analysis,
    sweep,
    SweepSpec,
    verify_batched,
    verify_best_response,
    verify_simulation,
    welfare_decomposition,
    write_report_bundle,
)

SQRT2 = math.sqrt(2.0)

TABLE1_EXPECTED = {
    0.0: (0.500, 1.000, 0.000),
    0.5: (0.447, 1.118, 0.112),
    1.0: (0.354, 1.414, 0.354),
    SQRT2: (0.289, 1.732, 0.577),
    2.0: (0.224, 2.236, 0.894),
    3.0: (0.158, 3.162, 1.423),
    5.0: (0.098, 5.099, 2.451),
}
TABLE2_EXPECTED = {0.1: (15_000.0, 0.005), 0.5: (335_000.0, 0.112), 1.0: (1_060_000.0, 0.354),
                   SQRT2: (1_730_000.0, 0.577), 2.0: (2_680_000.0, 0.894)}

MC_CONFIGS = (
    MarketParams(1.0, 1.0, 0.0),
    MarketParams(1.0, 1.0, 1.0),
    MarketParams(1.0, 1.0, 2.0),
    MarketParams(3000.0, 1000.0, 1000.0),
)
MC_N = 1_000_000
MC_SEED = 42


def targets_match(checks, targets):
    """Each check's expected value equals its independently computed target,
    to 1e-12 relative, or absolute for a zero target."""
    return len(checks) == len(targets) and all(
        math.isclose(c.expected, t, rel_tol=1e-12, abs_tol=1e-12 if t == 0 else 0.0) for c, t in zip(checks, targets)
    )


def report(num, desc, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {desc}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_01_table1_reproduction():
    t0 = time.perf_counter()
    rows = sweep(SweepSpec(MarketParams(1.0, 1.0), tuple(sorted(TABLE1_EXPECTED)),
                           frozenset({"equilibrium", "welfare"})))
    ok = len(rows) == 7
    for row in rows:
        got = (round(row.lam, 3), round(row.beta, 3), round(row.subsidy, 3))
        ok &= got == TABLE1_EXPECTED[row.sigma_eps]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "dimensionless table: 7 rows exact after 3-decimal rounding", ok, f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_table2_reproduction(tmp_path):
    t0 = time.perf_counter()
    write_report_bundle(tmp_path)
    header, *lines = (tmp_path / "table2.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    ok = len(rows) == 5
    for row in rows:
        approx_usd, frac3 = TABLE2_EXPECTED[row["sigma_eps_over_sigma_u"]]
        ok &= abs(row["subsidy_usd_per_day"] - approx_usd) / approx_usd <= 0.01
        ok &= round(row["fraction_of_sigma_v_sigma_u"], 3) == frac3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(2, "BTC calibration: subsidies within 1%, fractions to 3 decimals", ok, f"{elapsed * 1e3:.0f} ms")


def test_criterion_03_fee_comparison_narrative(tmp_path):
    write_report_bundle(tmp_path)
    cmp = json.loads((tmp_path / "fee_comparison.json").read_text())
    ok = math.isclose(cmp["revenue_usd"], 1.0e6, rel_tol=1e-9)
    ok &= abs(cmp["subsidy_usd"] - 1.0607e6) / 1.0607e6 <= 0.01
    ok &= 5.0 <= cmp["shortfall_pct"] <= 7.0
    report(3, "fee revenue $1.0e6 vs subsidy ~$1.0607e6, shortfall in [5%, 7%]", ok,
           f"shortfall {cmp['shortfall_pct']:.2f}%")


def test_criterion_04_oracle_equivalence(grid1000):
    t0 = time.perf_counter()
    worst = 0.0
    for p in grid1000:
        lam_cf = solve_closed_form(p).lam
        lam_fp = solve_fixed_point(p).lam
        worst = max(worst, abs(lam_fp - lam_cf) / lam_cf)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(4, "closed form vs fixed point within 1e-12 on 1000-point grid", ok,
           f"worst {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_05_identity_suite(grid1000):
    worst = 0.0
    for p in grid1000:
        eq = solve_closed_form(p)
        worst = max(worst, abs(eq.lam * eq.beta - 0.5) / 0.5)

        w = welfare_decomposition(p)
        worst = max(worst, abs(w.pi_I + w.pi_N + w.pi_M) / w.pi_I)

        fee = break_even_fee(p)
        target = p.sigma_v * p.sigma_u / 2.0
        scale = max(w.pi_I, target)  # natural magnitude of the subtracted terms
        worst = max(worst, abs(fee.net_pi_I - target) / scale, abs(fee.net_pi_N + target) / scale)

        gain_i, gain_n = incremental_gains(p)
        sub = privacy_subsidy(p)
        if sub > 0:
            worst = max(
                worst,
                abs(fee.fee_on_informed - gain_i) / gain_i,
                abs(fee.fee_on_noise - gain_n) / gain_n,
                abs(fee.fee_on_informed + fee.fee_on_noise - sub) / sub,
            )
    ok = worst <= 1e-12
    report(5, "lam*beta, zero-sum, fee-neutrality and fee-burden identities to 1e-12", ok, f"worst {worst:.2e}")


def test_criterion_06_derivative_suite(grid1000):
    # central differences of bench/oracle.py's subsidy at step
    # 1e-5*sigma_u, evaluated at 60 digits because the float64
    # roundoff floor at that step (~1e-5 relative on d2) sits above the
    # 1e-6 acceptance tolerance
    def subsidy_mp(p, se):
        return oracle.closed_forms(p.sigma_v, p.sigma_u, se)["subsidy"][0]

    worst_d1 = worst_d2 = 0.0
    with mp.workdps(60):
        for p in grid1000:
            a = subsidy_analysis(p)
            h = mp.mpf(1e-5) * mp.mpf(p.sigma_u)
            se0 = mp.mpf(p.sigma_eps)
            f_hi, f_lo, f_0 = subsidy_mp(p, se0 + h), subsidy_mp(p, se0 - h), subsidy_mp(p, se0)
            fd1 = float((f_hi - f_lo) / (2 * h))
            fd2 = float((f_hi - 2 * f_0 + f_lo) / h**2)
            if a.d1 != 0.0:
                worst_d1 = max(worst_d1, abs(a.d1 - fd1) / abs(a.d1))
            if a.d2 != 0.0:
                worst_d2 = max(worst_d2, abs(a.d2 - fd2) / abs(a.d2))
    ok = worst_d1 <= 1e-6 and worst_d2 <= 1e-6

    bracket_ok = True
    for sv, su in ((1.0, 1.0), (3000.0, 1000.0), (1e-3, 1e3), (1e3, 1e-3), (1e-3, 1e-3), (1e3, 1e3)):
        star = SQRT2 * su
        bracket_ok &= subsidy_analysis(MarketParams(sv, su, star * (1.0 - 1e-6))).d2 > 0.0
        bracket_ok &= subsidy_analysis(MarketParams(sv, su, star * (1.0 + 1e-6))).d2 < 0.0
    ok &= bracket_ok
    report(6, "analytic d1/d2 vs central differences within 1e-6; inflection bracketed", ok,
           f"worst d1 {worst_d1:.2e}, d2 {worst_d2:.2e}")


def test_criterion_07_monte_carlo_verification():
    ok = True
    details = []
    for params in MC_CONFIGS:
        t0 = time.perf_counter()
        eq = solve_closed_form(params)
        checks = verify_simulation(params, eq, SimConfig(MC_N, MC_SEED))
        w = welfare_decomposition(params)
        ok &= targets_match(checks, (w.pi_I, w.pi_N, w.pi_M, eq.lam, 0.5, params.sigma_v**2 / 4.0))
        worst_z = max(c.z for c in checks)
        elapsed = time.perf_counter() - t0
        ok &= worst_z <= 3.0 and all(c.passed for c in checks) and elapsed < 10.0
        details.append(f"z<={worst_z:.2f} in {elapsed:.1f}s")
    report(7, "MC welfare/slope/price checks within 3 se at n=1e6 for 4 configs", ok, "; ".join(details))


def test_criterion_08_batched_variant():
    base = MarketParams(1.0, 1.0)
    ok = True
    details = []
    for tau in (1, 4, 16):
        bp = BatchParams(base, tau)
        ok &= batched_equilibrium(bp).lam == base.sigma_v / (2.0 * (base.sigma_u * math.sqrt(tau)))
        checks = verify_batched(bp, SimConfig(MC_N, MC_SEED))
        target_informed = 0.5 * base.sigma_v * base.sigma_u * math.sqrt(tau)
        ok &= targets_match(checks, (target_informed, -target_informed, 0.0))
        ok &= all(c.z <= 3.0 and c.passed for c in checks)
        informed, noise, maker = checks
        details.append(f"tau={tau}: z_M={maker.z:.2f}, z_I={informed.z:.2f}, z_N={noise.z:.2f}")
    report(8, "batched market: pi_M ~ 0, pi_I = -pi_N ~ sigma_v*sigma_u*sqrt(tau)/2, exact lam", ok,
           "; ".join(details))


def test_criterion_09_best_response_argmax():
    rng = np.random.default_rng(314159)
    ok = True
    details = []
    for trial in range(5):
        sv = 10.0 ** rng.uniform(-1, 1)
        su = 10.0 ** rng.uniform(-1, 1)
        se = float(rng.uniform(0.0, 2.0)) * su
        p0 = float(rng.normal(0.0, 10.0))
        params = MarketParams(sv, su, se, p0=p0)
        eq = solve_closed_form(params)
        v = p0 + sv * float(rng.normal())
        chk = verify_best_response(params, eq, v, grid_halfwidth=0.5, n_grid=21,
                                   cfg=SimConfig(MC_N, 1000 + trial))
        within = abs(chk.argmax_x - chk.x_star) <= chk.grid_step * (1.0 + 1e-12)
        ok &= within
        details.append(f"|argmax-x*|/step={abs(chk.argmax_x - chk.x_star) / chk.grid_step:.2f}")
    report(9, "profit-curve argmax within one grid step of x* for 5 random draws", ok, "; ".join(details))


def test_criterion_10_asymptotics():
    ok = True
    for sv, su in ((1.0, 1.0), (1.7, 0.9), (3000.0, 1000.0)):
        se = 1e4 * su
        slope = privacy_subsidy(MarketParams(sv, su, se)) / se
        ok &= abs(slope - sv / 2.0) / (sv / 2.0) <= 1e-3
        quad_coef = sv / (2.0 * su)
        remainder_coef = sv / (4.0 * su**3)
        for k in (0.1, 0.01, 0.001):
            eps = k * su
            remainder = abs(privacy_subsidy(MarketParams(sv, su, eps)) - quad_coef * eps**2)
            ok &= abs(remainder / eps**4 - remainder_coef) <= 0.05 * remainder_coef
    report(10, "high-privacy slope sv/2 within 1e-3; quadratic Taylor coefficient checks", ok)


def test_criterion_11_determinism_across_thread_caps(monkeypatch):
    params = MarketParams(1.0, 1.0, 1.0)
    eq = solve_closed_form(params)
    cfg = SimConfig(500_000, 7, chunk_size=32_768)

    def run_all():
        sample = simulate(params, eq, cfg)
        return (
            (estimate_welfare(sample), estimate_lambda_regression(sample), estimate_price_moments(sample)),
            verify_simulation(params, eq, cfg),
            verify_batched(BatchParams(params, 4), cfg),
        )

    monkeypatch.setenv("PRIVACY_LAB_THREADS", "1")
    serial = run_all()
    monkeypatch.setenv("PRIVACY_LAB_THREADS", "6")
    threaded = run_all()
    ok = serial == threaded
    report(11, "identical estimates and checks for thread caps 1 and 6 at the same seed", ok)
