"""Independent extended-precision evaluation of the paper's closed forms.

The benchmark checks the library's outputs against these values.  They are
written from the formulas in the README, in mpmath at 40 digits, so they
neither share code with the library nor lose range at extreme magnitudes
(sigma_eps = 1e160 squares to 1e320, which a double cannot hold).

Every quantity comes with a scale: the size of the terms it is computed from.
A double-precision evaluation is accepted when it lies within RTOL of that
scale, so quantities that are a difference of large terms (d2 near the
inflection point, the net-of-fee P&L at large sigma_eps) are judged against
the rounding their own formula cannot avoid.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf, pi, sqrt

mp.dps = 40

RTOL = 1e-12
# Smallest positive double: a result that underflows is exact to this much.
TINY = mpf(5e-324)


def closed_forms(sigma_v: float, sigma_u: float, sigma_eps: float) -> dict[str, tuple[mpf, mpf]]:
    """Every closed-form quantity at (sigma_v, sigma_u, sigma_eps), as
    name -> (value, scale)."""
    sv, su, se = mpf(sigma_v), mpf(sigma_u), mpf(sigma_eps)
    s2 = su * su + se * se
    s = sqrt(s2)
    lam = sv / (2 * s)
    beta = s / sv
    pi_i = sv * s / 2
    pi_n = -sv * su * su / (2 * s)
    pi_m = -sv * se * se / (2 * s)
    d2_terms = sv * su * su / (2 * s2 ** mpf(2.5))
    abs_coef = sqrt(2 / pi)
    e_abs_x = sv / (2 * lam) * abs_coef
    e_abs_u = su * abs_coef
    q_total = e_abs_x + e_abs_u
    subsidy = -pi_m
    fee_rate = subsidy / q_total
    fee_i = fee_rate * e_abs_x
    fee_n = fee_rate * e_abs_u
    gap = se * se / (s + su)
    out = {
        "lam": lam,
        "beta": beta,
        "pi_I": pi_i,
        "pi_N": pi_n,
        "pi_M": pi_m,
        "subsidy": subsidy,
        "d1": sv * se * (2 * su * su + se * se) / (2 * s2 ** mpf(1.5)),
        "inflection": sqrt(2) * su,
        "low_privacy_coeff": sv / (2 * su),
        "high_privacy_slope": sv / 2,
        "e_abs_x": e_abs_x,
        "e_abs_u": e_abs_u,
        "q_total": q_total,
        "fee_rate": fee_rate,
        "fee_on_informed": fee_i,
        "fee_on_noise": fee_n,
        "gain_informed": sv * gap / 2,
        "gain_noise": sv * su * gap / (2 * s),
    }
    result = {k: (v, abs(v)) for k, v in out.items()}
    result["d2"] = (d2_terms * (2 * su * su - se * se), d2_terms * (2 * su * su + se * se))
    result["net_pi_I"] = (pi_i - fee_i, abs(pi_i) + abs(fee_i))
    result["net_pi_N"] = (pi_n - fee_n, abs(pi_n) + abs(fee_n))
    return result


def batched_targets(sigma_v: float, sigma_u: float, tau: int) -> dict[str, tuple[mpf, mpf]]:
    """Price impact and welfare triple of the batched market: the no-privacy
    market with sigma_u scaled by sqrt(tau)."""
    su = mpf(sigma_u) * sqrt(tau)
    half = mpf(sigma_v) * su / 2
    lam = mpf(sigma_v) / (2 * su)
    return {"lam": (lam, lam), "pi_I": (half, half), "pi_N": (-half, half), "pi_M": (mpf(0), half)}


def simulation_targets(sigma_v: float, sigma_u: float, sigma_eps: float, lam: float, beta: float):
    """Population values of the six Monte Carlo checks when the trader plays
    `beta` and the maker prices at `lam`: the P&L triple, the maker's
    posterior slope, and the slope and residual variance of p on v."""
    sv, su, se, lam, beta = (mpf(x) for x in (sigma_v, sigma_u, sigma_eps, lam, beta))
    sv2 = sv * sv
    pi_i = beta * sv2 * (1 - lam * beta)
    pi_n = -lam * su * su
    pi_m = lam * (beta * beta * sv2 + su * su) - beta * sv2
    scale = beta * sv2 + lam * (beta * beta * sv2 + su * su)
    slope = beta * sv2 / (beta * beta * sv2 + su * su + se * se)
    resid_var = lam * lam * (su * su + se * se)
    return {
        "pi_I": (pi_i, scale),
        "pi_N": (pi_n, abs(pi_n)),
        "pi_M": (pi_m, scale),
        "lambda_ols": (slope, abs(slope)),
        "price_slope": (lam * beta, abs(lam * beta)),
        "resid_var": (resid_var, resid_var),
    }


def agrees(got, want: tuple[mpf, mpf], rtol: float = RTOL) -> bool:
    """True when the double `got` is finite and within rtol of the scale of
    the extended-precision `want`."""
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    value, scale = want
    return abs(mpf(got) - value) <= rtol * scale + 2 * TINY


def mismatches(record: dict[str, float], forms: dict[str, tuple[mpf, mpf]], rtol: float = RTOL) -> list[str]:
    """Names of the fields of `record` that disagree with `forms`."""
    return [k for k, got in record.items() if not agrees(got, forms[k], rtol)]
