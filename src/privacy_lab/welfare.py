"""Per-agent welfare accounting and the break-even fee under privacy noise.

All quantities are per-period expectations at the closed-form equilibrium.
The maker prices on a signal strictly coarser than the executed flow, so it
runs an expected loss pi_M <= 0 against that flow; |pi_M| is the transfer
from the protocol/LP pool to traders and doubles as the fee floor any
privacy-aggregated exchange must collect to break even.

Sign convention: pi_M is the maker's (non-positive) profit; the subsidy is
-pi_M >= 0.  Both are exposed to keep signs unambiguous across modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .equilibrium import MarketParams, _closed_forms


@dataclass(frozen=True)
class WelfareDecomposition:
    """Expected per-period P&L of each agent; the three sum to zero.

    pi_I: informed trader (>= 0), pi_N: noise traders (<= 0),
    pi_M: maker/protocol (<= 0, zero iff sigma_eps = 0).
    """

    pi_I: float
    pi_N: float
    pi_M: float


@dataclass(frozen=True)
class SubsidyAnalysis:
    """Shape of the subsidy |pi_M| as a function of sigma_eps.

    d1/d2 are the first/second derivatives in sigma_eps; the curve is convex
    below `inflection` = sqrt(2)*sigma_u and concave above it.
    `low_privacy_coeff` is the quadratic small-noise coefficient
    sigma_v/(2*sigma_u); `high_privacy_slope` is the linear large-noise slope
    sigma_v/2.
    """

    subsidy: float
    d1: float
    d2: float
    inflection: float
    low_privacy_coeff: float
    high_privacy_slope: float


@dataclass(frozen=True)
class FeeBreakEven:
    """Volume-proportional break-even fee and its incidence.

    fee_rate = subsidy / (E|x| + E|u|); charged on expected absolute volumes
    it exactly cancels each trader type's gain over the no-privacy baseline,
    so the net P&L reverts to +/- sigma_v*sigma_u/2.
    """

    e_abs_x: float
    e_abs_u: float
    q_total: float
    fee_rate: float
    fee_on_informed: float
    fee_on_noise: float
    net_pi_I: float
    net_pi_N: float


def _project(record_type, params: MarketParams):
    """A `record_type` whose fields are read from the closed forms at `params`."""
    forms = _closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)
    return record_type(**{f.name: forms[f.name] for f in fields(record_type)})


def welfare_decomposition(params: MarketParams) -> WelfareDecomposition:
    """Closed-form per-agent expected P&L at equilibrium.

    pi_I = sigma_v*s/2, pi_N = -sigma_v*sigma_u^2/(2s),
    pi_M = -sigma_v*sigma_eps^2/(2s), with s = sqrt(sigma_u^2 + sigma_eps^2).
    """
    return _project(WelfareDecomposition, params)


def welfare_at(params: MarketParams, lam: float, beta: float) -> WelfareDecomposition:
    """Expected P&L triple when the maker prices at slope `lam` and the
    trader uses coefficient `beta`, not necessarily the equilibrium pair.

    Used to predict what a simulation with a perturbed strategy should
    report.  At the equilibrium pair this reduces to welfare_decomposition.

    With b = beta*sigma_v, the std dev of the informed order:
    pi_I = b*sigma_v*(1 - lam*beta), pi_N = -lam*sigma_u^2 and
    pi_M = lam*(b^2 + sigma_u^2) - b*sigma_v, each evaluated as a product of
    a price-scale factor (lam*.., sigma_v) and a flow-scale one (b, sigma_u,
    hypot(b, sigma_u)), so that no sigma is squared on its own.
    """
    if lam <= 0 or beta <= 0:
        raise ValueError(f"lam and beta must be > 0, got lam={lam!r}, beta={beta!r}")
    sv, su = params.sigma_v, params.sigma_u
    b = beta * sv
    flow = math.hypot(b, su)
    pi_I = b * sv * (1.0 - lam * beta)
    pi_N = -(lam * su) * su
    pi_M = (lam * flow) * flow - b * sv
    return WelfareDecomposition(pi_I=pi_I, pi_N=pi_N, pi_M=pi_M)


def privacy_subsidy(params: MarketParams) -> float:
    """Per-period transfer |pi_M| = sigma_v*sigma_eps^2/(2*sqrt(sigma_u^2+sigma_eps^2))
    from the protocol/LP pool to traders; zero iff sigma_eps = 0.
    """
    return _closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)["subsidy"]


def subsidy_analysis(params: MarketParams) -> SubsidyAnalysis:
    """Subsidy level, analytic derivatives in sigma_eps, and regime markers.

    d1 = sigma_v*sigma_eps*(2*sigma_u^2 + sigma_eps^2) / (2*(sigma_u^2+sigma_eps^2)^(3/2))
    d2 = sigma_v*sigma_u^2*(2*sigma_u^2 - sigma_eps^2) / (2*(sigma_u^2+sigma_eps^2)^(5/2))

    d1 > 0 for sigma_eps > 0, and d2 changes sign exactly at
    sigma_eps = sqrt(2)*sigma_u.
    """
    return _project(SubsidyAnalysis, params)


def noise_pnl_derivative(params: MarketParams) -> float:
    """d pi_N / d sigma_eps = sigma_v*sigma_u^2*sigma_eps / (2*(sigma_u^2+sigma_eps^2)^(3/2)).

    Strictly positive for sigma_eps > 0: noise traders lose less as the
    maker's signal gets coarser.
    """
    return _closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)["noise_pnl_derivative"]


def incremental_gains(params: MarketParams) -> tuple[float, float]:
    """Exact gains of each trader type over the sigma_eps = 0 baseline.

    informed: pi_I(sigma_eps) - pi_I(0) = sigma_v*(s - sigma_u)/2
    noise:    pi_N(sigma_eps) - pi_N(0) = sigma_v*sigma_u*(s - sigma_u)/(2s)

    with s = sqrt(sigma_u^2 + sigma_eps^2).  Evaluated through the
    rationalized form s - sigma_u = sigma_eps^2/(s + sigma_u), which avoids
    the cancellation the naive difference suffers for small sigma_eps.
    """
    forms = _closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)
    return forms["gain_informed"], forms["gain_noise"]


def break_even_fee(params: MarketParams) -> FeeBreakEven:
    """Break-even volume-proportional fee and the net-of-fee P&L.

    Expected absolute volumes at equilibrium are
    E|x| = (sigma_v/(2*lam))*sqrt(2/pi) and E|u| = sigma_u*sqrt(2/pi);
    the break-even rate is f = |pi_M| / (E|x| + E|u|).
    """
    return _project(FeeBreakEven, params)
