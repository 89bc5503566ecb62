"""Linear equilibrium of the one-period trading game with a privacy-noised maker.

One informed trader observes the terminal value v ~ N(p0, sigma_v^2) and
submits x = beta*(v - p0); noise traders add u ~ N(0, sigma_u^2); the market
maker prices the flow signal it observes, which is y_tilde = x + u + eps with
independent privacy noise eps ~ N(0, sigma_eps^2), at the posterior mean
p = p0 + lambda*y_tilde.

The module solves for the equilibrium pair (lambda, beta) two independent
ways: in closed form, and numerically as the fixed point of the posterior
projection composed with the trader's best response.  The fixed-point route
never touches the closed form, so the two can cross-check each other.

Every closed form of the model (equilibrium, welfare split, subsidy and its
derivatives, break-even fee) comes from the one kernel `_closed_forms`; the
welfare and report modules read their records from it.  The parameter types
check themselves on construction, so no function re-validates its inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    NegativeSigmaEps,
    NoConvergence,
    NonFiniteInput,
    NonPositiveSigmaU,
    NonPositiveSigmaV,
    ParamError,
)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

SQRT2 = math.sqrt(2.0)

# E|X| = std * sqrt(2/pi) for a centered Gaussian X
ABS_MOMENT_COEF = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class MarketParams:
    """Model primitives, checked on construction.

    sigma_v: std dev of the terminal value (currency units), > 0.
    sigma_u: std dev of the noise-trader flow (asset units), > 0.
    sigma_eps: std dev of the additive privacy noise on the maker's
        flow observation (asset units), >= 0.  Zero means the maker
        sees the executed flow exactly.
    p0: common prior mean of the value; only differences v - p0 enter
        the math, so any finite level (including 0 or negative) is fine.

    Raises NonFiniteInput / NonPositiveSigmaV / NonPositiveSigmaU /
    NegativeSigmaEps, each naming the offending field.  Never clamps.
    """

    sigma_v: float
    sigma_u: float
    sigma_eps: float = 0.0
    p0: float = 0.0

    def __post_init__(self) -> None:
        for field in ("p0", "sigma_v", "sigma_u", "sigma_eps"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise NonFiniteInput(field, value)
        if self.sigma_v <= 0:
            raise NonPositiveSigmaV(self.sigma_v)
        if self.sigma_u <= 0:
            raise NonPositiveSigmaU(self.sigma_u)
        if self.sigma_eps < 0:
            raise NegativeSigmaEps(self.sigma_eps)


class SolveMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    FIXED_POINT = "fixed_point"


@dataclass(frozen=True)
class Equilibrium:
    """A linear-equilibrium pair: price-impact slope and trader coefficient.

    `method` records which solver produced it so reports can show
    oracle cross-checks.  Solver outputs satisfy lam * beta = 1/2; a
    deliberately perturbed copy (for off-equilibrium simulation) need not.
    Both coefficients must be finite and > 0; a violation raises a
    ParamError naming `lam` or `beta`.
    """

    lam: float
    beta: float
    method: SolveMethod

    def __post_init__(self) -> None:
        for field in ("lam", "beta"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise NonFiniteInput(field, value)
            if value <= 0:
                raise ParamError(field, f"{field} must be > 0, got {value!r}")


@dataclass(frozen=True)
class BatchParams:
    """A batched market: `tau` periods of noise flow clear at one price."""

    base: MarketParams
    tau: int

    def __post_init__(self) -> None:
        if not isinstance(self.tau, int) or self.tau < 1:
            raise ParamError("tau", f"tau must be an integer >= 1, got {self.tau!r}")


def _closed_forms(sigma_v: float, sigma_u: float, sigma_eps: float) -> dict[str, float]:
    """Every closed-form quantity of the equilibrium in one pass, by name, for
    valid primitives.  The public records are projections of this dict.

    With s = sqrt(sigma_u^2 + sigma_eps^2) the textbook expressions are
    lam = sigma_v/(2s), beta = s/sigma_v, pi_I = sigma_v*s/2,
    pi_N = -sigma_v*sigma_u^2/(2s), pi_M = -sigma_v*sigma_eps^2/(2s), and so
    on.  They are evaluated here through s = hypot(sigma_u, sigma_eps) and
    the ratios a = sigma_u/s, c = sigma_eps/s and g = sigma_eps/(s + sigma_u),
    all in [0, 1], so no intermediate squares a sigma: a result comes out
    finite whenever it and s are representable as doubles, at any magnitude
    of the inputs.  g*sigma_eps is the rationalized gap s - sigma_u, which
    avoids the cancellation of the naive difference at small sigma_eps.
    """
    sv, su, se = sigma_v, sigma_u, sigma_eps
    s = math.hypot(su, se)
    a, c, g = su / s, se / s, se / (s + su)
    lam = sv / (2.0 * s)
    pi_I = 0.5 * sv * s
    pi_N = -0.5 * sv * su * a
    subsidy = 0.5 * sv * se * c
    e_abs_x = s * ABS_MOMENT_COEF
    e_abs_u = su * ABS_MOMENT_COEF
    fee_rate = sv * c * g / (2.0 * ABS_MOMENT_COEF)
    fee_on_informed = fee_rate * e_abs_x
    fee_on_noise = fee_rate * e_abs_u
    return {
        "lam": lam,
        "beta": s / sv,
        "pi_I": pi_I,
        "pi_N": pi_N,
        "pi_M": -subsidy,
        "subsidy": subsidy,
        "d1": 0.5 * sv * c * (2.0 * a * a + c * c),
        "d2": sv * a * a * (2.0 * a * a - c * c) / (2.0 * s),
        "inflection": SQRT2 * su,
        "low_privacy_coeff": sv / (2.0 * su),
        "high_privacy_slope": 0.5 * sv,
        "noise_pnl_derivative": 0.5 * sv * a * a * c,
        "gain_informed": 0.5 * sv * se * g,
        "gain_noise": 0.5 * sv * su * c * g,
        "e_abs_x": e_abs_x,
        "e_abs_u": e_abs_u,
        "q_total": e_abs_x + e_abs_u,
        "fee_rate": fee_rate,
        "fee_on_informed": fee_on_informed,
        "fee_on_noise": fee_on_noise,
        # pi_I - fee_on_informed and pi_N - fee_on_noise, exactly: the fee
        # takes back each type's gain over sigma_eps = 0.  The subtraction
        # itself would cancel to nothing when sigma_eps >> sigma_u.
        "net_pi_I": 0.5 * sv * su,
        "net_pi_N": -0.5 * sv * su,
    }


def solve_closed_form(params: MarketParams) -> Equilibrium:
    """Closed-form equilibrium: lam = sigma_v / (2*sqrt(sigma_u^2 + sigma_eps^2)),
    beta = sqrt(sigma_u^2 + sigma_eps^2) / sigma_v.
    """
    forms = _closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)
    return Equilibrium(lam=forms["lam"], beta=forms["beta"], method=SolveMethod.CLOSED_FORM)


def posterior_slope(params: MarketParams, beta: float) -> float:
    """Slope of E[v | y_tilde] in y_tilde when the trader uses coefficient beta.

    The Gaussian projection gives beta*sigma_v^2 / (beta^2*sigma_v^2 +
    sigma_u^2 + sigma_eps^2).  With b = beta*sigma_v it is evaluated in
    units of m = max(b, sigma_u, sigma_eps), where the three flow std devs
    lie in [0, 1], so that no sigma is squared on its own.
    """
    b = beta * params.sigma_v
    m = max(b, params.sigma_u, params.sigma_eps)
    r, a, c = b / m, params.sigma_u / m, params.sigma_eps / m
    return r * (params.sigma_v / m) / (r * r + a * a + c * c)


def posterior_price(params: MarketParams, beta: float, y_tilde: float) -> float:
    """Posterior-mean price p0 + slope * y_tilde for a conjectured beta."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    return params.p0 + posterior_slope(params, beta) * y_tilde


def informed_best_response(lam: float, p0: float, v: float) -> float:
    """Profit-maximizing order size (v - p0) / (2*lam) given price impact lam."""
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam!r}")
    return (v - p0) / (2.0 * lam)


def informed_expected_profit(lam: float, p0: float, v: float, x: float) -> float:
    """Expected profit (v - p0)*x - lam*x^2 of an order x, conditional on v.

    Strictly concave in x; the peak is at informed_best_response(lam, p0, v).
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam!r}")
    return (v - p0) * x - lam * x**2


def zero_profit_lambda_unconditional(params: MarketParams) -> float:
    """Price-impact slope sigma_v / (2*sigma_u) that breaks even against the
    *executed* flow, independent of sigma_eps.

    Exposed for comparison output only: a maker that sees only the noisy
    signal cannot implement this rule (its quote is not the posterior mean,
    so a rival quoting the posterior would undercut it).  No equilibrium
    claim is attached.
    """
    return params.sigma_v / (2.0 * params.sigma_u)


def solve_fixed_point(
    params: MarketParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Equilibrium:
    """Solve the equilibrium numerically, independent of the closed form.

    Works in units where sigma_v = 1 and m = max(sigma_u, sigma_eps) = 1, so
    the noise variance n = (sigma_u/m)^2 + (sigma_eps/m)^2 lies in [1, 2]
    at any magnitude of the inputs.  There it bisects
    h(lam) = lam - b/(b^2 + n), with b = 1/(2*lam) the trader's best response
    and b/(b^2 + n) the Gaussian projection slope of the value on the
    observed flow.  h has the sign of 4*lam^2*n - 1, so it is negative at
    lam = 1/4 and positive at lam = 1 for every n in [1, 2]: that bracket
    holds for all valid params.  The root is rescaled by sigma_v/m.  `tol`
    is relative: the result satisfies |lam - lam_true| <= tol * lam_true.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    m = max(params.sigma_u, params.sigma_eps)
    noise_var = (params.sigma_u / m) ** 2 + (params.sigma_eps / m) ** 2

    lo, hi = 0.25, 1.0
    for _ in range(max_iter):
        lam = 0.5 * (lo + hi)
        b = 0.5 / lam
        h_mid = lam - b / (b * b + noise_var)
        if h_mid == 0.0:
            break
        if h_mid < 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= tol * lo:
            lam = 0.5 * (lo + hi)
            break
    else:
        raise NoConvergence(max_iter)

    lam = lam * params.sigma_v / m
    return Equilibrium(lam=lam, beta=1.0 / (2.0 * lam), method=SolveMethod.FIXED_POINT)


def _batched_market(bp: BatchParams) -> MarketParams:
    """The no-privacy market with sigma_u rescaled to sigma_u*sqrt(tau): one
    batch clears tau periods of noise flow at a single price against the
    exact aggregate, so it has the batched market's equilibrium and welfare."""
    base = bp.base
    return MarketParams(sigma_v=base.sigma_v, sigma_u=base.sigma_u * math.sqrt(bp.tau), sigma_eps=0.0, p0=base.p0)


def batched_equilibrium(bp: BatchParams) -> Equilibrium:
    """Equilibrium of the batched market: lam = sigma_v / (2*sigma_u*sqrt(tau)),
    beta = sigma_u*sqrt(tau) / sigma_v.
    """
    return solve_closed_form(_batched_market(bp))
