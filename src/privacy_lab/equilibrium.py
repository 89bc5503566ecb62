"""Linear equilibrium of the one-period trading game with a privacy-noised maker.

One informed trader observes the terminal value v ~ N(p0, sigma_v^2) and
submits x = beta*(v - p0); noise traders add u ~ N(0, sigma_u^2); the market
maker prices the flow signal it observes, which is y_tilde = x + u + eps with
independent privacy noise eps ~ N(0, sigma_eps^2), at the posterior mean
p = p0 + lambda*y_tilde.

The module solves for the equilibrium pair (lambda, beta) two independent
ways: in closed form, and numerically as the fixed point of the posterior
projection composed with the trader's best response, found by iterating the
two in turn.  The fixed-point route never touches the closed form, so the two
can cross-check each other.

Every closed form of the model (equilibrium, welfare split, subsidy and its
derivatives, break-even fee) comes from the one kernel `_closed_forms`.  It
returns a plain tuple whose positions are named by `FORMS`, and every record
of this, the welfare and the report module is read from that tuple by
position, through an `operator.itemgetter` built once at import
(`_forms_getter`).  Every target the Monte Carlo checks read, for play at any
(lam, beta) pair, comes from the second kernel `_play_forms`.

Every numeric input passes one field check, `_real` for a real number and
`_integer` for a count, which raises a ParamError naming the field.  The
parameter types run it on construction and store the float it returns, so no
function re-validates them; a function's own scalar arguments pass it where
the function takes them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import itemgetter

from .errors import ParamError

SQRT2 = math.sqrt(2.0)

# E|X| = std * sqrt(2/pi) for a centered Gaussian X
ABS_MOMENT_COEF = math.sqrt(2.0 / math.pi)


def _real(field: str, value, low: float | None = None, strict: bool = True) -> float:
    """`value` as a float, checked: a real number (a bool is not one, though
    Python counts it as an int) within the double range, finite, and
    > `low` (>= `low` unless `strict`) when `low` is given.  Otherwise a
    ParamError naming `field`.  Never clamps."""
    x = value
    if type(x) is not float:  # the common case skips the numbers.Real ABC, ~10x dearer
        if type(x) is bool or not isinstance(x, numbers.Real):
            raise ParamError(field, f"{field} must be a real number, got {value!r}")
        try:
            x = float(x)
        except OverflowError:  # an int (or fraction) past the double range
            raise ParamError(field, f"{field} must lie within the double range") from None
    if not math.isfinite(x):
        raise ParamError(field, f"{field} must be finite, got {value!r}")
    if low is not None and (x <= low if strict else x < low):
        raise ParamError(field, f"{field} must be {'>' if strict else '>='} {low}, got {value!r}")
    return x


def _integer(field: str, value, low: int) -> int:
    """`value` if it is an int >= `low` (a bool is not one), else a
    ParamError naming `field`."""
    if type(value) is bool or not isinstance(value, int) or value < low:
        raise ParamError(field, f"{field} must be an integer >= {low}, got {value!r}")
    return value


@dataclass(frozen=True)
class MarketParams:
    """Model primitives, checked on construction and stored as floats.

    sigma_v: std dev of the terminal value (currency units), > 0.
    sigma_u: std dev of the noise-trader flow (asset units), > 0.
    sigma_eps: std dev of the additive privacy noise on the maker's
        flow observation (asset units), >= 0.  Zero means the maker
        sees the executed flow exactly.
    p0: common prior mean of the value; only differences v - p0 enter
        the math, so any finite level (including 0 or negative) is fine.
        The simulator plays v - p0 too, and adds p0 only to the levels it
        reports: the price and value means and a replayed path's v and p.

    Each field passes `_real`: a value that is not a real number (a bool is
    not one), lies past the double range, is not finite, or is out of range,
    raises a ParamError naming the field.  Never clamps.  An int is stored
    as the equal float, so every field is a `float`.
    """

    sigma_v: float
    sigma_u: float
    sigma_eps: float = 0.0
    p0: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p0", _real("p0", self.p0))  # the dataclass is frozen
        object.__setattr__(self, "sigma_v", _real("sigma_v", self.sigma_v, 0))
        object.__setattr__(self, "sigma_u", _real("sigma_u", self.sigma_u, 0))
        object.__setattr__(self, "sigma_eps", _real("sigma_eps", self.sigma_eps, 0, strict=False))


@dataclass(frozen=True)
class Equilibrium:
    """A linear-equilibrium pair: price-impact slope and trader coefficient.

    Solver outputs satisfy lam * beta = 1/2; a deliberately perturbed copy
    (for off-equilibrium simulation) need not.
    Both coefficients pass `_real` as finite real numbers > 0, and are
    stored as floats; a violation raises a ParamError naming `lam` or `beta`.
    """

    lam: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _real("lam", self.lam, 0))
        object.__setattr__(self, "beta", _real("beta", self.beta, 0))


@dataclass(frozen=True)
class BatchParams:
    """A batched market: `tau` periods of noise flow clear at one price."""

    base: MarketParams
    tau: int

    def __post_init__(self) -> None:
        _integer("tau", self.tau, 1)


# The name of each closed form, in the order `_closed_forms` returns them.
FORMS = (
    "lam",
    "beta",
    "pi_I",
    "pi_N",
    "pi_M",
    "subsidy",
    "d1",
    "d2",
    "inflection",
    "low_privacy_coeff",
    "high_privacy_slope",
    "gain_informed",
    "gain_noise",
    "e_abs_x",
    "e_abs_u",
    "q_total",
    "fee_rate",
    "fee_on_informed",
    "fee_on_noise",
    "net_pi_I",
    "net_pi_N",
)


def _forms_getter(*names: str) -> itemgetter:
    """A getter of the closed forms `names` from a `_closed_forms` tuple: the
    one value for one name, a tuple of them in `names` order for several."""
    return itemgetter(*map(FORMS.index, names))


def _closed_forms(sigma_v: float, sigma_u: float, sigma_eps: float) -> tuple[float, ...]:
    """Every closed-form quantity of the equilibrium in one pass, for valid
    primitives, as a plain tuple in the order of the names in `FORMS`.  The
    public records read their fields from it by position, through getters
    built once by `_forms_getter`.

    With s = sqrt(sigma_u^2 + sigma_eps^2) the textbook expressions are
    lam = sigma_v/(2s), beta = s/sigma_v, pi_I = sigma_v*s/2,
    pi_N = -sigma_v*sigma_u^2/(2s), pi_M = -sigma_v*sigma_eps^2/(2s), and so
    on.  They are evaluated here through s = hypot(sigma_u, sigma_eps) and
    the ratios a = sigma_u/s, c = sigma_eps/s and g = sigma_eps/(s + sigma_u),
    all in [0, 1], so no intermediate squares a sigma.  g*sigma_eps is the
    rationalized gap s - sigma_u, which avoids the cancellation of the naive
    difference at small sigma_eps.

    This does not yet make every result accurate wherever it fits in a
    double (ROADMAP item 7).  A product of two factors can overflow or
    underflow before the result would: pi_N is -inf at sigmas (1e50, 1e275,
    1e300), where the true value is about -5e299.  The fee burdens are
    fee_rate * e_abs_*, and a subnormal fee_rate loses digits: fee_on_informed
    at (1.0, 1e150, 1e-10) is 2.4992746043245037e-171, not 2.5e-171.
    """
    sv, su, se = sigma_v, sigma_u, sigma_eps
    s = math.hypot(su, se)
    a, c, g = su / s, se / s, se / (s + su)
    lam = 0.5 * sv / s  # halving sv, not doubling s: 2*s overflows past ~9e307
    pi_I = 0.5 * sv * s
    pi_N = -0.5 * sv * su * a
    subsidy = 0.5 * sv * se * c
    e_abs_x = s * ABS_MOMENT_COEF
    e_abs_u = su * ABS_MOMENT_COEF
    fee_rate = sv * c * g / (2.0 * ABS_MOMENT_COEF)
    fee_on_informed = fee_rate * e_abs_x
    fee_on_noise = fee_rate * e_abs_u
    return (
        lam,
        s / sv,  # beta
        pi_I,
        pi_N,
        -subsidy,  # pi_M
        subsidy,
        0.5 * sv * c * (2.0 * a * a + c * c),  # d1
        0.5 * sv * a * a * (2.0 * a * a - c * c) / s,  # d2
        SQRT2 * su,  # inflection
        0.5 * sv / su,  # low_privacy_coeff
        0.5 * sv,  # high_privacy_slope
        0.5 * sv * se * g,  # gain_informed
        0.5 * sv * su * c * g,  # gain_noise
        e_abs_x,
        e_abs_u,
        e_abs_x + e_abs_u,  # q_total
        fee_rate,
        fee_on_informed,
        fee_on_noise,
        # net_pi_I and net_pi_N: pi_I - fee_on_informed and pi_N - fee_on_noise,
        # exactly.  The fee takes back each type's gain over sigma_eps = 0; the
        # subtraction itself would cancel to nothing when sigma_eps >> sigma_u.
        0.5 * sv * su,
        -0.5 * sv * su,
    )


_lam_beta = _forms_getter("lam", "beta")


def solve_closed_form(params: MarketParams) -> Equilibrium:
    """Closed-form equilibrium: lam = sigma_v / (2*sqrt(sigma_u^2 + sigma_eps^2)),
    beta = sqrt(sigma_u^2 + sigma_eps^2) / sigma_v.
    """
    return Equilibrium(*_lam_beta(_closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)))


def _play_forms(sigma_v: float, sigma_u: float, sigma_eps: float, lam: float, beta: float) -> tuple[float, ...]:
    """Every Monte Carlo target of play at maker slope `lam` and trader
    coefficient `beta`, not necessarily the equilibrium pair, for valid
    arguments: (pi_I, pi_N, pi_M, posterior slope, E[p|v] slope, Var(p|v)).

    With b = beta*sigma_v: pi_I = b*sigma_v*(1 - lam*beta), pi_N = -lam*sigma_u^2,
    pi_M = lam*(b^2 + sigma_u^2) - b*sigma_v, the posterior slope is
    b*sigma_v/(b^2 + sigma_u^2 + sigma_eps^2), and p = p0 + lam*beta*(v - p0) +
    lam*(u + eps) has slope lam*beta and residual variance
    lam^2*(sigma_u^2 + sigma_eps^2).  Each is a product of price-scale and
    flow-scale factors, or a ratio in units of m = max(b, sigma_u, sigma_eps),
    so no sigma is squared on its own.
    """
    b = beta * sigma_v
    flow, resid_std = math.hypot(b, sigma_u), lam * math.hypot(sigma_u, sigma_eps)
    m = max(b, sigma_u, sigma_eps)
    r, a, c = b / m, sigma_u / m, sigma_eps / m
    return (
        b * sigma_v * (1.0 - lam * beta),  # pi_I
        -(lam * sigma_u) * sigma_u,  # pi_N
        (lam * flow) * flow - b * sigma_v,  # pi_M
        r * (sigma_v / m) / (r * r + a * a + c * c),  # posterior slope
        lam * beta,  # E[p|v] slope
        resid_std * resid_std,  # Var(p|v)
    )


def posterior_slope(params: MarketParams, beta: float) -> float:
    """Slope of E[v | y_tilde] in y_tilde when the trader uses coefficient beta,
    read from `_play_forms`.  `beta` passes `_real` as a finite real number > 0."""
    # the slope does not depend on the maker's lam: 1.0 only fills its place
    return _play_forms(params.sigma_v, params.sigma_u, params.sigma_eps, 1.0, _real("beta", beta, 0))[3]


def solve_fixed_point(params: MarketParams) -> Equilibrium:
    """Solve the equilibrium numerically, independent of the closed form.

    Works in units where sigma_v = 1 and m = max(sigma_u, sigma_eps) = 1, so
    the noise variance n = (sigma_u/m)^2 + (sigma_eps/m)^2 lies in [1, 2]
    at any magnitude of the inputs.  There it iterates g(lam) = b/(b^2 + n),
    the Gaussian projection slope of the value on the observed flow when the
    trader plays the best response b = 1/(2*lam), from lam = 1/4 until a step
    no longer raises lam.  The fixed point is r = 1/(2*sqrt(n)), rescaled by
    sigma_v/m, and the iteration stops at it without a tolerance or an
    iteration budget:

    - By AM-GM, g(lam) <= r, with equality only at lam = r.  So from
      1/4 < r the iterates rise toward r.
    - The relative error e = (r - lam)/r squares at each step:
      e' = e^2/(1 + (1 - e)^2).  It is at most 1/2 at lam = 1/4, so six
      steps take it below 2**-53, and rounding ends the rise within 2 ulps
      of r.
    - A strictly increasing sequence of doubles that is bounded above must
      end.
    """
    m = max(params.sigma_u, params.sigma_eps)
    noise_var = (params.sigma_u / m) ** 2 + (params.sigma_eps / m) ** 2

    lam = 0.25
    while True:
        b = 0.5 / lam
        nxt = b / (b * b + noise_var)
        if nxt <= lam:
            break
        lam = nxt

    # the rescaled root leaves the double range where the closed form's does,
    # and fails its field check by the same name
    lam = _real("lam", lam * params.sigma_v / m, 0)
    return Equilibrium(lam=lam, beta=0.5 / lam)  # 2*lam overflows past ~9e307


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
