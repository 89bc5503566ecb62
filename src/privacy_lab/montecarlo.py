"""Seeded Monte Carlo verification of the one-period trading game.

Randomness contract (scheme ``RNG_SCHEME``, frozen): path i belongs to chunk
k = i // chunk_size and offset i % chunk_size.  Each (stream, chunk) pair owns
an independent PCG64 generator seeded with ``SeedSequence((seed, stream, k))``;
streams are 0 = terminal value, 1 = noise flow, 2 = privacy noise.  Within a
chunk, draws come out of ``standard_normal`` in path order.  Results therefore
depend only on (seed, chunk_size), never on thread count or chunk execution
order: per-chunk summaries are folded in ascending chunk index, and chunks are
independent by construction.

When sigma_eps = 0 the privacy stream is skipped entirely; the value and
noise-flow streams are unaffected because each stream is seeded on its own.

The environment variable ``PRIVACY_LAB_THREADS`` caps how many chunks run
concurrently (0 or unset = auto).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    BatchParams,
    Equilibrium,
    MarketParams,
    informed_best_response,
)
from .errors import InconclusiveResolution, ParamError, ResourceLimit

RNG_SCHEME = "pcg64-seedseq-v1"

STREAM_VALUE = 0
STREAM_NOISE_FLOW = 1
STREAM_PRIVACY = 2

DEFAULT_CHUNK_SIZE = 65_536

# Above this path count, simulate() keeps summary statistics only.
MATERIALIZE_MAX_PATHS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Path count, seed and chunk size of a run; checked on construction,
    raising a ParamError that names the offending field."""

    n_paths: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        if not isinstance(self.n_paths, int) or self.n_paths < 1:
            raise ParamError("n_paths", f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise ParamError("chunk_size", f"chunk_size must be an integer >= 1, got {self.chunk_size!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ParamError("seed", f"seed must be a non-negative integer, got {self.seed!r}")


def _require_paths(n: int, needed: int) -> None:
    if n < needed:
        raise ParamError("n_paths", f"n_paths must be >= {needed} for this estimate, got {n}")


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, chunk))))


def _chunk_sizes(cfg: SimConfig) -> list[int]:
    n, cs = cfg.n_paths, cfg.chunk_size
    n_chunks = (n + cs - 1) // cs
    return [min(cs, n - k * cs) for k in range(n_chunks)]


def _thread_count(n_chunks: int) -> int:
    raw = os.environ.get("PRIVACY_LAB_THREADS", "").strip()
    cap = 0
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"PRIVACY_LAB_THREADS must be an integer, got {raw!r}") from None
        if cap < 0:
            raise ValueError(f"PRIVACY_LAB_THREADS must be >= 0, got {cap}")
    if cap == 0:
        cap = min(os.cpu_count() or 1, 8)
    return max(1, min(cap, n_chunks))


def _map_chunks(worker, n_chunks: int) -> list:
    """Run `worker(k)` for every chunk, results in chunk order regardless of
    execution order or thread count."""
    threads = _thread_count(n_chunks)
    if threads <= 1:
        return [worker(k) for k in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(n_chunks)))


# ---------------------------------------------------------------------------
# Streaming accumulators (numerically stable one-pass mean/variance with
# exact parallel merge), so path counts up to 1e8 need O(1) memory.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunningMoments:
    """Count, mean and centered second moment of one scalar stream."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, a: np.ndarray) -> "RunningMoments":
        n = int(a.size)
        if n == 0:
            return cls()
        mean = float(a.mean())
        return cls(n, mean, float(((a - mean) ** 2).sum()))

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        d = other.mean - self.mean
        mean = self.mean + d * other.n / n
        m2 = self.m2 + other.m2 + d * d * self.n * other.n / n
        return RunningMoments(n, mean, m2)

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def se(self) -> float:
        """Standard error of the mean: sample std dev / sqrt(n)."""
        return self.std / math.sqrt(self.n)


@dataclass(frozen=True)
class RunningCross:
    """Counts, means and centered (co)moments of a scalar pair (x, y)."""

    n: int = 0
    mean_x: float = 0.0
    mean_y: float = 0.0
    m2_x: float = 0.0
    m2_y: float = 0.0
    c_xy: float = 0.0

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "RunningCross":
        n = int(x.size)
        if n == 0:
            return cls()
        mx, my = float(x.mean()), float(y.mean())
        dx, dy = x - mx, y - my
        return cls(n, mx, my, float((dx * dx).sum()), float((dy * dy).sum()), float((dx * dy).sum()))

    def merge(self, other: "RunningCross") -> "RunningCross":
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        w = self.n * other.n / n
        return RunningCross(
            n=n,
            mean_x=self.mean_x + dx * other.n / n,
            mean_y=self.mean_y + dy * other.n / n,
            m2_x=self.m2_x + other.m2_x + dx * dx * w,
            m2_y=self.m2_y + other.m2_y + dy * dy * w,
            c_xy=self.c_xy + other.c_xy + dx * dy * w,
        )


@dataclass(frozen=True)
class SampleStats:
    """Sufficient statistics for every estimator in this module."""

    pnl_informed: RunningMoments
    pnl_noise: RunningMoments
    pnl_maker: RunningMoments
    signal_value: RunningCross  # x = observed flow y_tilde, y = v - p0
    price_value: RunningCross  # x = terminal value v, y = price p

    @property
    def n(self) -> int:
        return self.pnl_informed.n

    def merge(self, other: "SampleStats") -> "SampleStats":
        return SampleStats(
            pnl_informed=self.pnl_informed.merge(other.pnl_informed),
            pnl_noise=self.pnl_noise.merge(other.pnl_noise),
            pnl_maker=self.pnl_maker.merge(other.pnl_maker),
            signal_value=self.signal_value.merge(other.signal_value),
            price_value=self.price_value.merge(other.price_value),
        )


def _empty_stats() -> SampleStats:
    return SampleStats(RunningMoments(), RunningMoments(), RunningMoments(), RunningCross(), RunningCross())


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathRealization:
    """One realized path of the game: draws, orders, observed flow, price."""

    v: float
    u: float
    eps: float
    x: float
    y: float
    y_tilde: float
    p: float


@dataclass(frozen=True)
class PathArrays:
    v: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    x: np.ndarray
    y: np.ndarray
    y_tilde: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class PathSample:
    """Output of simulate(): summary statistics plus, for small path counts,
    the materialized per-path arrays."""

    params: MarketParams
    eq: Equilibrium
    cfg: SimConfig
    stats: SampleStats
    arrays: PathArrays | None

    @property
    def n(self) -> int:
        return self.stats.n

    def path(self, i: int) -> PathRealization:
        if self.arrays is None:
            raise ValueError("sample is summary-only; rerun simulate with materialize=True")
        a = self.arrays
        return PathRealization(
            v=float(a.v[i]),
            u=float(a.u[i]),
            eps=float(a.eps[i]),
            x=float(a.x[i]),
            y=float(a.y[i]),
            y_tilde=float(a.y_tilde[i]),
            p=float(a.p[i]),
        )


@dataclass(frozen=True)
class WelfareEstimate:
    """Sample means and standard errors of the three per-path P&L products."""

    mean_pi_I: float
    mean_pi_N: float
    mean_pi_M: float
    se_pi_I: float
    se_pi_N: float
    se_pi_M: float
    n: int


def _chunk_paths(params: MarketParams, eq: Equilibrium, seed: int, k: int, m: int) -> PathArrays:
    v = params.p0 + params.sigma_v * _chunk_rng(seed, STREAM_VALUE, k).standard_normal(m)
    u = params.sigma_u * _chunk_rng(seed, STREAM_NOISE_FLOW, k).standard_normal(m)
    if params.sigma_eps > 0:
        eps = params.sigma_eps * _chunk_rng(seed, STREAM_PRIVACY, k).standard_normal(m)
    else:
        eps = np.zeros(m)
    x = eq.beta * (v - params.p0)
    y = x + u
    y_tilde = y + eps
    p = params.p0 + eq.lam * y_tilde
    return PathArrays(v=v, u=u, eps=eps, x=x, y=y, y_tilde=y_tilde, p=p)


def _stats_of(a: PathArrays, p0: float) -> SampleStats:
    edge = a.v - a.p
    pnl_informed = edge * a.x
    pnl_noise = edge * a.u
    pnl_maker = (a.p - a.v) * a.y
    if __debug__:
        # path-wise zero sum is an algebraic identity, up to float rounding
        resid = np.abs(pnl_informed + pnl_noise + pnl_maker)
        scale = np.abs(pnl_informed) + np.abs(pnl_noise) + np.abs(pnl_maker)
        assert bool(np.all(resid <= 1e-12 * scale + 1e-300)), "path-wise P&L did not sum to zero"
    return SampleStats(
        pnl_informed=RunningMoments.of(pnl_informed),
        pnl_noise=RunningMoments.of(pnl_noise),
        pnl_maker=RunningMoments.of(pnl_maker),
        signal_value=RunningCross.of(a.y_tilde, a.v - p0),
        price_value=RunningCross.of(a.v, a.p),
    )


def simulate(
    params: MarketParams,
    eq: Equilibrium,
    cfg: SimConfig,
    materialize: bool | None = None,
) -> PathSample:
    """Draw cfg.n_paths independent realizations of the game.

    The maker prices at eq.lam and the trader uses eq.beta, so a perturbed
    Equilibrium simulates off-equilibrium play.  `materialize=None` keeps the
    per-path arrays only when n_paths <= MATERIALIZE_MAX_PATHS; forcing
    materialize=True beyond that raises ResourceLimit.  Deterministic given
    (seed, chunk_size); see the module docstring for the seeding scheme.
    """
    if materialize is None:
        materialize = cfg.n_paths <= MATERIALIZE_MAX_PATHS
    elif materialize and cfg.n_paths > MATERIALIZE_MAX_PATHS:
        raise ResourceLimit(
            f"materializing {cfg.n_paths} paths exceeds the budget of "
            f"{MATERIALIZE_MAX_PATHS}; use summary-only mode"
        )

    sizes = _chunk_sizes(cfg)

    def worker(k: int):
        arrays = _chunk_paths(params, eq, cfg.seed, k, sizes[k])
        stats = _stats_of(arrays, params.p0)
        return stats, (arrays if materialize else None)

    results = _map_chunks(worker, len(sizes))

    stats = _empty_stats()
    for chunk_stats, _ in results:
        stats = stats.merge(chunk_stats)

    arrays = None
    if materialize:
        parts = [r[1] for r in results]
        arrays = PathArrays(
            *(np.concatenate([getattr(c, f) for c in parts]) for f in ("v", "u", "eps", "x", "y", "y_tilde", "p"))
        )
    return PathSample(params=params, eq=eq, cfg=cfg, stats=stats, arrays=arrays)


def simulate_batched(bp: BatchParams, eq: Equilibrium, cfg: SimConfig) -> WelfareEstimate:
    """Simulate the batched market: each batch draws one value and tau noise
    increments; the maker observes the exact batch aggregate and prices it at
    eq.lam, so its expected P&L is zero.
    """
    params = bp.base
    _require_paths(cfg.n_paths, 2)
    sizes = _chunk_sizes(cfg)

    def worker(k: int):
        m = sizes[k]
        v = params.p0 + params.sigma_v * _chunk_rng(cfg.seed, STREAM_VALUE, k).standard_normal(m)
        increments = params.sigma_u * _chunk_rng(cfg.seed, STREAM_NOISE_FLOW, k).standard_normal((m, bp.tau))
        u_total = increments.sum(axis=1)
        x = eq.beta * (v - params.p0)
        y = x + u_total
        p = params.p0 + eq.lam * y
        edge = v - p
        return (
            RunningMoments.of(edge * x),
            RunningMoments.of(edge * u_total),
            RunningMoments.of((p - v) * y),
        )

    results = _map_chunks(worker, len(sizes))
    acc_i, acc_n, acc_m = RunningMoments(), RunningMoments(), RunningMoments()
    for ci, cn, cm in results:
        acc_i, acc_n, acc_m = acc_i.merge(ci), acc_n.merge(cn), acc_m.merge(cm)
    return WelfareEstimate(
        mean_pi_I=acc_i.mean,
        mean_pi_N=acc_n.mean,
        mean_pi_M=acc_m.mean,
        se_pi_I=acc_i.se,
        se_pi_N=acc_n.se,
        se_pi_M=acc_m.se,
        n=acc_i.n,
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_welfare(sample: PathSample) -> WelfareEstimate:
    """Sample means and standard errors of per-path (v-p)x, (v-p)u, (p-v)(x+u)."""
    s = sample.stats
    _require_paths(s.n, 2)
    return WelfareEstimate(
        mean_pi_I=s.pnl_informed.mean,
        mean_pi_N=s.pnl_noise.mean,
        mean_pi_M=s.pnl_maker.mean,
        se_pi_I=s.pnl_informed.se,
        se_pi_N=s.pnl_noise.se,
        se_pi_M=s.pnl_maker.se,
        n=s.n,
    )


@dataclass(frozen=True)
class SlopeEstimate:
    """OLS slope of (v - p0) on the observed flow, with its standard error.

    For jointly Gaussian draws the population slope is
    Cov(v, y_tilde)/Var(y_tilde), which at the conjectured trader coefficient
    equals the maker's posterior slope; at equilibrium that is lam.
    """

    slope: float
    se: float
    n: int


def estimate_lambda_regression(sample: PathSample) -> SlopeEstimate:
    s = sample.stats.signal_value
    _require_paths(s.n, 100)
    slope = s.c_xy / s.m2_x
    sse = s.m2_y - s.c_xy**2 / s.m2_x
    resid_var = sse / (s.n - 2)
    return SlopeEstimate(slope=slope, se=math.sqrt(resid_var / s.m2_x), n=s.n)


@dataclass(frozen=True)
class PriceMomentEstimate:
    """OLS regression of the price on the terminal value, plus the residual
    variance, against their model-implied targets.

    With trader coefficient b and maker slope lam the price is
    p = p0 + lam*b*(v - p0) + lam*(u + eps): slope lam*b, intercept
    p0*(1 - lam*b), residual variance lam^2*(sigma_u^2 + sigma_eps^2).
    At equilibrium the slope is 1/2 and the residual variance sigma_v^2/4,
    both independent of sigma_eps.
    """

    slope: float
    slope_se: float
    intercept: float
    intercept_se: float
    resid_var: float
    resid_var_se: float
    slope_expected: float
    intercept_expected: float
    resid_var_expected: float
    n: int


def estimate_price_moments(sample: PathSample, params: MarketParams | None = None) -> PriceMomentEstimate:
    """Regress p on v and estimate the conditional price variance.

    The residual-variance standard error is the empirical std of per-path
    squared residuals over sqrt(n) when arrays are materialized; summary-only
    samples fall back to the Gaussian-theory value resid_var*sqrt(2/(n-2)).
    """
    if params is None:
        params = sample.params
    s = sample.stats.price_value
    _require_paths(s.n, 100)
    slope = s.c_xy / s.m2_x
    intercept = s.mean_y - slope * s.mean_x
    sse = s.m2_y - s.c_xy**2 / s.m2_x
    resid_var = sse / (s.n - 2)
    slope_se = math.sqrt(resid_var / s.m2_x)
    intercept_se = math.sqrt(resid_var * (1.0 / s.n + s.mean_x**2 / s.m2_x))
    if sample.arrays is not None:
        resid = sample.arrays.p - (intercept + slope * sample.arrays.v)
        resid_var_se = RunningMoments.of(resid**2).se
    else:
        resid_var_se = resid_var * math.sqrt(2.0 / (s.n - 2))
    lam_beta = sample.eq.lam * sample.eq.beta
    return PriceMomentEstimate(
        slope=slope,
        slope_se=slope_se,
        intercept=intercept,
        intercept_se=intercept_se,
        resid_var=resid_var,
        resid_var_se=resid_var_se,
        slope_expected=lam_beta,
        intercept_expected=params.p0 * (1.0 - lam_beta),
        resid_var_expected=sample.eq.lam**2 * (params.sigma_u**2 + params.sigma_eps**2),
        n=s.n,
    )


@dataclass(frozen=True)
class BestResponseCheck:
    """Monte Carlo profit curve over a grid of candidate order sizes.

    `estimates[i]` is the MC mean of (v - p(y_tilde))*grid[i] conditional on
    v, with standard error `ses[i]`; `analytic` is the expected-profit curve
    (v - p0)*x - lam*x^2.  `argmax_x` should land within one grid step of
    `x_star` whenever the run resolves adjacent grid points.
    """

    grid: np.ndarray
    estimates: np.ndarray
    ses: np.ndarray
    analytic: np.ndarray
    argmax_x: float
    x_star: float
    grid_step: float
    n_paths: int


def verify_best_response(
    params: MarketParams,
    eq: Equilibrium,
    v: float,
    grid_halfwidth: float,
    n_grid: int,
    cfg: SimConfig,
) -> BestResponseCheck:
    """Estimate the conditional expected profit on a grid around the
    theoretical optimum x* = (v - p0)/(2*lam) and locate the empirical argmax.

    The grid spans x* +/- grid_halfwidth*|x*| with n_grid points (odd, so x*
    itself is on the grid).  All candidates share the same noise draws
    z = u + eps; the per-path profit is affine in z, so every mean and
    standard error follows exactly from the accumulated moments of z.

    Raises InconclusiveResolution when 3 standard errors of an adjacent-point
    profit difference exceed the curvature gap lam*step^2 between neighbors.
    """
    _require_paths(cfg.n_paths, 2)
    if n_grid < 3 or n_grid % 2 == 0:
        raise ValueError(f"n_grid must be odd and >= 3, got {n_grid!r}")
    if grid_halfwidth <= 0:
        raise ValueError(f"grid_halfwidth must be > 0, got {grid_halfwidth!r}")

    x_star = informed_best_response(eq.lam, params.p0, v)
    half = grid_halfwidth * abs(x_star)
    grid = x_star + np.linspace(-half, half, n_grid)

    sizes = _chunk_sizes(cfg)

    def worker(k: int) -> RunningMoments:
        m = sizes[k]
        z = params.sigma_u * _chunk_rng(cfg.seed, STREAM_NOISE_FLOW, k).standard_normal(m)
        if params.sigma_eps > 0:
            z = z + params.sigma_eps * _chunk_rng(cfg.seed, STREAM_PRIVACY, k).standard_normal(m)
        return RunningMoments.of(z)

    zm = RunningMoments()
    for part in _map_chunks(worker, len(sizes)):
        zm = zm.merge(part)

    edge = v - params.p0
    # per-path profit at candidate x is (edge - lam*x)*x - lam*x*z_i
    estimates = (edge - eq.lam * grid) * grid - eq.lam * grid * zm.mean
    ses = np.abs(eq.lam * grid) * zm.std / math.sqrt(zm.n)
    analytic = (edge - eq.lam * grid) * grid

    step = float(grid[1] - grid[0]) if n_grid > 1 else 0.0
    if step > 0:
        se_diff = eq.lam * step * zm.std / math.sqrt(zm.n)
        gap = eq.lam * step**2
        if 3.0 * se_diff >= gap:
            raise InconclusiveResolution(
                f"3*se of adjacent profit difference ({3 * se_diff:.3g}) >= curvature gap "
                f"({gap:.3g}); increase n_paths or widen the grid"
            )

    k_max = int(np.argmax(estimates))
    return BestResponseCheck(
        grid=grid,
        estimates=estimates,
        ses=ses,
        analytic=analytic,
        argmax_x=float(grid[k_max]),
        x_star=x_star,
        grid_step=step,
        n_paths=zm.n,
    )
