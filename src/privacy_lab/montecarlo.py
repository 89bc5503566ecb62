"""Seeded Monte Carlo verification of the one-period trading game.

Randomness contract (scheme ``RNG_SCHEME``, frozen): path i belongs to chunk
k = i // chunk_size and offset i % chunk_size.  Each (stream, chunk) pair owns
an independent PCG64 generator seeded with ``SeedSequence((seed, stream, k))``;
streams are 0 = terminal value, 1 = noise flow, 2 = privacy noise.  Within a
chunk, draws come out of ``standard_normal`` in path order.  Results therefore
depend only on (seed, chunk_size), never on thread count or chunk execution
order: per-chunk summaries are folded in ascending chunk index, and chunks are
independent by construction.

A run keeps only those summaries, O(1) memory at any path count.  Because
draws within a chunk come out in path order, a length-(j+1) prefix of chunk
k reproduces its first j+1 paths bit for bit, so `PathSample.path(i)`
replays one chunk prefix instead of storing per-path arrays.

When sigma_eps = 0 the privacy stream is skipped entirely; the value and
noise-flow streams are unaffected because each stream is seeded on its own.

The environment variable ``PRIVACY_LAB_THREADS`` caps how many chunks run
concurrently (0 or unset = auto).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .equilibrium import (
    BatchParams,
    Equilibrium,
    MarketParams,
    informed_best_response,
)
from .errors import InconclusiveResolution, ParamError

RNG_SCHEME = "pcg64-seedseq-v1"

STREAM_VALUE = 0
STREAM_NOISE_FLOW = 1
STREAM_PRIVACY = 2

DEFAULT_CHUNK_SIZE = 65_536


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


def _thread_count(n_chunks: int) -> int:
    raw = os.environ.get("PRIVACY_LAB_THREADS", "").strip()
    cap = 0
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ParamError("PRIVACY_LAB_THREADS", f"PRIVACY_LAB_THREADS must be an integer, got {raw!r}") from None
        if cap < 0:
            raise ParamError("PRIVACY_LAB_THREADS", f"PRIVACY_LAB_THREADS must be >= 0, got {cap}")
    if cap == 0:
        cap = min(os.cpu_count() or 1, 8)
    return max(1, min(cap, n_chunks))


def _run_chunks(cfg: SimConfig, chunk):
    """Fold `chunk(k, m)`, the summary of chunk k's m paths, over every chunk
    of the run with `.merge`, in ascending chunk order whatever the execution
    order or thread count."""
    n, cs = cfg.n_paths, cfg.chunk_size
    sizes = [min(cs, n - k * cs) for k in range((n + cs - 1) // cs)]
    threads = _thread_count(len(sizes))
    if threads <= 1:
        parts = [chunk(k, m) for k, m in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk, range(len(sizes)), sizes))
    return reduce(lambda acc, part: acc.merge(part), parts)


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
    def of(cls, a: np.ndarray, scratch: np.ndarray | None = None) -> "RunningMoments":
        """`scratch`, an array shaped like a, holds the deviations if given."""
        n = int(a.size)
        if n == 0:
            return cls()
        mean = float(a.mean())
        d = np.subtract(a, mean, out=scratch)
        return cls(n, mean, float(np.square(d, out=d).sum()))

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
    def of(cls, x: np.ndarray, y: np.ndarray, scratch=None) -> "RunningCross":
        """`scratch`, three arrays shaped like x, holds the deviations and their product."""
        n = int(x.size)
        if n == 0:
            return cls()
        mx, my = float(x.mean()), float(y.mean())
        dx, dy, dxy = np.empty((3, n)) if scratch is None else scratch
        np.subtract(x, mx, out=dx)
        np.subtract(y, my, out=dy)
        c_xy = float(np.multiply(dx, dy, out=dxy).sum())
        return cls(n, mx, my, float(np.square(dx, out=dx).sum()), float(np.square(dy, out=dy).sum()), c_xy)

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
    """Sufficient statistics for every estimator in this module.  The batched
    market has no signal or price regression and leaves both crosses empty."""

    pnl_informed: RunningMoments
    pnl_noise: RunningMoments
    pnl_maker: RunningMoments
    signal_value: RunningCross = RunningCross()  # x = observed flow y_tilde, y = v - p0
    price_value: RunningCross = RunningCross()  # x = terminal value v, y = price p

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
class PathSample:
    """Output of simulate(): the run's inputs and its summary statistics."""

    params: MarketParams
    eq: Equilibrium
    cfg: SimConfig
    stats: SampleStats

    @property
    def n(self) -> int:
        return self.stats.n

    def path(self, i: int) -> PathRealization:
        """Path i of the run, replayed from the prefix of its chunk that ends
        at it; bit-identical to the draws the statistics were built from."""
        if not 0 <= i < self.n:
            raise IndexError(f"path index {i!r} out of range for {self.n} paths")
        k, j = divmod(i, self.cfg.chunk_size)
        return PathRealization(*(float(a[j]) for a in _chunk_paths(self.params, self.eq, self.cfg.seed, k, j + 1)))


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


def _chunk_paths(params: MarketParams, eq: Equilibrium, seed: int, k: int, m: int, out=None) -> np.ndarray:
    """The first m paths of chunk k as the rows (v, u, eps, x, y, y_tilde, p),
    in the field order of PathRealization, of `out` or a new (7, m) array."""
    out = np.empty((7, m)) if out is None else out
    v, u, eps, x, y, y_tilde, p = out
    _chunk_rng(seed, STREAM_VALUE, k).standard_normal(m, out=v)
    _chunk_rng(seed, STREAM_NOISE_FLOW, k).standard_normal(m, out=u)
    if params.sigma_eps > 0:
        _chunk_rng(seed, STREAM_PRIVACY, k).standard_normal(m, out=eps)
    else:
        eps.fill(0.0)
    out[:3] *= [[params.sigma_v], [params.sigma_u], [params.sigma_eps]]
    v += params.p0
    np.multiply(np.subtract(v, params.p0, out=x), eq.beta, out=x)
    np.add(x, u, out=y)
    np.add(y, eps, out=y_tilde)
    np.add(np.multiply(y_tilde, eq.lam, out=p), params.p0, out=p)
    return out


def _stats_of(paths: np.ndarray, p0: float, work=None) -> SampleStats:
    """The chunk's summaries; `work`, if given, is an (8, m) array that
    holds every intermediate."""
    v, u, _, x, y, y_tilde, p = paths
    edge, pnl_informed, pnl_noise, pnl_maker, signal_y, *scratch = np.empty((8, v.size)) if work is None else work
    np.subtract(v, p, out=edge)
    np.multiply(edge, x, out=pnl_informed)
    np.multiply(edge, u, out=pnl_noise)
    np.multiply(np.subtract(p, v, out=pnl_maker), y, out=pnl_maker)
    if __debug__:
        # path-wise zero sum is an algebraic identity, up to float rounding
        resid, scale, mag = scratch
        np.abs(np.add(np.add(pnl_informed, pnl_noise, out=resid), pnl_maker, out=resid), out=resid)
        np.add(np.abs(pnl_informed, out=scale), np.abs(pnl_noise, out=mag), out=scale)
        np.add(scale, np.abs(pnl_maker, out=mag), out=scale)
        np.add(np.multiply(1e-12, scale, out=scale), 1e-300, out=scale)
        assert bool(np.all(resid <= scale)), "path-wise P&L did not sum to zero"
    return SampleStats(
        pnl_informed=RunningMoments.of(pnl_informed, scratch[0]),
        pnl_noise=RunningMoments.of(pnl_noise, scratch[0]),
        pnl_maker=RunningMoments.of(pnl_maker, scratch[0]),
        signal_value=RunningCross.of(y_tilde, np.subtract(v, p0, out=signal_y), scratch),
        price_value=RunningCross.of(v, p, scratch),
    )


def simulate(params: MarketParams, eq: Equilibrium, cfg: SimConfig) -> PathSample:
    """Draw cfg.n_paths independent realizations of the game and keep their
    summary statistics; `path(i)` of the result replays any one of them.

    The maker prices at eq.lam and the trader uses eq.beta, so a perturbed
    Equilibrium simulates off-equilibrium play.  Memory stays O(1) in
    n_paths.  Deterministic given (seed, chunk_size); see the module
    docstring for the seeding scheme.
    """
    # Every chunk a thread runs reuses that thread's one buffer: arrays freed
    # chunk after chunk went back to the kernel and were faulted in again as
    # often as the allocator's state made it, which varied from run to run.
    local = threading.local()

    def chunk(k: int, m: int) -> SampleStats:
        if not hasattr(local, "buf"):
            local.buf = np.empty((15, min(cfg.chunk_size, cfg.n_paths)))
        buf = local.buf[:, :m]
        return _stats_of(_chunk_paths(params, eq, cfg.seed, k, m, buf[:7]), params.p0, buf[7:])

    return PathSample(params=params, eq=eq, cfg=cfg, stats=_run_chunks(cfg, chunk))


def simulate_batched(bp: BatchParams, eq: Equilibrium, cfg: SimConfig) -> WelfareEstimate:
    """Simulate the batched market: each batch draws one value and tau noise
    increments; the maker observes the exact batch aggregate and prices it at
    eq.lam, so its expected P&L is zero.
    """
    params = bp.base
    _require_paths(cfg.n_paths, 2)

    def chunk(k: int, m: int) -> SampleStats:
        v = params.p0 + params.sigma_v * _chunk_rng(cfg.seed, STREAM_VALUE, k).standard_normal(m)
        increments = params.sigma_u * _chunk_rng(cfg.seed, STREAM_NOISE_FLOW, k).standard_normal((m, bp.tau))
        u_total = increments.sum(axis=1)
        x = eq.beta * (v - params.p0)
        y = x + u_total
        p = params.p0 + eq.lam * y
        edge = v - p
        return SampleStats(
            pnl_informed=RunningMoments.of(edge * x),
            pnl_noise=RunningMoments.of(edge * u_total),
            pnl_maker=RunningMoments.of((p - v) * y),
        )

    return _welfare_estimate(_run_chunks(cfg, chunk))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _welfare_estimate(s: SampleStats) -> WelfareEstimate:
    return WelfareEstimate(
        mean_pi_I=s.pnl_informed.mean,
        mean_pi_N=s.pnl_noise.mean,
        mean_pi_M=s.pnl_maker.mean,
        se_pi_I=s.pnl_informed.se,
        se_pi_N=s.pnl_noise.se,
        se_pi_M=s.pnl_maker.se,
        n=s.n,
    )


def estimate_welfare(sample: PathSample) -> WelfareEstimate:
    """Sample means and standard errors of per-path (v-p)x, (v-p)u, (p-v)(x+u)."""
    _require_paths(sample.n, 2)
    return _welfare_estimate(sample.stats)


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


def _square_over(a: float, b: float) -> float:
    """a**2 / b where a**2 alone may overflow: float ** raises OverflowError
    there.  The plain form stays wherever it does not overflow, because
    a*(a/b) rounds differently and would move the low bits of those
    estimates."""
    try:
        return a**2 / b
    except OverflowError:
        return a * (a / b)


def _ols(s: RunningCross) -> tuple[float, float]:
    """Slope of y on x and the residual variance sse/(n - 2)."""
    _require_paths(s.n, 100)
    sse = s.m2_y - _square_over(s.c_xy, s.m2_x)
    return s.c_xy / s.m2_x, sse / (s.n - 2)


def estimate_lambda_regression(sample: PathSample) -> SlopeEstimate:
    s = sample.stats.signal_value
    slope, resid_var = _ols(s)
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

    p | v is Gaussian in the model, so the residual variance has the exact
    standard error resid_var*sqrt(2/(n-2)).
    """
    if params is None:
        params = sample.params
    s = sample.stats.price_value
    slope, resid_var = _ols(s)
    intercept = s.mean_y - slope * s.mean_x
    slope_se = math.sqrt(resid_var / s.m2_x)
    intercept_se = math.sqrt(resid_var * (1.0 / s.n + _square_over(s.mean_x, s.m2_x)))
    resid_std = sample.eq.lam * math.hypot(params.sigma_u, params.sigma_eps)
    lam_beta = sample.eq.lam * sample.eq.beta
    return PriceMomentEstimate(
        slope=slope,
        slope_se=slope_se,
        intercept=intercept,
        intercept_se=intercept_se,
        resid_var=resid_var,
        resid_var_se=resid_var * math.sqrt(2.0 / (s.n - 2)),
        slope_expected=lam_beta,
        intercept_expected=params.p0 * (1.0 - lam_beta),
        resid_var_expected=resid_std * resid_std,
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

    def chunk(k: int, m: int) -> RunningMoments:
        z = params.sigma_u * _chunk_rng(cfg.seed, STREAM_NOISE_FLOW, k).standard_normal(m)
        if params.sigma_eps > 0:
            z = z + params.sigma_eps * _chunk_rng(cfg.seed, STREAM_PRIVACY, k).standard_normal(m)
        return RunningMoments.of(z)

    zm = _run_chunks(cfg, chunk)

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
