"""Seeded Monte Carlo verification of the one-period trading game.

Randomness contract (scheme ``RNG_SCHEME``, frozen): path i belongs to chunk
k = i // chunk_size and offset i % chunk_size.  Each (stream, chunk) pair owns
an independent PCG64 generator seeded with ``SeedSequence((seed, stream, k))``;
streams are 0 = terminal value, 1 = noise flow, 2 = privacy noise.  Within a
chunk, draws come out of ``standard_normal`` in path order.  Results therefore
depend only on (seed, chunk_size), never on thread count or execution order:
per-chunk summaries are folded in ascending chunk index, and chunks and
streams are independent by construction.

A chunk's summary is one tuple (n, means, m2, co-moments), made by
`_row_moments` and folded by `_merge`, the one-pass parallel update of Chan,
Golub & LeVeque (1979) with co-moments as in Pébay (2008).  A run keeps only
that tuple, O(1) memory at any path count, and builds its public records
from it once, at the end.  Because
draws within a chunk come out in path order, a length-(j+1) prefix of chunk
k reproduces its first j+1 paths bit for bit, so `PathSample.path(i)`
replays one chunk prefix instead of storing per-path arrays.

When sigma_eps = 0 the privacy stream is skipped entirely; the value and
noise-flow streams are unaffected because each stream is seeded on its own.

One runner, `_run_chunks`, and one chunk layout serve every entry point: a
chunk's rows are (v, u, eps, x, y, y_tilde, p) and two work rows, and only
`_path_draws` draws a stream into them.  The runner's unit of parallel work
is one stream's draw for one chunk, so a run of a single chunk, and a path
replay, still spread over the threads; the thread that completes a chunk's
last draw reduces that chunk.  Each chunk in flight borrows a workspace, a
float buffer that holds all of its rows.  Workspaces of the default chunk
size are shared by every run in the process and reused from call to call; a
chunk too wide for one gets its own, dropped with the chunk.

The environment variable ``PRIVACY_LAB_THREADS`` caps how many draws run
concurrently (0 or unset = min(cpu count, 8)).  Runs share one process-wide
thread pool of that size, created on first use and replaced when the cap
changes; a forked child drops its parent's pool and builds its own on first
use.

`verify_simulation` and `verify_batched` run a simulation and return its
`Check` records: each estimate against its closed form, passed within 3 se.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import BatchParams, Equilibrium, MarketParams, _batched_market, _integer, _real, batched_equilibrium
from .equilibrium import informed_best_response, posterior_slope
from .errors import InconclusiveResolution, ParamError
from .welfare import WelfareDecomposition, welfare_at, welfare_decomposition

RNG_SCHEME = "pcg64-seedseq-v1"

STREAM_VALUE = 0
STREAM_NOISE_FLOW = 1
STREAM_PRIVACY = 2

DEFAULT_CHUNK_SIZE = 65_536


@dataclass(frozen=True)
class SimConfig:
    """Path count, seed and chunk size of a run, checked on construction by
    `_integer`: each an int (a bool is not one), `n_paths` and `chunk_size`
    >= 1 and `seed` >= 0, or a ParamError naming the field."""

    n_paths: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        _integer("n_paths", self.n_paths, 1)
        _integer("chunk_size", self.chunk_size, 1)
        _integer("seed", self.seed, 0)


def _require_paths(n: int, needed: int) -> None:
    if n < needed:
        raise ParamError("n_paths", f"n_paths must be >= {needed} for this estimate, got {n}")


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, chunk))))


def _thread_cap() -> int:
    raw = os.environ.get("PRIVACY_LAB_THREADS", "").strip()
    cap = 0
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ParamError("PRIVACY_LAB_THREADS", f"PRIVACY_LAB_THREADS must be an integer, got {raw!r}") from None
        if cap < 0:
            raise ParamError("PRIVACY_LAB_THREADS", f"PRIVACY_LAB_THREADS must be >= 0, got {cap}")
    return cap or min(os.cpu_count() or 1, 8)


# One process-wide pool, sized by the thread cap and replaced when the cap
# changes: building and joining a pool per call cost more than a small run's
# chunks.  Guarded by _pool_lock, so a pool is never shut down between a
# run's lookup and its submits.
_pool_lock = threading.Lock()
_pool: tuple[int, ThreadPoolExecutor] | None = None


def _forget_pool() -> None:
    # A forked child has none of the parent's worker threads, but the
    # parent's pool would count them as idle and queue work for them forever.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _submit(cap: int, fn, count: int) -> list[Future]:
    """Submit `count` calls of fn to the shared pool of `cap` threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != cap:
            if _pool is not None:
                _pool[1].shutdown(wait=False)  # runs what other callers queued, then exits
            _pool = (cap, ThreadPoolExecutor(max_workers=cap, thread_name_prefix="privacy-lab-mc"))
        return [_pool[1].submit(fn) for _ in range(count)]


# Idle workspaces of the default size, shared by every run and guarded by
# _pool_lock.  A run keeps at most one per thread of its cap when it
# finishes with them: a chunk in flight always has a thread drawing or
# reducing it, so a run never needs more.
_WORKSPACE_ROWS = 9  # the seven path rows of _chunk_paths and two work rows
_WORKSPACE_SIZE = _WORKSPACE_ROWS * DEFAULT_CHUNK_SIZE
_idle_workspaces: list[np.ndarray] = []


def _run_chunks(chunks: list[tuple[int, int]], draws, finish):
    """Fold `finish(ws)`, the summary of one chunk, over `chunks`, a list of
    (chunk index k, path count m), with `_merge` in list order whatever the
    execution order or thread count; a run of one chunk returns its summary.

    ws is a (_WORKSPACE_ROWS, m) view of the chunk's workspace.  Every
    `draw(ws, k)` in `draws`, one per seeded stream, fills its own rows of it
    before `finish` reads it.  Pool tasks take (chunk, draw) pairs in order,
    so a slower thread runs fewer of them, and the task that completes a
    chunk's last draw runs its finish.  If a draw or a finish raises, no task
    takes another pair, and the first error is re-raised once every task has
    returned, so no chunk work outlives the call.
    """
    cap = _thread_cap()
    todo = ((c, d) for c in range(len(chunks)) for d in range(len(draws)))
    parts = [None] * len(chunks)
    buffers = [None] * len(chunks)
    left = [len(draws)] * len(chunks)  # draws of each chunk not yet completed
    lock = threading.Lock()
    stop = False

    def borrow(size: int) -> np.ndarray:
        if size > _WORKSPACE_SIZE:
            return np.empty(size)  # dropped with its chunk
        with _pool_lock:
            if _idle_workspaces:
                return _idle_workspaces.pop()
        return np.empty(_WORKSPACE_SIZE)

    def release(buf: np.ndarray) -> None:
        with _pool_lock:
            if buf.size == _WORKSPACE_SIZE and len(_idle_workspaces) < cap:
                _idle_workspaces.append(buf)

    def work() -> None:
        nonlocal stop
        try:
            while True:
                with lock:
                    item = None if stop else next(todo, None)
                    if item is not None and item[1] == 0:
                        buffers[item[0]] = borrow(_WORKSPACE_ROWS * chunks[item[0]][1])
                if item is None:
                    return
                c, d = item
                k, m = chunks[c]
                ws = buffers[c][: _WORKSPACE_ROWS * m].reshape(_WORKSPACE_ROWS, m)
                draws[d](ws, k)
                with lock:
                    left[c] -= 1
                    last = left[c] == 0
                if last:
                    parts[c] = finish(ws)
                    release(buffers[c])
        except BaseException:
            stop = True
            raise

    tasks = len(chunks) * len(draws)
    if cap <= 1 or tasks <= 1:
        work()
    else:
        futures = _submit(cap, work, min(cap, tasks))
        try:
            wait(futures)
        finally:
            stop = True  # an interrupted wait leaves no task taking new work
        for f in futures:
            f.result()
    return functools.reduce(_merge, parts)


# ---------------------------------------------------------------------------
# Chunk summaries: numerically stable one-pass moments with an exact parallel
# merge, so path counts up to 1e8 need O(1) memory.
# ---------------------------------------------------------------------------

# the rows (i, j) of each co-moment of _row_moments, in the layout _stats_of
# leaves: (v, p) and (v - p0, y_tilde)
_CO_ROWS = ((0, 6), (1, 5))


def _row_moments(rows: np.ndarray, work: np.ndarray | None = None) -> tuple:
    """The summary (n, means, m2, co) of the rows of a (r, m) array, which is
    overwritten: each row's mean and centered second moment, and, when
    `work`, a (2, m) array, is given, the centered co-moments of _CO_ROWS.
    A row sum along the contiguous axis is numpy's pairwise sum, the same as
    that of the row on its own."""
    means = rows.sum(axis=1) / rows.shape[1]
    rows -= means[:, None]
    co = []
    if work is not None:
        np.multiply(rows[:2], rows[6:4:-1], out=work)  # the pairs of _CO_ROWS
        co = work.sum(axis=1).tolist()
    m2 = np.square(rows, out=rows).sum(axis=1).tolist()
    return rows.shape[1], means.tolist(), m2, co


def _merge(a: tuple, b: tuple) -> tuple:
    """The summary of two samples from theirs (Chan, Golub & LeVeque; Pébay
    for the co-moments)."""
    na, mean_a, m2_a, co_a = a
    nb, mean_b, m2_b, co_b = b
    n = na + nb
    w = na * nb / n
    d = [y - x for x, y in zip(mean_a, mean_b)]
    return (
        n,
        [x + di * nb / n for x, di in zip(mean_a, d)],
        [x + y + di * di * w for x, y, di in zip(m2_a, m2_b, d)],
        [x + y + d[i] * d[j] * w for x, y, (i, j) in zip(co_a, co_b, _CO_ROWS)],
    )


@dataclass(frozen=True)
class RunningMoments:
    """Count, mean and centered second moment of one scalar stream."""

    n: int
    mean: float
    m2: float

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

    n: int
    mean_x: float
    mean_y: float
    m2_x: float
    m2_y: float
    c_xy: float


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
        return PathRealization(*_chunk_paths(self.params, self.eq, self.cfg.seed, k, j + 1, j).ravel().tolist())


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


def _chunks(cfg: SimConfig) -> list[tuple[int, int]]:
    n, cs = cfg.n_paths, cfg.chunk_size
    return [(k, min(cs, n - k * cs)) for k in range((n + cs - 1) // cs)]


def _draw(seed: int, stream: int, k: int, row: np.ndarray, scale: float) -> None:
    """Fill `row` with `scale` times the first standard normals of (stream, chunk k)."""
    _chunk_rng(seed, stream, k).standard_normal(row.size, out=row)
    row *= scale


_INCREMENT_BLOCK = 1 << 15  # floats of noise increments drawn at a time, well inside a core's cache


def _path_draws(params: MarketParams, seed: int, tau: int = 1) -> tuple:
    """The draws of a chunk's paths, one per seeded stream, each filling its
    row v (plus p0), u or eps of the (v, u, eps, x, y, y_tilde, p) rows.

    At tau > 1 the noise flow sums tau increments per path, drawn in stream
    order into the rows after eps in blocks of at most _INCREMENT_BLOCK
    floats: whole paths, each summed as numpy sums its row, or a longer path
    block by block.
    """

    def value(ws, k):
        _draw(seed, STREAM_VALUE, k, ws[0], params.sigma_v)
        ws[0] += params.p0

    def noise_flow(ws, k):
        if tau == 1:
            return _draw(seed, STREAM_NOISE_FLOW, k, ws[1], params.sigma_u)
        u, spare = ws[1], ws[3:].reshape(-1)
        width = min(tau, _INCREMENT_BLOCK)  # increments of one path drawn at a time
        if spare.size < width:  # a chunk of a few paths
            spare = np.empty(width)
        step = max(1, min(spare.size, _INCREMENT_BLOCK) // tau)  # paths drawn at a time
        rng = _chunk_rng(seed, STREAM_NOISE_FLOW, k)
        for lo in range(0, u.size, step):
            total = u[lo : lo + step]
            for start in range(0, tau, width):
                block = spare[: total.size * min(width, tau - start)].reshape(total.size, -1)
                rng.standard_normal(out=block)
                block *= params.sigma_u
                part = block.sum(axis=1, out=None if start else total)
                if start:  # a later block of a path longer than one
                    total += part

    def privacy(ws, k):
        _draw(seed, STREAM_PRIVACY, k, ws[2], params.sigma_eps)

    return (value, noise_flow, privacy) if params.sigma_eps > 0 else (value, noise_flow)


def _assemble(paths: np.ndarray, params: MarketParams, eq: Equilibrium) -> np.ndarray:
    """Fill the rows x, y, y_tilde and p of `paths` from its drawn v, u and
    eps rows; eps is zeroed first when there is no privacy stream."""
    v, u, eps, x, y, y_tilde, p = paths
    if params.sigma_eps == 0:
        eps.fill(0.0)
    np.multiply(np.subtract(v, params.p0, out=x), eq.beta, out=x)
    np.add(x, u, out=y)
    np.add(y, eps, out=y_tilde)
    np.add(np.multiply(y_tilde, eq.lam, out=p), params.p0, out=p)
    return paths


def _chunk_paths(params: MarketParams, eq: Equilibrium, seed: int, k: int, m: int, first: int = 0) -> np.ndarray:
    """Paths first..m-1 of chunk k as the rows (v, u, eps, x, y, y_tilde, p),
    in the field order of PathRealization, of a new (7, m - first) array."""
    return _run_chunks([(k, m)], _path_draws(params, seed), lambda ws: _assemble(ws[:7, first:].copy(), params, eq))


def _pnl(paths: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The P&L step: rows eps, x and y of assembled paths become, and are
    returned as, pnl_noise (v - p)u, pnl_informed (v - p)x and pnl_maker
    (p - v)y, x and y in place, which moves less memory than a third row;
    `work`, a (2, m) array, is left holding v - p and p - v."""
    v, u, eps, x, y, _, p = paths
    edge, loss = work
    np.subtract(v, p, out=edge)
    np.subtract(p, v, out=loss)
    np.multiply(edge, u, out=eps)
    np.multiply(edge, x, out=x)
    np.multiply(loss, y, out=y)
    return paths[2:5]


def _stats_of(paths: np.ndarray, p0: float, work: np.ndarray | None = None) -> tuple:
    """The summary of a chunk's paths, the rows of _chunk_paths, which are
    overwritten; `work`, if given, is a (2, m) array for the rest.

    The rows become, in place, (v, v - p0, pnl_noise, pnl_informed,
    pnl_maker, y_tilde, p), reduced as one block by `_row_moments`.  Raises
    AssertionError when the P&L of a path within the double range does not
    sum to zero.
    """
    v, u = paths[:2]
    work = np.empty((2, v.size)) if work is None else work
    pnl = _pnl(paths, work)
    # path-wise zero sum is an algebraic identity, up to float rounding; a
    # path whose P&L scale is not finite is out of the double range, and
    # the Check records fail its estimates with z = inf
    resid, scale, mag = *work, u
    np.abs(np.add.reduce(pnl, axis=0, out=resid), out=resid)
    np.add(np.abs(pnl[0], out=scale), np.abs(pnl[1], out=mag), out=scale)
    np.add(scale, np.abs(pnl[2], out=mag), out=scale)
    np.add(np.multiply(1e-12, scale, out=scale), 1e-300, out=scale)
    if not np.all(resid <= scale) and np.isfinite(scale[~(resid <= scale)]).any():
        raise AssertionError("path-wise P&L did not sum to zero")
    np.subtract(v, p0, out=u)
    return _row_moments(paths, work)


def simulate(params: MarketParams, eq: Equilibrium, cfg: SimConfig) -> PathSample:
    """Draw cfg.n_paths independent realizations of the game and keep their
    summary statistics; `path(i)` of the result replays any one of them.

    The maker prices at eq.lam and the trader uses eq.beta, so a perturbed
    Equilibrium simulates off-equilibrium play.  Memory stays O(1) in
    n_paths.  Deterministic given (seed, chunk_size); see the module
    docstring for the seeding scheme.
    """

    def finish(ws: np.ndarray) -> tuple:
        return _stats_of(_assemble(ws[:7], params, eq), params.p0, ws[7:])

    n, means, m2, (c_price, c_signal) = _run_chunks(_chunks(cfg), _path_draws(params, cfg.seed), finish)
    stats = SampleStats(
        pnl_informed=RunningMoments(n, means[3], m2[3]),
        pnl_noise=RunningMoments(n, means[2], m2[2]),
        pnl_maker=RunningMoments(n, means[4], m2[4]),
        signal_value=RunningCross(n, means[5], means[1], m2[5], m2[1], c_signal),
        price_value=RunningCross(n, means[0], means[6], m2[0], m2[6], c_price),
    )
    return PathSample(params=params, eq=eq, cfg=cfg, stats=stats)


def simulate_batched(bp: BatchParams, eq: Equilibrium, cfg: SimConfig) -> WelfareEstimate:
    """Simulate the batched market: each batch draws one value and tau noise
    increments; the maker observes the exact batch aggregate and prices it at
    eq.lam, so its expected P&L is zero.

    A batch is a path of `simulate` with no privacy noise, whatever the
    base's sigma_eps, whose noise flow `_path_draws` sums over the tau
    increments in blocks; only its three P&L rows are reduced.
    """
    _require_paths(cfg.n_paths, 2)
    params = replace(bp.base, sigma_eps=0.0)

    def finish(ws: np.ndarray) -> tuple:
        return _row_moments(_pnl(_assemble(ws[:7], params, eq), ws[7:]))

    n, means, m2, _ = _run_chunks(_chunks(cfg), _path_draws(params, cfg.seed, bp.tau), finish)
    return _welfare_estimate(n, means, m2)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _welfare_estimate(n: int, means, m2) -> WelfareEstimate:
    """The estimate from the count, means and centered second moments of the
    P&L rows in the order _pnl leaves them: noise, informed, maker."""
    mean_N, mean_I, mean_M = means
    se_N, se_I, se_M = (math.sqrt(q / (n - 1)) / math.sqrt(n) for q in m2)
    return WelfareEstimate(mean_I, mean_N, mean_M, se_I, se_N, se_M, n=n)


def estimate_welfare(sample: PathSample) -> WelfareEstimate:
    """Sample means and standard errors of per-path (v-p)x, (v-p)u, (p-v)(x+u)."""
    _require_paths(sample.n, 2)
    pnl = (sample.stats.pnl_noise, sample.stats.pnl_informed, sample.stats.pnl_maker)
    return _welfare_estimate(sample.n, [m.mean for m in pnl], [m.m2 for m in pnl])


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


def _ols(s: RunningCross) -> tuple[float, float, float]:
    """Slope of y on x, its standard error and the residual variance sse/(n - 2);
    all NaN when the spread m2_x of x underflowed to 0 (sigmas near 1e-200)."""
    _require_paths(s.n, 100)
    if s.m2_x == 0:
        return math.nan, math.nan, math.nan
    resid_var = (s.m2_y - _square_over(s.c_xy, s.m2_x)) / (s.n - 2)
    return s.c_xy / s.m2_x, math.sqrt(resid_var / s.m2_x), resid_var


def estimate_lambda_regression(sample: PathSample) -> SlopeEstimate:
    slope, se, _ = _ols(sample.stats.signal_value)
    return SlopeEstimate(slope=slope, se=se, n=sample.stats.signal_value.n)


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
    slope, slope_se, resid_var = _ols(s)
    intercept = s.mean_y - slope * s.mean_x
    intercept_se = math.sqrt(resid_var * (1.0 / s.n + _square_over(s.mean_x, s.m2_x))) if s.m2_x else math.nan
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
class Check:
    """One Monte Carlo estimate against its closed-form target, passed at
    z <= 3.  z = |estimate - expected| / se is inf when the estimate or se is
    not finite; at se = 0 it is 0 for an exact estimate and inf otherwise."""

    name: str
    expected: float
    estimate: float
    se: float
    z: float
    passed: bool

    @classmethod
    def of(cls, name: str, expected: float, estimate: float, se: float) -> "Check":
        finite = math.isfinite(estimate) and math.isfinite(se)
        if finite and se > 0:
            z = abs(estimate - expected) / se
        else:
            z = 0.0 if finite and estimate == expected else math.inf
        return cls(name, expected, estimate, se, z, z <= 3.0)


def _welfare_checks(w: WelfareDecomposition, est: WelfareEstimate) -> list[Check]:
    return [
        Check.of(f"π_{a}", getattr(w, f"pi_{a}"), getattr(est, f"mean_pi_{a}"), getattr(est, f"se_pi_{a}"))
        for a in "INM"
    ]


def verify_simulation(params: MarketParams, eq: Equilibrium, cfg: SimConfig) -> list[Check]:
    """Simulate play at eq, which need not be an equilibrium, and check the
    welfare triple, the OLS λ and the moments of p given v against their closed forms."""
    sample = simulate(params, eq, cfg)
    checks = _welfare_checks(welfare_at(params, eq.lam, eq.beta), estimate_welfare(sample))
    slope = estimate_lambda_regression(sample)
    pm = estimate_price_moments(sample)
    return checks + [
        Check.of("λ (OLS slope)", posterior_slope(params, eq.beta), slope.slope, slope.se),
        Check.of("E[p|v] slope", pm.slope_expected, pm.slope, pm.slope_se),
        Check.of("Var(p|v)", pm.resid_var_expected, pm.resid_var, pm.resid_var_se),
    ]


def verify_batched(bp: BatchParams, cfg: SimConfig) -> list[Check]:
    """Simulate the batched market at its equilibrium and check the welfare
    triple against that of the equivalent one-period market."""
    est = simulate_batched(bp, batched_equilibrium(bp), cfg)
    return _welfare_checks(welfare_decomposition(_batched_market(bp)), est)


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
    itself is on the grid).  All candidates share `simulate`'s noise draws
    z = u + eps; the per-path profit is affine in z, so every mean and
    standard error follows exactly from the accumulated moments of z.

    Raises InconclusiveResolution when 3 standard errors of an adjacent-point
    profit difference exceed the curvature gap lam*step^2 between neighbors,
    and a ParamError naming grid_halfwidth when the grid around x* would
    reach beyond the double range.
    """
    _require_paths(cfg.n_paths, 2)
    v, grid_halfwidth = _real("v", v), _real("grid_halfwidth", grid_halfwidth, 0)
    if _integer("n_grid", n_grid, 3) % 2 == 0:
        raise ParamError("n_grid", f"n_grid must be an odd integer >= 3, got {n_grid!r}")

    x_star = informed_best_response(eq.lam, params.p0, v)
    half = grid_halfwidth * abs(x_star)
    if not math.isfinite(abs(x_star) + 2.0 * half):
        raise ParamError(
            "grid_halfwidth",
            f"grid_halfwidth={grid_halfwidth!r} around x*={x_star!r} spans beyond the double range",
        )
    grid = x_star + np.linspace(-half, half, n_grid)

    def finish(ws: np.ndarray) -> tuple:
        if params.sigma_eps > 0:
            ws[1] += ws[2]
        return _row_moments(ws[1:2])

    n, (z_mean,), (z_m2,), _ = _run_chunks(_chunks(cfg), _path_draws(params, cfg.seed)[1:], finish)
    z_std = math.sqrt(z_m2 / (n - 1))

    # per-path profit at candidate x is (v - p0 - lam*x)*x - lam*x*z_i
    analytic = (v - params.p0 - eq.lam * grid) * grid
    estimates = analytic - eq.lam * grid * z_mean
    ses = np.abs(eq.lam * grid) * z_std / math.sqrt(n)

    step = float(grid[1] - grid[0])
    if step > 0:
        se_diff = eq.lam * step * z_std / math.sqrt(n)
        gap = eq.lam * (step * step)  # step**2 raises OverflowError where this is inf
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
        n_paths=n,
    )
