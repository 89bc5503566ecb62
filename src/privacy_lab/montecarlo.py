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
`_per_chunk` from `_row_moments`' blocks and folded by `_merge`, the one-pass
parallel update of Chan, Golub & LeVeque (1979) with co-moments as in Pébay
(2008).  A run keeps its fold and its groups of chunks in flight, O(1) memory
at any path count, and builds its public records from the fold at the end,
once it has checked that the fold counts every path.  Draws within a chunk come
out in path order, so a length-(j+1) prefix of chunk k reproduces its first
j+1 paths bit for bit and `PathSample.path(i)` replays one chunk prefix
instead of storing paths.  At sigma_eps = 0 the privacy stream is not drawn;
the other streams, each seeded on its own, are unaffected.

One runner, `_run_chunks`, and one chunk layout serve every entry point: a
chunk's seven rows are (u, eps, x, y, y_tilde, q, w), and only `_path_draws`
draws a stream into them.  They play the game in centred units, w = v - p0 and
q = p - p0, and the price level enters only `price_value`'s two means and the
v and p of `PathSample.path(i)`.  The runner's unit of parallel work is one
stream's draw for one chunk, so a run of a single chunk, and a path replay,
still spread over the threads.  Up to DEFAULT_CHUNK_SIZE // m consecutive
chunks of width m share one workspace, a float buffer of all their rows and
nothing more; the thread that completes a group's last draw assembles and
reduces them over a (rows, chunks, m) view, a block of rows at a time, each
chunk's row summed on its own, so the summaries are bit for bit those of one
chunk at a time.  Idle workspaces of the default size are shared by every run
in the process; a chunk too wide for one gets its own.

``PRIVACY_LAB_THREADS`` caps how many draws of a run go on at once, the
caller's included (0 or unset = the CPUs the process may run on, at most 8;
at most 64).  The calling thread draws like its min(cap, draws) - 1 helpers
from one process-wide pool of cap threads, created on first use and replaced
when the cap changes; a run at cap 1 or of one draw uses no pool.  A forked
child drops its parent's pool.

`verify_simulation` and `verify_batched` run a simulation and return its
`Check` records: each estimate against its closed form, passed within 3 se.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import BatchParams, Equilibrium, MarketParams, _batched_market, _closed_forms, _forms_getter
from .equilibrium import _integer, _play_forms, _real, batched_equilibrium
from .errors import InconclusiveResolution, ParamError

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


# the largest PRIVACY_LAB_THREADS: a run submits up to cap - 1 helpers at once,
# and the pool starts a thread for each one that finds none idle
_MAX_THREADS = 64


def _thread_cap() -> int:
    raw = os.environ.get("PRIVACY_LAB_THREADS", "").strip()
    cap = 0
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ParamError("PRIVACY_LAB_THREADS", f"PRIVACY_LAB_THREADS must be an integer, got {raw!r}") from None
        if not 0 <= cap <= _MAX_THREADS:
            raise ParamError("PRIVACY_LAB_THREADS", f"PRIVACY_LAB_THREADS must be in [0, {_MAX_THREADS}], got {cap}")
    return cap or min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 8)


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
# _pool_lock.  A run keeps at most one per thread of its cap: a group of
# chunks in flight always has a thread drawing or reducing it.
_WORKSPACE_ROWS = 7  # the path rows of _chunk_paths; the finish reuses spent ones as scratch
_WORKSPACE_SIZE = _WORKSPACE_ROWS * DEFAULT_CHUNK_SIZE
_idle_workspaces: list[np.ndarray] = []


def _run_chunks(n: int, width: int, draws, finish):
    """Fold with `_merge` in chunk order, whatever the thread count, the
    summaries `finish` makes of chunks 0, 1, ... of n paths, width to a
    chunk but the last, and return the fold: a tuple whose [0] counts its
    paths, as each summary's does.  Each `draw(ws, k)` in `draws`, one per
    stream, fills its rows of chunk k's block of a group's
    (g, _WORKSPACE_ROWS, m) workspace, laid out as the run reaches it;
    `finish` reads it as a (_WORKSPACE_ROWS, g, m) view and returns the g
    summaries, folded once every earlier group's are.  The
    caller and its helpers take (chunk, draw) pairs in order, so a slower
    thread runs fewer; once the caller finds none left, it cancels helpers
    not yet started.  If a draw or a finish raises, no thread takes another
    pair, and the first error is re-raised once every started helper is done.
    Raises AssertionError when the fold does not count n paths.
    """
    cap = _thread_cap()
    per = max(1, DEFAULT_CHUNK_SIZE // width)  # full chunks to a group

    def tasks():
        # (group, block index, chunk index, draw) in order; a group is [its
        # workspace, its draws not yet completed, its summaries once finished]
        lo = 0
        while lo < n:
            m = min(width, n - lo)  # a short last chunk is a group of its own
            count = min(per, (n - lo) // m)
            size = count * _WORKSPACE_ROWS * m
            with _pool_lock:
                buf = _idle_workspaces.pop() if _idle_workspaces and size <= _WORKSPACE_SIZE else None
            buf = np.empty(max(size, _WORKSPACE_SIZE)) if buf is None else buf
            group = [buf[:size].reshape(count, _WORKSPACE_ROWS, m), count * len(draws), None]
            groups.append(group)
            for j in range(count):
                for draw in draws:
                    yield group, j, lo // width + j, draw
            lo += count * m

    groups, todo, lock, stop, total = [], tasks(), threading.Lock(), False, None  # groups in flight, in order

    def work() -> None:
        nonlocal stop, total
        try:
            while True:
                with lock:
                    task = None if stop else next(todo, None)
                if task is None:
                    return
                group, j, k, draw = task
                draw(group[0][j], k)
                with lock:
                    group[1] -= 1
                    last = group[1] == 0
                if last:
                    block, group[0] = group[0], None  # a wide workspace goes with its group
                    parts = finish(block.transpose(1, 0, 2))
                    with _pool_lock:
                        if block.base.size == _WORKSPACE_SIZE and len(_idle_workspaces) < cap:
                            _idle_workspaces.append(block.base)
                    with lock:
                        group[2] = parts
                        while groups and groups[0][2] is not None:
                            for part in groups.pop(0)[2]:
                                total = part if total is None else _merge(total, part)
        except BaseException:
            stop = True
            raise

    chunks = -(-n // width)
    helpers = min(cap, chunks * len(draws)) - 1
    futures = _submit(cap, work, helpers) if helpers > 0 else []
    try:
        work()
    finally:
        wait([f for f in futures if not f.cancel()])
    for f in futures:
        if not f.cancelled():
            f.result()
    if total[0] != n:
        raise AssertionError(f"the fold counted {total[0]} paths, not {n}")
    return total


# ---------------------------------------------------------------------------
# Chunk summaries: numerically stable one-pass moments with an exact parallel
# merge, so path counts up to 1e8 need O(1) memory.
# ---------------------------------------------------------------------------

_CO_ROWS = ((2, 1), (2, 0))  # (w, q) and (w, y_tilde) of _stats_of's rows: the one list of co-moment pairs


def _row_moments(rows: np.ndarray, scratch: np.ndarray | None = None) -> tuple:
    """The summaries (n, means, m2, co) of the g chunks of a (r, g, m) array,
    which is overwritten, side by side as (r, g) arrays, the co-moments of
    _CO_ROWS formed pair by pair in the (g, m) `scratch` row (none without
    it).  Each chunk's row is contiguous, and numpy sums it pairwise on its own."""
    n = rows.shape[2]
    means = rows.sum(axis=2) / n
    rows -= means[:, :, None]
    pairs = _CO_ROWS if scratch is not None else ()
    co = np.empty((len(pairs), rows.shape[1]))
    for k, (i, j) in enumerate(pairs):
        np.multiply(rows[i], rows[j], out=scratch).sum(axis=1, out=co[k])
    return n, means, np.square(rows, out=rows).sum(axis=2), co


def _per_chunk(*blocks: tuple) -> list[tuple]:
    """One summary per chunk of `_row_moments`' blocks of the same chunks, in order."""
    means, m2, co = (np.concatenate(arrays).T.tolist() for arrays in list(zip(*blocks))[1:])
    return [(blocks[0][0], *s) for s in zip(means, m2, co)]


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
    def std(self) -> float:
        """Sample std dev; a ParamError naming n_paths below two paths."""
        _require_paths(self.n, 2)
        return math.sqrt(self.m2 / (self.n - 1))

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
        at it; bit-identical to the draws the statistics were built from.
        A TypeError for an index that is not an integer (a bool is not one),
        an IndexError for one out of range."""
        try:
            index = operator.index(i)
        except TypeError:
            index = None
        if index is None or isinstance(i, bool):
            raise TypeError(f"path index must be an integer, got {i!r}")
        if not 0 <= index < self.n:
            raise IndexError(f"path index {i!r} out of range for {self.n} paths")
        k, j = divmod(index, self.cfg.chunk_size)
        u, eps, x, y, y_tilde, q, w = _chunk_paths(self.params, self.eq, self.cfg.seed, k, j + 1, j).ravel().tolist()
        return PathRealization(self.params.p0 + w, u, eps, x, y, y_tilde, self.params.p0 + q)


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


def _draw(seed: int, stream: int, k: int, row: np.ndarray, scale: float) -> None:
    """Fill `row` with `scale` times the first standard normals of (stream, chunk k)."""
    _chunk_rng(seed, stream, k).standard_normal(row.size, out=row)
    row *= scale


_INCREMENT_BLOCK = 1 << 15  # floats of noise increments drawn at a time, well inside a core's cache


def _path_draws(params: MarketParams, seed: int, tau: int = 1) -> tuple:
    """The draws of a chunk's paths, one per seeded stream, each filling its
    row u, eps or w = v - p0 of the (u, eps, x, y, y_tilde, q, w) rows.

    At tau > 1 the noise flow sums tau increments per path, drawn in stream
    order into the four rows between eps and w, clear of the other draws, in
    blocks of at most _INCREMENT_BLOCK floats: whole paths, each summed as
    numpy sums its row, or a longer path block by block.
    """

    def value(ws, k):
        _draw(seed, STREAM_VALUE, k, ws[6], params.sigma_v)

    def noise_flow(ws, k):
        if tau == 1:
            return _draw(seed, STREAM_NOISE_FLOW, k, ws[0], params.sigma_u)
        u, spare = ws[0], ws[2:6].reshape(-1)
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
        _draw(seed, STREAM_PRIVACY, k, ws[1], params.sigma_eps)

    return (value, noise_flow, privacy) if params.sigma_eps > 0 else (value, noise_flow)


def _assemble(paths: np.ndarray, params: MarketParams, eq: Equilibrium, observed: bool = True) -> np.ndarray:
    """Fill the rows x, y, y_tilde and q = p - p0 of `paths` from its drawn u,
    w = v - p0 and eps rows.  With no privacy stream q prices y, and eps = 0 and
    y_tilde = y are written only when `observed`: the batched run reads neither."""
    u, eps, x, y, y_tilde, q, w = paths
    np.multiply(w, eq.beta, out=x)
    flow = np.add(x, u, out=y)
    if params.sigma_eps > 0:
        flow = np.add(y, eps, out=y_tilde)
    elif observed:
        eps.fill(0.0)
        np.copyto(y_tilde, y)
    np.multiply(flow, eq.lam, out=q)
    return paths


def _chunk_paths(params: MarketParams, eq: Equilibrium, seed: int, k: int, m: int, first: int = 0) -> np.ndarray:
    """Paths first..m-1 of chunk k as the centred rows (u, eps, x, y,
    y_tilde, q, w) of `_assemble`, of a new (7, m - first) array."""
    draws = [lambda ws, _, draw=draw: draw(ws, k) for draw in _path_draws(params, seed)]
    return _run_chunks(m, m, draws, lambda ws: [(m, _assemble(ws[:, 0, first:].copy(), params, eq))])[1]


def _pnl(paths: np.ndarray) -> np.ndarray:
    """The P&L step: rows eps, x and y of assembled paths become, and are
    returned as, pnl_noise (v - p)u, pnl_informed (v - p)x and -pnl_maker
    (v - p)y, in place, the eps row holding v - p = w - q until last.  IEEE
    rounding is sign-symmetric, so pnl_maker's mean and m2 follow bit for bit."""
    u, eps, x, y, _, q, w = paths
    edge = np.subtract(w, q, out=eps)
    np.multiply(edge, x, out=x)
    np.multiply(edge, y, out=y)
    np.multiply(edge, u, out=eps)
    return paths[1:4]


def _stats_of(paths: np.ndarray) -> list[tuple]:
    """The summaries of the g chunks of a (7, g, m) array of the rows of
    _chunk_paths, which is overwritten, over (y_tilde, q, w, pnl_noise,
    pnl_informed, -pnl_maker), in an order that needs no eighth row: the level
    block first, its co-moments in the u row `_pnl` spent, the zero-sum check
    in the spent level rows, the P&L block last.  Raises AssertionError when
    the P&L of a path within the double range does not sum to zero."""
    pnl = _pnl(paths)
    level = _row_moments(paths[4:], paths[0])
    # path-wise zero sum is an algebraic identity, up to float rounding; a
    # path whose P&L scale is not finite is out of the double range, and
    # the Check records fail its estimates with z = inf
    resid, scale, mag = paths[4:]
    np.abs(np.subtract(np.add(pnl[0], pnl[1], out=resid), pnl[2], out=resid), out=resid)
    np.add(np.abs(pnl[0], out=scale), np.abs(pnl[1], out=mag), out=scale)
    np.add(scale, np.abs(pnl[2], out=mag), out=scale)
    np.add(np.multiply(1e-12, scale, out=scale), 1e-300, out=scale)
    if not np.all(resid <= scale) and np.isfinite(scale[~(resid <= scale)]).any():
        raise AssertionError("path-wise P&L did not sum to zero")
    return _per_chunk(level, _row_moments(pnl))


def simulate(params: MarketParams, eq: Equilibrium, cfg: SimConfig) -> PathSample:
    """Draw cfg.n_paths independent realizations of the game and keep their
    summary statistics; `path(i)` of the result replays any one of them.

    The maker prices at eq.lam and the trader uses eq.beta, so a perturbed
    Equilibrium simulates off-equilibrium play.  Memory stays O(1) in
    n_paths.  Deterministic given (seed, chunk_size); see the module
    docstring for the seeding scheme.
    """

    def finish(ws: np.ndarray) -> list[tuple]:
        return _stats_of(_assemble(ws, params, eq))

    n, means, m2, (c_price, c_signal) = _run_chunks(cfg.n_paths, cfg.chunk_size, _path_draws(params, cfg.seed), finish)
    stats = SampleStats(  # the rows (y_tilde, q, w, pnl_noise, pnl_informed, -pnl_maker)
        pnl_informed=RunningMoments(n, means[4], m2[4]),
        pnl_noise=RunningMoments(n, means[3], m2[3]),
        pnl_maker=RunningMoments(n, -means[5], m2[5]),  # _pnl leaves it negated
        signal_value=RunningCross(n, means[0], means[2], m2[0], m2[2], c_signal),
        price_value=RunningCross(n, params.p0 + means[2], params.p0 + means[1], m2[2], m2[1], c_price),
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
    params = replace(bp.base, sigma_eps=0.0)

    def finish(ws: np.ndarray) -> list[tuple]:
        return _per_chunk(_row_moments(_pnl(_assemble(ws, params, eq, observed=False))))

    n, means, m2, _ = _run_chunks(cfg.n_paths, cfg.chunk_size, _path_draws(params, cfg.seed, bp.tau), finish)
    means[2] = -means[2]  # _pnl leaves the maker's P&L negated
    return _welfare_estimate(*(RunningMoments(n, mean, q) for mean, q in zip(means, m2)))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _welfare_estimate(noise: RunningMoments, informed: RunningMoments, maker: RunningMoments) -> WelfareEstimate:
    """The estimate from the moments of the three P&L rows, in the order
    _pnl leaves them."""
    return WelfareEstimate(informed.mean, noise.mean, maker.mean, informed.se, noise.se, maker.se, n=informed.n)


def estimate_welfare(sample: PathSample) -> WelfareEstimate:
    """Sample means and standard errors of per-path (v-p)x, (v-p)u, (p-v)(x+u)."""
    stats = sample.stats
    return _welfare_estimate(stats.pnl_noise, stats.pnl_informed, stats.pnl_maker)


@dataclass(frozen=True)
class SlopeEstimate:
    """OLS slope of (v - p0) on the observed flow, with its standard error.

    For jointly Gaussian draws the population slope is
    Cov(v, y_tilde)/Var(y_tilde), which at the conjectured trader coefficient
    equals the maker's posterior slope; at equilibrium that is lam.
    """

    slope: float
    se: float


def _ols(s: RunningCross) -> tuple[float, float, float]:
    """Slope c_xy/m2_x of y on x, its standard error and the residual variance
    (m2_y - slope*c_xy)/(n - 2), one formula at every magnitude: it never forms
    c_xy**2, and by Cauchy-Schwarz 0 <= slope*c_xy <= m2_y, so no intermediate
    leaves the range of the moments.  All NaN when the spread m2_x of x
    underflowed to 0 (sigmas near 1e-200), and the se and residual variance
    NaN when the residual sum rounds below zero: a fit too near exact for
    double precision to resolve its residuals."""
    _require_paths(s.n, 100)
    if s.m2_x == 0:
        return math.nan, math.nan, math.nan
    slope = s.c_xy / s.m2_x
    resid_var = (s.m2_y - slope * s.c_xy) / (s.n - 2)
    resid_var = resid_var if resid_var >= 0 else math.nan
    return slope, math.sqrt(resid_var / s.m2_x), resid_var


def estimate_lambda_regression(sample: PathSample) -> SlopeEstimate:
    return SlopeEstimate(*_ols(sample.stats.signal_value)[:2])


@dataclass(frozen=True)
class PriceMomentEstimate:
    """OLS slope of the price on the terminal value, plus the residual
    variance, against their model-implied targets.

    With trader coefficient b and maker slope lam the price is
    p = p0 + lam*b*(v - p0) + lam*(u + eps): slope lam*b, residual variance
    lam^2*(sigma_u^2 + sigma_eps^2).  At equilibrium the slope is 1/2 and
    the residual variance sigma_v^2/4, both independent of sigma_eps.  The
    price means and spreads themselves are in `sample.stats.price_value`.
    """

    slope: float
    slope_se: float
    resid_var: float
    resid_var_se: float
    slope_expected: float
    resid_var_expected: float


def estimate_price_moments(sample: PathSample, params: MarketParams | None = None) -> PriceMomentEstimate:
    """Regress p on v and estimate the conditional price variance.

    p | v is Gaussian in the model, so the residual variance has the exact
    standard error resid_var*sqrt(2/(n-2)).
    """
    p = sample.params if params is None else params
    s = sample.stats.price_value
    slope, slope_se, resid_var = _ols(s)
    targets = _play_forms(p.sigma_v, p.sigma_u, p.sigma_eps, sample.eq.lam, sample.eq.beta)
    return PriceMomentEstimate(
        slope=slope,
        slope_se=slope_se,
        resid_var=resid_var,
        resid_var_se=resid_var * math.sqrt(2.0 / (s.n - 2)),
        slope_expected=targets[4],
        resid_var_expected=targets[5],
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


def _welfare_checks(expected: tuple, est: WelfareEstimate) -> list[Check]:
    return [
        Check.of(f"π_{a}", target, getattr(est, f"mean_pi_{a}"), getattr(est, f"se_pi_{a}"))
        for a, target in zip("INM", expected)
    ]


_welfare_forms = _forms_getter("pi_I", "pi_N", "pi_M")


def verify_simulation(params: MarketParams, eq: Equilibrium, cfg: SimConfig) -> list[Check]:
    """Simulate play at eq, which need not be an equilibrium, and check the
    welfare triple, the OLS λ and the moments of p given v against `_play_forms`."""
    sample = simulate(params, eq, cfg)
    targets = _play_forms(params.sigma_v, params.sigma_u, params.sigma_eps, eq.lam, eq.beta)
    checks = _welfare_checks(targets[:3], estimate_welfare(sample))  # first: one path fails on n_paths >= 2
    slope = estimate_lambda_regression(sample)
    pm = estimate_price_moments(sample)
    return checks + [
        Check.of("λ (OLS slope)", targets[3], slope.slope, slope.se),
        Check.of("E[p|v] slope", targets[4], pm.slope, pm.slope_se),
        Check.of("Var(p|v)", targets[5], pm.resid_var, pm.resid_var_se),
    ]


def verify_batched(bp: BatchParams, cfg: SimConfig) -> list[Check]:
    """Simulate the batched market at its equilibrium and check the welfare
    triple against that of the equivalent one-period market."""
    est = simulate_batched(bp, batched_equilibrium(bp), cfg)
    m = _batched_market(bp)
    return _welfare_checks(_welfare_forms(_closed_forms(m.sigma_v, m.sigma_u, m.sigma_eps)), est)


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

    Raises InconclusiveResolution unless 0 < 3*se(z-bar) < step and the
    analytic curve, in doubles, peaks strictly at x*.  The first is 3 se of an
    adjacent-point profit difference against the curvature gap lam*step^2,
    both divided by lam*step; the second fails once profits are so small that
    the gap rounds away.  At v = p0 the grid is the one no-trade point.  A
    ParamError names grid_halfwidth when the grid would leave the double range.
    """
    v, grid_halfwidth = _real("v", v), _real("grid_halfwidth", grid_halfwidth, 0)
    if _integer("n_grid", n_grid, 3) % 2 == 0:
        raise ParamError("n_grid", f"n_grid must be an odd integer >= 3, got {n_grid!r}")

    x_star = 0.5 * (v - params.p0) / eq.lam  # 2*lam can overflow where x* is finite
    half = grid_halfwidth * abs(x_star)
    if not math.isfinite(abs(x_star) + 2.0 * half):
        raise ParamError(
            "grid_halfwidth",
            f"grid_halfwidth={grid_halfwidth!r} around x*={x_star!r} spans beyond the double range",
        )
    grid = x_star + np.linspace(-half, half, n_grid)

    def finish(ws: np.ndarray) -> list[tuple]:
        if params.sigma_eps > 0:
            ws[0] += ws[1]
        return _per_chunk(_row_moments(ws[:1]))

    n, (z_mean,), (z_m2,), _ = _run_chunks(cfg.n_paths, cfg.chunk_size, _path_draws(params, cfg.seed)[1:], finish)
    z_se = RunningMoments(n, z_mean, z_m2).se

    # per-path profit at candidate x is (v - p0 - lam*x)*x - lam*x*z_i
    analytic = (v - params.p0 - eq.lam * grid) * grid
    estimates = analytic - eq.lam * grid * z_mean
    ses = np.abs(eq.lam * grid) * z_se

    step, peak = float(grid[1] - grid[0]), analytic[n_grid // 2 - 1 : n_grid // 2 + 2]
    if step > 0 and not (0 < 3.0 * z_se < step and peak[1] > max(peak[0], peak[2])):
        raise InconclusiveResolution(
            f"3*se of the mean noise flow ({3.0 * z_se:.3g}) is not in (0, grid step {step:.3g}), or the "
            f"profit curve rounds its peak away ({peak.tolist()}); increase n_paths or widen the grid"
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
