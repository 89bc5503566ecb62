"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked.  Operation i is a
pure function of (workload, seed, i), so a traced replay runs exactly the
operations the untraced run timed.  The library sees only the generated
inputs, never the seed.

`Op.run` is the timed part: the library calls a user would make.  `Op.check`
is untimed: it verifies the result against the extended-precision oracle in
`oracle.py`, or, for CLI output, against the library's own in-process values.

Known-defect probes are operations on inputs the library is known to
mishandle (overflow at sigma_eps = 1e160, division by zero and lost underflow
at 1e-200, CLI tracebacks on bad input; see ROADMAP.md).  They are not part
of the timed loop, whose every operation must succeed: `probes()` returns
them, every run executes each once after the loop, and the count that still
fails is reported as `known_defects`, so it shows when they are fixed.

`reference()` picks the host-speed kernel (host.py) that does the same kind
of work as the workload's operations.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle
from host import HostReference, numpy_kernel, python_kernel, spawn_kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_SHIM = Path(__file__).resolve().parent / "cli_traced.py"

Z_FAIL = 5.0  # a Monte Carlo estimate further out than this is rerun (see _z_verdict)
Z_GATE = 3.0  # the library's own gate; misses between the two are counted


@dataclass
class Verdict:
    ok: bool
    work: float = 0.0  # units of verified work: paths, rows or invocations
    z3: int = 0  # checks beyond Z_GATE but within Z_FAIL
    z5: int = 0  # checks beyond Z_FAIL whose rerun on another seed was within Z_GATE
    inconclusive: bool = False  # InconclusiveResolution, a named verdict
    exit_code: int | None = None
    note: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]


def execute(op: Op) -> tuple[float, Verdict]:
    """Run `op`, timing only `op.run`, and return the time and the verdict.
    An exception is the op's result: its check judges it."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        result = exc
    elapsed = time.perf_counter() - t0
    return elapsed, op.check(result)


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def _loguniform(r: random.Random, lo: float, hi: float) -> float:
    return math.exp(r.uniform(math.log(lo), math.log(hi)))


def _failure(result) -> Verdict | None:
    if isinstance(result, BaseException):
        return Verdict(False, note=f"{type(result).__name__}: {result}")
    return None


def _record(obj) -> dict[str, float]:
    return {k: v for k, v in dataclasses.asdict(obj).items() if isinstance(v, float)}


def timing_summary(name: str, values: list[float]) -> dict[str, tuple[float | None, str]]:
    """Median, and p90 when at least ten samples lie beyond it, with the count."""
    out: dict[str, tuple[float | None, str]] = {f"{name}_samples": (len(values), "count")}
    out[f"{name}_p50"] = (statistics.median(values) if values else None, "s")
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) >= 100 else None
    out[f"{name}_p90"] = (p90, "s")
    return out


# ---------------------------------------------------------------------------
# Monte Carlo jobs, shared by mc-large and mc-small
# ---------------------------------------------------------------------------


def _leaf_mismatches(a: dict, b: dict) -> int:
    """Number of leaf values that differ between two nested dicts."""
    return sum(
        _leaf_mismatches(a[k], b[k]) if isinstance(a[k], dict) else int(a[k] != b[k]) for k in a
    )


def _other_seed(cfg):
    """The same simulation on an independent seed."""
    return dataclasses.replace(cfg, seed=cfg.seed + 1)


def _z(estimate: float, target: float, se: float) -> float:
    return abs(estimate - target) / se if se > 0 else math.inf


def _z_verdict(checks, targets, work: float, rerun: Callable[[], list]) -> Verdict:
    """Judge (name, library_expected, estimate, se) checks against the oracle.

    A correct program puts about one estimate in 1.7 million beyond 5 SE,
    and a ten-seed set of runs checks over a hundred thousand, so an
    estimate beyond Z_FAIL fails the job only if `rerun`, the checks of the
    same job on another seed, misses it by more than Z_GATE too; a biased
    estimator fails both.  Otherwise it is counted in `z5`."""
    z3, beyond = 0, []
    for name, expected, estimate, se in checks:
        target = targets[name]
        if not oracle.agrees(expected, target):
            return Verdict(False, note=f"{name}: library expects {expected!r}, oracle {float(target[0])!r}")
        if not (math.isfinite(estimate) and math.isfinite(se) and se > 0):
            return Verdict(False, note=f"{name}: estimate {estimate!r} se {se!r}")
        z = _z(estimate, float(target[0]), se)
        if z > Z_FAIL:
            beyond.append((name, z))
        z3 += Z_GATE < z <= Z_FAIL
    if beyond:
        again = {name: _z(estimate, float(targets[name][0]), se) for name, _, estimate, se in rerun()}
        confirmed = [f"{name}: z = {z:.2f}, {again[name]:.2f} on another seed" for name, z in beyond if not again[name] <= Z_GATE]
        if confirmed:
            return Verdict(False, note="; ".join(confirmed))
    return Verdict(True, work=work, z3=z3, z5=len(beyond))


def _draw_market(r: random.Random, zero_eps: bool = False):
    sigma_v = _loguniform(r, 0.1, 10.0)
    sigma_u = _loguniform(r, 0.1, 10.0)
    ratio = _loguniform(r, 0.1, 10.0)
    p0 = r.uniform(-1.0, 1.0) * sigma_v
    return sigma_v, sigma_u, 0.0 if zero_eps else ratio * sigma_u, p0


def simulate_job(pl, params, cfg):
    """What `privacy-lab simulate` does: solve, simulate with the library's
    default arguments, run the three estimators and form the six checks."""
    eq = pl.solve_closed_form(params)
    sample = pl.simulate(params, eq, cfg)
    west = pl.estimate_welfare(sample)
    slope = pl.estimate_lambda_regression(sample)
    pm = pl.estimate_price_moments(sample, params)
    w = pl.welfare_at(params, eq.lam, eq.beta)
    checks = [
        ("pi_I", w.pi_I, west.mean_pi_I, west.se_pi_I),
        ("pi_N", w.pi_N, west.mean_pi_N, west.se_pi_N),
        ("pi_M", w.pi_M, west.mean_pi_M, west.se_pi_M),
        ("lambda_ols", pl.posterior_slope(params, eq.beta), slope.slope, slope.se),
        ("price_slope", pm.slope_expected, pm.slope, pm.slope_se),
        ("resid_var", pm.resid_var_expected, pm.resid_var, pm.resid_var_se),
    ]
    passed = all(se > 0 and abs(est - exp) / se <= Z_GATE for _, exp, est, se in checks)
    return eq, sample, checks, passed


def check_simulate_job(pl, params, cfg, result) -> Verdict:
    bad = _failure(result)
    if bad:
        return bad
    eq, sample, checks, _ = result
    if sample.n != cfg.n_paths:
        return Verdict(False, note=f"sample holds {sample.n} paths, asked for {cfg.n_paths}")
    targets = oracle.simulation_targets(params.sigma_v, params.sigma_u, params.sigma_eps, eq.lam, eq.beta)
    return _z_verdict(checks, targets, cfg.n_paths, lambda: simulate_job(pl, params, _other_seed(cfg))[2])


class McLarge:
    name = "mc-large"
    why = (
        "Per-path throughput and memory of montecarlo dominate: draws, reduction, threads and "
        "materialization. The closed-form layers do almost nothing. A summary-only default, a "
        "fused reduction or dropping the per-chunk zero-sum assert shows up here."
    )
    N_PATHS = 10_000_000
    in_process = True
    headline = {"work_per_s": "mc_paths_per_s", "op_s_p50": "mc_job_s_p50"}

    def __init__(self, pl, seed: int, workdir: Path):
        self.pl, self.seed, self.workdir = pl, seed, workdir

    def job_inputs(self, i: int):
        r = _rng(self.name, self.seed, i)
        sv, su, se, p0 = _draw_market(r, zero_eps=(i % 4 == 3))
        params = self.pl.MarketParams(sigma_v=sv, sigma_u=su, sigma_eps=se, p0=p0)
        cfg = self.pl.SimConfig(n_paths=self.N_PATHS, seed=r.randrange(2**32))
        return params, cfg

    def op(self, i: int) -> Op:
        params, cfg = self.job_inputs(i)
        return Op(
            "job",
            lambda: simulate_job(self.pl, params, cfg),
            lambda res: check_simulate_job(self.pl, params, cfg, res),
        )

    def warm_up(self) -> None:
        execute(self.op(-1))

    def reference(self) -> HostReference:
        return HostReference(numpy_kernel)

    def probes(self) -> list[Op]:
        return []

    def layer_extras(self, verdicts, n_ops: int) -> dict[str, float]:
        """For job 0: the single-thread cost of its seeding and draws alone
        (replaying the frozen pcg64-seedseq-v1 scheme), its simulate time on
        one thread and on the default pool, and whether the two agree bit for
        bit."""
        import numpy as np

        pl = self.pl
        params, cfg = self.job_inputs(0)
        streams = (0, 1, 2) if params.sigma_eps > 0 else (0, 1)
        n, cs = cfg.n_paths, cfg.chunk_size

        def replay():
            for k in range(math.ceil(n / cs)):
                for stream in streams:
                    seq = np.random.SeedSequence((cfg.seed, stream, k))
                    np.random.Generator(np.random.PCG64(seq)).standard_normal(min(cs, n - k * cs))

        floors = []
        for _ in range(3):
            t0 = time.perf_counter()
            replay()
            floors.append(time.perf_counter() - t0)
        eq = pl.solve_closed_form(params)

        def simulate_stats():
            t0 = time.perf_counter()
            stats = pl.simulate(params, eq, cfg).stats
            return time.perf_counter() - t0, stats

        default_s, default_stats = simulate_stats()
        saved = os.environ.get("PRIVACY_LAB_THREADS")
        os.environ["PRIVACY_LAB_THREADS"] = "1"
        try:
            one_s, one_stats = simulate_stats()
        finally:
            if saved is None:
                del os.environ["PRIVACY_LAB_THREADS"]
            else:
                os.environ["PRIVACY_LAB_THREADS"] = saved
        floor = statistics.median(floors)
        return {
            "montecarlo.rng_floor_s": floor,
            "montecarlo.simulate_1t_s": one_s,
            "montecarlo.simulate_default_s": default_s,
            "montecarlo.non_rng_s_1t": one_s - floor,
            "montecarlo.thread_speedup": one_s / default_s,
            "montecarlo.thread_determinism_mismatches": _leaf_mismatches(
                dataclasses.asdict(one_stats), dataclasses.asdict(default_stats)
            ),
        }

    def summarize(self, log) -> dict:
        times = log.seconds("job")
        out = {"mc_paths_per_s": (log.work("job") / sum(times), "1/s")}
        out.update(timing_summary("mc_job_s", times))
        return out


class McSmall:
    name = "mc-small"
    why = (
        "The same layer used differently: per-call overhead dominates (validation, thread-pool "
        "spin-up, SeedSequence cost at small chunks, SampleStats merges) and the materialized "
        "arrays are read, so a change that helps mc-large but costs small jobs shows here."
    )
    in_process = True
    headline = {"work_per_s": "mc_paths_per_s", "op_s_p50": "mc_job_s_p50"}
    CHUNK_SIZES = (4096, 65536)

    def __init__(self, pl, seed: int, workdir: Path):
        self.pl, self.seed, self.workdir = pl, seed, workdir

    def op(self, i: int) -> Op:
        pl = self.pl
        r = _rng(self.name, self.seed, i)
        u = r.random()
        n = int(_loguniform(r, 1e4, 2e5))
        cfg = pl.SimConfig(n_paths=n, seed=r.randrange(2**32), chunk_size=r.choice(self.CHUNK_SIZES))
        sv, su, se, p0 = _draw_market(r)
        if u < 0.6:
            params = pl.MarketParams(sigma_v=sv, sigma_u=su, sigma_eps=se, p0=p0)
            idx = r.randrange(n)

            def run():
                eq, sample, checks, passed = simulate_job(pl, params, cfg)
                return eq, sample, checks, passed, sample.path(idx)

            return Op("simulate", run, lambda res: self._check_simulate(params, cfg, res))
        if u < 0.8:
            tau = r.randint(1, 16)
            bp = pl.BatchParams(pl.MarketParams(sigma_v=sv, sigma_u=su, p0=p0), tau)

            def run():
                eq = pl.batched_equilibrium(bp)
                return eq, pl.simulate_batched(bp, eq, cfg)

            return Op("batched", run, lambda res: self._check_batched(bp, cfg, res))
        params = pl.MarketParams(sigma_v=sv, sigma_u=su, sigma_eps=se, p0=p0)
        v = p0 + r.choice((-1.0, 1.0)) * r.uniform(0.5, 2.0) * sv
        halfwidth = _loguniform(r, 0.05, 1.0)

        def run():
            eq = pl.solve_closed_form(params)
            return pl.verify_best_response(params, eq, v, halfwidth, 21, cfg)

        return Op("best_response", run, lambda res: self._check_best_response(params, v, halfwidth, cfg, res))

    def _check_simulate(self, params, cfg, result) -> Verdict:
        if isinstance(result, BaseException):
            return _failure(result)
        eq, sample, checks, passed, path = result
        verdict = check_simulate_job(self.pl, params, cfg, (eq, sample, checks, passed))
        if not verdict.ok:
            return verdict
        # the path read must be one consistent realization of the game
        scale = abs(path.v) + abs(params.p0) + abs(path.u) + abs(path.eps) + 1.0
        lam, beta = eq.lam, eq.beta
        consistent = (
            abs(path.x - beta * (path.v - params.p0)) <= 1e-12 * beta * scale
            and abs(path.y - (path.x + path.u)) <= 1e-12 * (abs(path.x) + scale)
            and abs(path.y_tilde - (path.y + path.eps)) <= 1e-12 * (abs(path.y) + scale)
            and abs(path.p - (params.p0 + lam * path.y_tilde)) <= 1e-12 * (abs(params.p0) + lam * abs(path.y_tilde) + 1.0)
            and (params.sigma_eps > 0 or path.eps == 0.0)
        )
        if not consistent:
            return Verdict(False, note=f"inconsistent path {path}")
        return verdict

    def _check_batched(self, bp, cfg, result) -> Verdict:
        bad = _failure(result)
        if bad:
            return bad
        eq, est = result
        targets = oracle.batched_targets(bp.base.sigma_v, bp.base.sigma_u, bp.tau)
        if not oracle.agrees(eq.lam, targets["lam"]) or est.n != cfg.n_paths:
            return Verdict(False, note=f"batched eq {eq} or n {est.n}")

        def checks(est):
            return [
                (name, float(targets[name][0]), getattr(est, f"mean_{name}"), getattr(est, f"se_{name}"))
                for name in ("pi_I", "pi_N", "pi_M")
            ]

        def rerun():
            return checks(self.pl.simulate_batched(bp, eq, _other_seed(cfg)))

        return _z_verdict(checks(est), targets, cfg.n_paths, rerun)

    def _check_best_response(self, params, v, halfwidth, cfg, result) -> Verdict:
        forms = oracle.closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)
        lam = float(forms["lam"][0])
        s = math.hypot(params.sigma_u, params.sigma_eps)
        x_star = (v - params.p0) / (2.0 * lam)
        step = 2.0 * halfwidth * abs(x_star) / 20.0
        # 3 se of an adjacent difference against the curvature gap, from theory
        resolution = 3.0 * s / (math.sqrt(cfg.n_paths) * step)
        if isinstance(result, self.pl.InconclusiveResolution):
            if resolution < 0.8:
                return Verdict(False, note=f"inconclusive at resolution ratio {resolution:.3f}")
            return Verdict(True, work=cfg.n_paths, inconclusive=True)
        bad = _failure(result)
        if bad:
            return bad
        if resolution > 1.25:
            return Verdict(False, note=f"resolved at resolution ratio {resolution:.3f}")
        if len(result.grid) != 21 or result.n_paths != cfg.n_paths:
            return Verdict(False, note="wrong grid or path count")
        if abs(result.x_star - x_star) > 1e-12 * abs(x_star) or abs(result.argmax_x - x_star) > 1.0001 * step:
            return Verdict(False, note=f"argmax {result.argmax_x!r} vs x* {x_star!r} step {step!r}")
        edge = v - params.p0
        mid = 10
        x = float(result.grid[mid])
        analytic = (edge - lam * x) * x
        if abs(float(result.analytic[mid]) - analytic) > 1e-9 * (abs(edge * x) + lam * x * x):
            return Verdict(False, note="analytic profit curve disagrees")
        z = _z(float(result.estimates[mid]), analytic, float(result.ses[mid]))
        if not z <= Z_FAIL:
            # as in _z_verdict: fail only if another seed misses by more than Z_GATE too
            try:
                again = self.pl.verify_best_response(
                    params, self.pl.solve_closed_form(params), v, halfwidth, 21, _other_seed(cfg)
                )
            except self.pl.InconclusiveResolution:
                again = None
            z_again = _z(float(again.estimates[mid]), analytic, float(again.ses[mid])) if again else math.inf
            if not z_again <= Z_GATE:
                return Verdict(False, note=f"profit estimate z = {z:.2f}, {z_again:.2f} on another seed")
            return Verdict(True, work=cfg.n_paths, z5=1)
        return Verdict(True, work=cfg.n_paths, z3=int(z > Z_GATE))

    def warm_up(self) -> None:
        for i in range(-8, 0):
            execute(self.op(i))

    def reference(self) -> HostReference:
        return HostReference(numpy_kernel)

    def probes(self) -> list[Op]:
        return []

    def summarize(self, log) -> dict:
        kinds = ("simulate", "batched", "best_response")
        times = [t for k in kinds for t in log.seconds(k)]
        out = {"mc_paths_per_s": (sum(log.work(k) for k in kinds) / sum(times), "1/s")}
        out.update(timing_summary("mc_job_s", times))
        out["mc.inconclusive"] = (log.inconclusive, "count")
        return out


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

SWEEP_ROWS = 20_000
SWEEP_CHECKED_ROWS = 32
FIXED_POINTS_PER_ROUND = 500
BUNDLES_PER_ROUND = 50
POINTS_PER_ROUND = 400

POINT_FUNCS = ("welfare_decomposition", "subsidy_analysis", "break_even_fee", "incremental_gains", "privacy_subsidy")
EXTREMES = {"huge_eps": (1.0, 1.0, 1e160), "tiny_all": (1e-200, 1e-200, 1e-200)}
EXTREME_OPS = tuple((e, f) for e in EXTREMES for f in (*POINT_FUNCS, "solve_fixed_point"))
# (extreme, function) pairs the library is known to get wrong: OverflowError
# at 1e160; ZeroDivisionError, and a break-even fee that underflows to 0 where
# the true rate (~1.8e-201) is representable, at 1e-200.  These are the
# workload's probes; the other extreme pairs stay in the timed loop.
KNOWN_DEFECTS = frozenset(
    {("huge_eps", f) for f in (*POINT_FUNCS, "solve_fixed_point")}
    | {("tiny_all", f) for f in ("subsidy_analysis", "break_even_fee", "solve_fixed_point")}
)
SWEEP_COLUMNS = ("lam", "beta", "pi_I", "pi_N", "pi_M", "subsidy", "d1", "d2", "fee_rate")


def _point_record(name: str, result) -> dict[str, float]:
    if name == "incremental_gains":
        return {"gain_informed": result[0], "gain_noise": result[1]}
    if name == "privacy_subsidy":
        return {"subsidy": result}
    if name == "solve_fixed_point":
        return {"lam": result.lam, "beta": result.beta}
    return _record(result)


class ClosedForm:
    name = "closed-form"
    why = (
        "equilibrium, welfare and report do all the work and montecarlo none, so a vectorized "
        "closed-form kernel or validation moved into the parameter types shows here and should "
        "leave the mc-* workloads unchanged."
    )
    in_process = True
    # bundle_s_p50 is not the headline latency: its run-to-run spread (file
    # writes on a shared disk) exceeds any bound the benchmark may set.
    headline = {"work_per_s": "sweep_rows_per_s", "op_s_p50": "fixed_point_s_p50"}

    def __init__(self, pl, seed: int, workdir: Path):
        self.pl, self.seed, self.workdir = pl, seed, workdir
        small = (
            [("fixed_point", None)] * FIXED_POINTS_PER_ROUND
            + [("bundle", None)] * BUNDLES_PER_ROUND
            + [("point", None)] * POINTS_PER_ROUND
            + [("extreme", pair) for pair in EXTREME_OPS if pair not in KNOWN_DEFECTS]
        )
        # Spread each kind evenly over the round, so that the samples of one
        # kind are not all taken in the same fraction of a second.
        total = Counter(kind for kind, _ in small)
        rank: Counter = Counter()
        keyed = []
        for kind, arg in small:
            keyed.append(((rank[kind] + 0.5) / total[kind], kind, arg))
            rank[kind] += 1
        self.layout = [("sweep", None)] + [(kind, arg) for _, kind, arg in sorted(keyed, key=lambda t: t[0])]

    def op(self, i: int) -> Op:
        r = _rng(self.name, self.seed, i)
        kind, arg = self.layout[i % len(self.layout)] if i >= 0 else ("sweep", None)
        if kind == "sweep":
            return self._sweep_op(r, SWEEP_ROWS if i >= 0 else 200)
        if kind == "fixed_point":
            return self._fixed_point_op(self._grid_params(r), kind)
        if kind == "bundle":
            return self._bundle_op(i)
        if kind == "point":
            return self._point_op(r.choice(POINT_FUNCS), self._grid_params(r), kind)
        return self._extreme_op(*arg)

    def _extreme_op(self, extreme: str, func: str) -> Op:
        params = self.pl.MarketParams(*EXTREMES[extreme])
        if func == "solve_fixed_point":
            return self._fixed_point_op(params, "extreme")
        return self._point_op(func, params, "extreme")

    def probes(self) -> list[Op]:
        return [self._extreme_op(*pair) for pair in EXTREME_OPS if pair in KNOWN_DEFECTS]

    def _grid_params(self, r: random.Random):
        """Like the test suite's grid: log-uniform sigma_v, sigma_u in
        [1e-3, 1e3], uniform sigma_eps in [0, 1e3]."""
        return self.pl.MarketParams(
            sigma_v=_loguniform(r, 1e-3, 1e3), sigma_u=_loguniform(r, 1e-3, 1e3), sigma_eps=r.uniform(0.0, 1e3)
        )

    def _sweep_op(self, r: random.Random, n_rows: int) -> Op:
        pl = self.pl
        sv, su = _loguniform(r, 0.1, 10.0), _loguniform(r, 0.1, 10.0)
        lo, hi = r.uniform(-4.0, -2.0), r.uniform(2.0, 4.0)
        values = (0.0,) + tuple(su * 10.0 ** (lo + (hi - lo) * k / (n_rows - 2)) for k in range(n_rows - 1))
        spec = pl.SweepSpec(pl.MarketParams(sigma_v=sv, sigma_u=su), values)
        sample = sorted(r.sample(range(n_rows), SWEEP_CHECKED_ROWS))

        def run():
            rows = pl.sweep(spec)
            return rows, pl.report.sweep_to_csv(rows)

        def check(result) -> Verdict:
            bad = _failure(result)
            if bad:
                return bad
            rows, csv = result
            lines = csv.split("\n")
            if len(rows) != n_rows or len(lines) != n_rows + 2 or lines[-1] != "":
                return Verdict(False, note=f"{len(rows)} rows, {len(lines)} csv lines for {n_rows} values")
            for row in rows:
                if not all(math.isfinite(getattr(row, c)) for c in SWEEP_COLUMNS):
                    return Verdict(False, note=f"non-finite sweep row {row}")
            header = lines[0].split(",")
            for k in sample:
                row = rows[k]
                if row.sigma_eps != values[k]:
                    return Verdict(False, note=f"row {k} is sigma_eps={row.sigma_eps!r}, expected {values[k]!r}")
                forms = oracle.closed_forms(sv, su, values[k])
                record = {c: getattr(row, c) for c in SWEEP_COLUMNS}
                wrong = oracle.mismatches(record, forms)
                if wrong:
                    return Verdict(False, note=f"sweep row {k} wrong in {wrong}")
                cells = dict(zip(header, lines[k + 1].split(",")))
                if any(float(cells["lambda" if c == "lam" else c]) != record[c] for c in SWEEP_COLUMNS):
                    return Verdict(False, note=f"csv row {k} does not round-trip")
            return Verdict(True, work=n_rows)

        return Op("sweep", run, check)

    def _fixed_point_op(self, params, kind: str) -> Op:
        def check(result) -> Verdict:
            bad = _failure(result)
            if bad:
                return bad
            forms = oracle.closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)
            wrong = oracle.mismatches(_point_record("solve_fixed_point", result), forms, rtol=1e-11)
            return Verdict(not wrong, work=1, note=f"fixed point wrong in {wrong}" if wrong else "")

        return Op(kind, lambda: self.pl.solve_fixed_point(params), check)

    def _bundle_op(self, i: int) -> Op:
        outdir = self.workdir / f"bundle-{i}"

        def check(result) -> Verdict:
            shutil.rmtree(outdir, ignore_errors=True)
            bad = _failure(result)
            if bad:
                return bad
            if not result.ok or len(result.files) != 5:
                return Verdict(False, note=f"bundle not ok: {result.mismatches}")
            return Verdict(True, work=1)

        return Op("bundle", lambda: self.pl.write_report_bundle(outdir), check)

    def _point_op(self, func: str, params, kind: str) -> Op:
        fn = getattr(self.pl, func)

        def check(result) -> Verdict:
            bad = _failure(result)
            if bad:
                return bad
            forms = oracle.closed_forms(params.sigma_v, params.sigma_u, params.sigma_eps)
            wrong = oracle.mismatches(_point_record(func, result), forms)
            return Verdict(not wrong, work=1, note=f"{func}{params} wrong in {wrong}" if wrong else "")

        return Op(kind, lambda: fn(params), check)

    def warm_up(self) -> None:
        for i in (-1, *range(1, 40)):
            execute(self.op(i))

    def reference(self) -> HostReference:
        return HostReference(python_kernel)

    def summarize(self, log) -> dict:
        fixed_point = log.seconds("fixed_point")
        out = {
            "sweep_rows_per_s": (log.work("sweep") / sum(log.seconds("sweep")), "1/s"),
            "fixed_point_per_s": (len(fixed_point) / sum(fixed_point), "1/s"),
        }
        out.update(timing_summary("fixed_point_s", fixed_point))
        out.update(timing_summary("bundle_s", log.seconds("bundle")))
        return out


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("equilibrium", "decompose", "fee", "sweep", "reproduce-paper", "simulate")
CLI_SIM_PATHS = 100_000
CLI_PROBES = (
    ("simulate", "--n-paths", "0"),
    ("simulate", "--n-paths", str(CLI_SIM_PATHS), "--seed", "-1"),
    ("simulate", "--n-paths", str(CLI_SIM_PATHS), "--chunk-size", "0"),
    ("simulate", "--n-paths", str(CLI_SIM_PATHS), "--batched", "--tau", "0"),
    ("simulate", "--n-paths", str(CLI_SIM_PATHS), "--beta-scale", "-1"),
    ("sweep", "--sigma-eps-values", "0,1e160"),
)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, int]:
    """Run argv to completion; return its exit code and peak RSS in KiB."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=cli_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class CliCold:
    name = "cli-cold"
    why = (
        "Users pay a cold start on every CLI call. This is the only workload that measures the "
        "cli layer and start-up: the numpy import closed-form commands never use, argument "
        "parsing and rendering."
    )
    in_process = False
    headline = {"work_per_s": "cli_calls_per_s", "op_s_p50": "cli_cold_s_p50"}

    def __init__(self, pl, seed: int, workdir: Path):
        self.pl, self.seed, self.workdir = pl, seed, workdir
        self.tracer = None
        self.peak_rss_kb = 0

    def argv(self, i: int) -> list[str]:
        """The CLI arguments of invocation i."""
        r = _rng(self.name, self.seed, i)
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)] if i >= 0 else "equilibrium"
        if command == "reproduce-paper":
            return [command, "--outdir", str(self.workdir / f"cli-bundle-{i}"), "--format", "json"]
        sv, su, se, p0 = _draw_market(r)
        argv = [command, "--sigma-v", repr(sv), "--sigma-u", repr(su), "--sigma-eps", repr(se), "--p0", repr(p0)]
        if command == "sweep":
            values = sorted(_loguniform(r, 1e-2, 1e2) * su for _ in range(8))
            argv += ["--sigma-eps-values", ",".join(repr(v) for v in values)]
        elif command == "simulate":
            argv += ["--n-paths", str(CLI_SIM_PATHS), "--seed", str(r.randrange(2**32))]
        return argv + ["--format", "json"]

    def op(self, i: int, argv: list[str] | None = None) -> Op:
        """Invocation i, or, given `argv`, a probe whose bad input must exit 2."""
        probe = argv is not None
        argv = argv if probe else self.argv(i)
        out, err = self.workdir / "cli.out", self.workdir / "cli.err"
        spans = self.workdir / "cli-spans.npz"
        tracer = self.tracer

        def run():
            if tracer is None:
                cmd = [sys.executable, "-m", "privacy_lab.cli", *argv]
            else:
                cmd = [sys.executable, str(CLI_SHIM), str(spans), *argv]
            return spawn(cmd, out, err)

        def check(result) -> Verdict:
            if tracer is not None and spans.exists():
                tracer.merge_dump(spans, i)
                spans.unlink()
            if argv[0] == "reproduce-paper":
                shutil.rmtree(argv[2], ignore_errors=True)
            bad = _failure(result)
            if bad:
                return bad
            code, rss_kb = result
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            verdict = self._check_output(argv, probe, code, out.read_text(), err.read_text())
            verdict.exit_code = code
            return verdict

        return Op(argv[0] if not probe else "probe", run, check)

    def _check_output(self, argv, probe: bool, code: int, stdout: str, stderr: str) -> Verdict:
        if probe:
            ok = code == 2 and "Traceback" not in stderr
            return Verdict(ok, work=1, note="" if ok else f"{argv}: exit {code}, {stderr.strip().splitlines()[-1:]}")
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return Verdict(False, note=f"{argv}: exit {code}, output is not JSON: {stderr.strip()[-200:]}")
        want, want_code, verdict = self.expected(argv)
        if not verdict.ok:
            return verdict
        if code != want_code:
            return Verdict(False, note=f"{argv}: exit {code}, expected {want_code}")
        if got != want:
            return Verdict(False, note=f"{argv}: output differs from the library's values")
        return verdict

    def expected(self, argv: list[str]):
        """JSON payload and exit code the CLI should produce, computed in-process
        by the library, and the verdict on the library's own values (the
        oracle check, for simulate)."""
        pl = self.pl
        command = argv[0]
        if command == "reproduce-paper":
            names = ("table1.csv", "table2.csv", "figure1.csv", "figure1.json", "fee_comparison.json")
            files = [str(Path(argv[2]) / name) for name in names]
            return {"files": files, "mismatches": [], "ok": True}, 0, Verdict(True, work=1)
        flags = dict(zip(argv[1::2], argv[2::2]))
        params = pl.MarketParams(*(float(flags[f]) for f in ("--sigma-v", "--sigma-u", "--sigma-eps", "--p0")))
        market = dataclasses.asdict(params)
        if command == "equilibrium":
            cf, fp = pl.solve_closed_form(params), pl.solve_fixed_point(params)
            return {
                "market": market,
                "closed_form": {"lambda": cf.lam, "beta": cf.beta},
                "fixed_point": {"lambda": fp.lam, "beta": fp.beta},
                "relative_discrepancy": abs(fp.lam - cf.lam) / cf.lam,
            }, 0, Verdict(True, work=1)
        fee = _record(pl.break_even_fee(params))
        if command == "fee":
            return {"market": market, "fee": fee}, 0, Verdict(True, work=1)
        if command == "decompose":
            w, a = pl.welfare_decomposition(params), _record(pl.subsidy_analysis(params))
            return {
                "market": market,
                "welfare": _record(w),
                "subsidy": a.pop("subsidy"),
                "subsidy_analysis": a,
                "fee": fee,
            }, 0, Verdict(True, work=1)
        if command == "sweep":
            values = tuple(float(v) for v in flags["--sigma-eps-values"].split(","))
            spec = pl.SweepSpec(params, values)
            rows = []
            for row in pl.sweep(spec):
                rec = dataclasses.asdict(row)
                rec["lambda"] = rec.pop("lam")
                rows.append(rec)
            return {
                "market": market,
                "sweep": {"sigma_eps_values": list(values), "outputs": sorted(spec.outputs)},
                "rows": rows,
            }, 0, Verdict(True, work=1)
        cfg = pl.SimConfig(n_paths=int(flags["--n-paths"]), seed=int(flags["--seed"]))
        eq, sample, checks, passed = simulate_job(pl, params, cfg)
        verdict = check_simulate_job(pl, params, cfg, (eq, sample, checks, passed))
        verdict.work = 1
        labels = ("π_I", "π_N", "π_M", "λ (OLS slope)", "E[p|v] slope", "Var(p|v)")
        results = []
        for label, (_, exp, est, se) in zip(labels, checks):
            z = abs(est - exp) / se
            results.append({"name": label, "expected": exp, "estimate": est, "se": se, "z": z, "pass": z <= Z_GATE})
        payload = {
            "market": market,
            "sim": {"n_paths": cfg.n_paths, "seed": cfg.seed, "chunk_size": cfg.chunk_size},
            "batched": False,
            "tau": 1,
            "beta_scale": 1.0,
            "checks": results,
            "all_pass": passed,
        }
        return payload, 0 if passed else 3, verdict

    def warm_up(self) -> None:
        execute(self.op(-1))

    def reference(self) -> HostReference:
        return HostReference(spawn_kernel)

    def probes(self) -> list[Op]:
        return [
            self.op(-1, [probe[0], "--sigma-v", "1", "--sigma-u", "1", *probe[1:], "--format", "json"])
            for probe in CLI_PROBES
        ]

    def summarize(self, log) -> dict:
        times = [t for k in CLI_COMMANDS for t in log.seconds(k)]
        out = timing_summary("cli_cold_s", times)
        out["cli_calls_per_s"] = (len(times) / sum(times), "1/s")
        return out

    # -- traced-run extras ---------------------------------------------------

    def layer_extras(self, verdicts, n_ops: int) -> dict[str, float]:
        """Import time in a fresh process, warm in-process main() per call,
        whether a closed-form command loads numpy, and non-zero exits among
        `verdicts` (the timed loop's and the probes')."""
        probe_code = (
            "import sys, time\n"
            "t = time.perf_counter()\n"
            "import privacy_lab.cli\n"
            "sys.stdout.write(repr(time.perf_counter() - t))\n"
        )
        imports = []
        for _ in range(5):
            res = subprocess.run([sys.executable, "-c", probe_code], capture_output=True, text=True, env=cli_env(), cwd=ROOT, check=True)
            imports.append(float(res.stdout))
        numpy_code = (
            "import sys\n"
            "from privacy_lab.cli import main\n"
            "main(['equilibrium', '--sigma-v', '1', '--sigma-u', '1', '--format', 'json'])\n"
            "sys.stderr.write(str(int('numpy' in sys.modules)))\n"
        )
        res = subprocess.run([sys.executable, "-c", numpy_code], capture_output=True, text=True, env=cli_env(), cwd=ROOT, check=True)

        from privacy_lab import cli

        main_total = 0.0
        for i in range(n_ops):
            argv = self.argv(i)
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    cli.main(argv)
            except (SystemExit, Exception):  # main_s times a call however it ends
                pass
            main_total += time.perf_counter() - t0
            if argv[0] == "reproduce-paper":
                shutil.rmtree(argv[2], ignore_errors=True)
        return {
            "cli.import_s": statistics.median(imports),
            "cli.main_s": main_total / n_ops,
            "cli.numpy_loaded": int(res.stderr.strip()[-1:] or 0),
            "cli.error_exits": sum(1 for v in verdicts if v.exit_code not in (None, 0)),
        }


WORKLOADS = {w.name: w for w in (McLarge, McSmall, ClosedForm, CliCold)}
