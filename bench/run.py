"""Layered benchmark for privacy-lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

Runs one workload (see workloads.py and BENCHMARK.json for the four, and why
each was chosen) from the root of a source checkout, importing the package
from ./src.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is a detail
object with provenance and every metric under the workload's own names.

--trace 0 times the workload untraced and reports the end-to-end metrics of
BENCHMARK.json.  Their timings (setup_s, work_per_s, op_s_p50) are scaled by
a host factor, the speed of a fixed reference kernel timed just before
each operation or set-up (see host.py); the detail line holds them as
measured, with the run's median factor.  work_per_s and op_s_p50 are each
workload's headline throughput and latency (`headline` in workloads.py):

    mc-large     mc_paths_per_s    mc_job_s_p50       verified paths/s, s per job
    mc-small     mc_paths_per_s    mc_job_s_p50
    closed-form  sweep_rows_per_s  fixed_point_s_p50  rows/s incl. render, s per solve
    cli-cold     cli_calls_per_s   cli_cold_s_p50     invocations/s, s per invocation

--trace 1 runs the workload untraced for half the time, then replays the
same operations with every public function of the five layers wrapped in
spans, and reports the per-layer metrics: per-operation self time and calls
per layer, the share of op time the top-level spans cover
(trace.coverage), and traced against untraced time (trace.overhead).  Spans
are written to .bench_work/trace-<workload>.npz.

--workload all runs each workload in its own process and prints every metric
as a table.  Reads and writes stay inside the checkout (.bench_work/).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from host import HostReference, spawn_kernel
from tracer import Tracer, observe_pool_sizes
from workloads import WORKLOADS, execute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5


def load_library():
    """Import privacy_lab from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "privacy_lab" / "__init__.py").is_file():
        sys.exit(f"error: no privacy_lab package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import privacy_lab

    if src.resolve() not in Path(privacy_lab.__file__).resolve().parents:
        sys.exit(f"error: imported privacy_lab from {privacy_lab.__file__}, not from {src}")
    return privacy_lab


class Log:
    """Per-operation record of one timed loop."""

    def __init__(self):
        self.kinds: list[str] = []
        self.times: list[float] = []
        self.verdicts: list = []
        self.factors: list[float] = []

    def add(self, op, seconds: float, verdict, factor: float = 1.0) -> None:
        self.kinds.append(op.kind)
        self.times.append(seconds)
        self.verdicts.append(verdict)
        self.factors.append(factor)

    def scaled(self) -> "Log":
        """The same log with each time divided by its host factor."""
        out = Log()
        out.kinds, out.verdicts = self.kinds, self.verdicts
        out.times = [t / f for t, f in zip(self.times, self.factors)]
        out.factors = [1.0] * len(self.times)
        return out

    def seconds(self, kind: str) -> list[float]:
        return [t for k, t in zip(self.kinds, self.times) if k == kind]

    def work(self, kind: str) -> float:
        return sum(v.work for k, v in zip(self.kinds, self.verdicts) if k == kind and v.ok)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(not v.ok for v in self.verdicts)

    @property
    def failures(self) -> list[str]:
        return [v.note for v in self.verdicts if not v.ok]

    @property
    def z3(self) -> int:
        return sum(v.z3 for v in self.verdicts)

    @property
    def z5(self) -> int:
        return sum(v.z5 for v in self.verdicts)

    @property
    def inconclusive(self) -> int:
        return sum(v.inconclusive for v in self.verdicts)


def run_ops(wl, seconds: float | None = None, n_ops: int | None = None, tracer=None, host=None) -> Log:
    """Closed loop: run operations one at a time until `seconds` of wall time
    have passed or `n_ops` operations have run.  Only `op.run` is timed; the
    host reference, if given, runs between operations, and each operation
    records the factor of its latest sample."""
    log = Log()
    start = time.perf_counter()
    i = 0
    while (n_ops is not None and i < n_ops) or (n_ops is None and time.perf_counter() - start < seconds):
        factor = 1.0
        if host is not None:
            host.tick()
            factor = host.latest
        op = wl.op(i)
        if tracer is not None:
            tracer.current_job = i
        log.add(op, *execute(op), factor)
        i += 1
    return log


def run_probes(wl) -> Log:
    """Run each of the workload's known-defect probes once, outside any timing."""
    log = Log()
    for op in wl.probes():
        log.add(op, *execute(op))
    for note in log.failures:
        print(f"KNOWN DEFECT: {note}", file=sys.stderr)
    return log


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(pl, wl, seed: int, pool_sizes: list[int]) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PRIVACY_LAB_THREADS": os.environ.get("PRIVACY_LAB_THREADS"),
        "threads": max(pool_sizes) if pool_sizes else None,
        "rng_scheme": getattr(pl.montecarlo, "RNG_SCHEME", None),
    }


def setup_seconds(args) -> tuple[float, float]:
    """Set-up time, process start until the first timed operation could
    begin, of fresh processes that import, generate inputs and warm up: the
    median as measured, and the median of each set-up scaled by the host
    factor of the spawn kernel timed just before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        host = HostReference(spawn_kernel)
        host.tick()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        measured.append(time.perf_counter() - t0)
        scaled.append(measured[-1] / host.factor)
    return statistics.median(measured), statistics.median(scaled)


def peak_rss_mb(wl) -> float:
    if wl.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return wl.peak_rss_kb / 1024.0


def measured_run(args, spec, wl, setup: tuple[float, float]) -> tuple[dict, dict]:
    host = wl.reference()
    host.kernel()  # warm-up
    log = run_ops(wl, seconds=args.seconds, host=host)
    probes = run_probes(wl)
    setup_s, setup_scaled = setup
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
        "attempted": (log.attempted, "count"),
        "failed": (log.failed, "count"),
        "ops_failed_frac": (log.failed / log.attempted, "ratio"),
        "probe_ops": (probes.attempted, "count"),
        "known_defects": (probes.failed, "count"),
        "mc.z3_misses": (log.z3, "count"),
        "mc.z5_unconfirmed": (log.z5, "count"),
        "host.factor": (host.factor, "ratio"),
        "host.setup_factor": (setup_s / setup_scaled, "ratio"),
        "host.samples": (len(host.samples), "count"),
        **wl.summarize(log),
    }
    headline = wl.summarize(log.scaled())
    scaled = {
        "setup_s": setup_scaled,
        "peak_rss_mb": named["peak_rss_mb"][0],
        "work_per_s": headline[wl.headline["work_per_s"]][0],
        "op_s_p50": headline[wl.headline["op_s_p50"]][0],
    }
    metrics = {m["name"]: {"value": scaled[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return log_result(log, [log], metrics), named


def traced_run(args, spec, wl) -> tuple[dict, dict]:
    untraced = run_ops(wl, seconds=args.seconds / 2)
    n_ops = untraced.attempted
    tracer = Tracer()
    if wl.in_process:
        tracer.install()
    else:
        wl.tracer = tracer
    try:
        traced = run_ops(wl, n_ops=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()
        wl.tracer = None
    probes = run_probes(wl)
    traced_s, untraced_s = sum(traced.times), sum(untraced.times)
    layer = tracer.layer_metrics(n_ops, traced_s)
    layer["trace.overhead"] = traced_s / untraced_s
    layer["trace.ops"] = n_ops
    layer["mc.z3_misses"] = untraced.z3
    layer["mc.z5_unconfirmed"] = untraced.z5
    layer["mc.inconclusive"] = untraced.inconclusive
    layer["known_defects"] = probes.failed
    if hasattr(wl, "layer_extras"):
        layer.update(wl.layer_extras(untraced.verdicts + probes.verdicts, n_ops))
    tracer.dump(WORKDIR / f"trace-{wl.name}.npz")
    metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    named = {k: (v, next((m["unit"] for m in spec["per_layer"] if m["name"] == k), "")) for k, v in layer.items()}
    return log_result(untraced, [untraced, traced], metrics), named


def log_result(log, logs, metrics) -> dict:
    failures = [note for lg in logs for note in lg.failures]
    for note in failures[:10]:
        print(f"FAILED: {note}", file=sys.stderr)
    return {"correct": not failures, "attempted": log.attempted, "failed": log.failed, "metrics": metrics}


def run_one(args) -> int:
    pl = load_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = None if args.setup_only or args.trace else setup_seconds(args)
        wl = WORKLOADS[args.workload](pl, args.seed, workdir)
        pool_sizes: list[int] = []
        undo = observe_pool_sizes(pool_sizes.append)
        try:
            wl.warm_up()
        finally:
            undo()
        if args.setup_only:
            return 0
        if args.trace:
            result, named = traced_run(args, spec, wl)
        else:
            result, named = measured_run(args, spec, wl, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "provenance": provenance(pl, wl, args.seed, pool_sizes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']}: exit {proc.returncode}")
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"== {w['name']}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        print(f"   why: {w['why']}")
        print(f"   provenance: {json.dumps({k: v for k, v in detail['provenance'].items() if k != 'why'})}")
        for name, m in detail["metrics"].items():
            print(f"   {name:<42} {m['value']!s:>24} {m['unit']}")
        for name, m in result["metrics"].items():
            print(f"   [BENCHMARK.json] {name:<25} {m['value']!s:>24} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
