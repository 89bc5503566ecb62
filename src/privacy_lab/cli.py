"""Command-line front end.

Subcommands: equilibrium, decompose, fee, sweep, simulate, reproduce-paper.
Market parameters come from flags (--sigma-v, --sigma-u, --sigma-eps, --p0)
or a JSON config file (--config); flags override the file.  The keys of
each config block are the fields of its record: `market` of MarketParams,
`sim` of SimConfig and `sweep` of SweepSpec after `params_base`.  Values go
to the records as read, which check them and supply their own defaults.
Exit codes: 0 success, 2 usage or validation error, 3 verification failure.

Each command computes its records and hands them to `_emit`, which writes
them in the chosen --format through the renderer in `_render`: JSON of the
records' fields, CSV of a header and rows, or the command's human template.

At module level this imports only `errors`, `equilibrium` and `_render`.
Each command imports the rest of what it runs when it runs: `welfare` for
`decompose` and `fee`, `report` for `sweep` and `reproduce-paper`, and
`montecarlo`, with it numpy, for `simulate` alone.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

from ._render import _record, _to_csv, _to_json
from .equilibrium import BatchParams, MarketParams, solve_closed_form, solve_fixed_point
from .errors import ParamError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

# Human layouts, one str.format template per command.
_EQUILIBRIUM_TEXT = """\
λ (closed form)  = {cf.lam:.6g}
β (closed form)  = {cf.beta:.6g}
λ (fixed point)  = {fp.lam:.6g}
β (fixed point)  = {fp.beta:.6g}
λ·β              = {lam_beta:.6g}
oracle discrepancy |λ_fp − λ_cf|/λ_cf = {disc:.3g}"""
_DECOMPOSE_TEXT = """\
π_I = {w.pi_I:.6g}
π_N = {w.pi_N:.6g}
π_M = {w.pi_M:.6g}
|π_M| (privacy subsidy) = {a.subsidy:.6g}{per_period}
∂|π_M|/∂σε = {a.d1:.6g}   ∂²|π_M|/∂σε² = {a.d2:.6g}
inflection σε* = {a.inflection:.6g}
break-even fee f = {fee.fee_rate:.6g}   (Q = {fee.q_total:.6g})
E|x| = {fee.e_abs_x:.6g}   E|u| = {fee.e_abs_u:.6g}
fee on informed = {fee.fee_on_informed:.6g}   fee on noise = {fee.fee_on_noise:.6g}
net π_I = {fee.net_pi_I:.6g}   net π_N = {fee.net_pi_N:.6g}"""
_FEE_TEXT = """\
E|x| = {fee.e_abs_x:.6g}
E|u| = {fee.e_abs_u:.6g}
Q    = {fee.q_total:.6g}
f    = {fee.fee_rate:.6g}
fee on informed = {fee.fee_on_informed:.6g}
fee on noise    = {fee.fee_on_noise:.6g}
net π_I = {fee.net_pi_I:.6g}
net π_N = {fee.net_pi_N:.6g}"""
_CHECK_TEXT = (
    "{c.name:<{width}}  expected {c.expected:>12.6g}  estimate {c.estimate:>12.6g}  se {c.se:>10.6g}  z {c.z:5.2f}"
    "  {ok}"
)

# A flag value that starts with "-" is a value, not an option, when it is a
# number: argparse alone accepts only "-1" and "-1.5", not "-1.5e-06" or "-inf".
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
    except (ValueError, RecursionError) as e:  # also not UTF-8, too deep, or an int past the digit limit
        raise UsageError(f"config file is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _block(args, cfg: dict, name: str, record: type, skip: int = 0) -> dict:
    """Config block `name` with the flags given merged over it.  Its keys are
    the fields of `record` after the first `skip`, and a flag of the same name
    overrides a key.  A key the block does not have is a usage error naming
    it, so a typo is not silently ignored."""
    keys = [f.name for f in fields(record)][skip:]
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise UsageError(f"config block {name!r} must be a JSON object, got {block!r}")
    unknown = sorted(block.keys() - set(keys))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise UsageError(f"unknown key(s) {names} in config block {name!r}; valid: {', '.join(keys)}")
    return {**block, **{k: v for k in keys if (v := getattr(args, k, None)) is not None}}


def _market_from(args, cfg: dict) -> MarketParams:
    block = _block(args, cfg, "market", MarketParams)
    missing = [f.name for f in fields(MarketParams) if f.default is MISSING and f.name not in block]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise UsageError(f"missing required market parameter(s): {flags}")
    return MarketParams(**block)


def _emit(args, payload: dict, human: str, header=(), rows=()) -> None:
    """Write the result in args.format to --output, or else to stdout."""
    if (fmt := args.format) == "json":
        text = _to_json(payload)
    elif fmt == "csv":
        text = _to_csv(header, rows)
    else:
        text = human + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text, newline="\n")
        except OSError as e:
            raise UsageError(f"cannot write --output: {e}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_equilibrium(args, cfg: dict) -> int:
    params = _market_from(args, cfg)
    cf = solve_closed_form(params)
    fp = solve_fixed_point(params)
    disc = abs(fp.lam - cf.lam) / cf.lam
    payload = {"market": params, "closed_form": cf, "fixed_point": fp, "relative_discrepancy": disc}
    human = _EQUILIBRIUM_TEXT.format(cf=cf, fp=fp, lam_beta=cf.lam * cf.beta, disc=disc)
    rows = [("closed_form", cf.lam, cf.beta), ("fixed_point", fp.lam, fp.beta)]
    _emit(args, payload, human, ("method", "lambda", "beta"), rows)
    return EXIT_OK


def cmd_decompose(args, cfg: dict) -> int:
    from .welfare import break_even_fee, subsidy_analysis, welfare_decomposition

    params = _market_from(args, cfg)
    w = welfare_decomposition(params)
    a = subsidy_analysis(params)
    fee = break_even_fee(params)
    payload = {
        "market": params,
        "welfare": w,
        "subsidy": a.subsidy,
        "subsidy_analysis": _record(a, drop=("subsidy",)),
        "fee": fee,
    }
    per_period = f"  (≈ {a.subsidy:,.0f} per period)" if a.subsidy >= 1e4 else ""
    rows = {**_record(w), **_record(a, drop=("low_privacy_coeff", "high_privacy_slope")), **_record(fee)}
    human = _DECOMPOSE_TEXT.format(w=w, a=a, fee=fee, per_period=per_period)
    _emit(args, payload, human, ("quantity", "value"), rows.items())
    return EXIT_OK


def cmd_fee(args, cfg: dict) -> int:
    from .welfare import break_even_fee

    params = _market_from(args, cfg)
    fee = break_even_fee(params)
    _emit(args, {"market": params, "fee": fee}, _FEE_TEXT.format(fee=fee), ("quantity", "value"), _record(fee).items())
    return EXIT_OK


def _sweep_line(r) -> str:
    cells = [f"σε = {r.sigma_eps:.6g}"]
    if r.lam is not None:
        cells += [f"λ = {r.lam:.6g}", f"β = {r.beta:.6g}"]
    if r.subsidy is not None:
        cells.append(f"|π_M| = {r.subsidy:.6g}")
    if r.fee_rate is not None:
        cells.append(f"f = {r.fee_rate:.6g}")
    cells.append(r.note)
    return "   ".join(cells)


def cmd_sweep(args, cfg: dict) -> int:
    from .report import SWEEP_CSV_COLUMNS, SweepSpec, _sweep_cells, sweep

    params = _market_from(args, cfg)
    block = _block(args, cfg, "sweep", SweepSpec, skip=1)  # params_base is the market block
    if "sigma_eps_values" not in block:
        raise UsageError("sweep needs --sigma-eps-values or a config with sweep.sigma_eps_values")
    spec = SweepSpec(params, **block)
    rows = sweep(spec)
    payload = {
        "market": params,
        "sweep": {"sigma_eps_values": spec.sigma_eps_values, "outputs": sorted(spec.outputs)},
        "rows": rows,
    }
    _emit(args, payload, "\n".join(map(_sweep_line, rows)), SWEEP_CSV_COLUMNS, map(_sweep_cells, rows))
    return EXIT_OK


def cmd_simulate(args, cfg: dict) -> int:
    from .montecarlo import SimConfig, verify_batched, verify_simulation

    if args.tau != 1 and not args.batched:
        raise UsageError(f"--tau {args.tau} has no effect without --batched")
    if args.beta_scale != 1.0 and args.batched:
        raise UsageError(f"--beta-scale {args.beta_scale} has no effect with --batched")
    params = _market_from(args, cfg)
    if params.sigma_eps != 0.0 and args.batched:
        raise UsageError(f"--sigma-eps {params.sigma_eps} has no effect with --batched")
    sim_cfg = SimConfig(**{"n_paths": 1_000_000, "seed": 42, **_block(args, cfg, "sim", SimConfig)})
    if args.batched:
        checks = verify_batched(BatchParams(params, args.tau), sim_cfg)
    else:
        eq = solve_closed_form(params)
        checks = verify_simulation(params, replace(eq, beta=eq.beta * args.beta_scale), sim_cfg)
    all_pass = all(c.passed for c in checks)

    payload = {
        "market": params,
        "sim": sim_cfg,
        "batched": args.batched,
        "tau": args.tau,
        "beta_scale": args.beta_scale,
        "checks": checks,
        "all_pass": all_pass,
    }
    width = max(len(c.name) for c in checks)
    lines = [_CHECK_TEXT.format(c=c, width=width, ok="PASS" if c.passed else "FAIL") for c in checks]
    lines.append("all checks passed" if all_pass else "SOME CHECKS FAILED")
    rows = [_record(c) for c in checks]
    _emit(args, payload, "\n".join(lines), tuple(rows[0]), [r.values() for r in rows])
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_reproduce_paper(args, cfg: dict) -> int:
    from .report import write_report_bundle

    try:
        result = write_report_bundle(args.outdir)
    except OSError as e:
        raise UsageError(f"cannot write --outdir: {e}") from None
    lines = [f"wrote {f}" for f in result.files]
    if result.ok:
        lines.append("all artifacts verified against pinned expected values")
    else:
        lines += ["MISMATCHES:", *(f"  {m}" for m in result.mismatches)]
    _emit(args, {**_record(result), "ok": result.ok}, "\n".join(lines))
    return EXIT_OK if result.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _comma_list(kind):
    def parse(text: str) -> list:
        try:
            return [kind(v.strip()) for v in text.split(",") if v.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be a comma-separated list, got {text!r}") from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privacy-lab",
        description="Equilibrium, welfare and fee analysis of a market maker pricing privacy-noised order flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("equilibrium", cmd_equilibrium, "closed-form equilibrium with fixed-point oracle cross-check"),
        ("decompose", cmd_decompose, "welfare decomposition, subsidy and break-even fee"),
        ("fee", cmd_fee, "break-even fee record"),
        ("sweep", cmd_sweep, "sweep sigma_eps and emit report rows"),
        ("simulate", cmd_simulate, "Monte Carlo verification against the closed forms"),
        ("reproduce-paper", cmd_reproduce_paper, "write and verify the reference table/figure bundle"),
    )
    for name, func, text in commands:
        p = sub.add_parser(name, help=text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(func=func)
        if name != "reproduce-paper":  # it prints no CSV and takes no market
            p.add_argument("--sigma-v", type=float, help="value std dev (> 0)")
            p.add_argument("--sigma-u", type=float, help="noise-flow std dev (> 0)")
            p.add_argument("--sigma-eps", type=float, help="privacy-noise std dev (>= 0)")
            p.add_argument("--p0", type=float, help="prior mean price (default 0)")
            p.add_argument("--config", help="JSON config file; flags override it")
        formats = ("human", "json") if name == "reproduce-paper" else ("human", "json", "csv")
        p.add_argument("--format", choices=formats, default="csv" if name == "sweep" else "human")
        p.add_argument("--output", help="write output to this file instead of stdout")
    sub.choices["reproduce-paper"].add_argument("--outdir", default="report_bundle")

    p = sub.choices["sweep"]
    p.add_argument("--sigma-eps-values", type=_comma_list(float), help="comma-separated sigma_eps grid")
    p.add_argument(
        "--outputs", type=_comma_list(str), help="comma-separated subset of equilibrium,welfare,subsidy_analysis,fee"
    )

    p = sub.choices["simulate"]
    p.add_argument("--n-paths", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--chunk-size", type=int)
    p.add_argument("--beta-scale", type=float, default=1.0, help="perturb the trader coefficient (not with --batched)")
    p.add_argument("--batched", action="store_true", help="simulate the batched market instead")
    p.add_argument("--tau", type=int, default=1, help="batch length in periods (with --batched)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(getattr(args, "config", None)))
    except (ParamError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
