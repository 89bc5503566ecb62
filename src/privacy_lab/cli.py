"""Command-line front end.

Subcommands: equilibrium, decompose, fee, sweep, simulate, reproduce-paper.
Market parameters come from flags (--sigma-v, --sigma-u, --sigma-eps, --p0)
or a JSON config file (--config); flags override the file.  Exit codes:
0 success, 2 usage or validation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .equilibrium import (
    BatchParams,
    MarketParams,
    _batched_market,
    batched_equilibrium,
    posterior_slope,
    solve_closed_form,
    solve_fixed_point,
)
from .errors import ParamError, PrivacyLabError
from .montecarlo import (
    DEFAULT_CHUNK_SIZE,
    SimConfig,
    estimate_lambda_regression,
    estimate_price_moments,
    estimate_welfare,
    simulate,
    simulate_batched,
)
from .report import (
    OUTPUT_KINDS,
    SweepSpec,
    format_float,
    sweep,
    sweep_to_csv,
    write_report_bundle,
)
from .welfare import break_even_fee, subsidy_analysis, welfare_at, welfare_decomposition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


def _f6(x: float) -> str:
    return f"{x:.6g}"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"config file is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _block(cfg: dict, name: str) -> dict:
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise UsageError(f"config block {name!r} must be a JSON object, got {block!r}")
    return dict(block)


def _market_from(args, cfg: dict) -> MarketParams:
    block = _block(cfg, "market")
    for key in ("sigma_v", "sigma_u", "sigma_eps", "p0"):
        value = getattr(args, key, None)
        if value is not None:
            block[key] = value
    missing = [k for k in ("sigma_v", "sigma_u") if k not in block]
    if missing:
        raise UsageError(
            "missing required market parameter(s): " + ", ".join("--" + m.replace("_", "-") for m in missing)
        )
    try:
        values = [float(block.get(k, 0.0)) for k in ("sigma_v", "sigma_u", "sigma_eps", "p0")]
    except (TypeError, ValueError):
        raise UsageError(f"market parameters must be numbers, got {block!r}") from None
    return MarketParams(*values)


def _market_dict(params: MarketParams) -> dict:
    return {
        "sigma_v": params.sigma_v,
        "sigma_u": params.sigma_u,
        "sigma_eps": params.sigma_eps,
        "p0": params.p0,
    }


def _write_out(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text, newline="\n")
        except OSError as e:
            raise UsageError(f"cannot write --output: {e}") from None
    else:
        sys.stdout.write(text)


def _grouped(x: float) -> str:
    return f"{x:,.0f}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_equilibrium(args) -> int:
    params = _market_from(args, _load_config(args.config))
    cf = solve_closed_form(params)
    fp = solve_fixed_point(params)
    disc = abs(fp.lam - cf.lam) / cf.lam
    if args.format == "json":
        payload = {
            "market": _market_dict(params),
            "closed_form": {"lambda": cf.lam, "beta": cf.beta},
            "fixed_point": {"lambda": fp.lam, "beta": fp.beta},
            "relative_discrepancy": disc,
        }
        _write_out(args, json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        lines = [
            "method,lambda,beta",
            f"closed_form,{format_float(cf.lam)},{format_float(cf.beta)}",
            f"fixed_point,{format_float(fp.lam)},{format_float(fp.beta)}",
        ]
        _write_out(args, "\n".join(lines))
    else:
        lines = [
            f"λ (closed form)  = {_f6(cf.lam)}",
            f"β (closed form)  = {_f6(cf.beta)}",
            f"λ (fixed point)  = {_f6(fp.lam)}",
            f"β (fixed point)  = {_f6(fp.beta)}",
            f"λ·β              = {_f6(cf.lam * cf.beta)}",
            f"oracle discrepancy |λ_fp − λ_cf|/λ_cf = {disc:.3g}",
        ]
        _write_out(args, "\n".join(lines))
    return EXIT_OK


def cmd_decompose(args) -> int:
    params = _market_from(args, _load_config(args.config))
    w = welfare_decomposition(params)
    a = subsidy_analysis(params)
    fee = break_even_fee(params)
    if args.format == "json":
        payload = {
            "market": _market_dict(params),
            "welfare": {"pi_I": w.pi_I, "pi_N": w.pi_N, "pi_M": w.pi_M},
            "subsidy": a.subsidy,
            "subsidy_analysis": {
                "d1": a.d1,
                "d2": a.d2,
                "inflection": a.inflection,
                "low_privacy_coeff": a.low_privacy_coeff,
                "high_privacy_slope": a.high_privacy_slope,
            },
            "fee": {
                "e_abs_x": fee.e_abs_x,
                "e_abs_u": fee.e_abs_u,
                "q_total": fee.q_total,
                "fee_rate": fee.fee_rate,
                "fee_on_informed": fee.fee_on_informed,
                "fee_on_noise": fee.fee_on_noise,
                "net_pi_I": fee.net_pi_I,
                "net_pi_N": fee.net_pi_N,
            },
        }
        _write_out(args, json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        names = (
            ("pi_I", w.pi_I),
            ("pi_N", w.pi_N),
            ("pi_M", w.pi_M),
            ("subsidy", a.subsidy),
            ("d1", a.d1),
            ("d2", a.d2),
            ("inflection", a.inflection),
            ("e_abs_x", fee.e_abs_x),
            ("e_abs_u", fee.e_abs_u),
            ("q_total", fee.q_total),
            ("fee_rate", fee.fee_rate),
            ("fee_on_informed", fee.fee_on_informed),
            ("fee_on_noise", fee.fee_on_noise),
            ("net_pi_I", fee.net_pi_I),
            ("net_pi_N", fee.net_pi_N),
        )
        lines = ["quantity,value"] + [f"{k},{format_float(v)}" for k, v in names]
        _write_out(args, "\n".join(lines))
    else:
        subsidy_line = f"|π_M| (privacy subsidy) = {_f6(a.subsidy)}"
        if a.subsidy >= 1e4:
            subsidy_line += f"  (≈ {_grouped(a.subsidy)} per period)"
        lines = [
            f"π_I = {_f6(w.pi_I)}",
            f"π_N = {_f6(w.pi_N)}",
            f"π_M = {_f6(w.pi_M)}",
            subsidy_line,
            f"∂|π_M|/∂σε = {_f6(a.d1)}   ∂²|π_M|/∂σε² = {_f6(a.d2)}",
            f"inflection σε* = {_f6(a.inflection)}",
            f"break-even fee f = {_f6(fee.fee_rate)}   (Q = {_f6(fee.q_total)})",
            f"E|x| = {_f6(fee.e_abs_x)}   E|u| = {_f6(fee.e_abs_u)}",
            f"fee on informed = {_f6(fee.fee_on_informed)}   fee on noise = {_f6(fee.fee_on_noise)}",
            f"net π_I = {_f6(fee.net_pi_I)}   net π_N = {_f6(fee.net_pi_N)}",
        ]
        _write_out(args, "\n".join(lines))
    return EXIT_OK


def cmd_fee(args) -> int:
    params = _market_from(args, _load_config(args.config))
    fee = break_even_fee(params)
    if args.format == "json":
        payload = {
            "market": _market_dict(params),
            "fee": {
                "e_abs_x": fee.e_abs_x,
                "e_abs_u": fee.e_abs_u,
                "q_total": fee.q_total,
                "fee_rate": fee.fee_rate,
                "fee_on_informed": fee.fee_on_informed,
                "fee_on_noise": fee.fee_on_noise,
                "net_pi_I": fee.net_pi_I,
                "net_pi_N": fee.net_pi_N,
            },
        }
        _write_out(args, json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        pairs = (
            ("e_abs_x", fee.e_abs_x),
            ("e_abs_u", fee.e_abs_u),
            ("q_total", fee.q_total),
            ("fee_rate", fee.fee_rate),
            ("fee_on_informed", fee.fee_on_informed),
            ("fee_on_noise", fee.fee_on_noise),
            ("net_pi_I", fee.net_pi_I),
            ("net_pi_N", fee.net_pi_N),
        )
        _write_out(args, "\n".join(["quantity,value"] + [f"{k},{format_float(v)}" for k, v in pairs]))
    else:
        lines = [
            f"E|x| = {_f6(fee.e_abs_x)}",
            f"E|u| = {_f6(fee.e_abs_u)}",
            f"Q    = {_f6(fee.q_total)}",
            f"f    = {_f6(fee.fee_rate)}",
            f"fee on informed = {_f6(fee.fee_on_informed)}",
            f"fee on noise    = {_f6(fee.fee_on_noise)}",
            f"net π_I = {_f6(fee.net_pi_I)}",
            f"net π_N = {_f6(fee.net_pi_N)}",
        ]
        _write_out(args, "\n".join(lines))
    return EXIT_OK


def _sweep_spec_from(args, cfg: dict, params: MarketParams) -> SweepSpec:
    block = _block(cfg, "sweep")
    if args.sigma_eps_values is not None:
        try:
            block["sigma_eps_values"] = [float(v) for v in args.sigma_eps_values.split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"--sigma-eps-values must be comma-separated numbers, got {args.sigma_eps_values!r}") from None
    if args.outputs is not None:
        block["outputs"] = [v.strip() for v in args.outputs.split(",") if v.strip()]
    if "sigma_eps_values" not in block:
        raise UsageError("sweep needs --sigma-eps-values or a config with sweep.sigma_eps_values")
    try:
        values = tuple(float(v) for v in block["sigma_eps_values"])
        outputs = frozenset(block.get("outputs", OUTPUT_KINDS))
    except (TypeError, ValueError):
        raise UsageError(f"sweep.sigma_eps_values must be numbers and sweep.outputs names, got {block!r}") from None
    try:
        return SweepSpec(params, values, outputs).validated()
    except ValueError as e:
        raise UsageError(str(e)) from None


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    params = _market_from(args, cfg)
    spec = _sweep_spec_from(args, cfg, params)
    rows = sweep(spec)
    if args.format == "json":
        payload = {
            "market": _market_dict(params),
            "sweep": {"sigma_eps_values": list(spec.sigma_eps_values), "outputs": sorted(spec.outputs)},
            "rows": [
                {
                    "sigma_eps": r.sigma_eps,
                    "lambda": r.lam,
                    "beta": r.beta,
                    "pi_I": r.pi_I,
                    "pi_N": r.pi_N,
                    "pi_M": r.pi_M,
                    "subsidy": r.subsidy,
                    "d1": r.d1,
                    "d2": r.d2,
                    "fee_rate": r.fee_rate,
                    "note": r.note,
                }
                for r in rows
            ],
        }
        _write_out(args, json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "human":
        lines = []
        for r in rows:
            cells = [f"σε = {_f6(r.sigma_eps)}"]
            if r.lam is not None:
                cells += [f"λ = {_f6(r.lam)}", f"β = {_f6(r.beta)}"]
            if r.subsidy is not None:
                cells.append(f"|π_M| = {_f6(r.subsidy)}")
            if r.fee_rate is not None:
                cells.append(f"f = {_f6(r.fee_rate)}")
            cells.append(r.note)
            lines.append("   ".join(cells))
        _write_out(args, "\n".join(lines))
    else:
        _write_out(args, sweep_to_csv(rows))
    return EXIT_OK


def _sim_config_from(args, cfg: dict) -> SimConfig:
    block = _block(cfg, "sim")
    for key in ("n_paths", "seed", "chunk_size"):
        value = getattr(args, key, None)
        if value is not None:
            block[key] = value
    try:
        n_paths = int(block.get("n_paths", 1_000_000))
        seed = int(block.get("seed", 42))
        chunk_size = int(block.get("chunk_size", DEFAULT_CHUNK_SIZE))
    except (TypeError, ValueError):
        raise UsageError(f"sim parameters must be integers, got {block!r}") from None
    return SimConfig(n_paths=n_paths, seed=seed, chunk_size=chunk_size)


def cmd_simulate(args) -> int:
    if args.tau != 1 and not args.batched:
        raise UsageError(f"--tau {args.tau} has no effect without --batched")
    if args.beta_scale != 1.0 and args.batched:
        raise UsageError(f"--beta-scale {args.beta_scale} has no effect with --batched")
    cfg_file = _load_config(args.config)
    params = _market_from(args, cfg_file)
    sim_cfg = _sim_config_from(args, cfg_file)

    checks: list[tuple[str, float, float, float]] = []  # (name, expected, estimate, se)
    if args.batched:
        bp = BatchParams(params, args.tau)
        eq = batched_equilibrium(bp)
        est = simulate_batched(bp, eq, sim_cfg)
        w = welfare_decomposition(_batched_market(bp))
        checks += [
            ("π_I", w.pi_I, est.mean_pi_I, est.se_pi_I),
            ("π_N", w.pi_N, est.mean_pi_N, est.se_pi_N),
            ("π_M", w.pi_M, est.mean_pi_M, est.se_pi_M),
        ]
    else:
        eq = solve_closed_form(params)
        sim_eq = eq if args.beta_scale == 1.0 else replace(eq, beta=eq.beta * args.beta_scale)
        sample = simulate(params, sim_eq, sim_cfg)
        west = estimate_welfare(sample)
        w = welfare_at(params, sim_eq.lam, sim_eq.beta)
        slope = estimate_lambda_regression(sample)
        pm = estimate_price_moments(sample, params)
        checks += [
            ("π_I", w.pi_I, west.mean_pi_I, west.se_pi_I),
            ("π_N", w.pi_N, west.mean_pi_N, west.se_pi_N),
            ("π_M", w.pi_M, west.mean_pi_M, west.se_pi_M),
            ("λ (OLS slope)", posterior_slope(params, sim_eq.beta), slope.slope, slope.se),
            ("E[p|v] slope", pm.slope_expected, pm.slope, pm.slope_se),
            ("Var(p|v)", pm.resid_var_expected, pm.resid_var, pm.resid_var_se),
        ]

    results = []
    all_pass = True
    for name, expected, estimate, se in checks:
        if not (math.isfinite(estimate) and math.isfinite(se)):
            z = math.inf
        elif se > 0:
            z = abs(estimate - expected) / se
        else:
            z = 0.0 if estimate == expected else math.inf
        ok = z <= 3.0
        all_pass &= ok
        results.append({"name": name, "expected": expected, "estimate": estimate, "se": se, "z": z, "pass": ok})

    if args.format == "json":
        payload = {
            "market": _market_dict(params),
            "sim": {"n_paths": sim_cfg.n_paths, "seed": sim_cfg.seed, "chunk_size": sim_cfg.chunk_size},
            "batched": bool(args.batched),
            "tau": args.tau,
            "beta_scale": args.beta_scale,
            "checks": results,
            "all_pass": all_pass,
        }
        _write_out(args, json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        lines = ["name,expected,estimate,se,z,pass"]
        for r in results:
            lines.append(
                f"{r['name']},{format_float(r['expected'])},{format_float(r['estimate'])},"
                f"{format_float(r['se'])},{format_float(r['z'])},{str(r['pass']).lower()}"
            )
        _write_out(args, "\n".join(lines))
    else:
        width = max(len(r["name"]) for r in results)
        lines = []
        for r in results:
            lines.append(
                f"{r['name']:<{width}}  expected {_f6(r['expected']):>12}  estimate {_f6(r['estimate']):>12}"
                f"  se {_f6(r['se']):>10}  z {r['z']:5.2f}  {'PASS' if r['pass'] else 'FAIL'}"
            )
        lines.append("all checks passed" if all_pass else "SOME CHECKS FAILED")
        _write_out(args, "\n".join(lines))
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_reproduce_paper(args) -> int:
    try:
        result = write_report_bundle(args.outdir)
    except OSError as e:
        raise UsageError(f"cannot write --outdir: {e}") from None
    if args.format == "json":
        payload = {"files": list(result.files), "mismatches": list(result.mismatches), "ok": result.ok}
        _write_out(args, json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = [f"wrote {f}" for f in result.files]
        if result.ok:
            lines.append("all artifacts verified against pinned expected values")
        else:
            lines.append("MISMATCHES:")
            lines += [f"  {m}" for m in result.mismatches]
        _write_out(args, "\n".join(lines))
    return EXIT_OK if result.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_market_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma-v", dest="sigma_v", type=float, default=None, help="value std dev (> 0)")
    p.add_argument("--sigma-u", dest="sigma_u", type=float, default=None, help="noise-flow std dev (> 0)")
    p.add_argument("--sigma-eps", dest="sigma_eps", type=float, default=None, help="privacy-noise std dev (>= 0)")
    p.add_argument("--p0", dest="p0", type=float, default=None, help="prior mean price (default 0)")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def _add_common_flags(p: argparse.ArgumentParser, default_format: str = "human") -> None:
    p.add_argument("--format", choices=("human", "json", "csv"), default=default_format)
    p.add_argument("--output", default=None, help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privacy-lab",
        description="Equilibrium, welfare and fee analysis of a market maker pricing privacy-noised order flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", help="closed-form equilibrium with fixed-point oracle cross-check")
    _add_market_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("decompose", help="welfare decomposition, subsidy and break-even fee")
    _add_market_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("fee", help="break-even fee record")
    _add_market_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_fee)

    p = sub.add_parser("sweep", help="sweep sigma_eps and emit report rows")
    _add_market_flags(p)
    _add_common_flags(p, default_format="csv")
    p.add_argument("--sigma-eps-values", dest="sigma_eps_values", default=None, help="comma-separated sigma_eps grid")
    p.add_argument("--outputs", default=None, help="comma-separated subset of equilibrium,welfare,subsidy_analysis,fee")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo verification against the closed forms")
    _add_market_flags(p)
    _add_common_flags(p)
    p.add_argument("--n-paths", dest="n_paths", type=int, default=None)
    p.add_argument("--seed", dest="seed", type=int, default=None)
    p.add_argument("--chunk-size", dest="chunk_size", type=int, default=None)
    p.add_argument(
        "--beta-scale", dest="beta_scale", type=float, default=1.0, help="perturb the trader coefficient (not with --batched)"
    )
    p.add_argument("--batched", action="store_true", help="simulate the batched market instead")
    p.add_argument("--tau", type=int, default=1, help="batch length in periods (with --batched)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-paper", help="write and verify the reference table/figure bundle")
    _add_common_flags(p)
    p.add_argument("--outdir", default="report_bundle")
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParamError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PrivacyLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
