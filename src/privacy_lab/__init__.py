"""Market-maker equilibrium and welfare analysis under additive Gaussian
privacy noise on the maker's order-flow observation.

Closed forms for the linear equilibrium, the per-agent welfare decomposition,
the privacy subsidy (the maker's expected loss against the executed flow) and
its break-even fee, all cross-checked by an independent fixed-point solver
and a seeded Monte Carlo simulation of the one-period game:
`verify_simulation` and `verify_batched` return one `Check` record per
closed form, its estimate, standard error and z-score.

Importing the package imports none of its submodules.  Every public name,
and each of the submodules in `_EXPORTS`, resolves on first use (PEP 562):
the first access imports the one submodule that holds it and stores the
name in this module's namespace.  So a caller loads only what it touches,
and numpy only with a Monte Carlo name (`simulate`, `SimConfig`,
`verify_simulation`, `verify_batched`, `Check`, the estimators and their
records) or the `montecarlo` submodule.  `from privacy_lab import simulate`
and `import *` work as for any other name.
"""

import importlib

__version__ = "0.1.0"

# each submodule the namespace resolves, with the public names it serves
_EXPORTS = {
    "equilibrium": (
        "BatchParams",
        "Equilibrium",
        "MarketParams",
        "batched_equilibrium",
        "posterior_slope",
        "solve_closed_form",
        "solve_fixed_point",
    ),
    "errors": ("InconclusiveResolution", "ParamError", "PrivacyLabError"),
    "montecarlo": (
        "BestResponseCheck",
        "Check",
        "PathRealization",
        "PathSample",
        "PriceMomentEstimate",
        "SimConfig",
        "SlopeEstimate",
        "WelfareEstimate",
        "estimate_lambda_regression",
        "estimate_price_moments",
        "estimate_welfare",
        "simulate",
        "simulate_batched",
        "verify_batched",
        "verify_best_response",
        "verify_simulation",
    ),
    "report": (
        "ReportRow",
        "SweepSpec",
        "sweep",
        "write_report_bundle",
    ),
    "welfare": (
        "FeeBreakEven",
        "SubsidyAnalysis",
        "WelfareDecomposition",
        "break_even_fee",
        "incremental_gains",
        "privacy_subsidy",
        "subsidy_analysis",
        "welfare_at",
        "welfare_decomposition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})


__all__ = sorted(_HOME)
