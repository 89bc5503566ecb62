"""Market-maker equilibrium and welfare analysis under additive Gaussian
privacy noise on the maker's order-flow observation.

Closed forms for the linear equilibrium, the per-agent welfare decomposition,
the privacy subsidy (the maker's expected loss against the executed flow) and
its break-even fee, all cross-checked by an independent fixed-point solver
and a seeded Monte Carlo simulation of the one-period game:
`verify_simulation` and `verify_batched` return one `Check` record per
closed form, its estimate, standard error and z-score.

The closed forms need only `math`.  The Monte Carlo names (`simulate`,
`SimConfig`, `verify_simulation`, `verify_batched`, `Check`, the estimators
and their records) and the `montecarlo` submodule are resolved lazily
(PEP 562): the first access to one of them imports `montecarlo`, and with
it numpy, and stores the name in this module's namespace.  Importing the
package, or running a closed-form command, never loads numpy.
`from privacy_lab import simulate` and `import *` work as for any other
name.
"""

import importlib
import types

from .equilibrium import (
    BatchParams,
    Equilibrium,
    MarketParams,
    batched_equilibrium,
    informed_best_response,
    posterior_slope,
    solve_closed_form,
    solve_fixed_point,
)
from .errors import (
    InconclusiveResolution,
    ParamError,
    PrivacyLabError,
)
from .report import (
    FeeRevenueComparison,
    ReportRow,
    SweepSpec,
    fee_revenue_comparison,
    sweep,
    write_report_bundle,
)
from .welfare import (
    FeeBreakEven,
    SubsidyAnalysis,
    WelfareDecomposition,
    break_even_fee,
    incremental_gains,
    noise_pnl_derivative,
    privacy_subsidy,
    subsidy_analysis,
    welfare_at,
    welfare_decomposition,
)

__version__ = "0.1.0"

_MONTECARLO_NAMES = frozenset({
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
})


def __getattr__(name: str):
    if name != "montecarlo" and name not in _MONTECARLO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    montecarlo = importlib.import_module(".montecarlo", __name__)
    value = montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MONTECARLO_NAMES, "montecarlo"})


# the names the imports above bind, then the Monte Carlo ones, each listed once
__all__ = sorted(
    {name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    | _MONTECARLO_NAMES
)
