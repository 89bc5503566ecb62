"""Parameter sweeps and the verified paper bundle.

Sweep rows and bundle artifacts are written through the one renderer in
`_render` (17-digit floats, rows in input order, no timestamps), but for
figure1.json, one `json.dumps(..., sort_keys=True)` line of its own.  The
bundle reads every subsidy it writes from `sweep` rows, and the Figure 1
inflection from the same kernel, so neither a sweep nor the bundle loads
`welfare`.

Bundle artifacts (`write_report_bundle`)
----------------------------------------
table1.csv           sigma_eps,lambda,beta,pi_I,pi_N,pi_M,subsidy,d1,d2,fee_rate,note
                     (the sweep schema: cells of groups not swept are empty)
table2.csv           sigma_eps_over_sigma_u,sigma_eps,subsidy_usd_per_day,fraction_of_sigma_v_sigma_u
figure1.csv          sigma_eps,subsidy
figure1.json         {"inflection": value} on one line
fee_comparison.json  revenue_usd, subsidy_usd, shortfall_usd, shortfall_pct
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from pathlib import Path

from ._render import _to_csv, _to_json
from .equilibrium import FORMS, SQRT2, MarketParams, _closed_forms, _forms_getter, _real
from .errors import ParamError

SWEEP_CSV_COLUMNS = ("sigma_eps", "lambda", "beta", "pi_I", "pi_N", "pi_M", "subsidy", "d1", "d2", "fee_rate", "note")
_BTC_CSV_COLUMNS = ("sigma_eps_over_sigma_u", "sigma_eps", "subsidy_usd_per_day", "fraction_of_sigma_v_sigma_u")

# ReportRow fields each output group populates
_OUTPUT_FIELDS = {
    "equilibrium": ("lam", "beta"),
    "welfare": ("pi_I", "pi_N", "pi_M", "subsidy"),
    "subsidy_analysis": ("subsidy", "d1", "d2"),
    "fee": ("fee_rate",),
}
OUTPUT_KINDS = frozenset(_OUTPUT_FIELDS)

# Illustrative per-day BTC/USDT calibration: ~3% daily volatility on a
# $100k asset, and a 1,000 BTC/day noise-flow component.
BTC_SIGMA_V_USD = 3000.0
BTC_SIGMA_U_BTC = 1000.0
BTC_RATIOS = (0.1, 0.5, 1.0, SQRT2, 2.0)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep over sigma_eps values at fixed base params, checked on
    construction.

    `outputs` selects which column groups get populated: any subset of
    {"equilibrium", "welfare", "subsidy_analysis", "fee"}.
    """

    params_base: MarketParams
    sigma_eps_values: tuple[float, ...]
    outputs: frozenset[str] = OUTPUT_KINDS

    def __post_init__(self) -> None:
        """Store the values as a tuple of floats and the outputs as a
        frozenset, or raise a ParamError naming `sigma_eps_values` or
        `outputs`.  Each value passes `_real` as a float >= 0."""
        values, outputs = self.sigma_eps_values, self.outputs
        if not isinstance(values, Iterable):
            raise ParamError("sigma_eps_values", f"sigma_eps_values must be a sequence of numbers, got {values!r}")
        vals = tuple([_real("sigma_eps_values", v, 0, strict=False) for v in values])
        if not vals:
            raise ParamError("sigma_eps_values", "sigma_eps_values must be non-empty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ParamError("sigma_eps_values", "sigma_eps_values must be strictly increasing")
        if isinstance(outputs, str) or not isinstance(outputs, Iterable):
            raise ParamError("outputs", f"outputs must be a collection of names, got {outputs!r}")
        names = tuple(outputs)
        for name in names:
            if not isinstance(name, str):
                raise ParamError("outputs", f"outputs must be names, got {name!r}")
        unknown = set(names) - OUTPUT_KINDS
        if unknown:
            raise ParamError("outputs", f"unknown outputs {sorted(unknown)}; valid: {sorted(OUTPUT_KINDS)}")
        if not names:
            raise ParamError("outputs", "outputs must be non-empty")
        object.__setattr__(self, "sigma_eps_values", vals)
        object.__setattr__(self, "outputs", frozenset(names))


@dataclass(slots=True)
class ReportRow:
    """One sweep row; fields outside the requested output groups stay None.

    A slotted plain record, neither frozen nor hashable: it is an output row
    that `sweep` builds and the renderer reads, and a frozen dataclass's
    `__init__`, one `object.__setattr__` per field, costs several times as
    much per row.
    """

    sigma_eps: float
    note: str
    lam: float | None = None
    beta: float | None = None
    pi_I: float | None = None
    pi_N: float | None = None
    pi_M: float | None = None
    subsidy: float | None = None
    d1: float | None = None
    d2: float | None = None
    fee_rate: float | None = None


def regime_label(sigma_eps: float, sigma_u: float) -> str:
    """Human-readable regime tag for a sweep row."""
    ratio = sigma_eps / sigma_u
    if ratio == 0.0:
        return "textbook Kyle"
    if abs(ratio - 1.0) < 1e-12:
        return "sigma_eps = sigma_u"
    if abs(ratio - SQRT2) < 1e-12:
        return "inflection point"
    if ratio < SQRT2:
        return "low-privacy regime"
    if ratio < 2.5:
        return "past inflection"
    if ratio < 4.0:
        return "high-privacy"
    return "far high-privacy"


# ReportRow's value fields, which follow sigma_eps and note; each is the
# closed form of the same name
_ROW_FORMS = tuple(f.name for f in fields(ReportRow))[2:]
# a kernel tuple extended by this has None at position len(FORMS)
_UNSET = (None,)


def sweep(spec: SweepSpec) -> list[ReportRow]:
    """One row per sigma_eps value, all closed form."""
    sv, su = spec.params_base.sigma_v, spec.params_base.sigma_u
    populated = {f for kind in spec.outputs for f in _OUTPUT_FIELDS[kind]}
    values = itemgetter(*(FORMS.index(f) if f in populated else len(FORMS) for f in _ROW_FORMS))
    return [
        ReportRow(se, regime_label(se, su), *values(_closed_forms(sv, su, se) + _UNSET))
        for se in spec.sigma_eps_values
    ]


# a ReportRow's values in SWEEP_CSV_COLUMNS order
_sweep_cells = attrgetter(*("lam" if c == "lambda" else c for c in SWEEP_CSV_COLUMNS))


def sweep_to_csv(rows: list[ReportRow]) -> str:
    """Render sweep rows under the fixed schema; unpopulated cells are empty."""
    return _to_csv(SWEEP_CSV_COLUMNS, map(_sweep_cells, rows))


# ---------------------------------------------------------------------------
# Reference bundle: the standard benchmark tables with pinned expected values.
# ---------------------------------------------------------------------------

TABLE1_SIGMA_EPS = (0.0, 0.5, 1.0, SQRT2, 2.0, 3.0, 5.0)

# (sigma_eps, lambda, beta, subsidy) rounded half-to-even to 3 decimals
TABLE1_EXPECTED = (
    (0.0, 0.500, 1.000, 0.000),
    (0.5, 0.447, 1.118, 0.112),
    (1.0, 0.354, 1.414, 0.354),
    (SQRT2, 0.289, 1.732, 0.577),
    (2.0, 0.224, 2.236, 0.894),
    (3.0, 0.158, 3.162, 1.423),
    (5.0, 0.098, 5.099, 2.451),
)

# (ratio, approximate subsidy USD/day within 1%, fraction to 3 decimals)
TABLE2_EXPECTED = (
    (0.1, 15_000.0, 0.005),
    (0.5, 335_000.0, 0.112),
    (1.0, 1_060_000.0, 0.354),
    (SQRT2, 1_730_000.0, 0.577),
    (2.0, 2_680_000.0, 0.894),
)

FEE_COMPARISON_VOLUME_USD = 1e9
FEE_COMPARISON_BPS = 10.0
FEE_COMPARISON_EXPECTED_SUBSIDY = 1.0607e6
FEE_COMPARISON_SHORTFALL_RANGE = (5.0, 7.0)

FIGURE1_MAX_SIGMA_EPS = 5.0
FIGURE1_POINTS = 101
# the data rows figure1.csv must hold, pinned apart from the grid's constant
FIGURE1_EXPECTED_ROWS = 101
_inflection = _forms_getter("inflection")


@dataclass(frozen=True)
class BundleResult:
    files: tuple[str, ...]
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def write_report_bundle(outdir: str | Path) -> BundleResult:
    """Write table1.csv, table2.csv, figure1.csv (+ figure1.json sidecar) and
    fee_comparison.json into `outdir`, then re-read each artifact and verify
    it against the pinned expected values.  Returns the file list and any
    mismatch descriptions (empty means everything verified).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    mismatches: list[str] = []
    files: list[str] = []

    def emit(name: str, text: str) -> Path:
        path = outdir / name
        path.write_text(text, newline="\n")
        files.append(str(path))
        return path

    def reread_csv(path: Path, n_rows: int) -> list[dict[str, str]]:
        """The data rows of a written CSV, each a dict by header; a count
        other than `n_rows` is a mismatch naming the file."""
        header, *lines = path.read_text().strip("\n").split("\n")
        parsed = [dict(zip(header.split(","), line.split(","))) for line in lines]
        if len(parsed) != n_rows:
            mismatches.append(f"{path.name}: {len(parsed)} data rows, expected {n_rows}")
        return parsed

    def subsidies(params: MarketParams, sigma_eps_values) -> list[float]:
        return [row.subsidy for row in sweep(SweepSpec(params, sigma_eps_values, frozenset({"welfare"})))]

    unit = MarketParams(sigma_v=1.0, sigma_u=1.0)

    # table1: dimensionless sweep
    rows = sweep(SweepSpec(unit, TABLE1_SIGMA_EPS, frozenset({"equilibrium", "welfare"})))
    path = emit("table1.csv", sweep_to_csv(rows))
    parsed = reread_csv(path, len(TABLE1_EXPECTED))
    for rec, (se, lam_3, beta_3, sub_3) in zip(parsed, TABLE1_EXPECTED):
        got = (round(float(rec["lambda"]), 3), round(float(rec["beta"]), 3), round(float(rec["subsidy"]), 3))
        want = (lam_3, beta_3, sub_3)
        if got != want:
            mismatches.append(f"table1.csv sigma_eps={se:g}: got {got}, expected {want}")

    # table2: BTC calibration, per-day subsidy in USD at each ratio of BTC_RATIOS
    btc = MarketParams(sigma_v=BTC_SIGMA_V_USD, sigma_u=BTC_SIGMA_U_BTC)
    sv, su = btc.sigma_v, btc.sigma_u
    values = [ratio * su for ratio in BTC_RATIOS]
    table2 = [(ratio, se, sub, sub / (sv * su)) for ratio, se, sub in zip(BTC_RATIOS, values, subsidies(btc, values))]
    path = emit("table2.csv", _to_csv(_BTC_CSV_COLUMNS, table2))
    parsed = reread_csv(path, len(TABLE2_EXPECTED))
    for rec, (ratio, approx_usd, frac_3) in zip(parsed, TABLE2_EXPECTED):
        sub = float(rec["subsidy_usd_per_day"])
        if abs(sub - approx_usd) / approx_usd > 0.01:
            mismatches.append(f"table2.csv ratio={ratio:g}: subsidy {sub:.2f} not within 1% of {approx_usd:.0f}")
        if round(float(rec["fraction_of_sigma_v_sigma_u"]), 3) != frac_3:
            mismatches.append(f"table2.csv ratio={ratio:g}: fraction {rec['fraction_of_sigma_v_sigma_u']} != {frac_3}")

    # figure1: the subsidy at FIGURE1_POINTS even steps over [0, FIGURE1_MAX_SIGMA_EPS],
    # ending exactly at the maximum, plus the inflection sidecar
    step = FIGURE1_MAX_SIGMA_EPS / (FIGURE1_POINTS - 1)
    grid = [i * step for i in range(FIGURE1_POINTS - 1)] + [FIGURE1_MAX_SIGMA_EPS]
    curve = list(zip(grid, subsidies(unit, grid)))
    inflection = _inflection(_closed_forms(unit.sigma_v, unit.sigma_u, unit.sigma_eps))
    path = emit("figure1.csv", _to_csv(("sigma_eps", "subsidy"), curve))
    emit("figure1.json", json.dumps({"inflection": inflection}, sort_keys=True) + "\n")
    parsed = reread_csv(path, FIGURE1_EXPECTED_ROWS)
    subs = [float(rec["subsidy"]) for rec in parsed]
    if subs[0] != 0.0:
        mismatches.append(f"figure1.csv: curve at sigma_eps=0 is {subs[0]!r}, expected 0")
    if any(b <= a for a, b in zip(subs, subs[1:])):
        mismatches.append("figure1.csv: curve is not strictly increasing")
    if round(subs[-1], 3) != 2.451:
        mismatches.append(f"figure1.csv: curve end {subs[-1]:.6f} does not round to 2.451")
    sidecar = json.loads((outdir / "figure1.json").read_text())
    if abs(sidecar["inflection"] - SQRT2) > 1e-15:
        mismatches.append(f"figure1.json: inflection {sidecar['inflection']!r} != sqrt(2)")
    (at_inflection,) = subsidies(unit, (inflection,))
    if round(at_inflection, 3) != 0.577:
        mismatches.append(f"figure1: subsidy at inflection {at_inflection:.6f} does not round to 0.577")

    # fee comparison: a FEE_COMPARISON_BPS fee on FEE_COMPARISON_VOLUME_USD of volume
    # against the subsidy at sigma_eps = sigma_u under the BTC calibration
    revenue = FEE_COMPARISON_VOLUME_USD * (FEE_COMPARISON_BPS / 1e4)
    (sub,) = subsidies(btc, (su,))
    shortfall = sub - revenue  # negative is a surplus
    pct = 100.0 * shortfall / revenue
    cmp = {"revenue_usd": revenue, "subsidy_usd": sub, "shortfall_usd": shortfall, "shortfall_pct": pct}
    path = emit("fee_comparison.json", _to_json(cmp))
    loaded = json.loads(path.read_text())
    if abs(loaded["revenue_usd"] - 1e6) > 1e-3:
        mismatches.append(f"fee_comparison.json: revenue {loaded['revenue_usd']!r} != 1e6")
    if abs(loaded["subsidy_usd"] - FEE_COMPARISON_EXPECTED_SUBSIDY) / FEE_COMPARISON_EXPECTED_SUBSIDY > 0.01:
        mismatches.append(
            f"fee_comparison.json: subsidy {loaded['subsidy_usd']:.2f} not within 1% of "
            f"{FEE_COMPARISON_EXPECTED_SUBSIDY:.0f}"
        )
    lo, hi = FEE_COMPARISON_SHORTFALL_RANGE
    if not (lo <= loaded["shortfall_pct"] <= hi):
        mismatches.append(f"fee_comparison.json: shortfall_pct {loaded['shortfall_pct']:.3f} outside [{lo}, {hi}]")

    return BundleResult(files=tuple(files), mismatches=tuple(mismatches))
