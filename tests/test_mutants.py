"""The Monte Carlo checks prove they can fail: a table of mutants.

Each row replaces one private function of the simulator with a broken copy,
makes each of its runs, and asserts exactly which checks fail there: the
named ones fail and every other one passes.  The table is thus the record of
which check catches what.  A mutant that no check can see stays in the
table as a passing row, with its reason.

Most rows run `verify_simulation` at 1e6 paths and seed 42 on each parameter
set of `PARAMS`; one of them breaks the targets of `_play_forms` rather than
the simulator.  The rows that mutate `_path_draws` run `verify_batched`
at the batch lengths of `BATCHED`, and the narrow-chunk `_merge` rows run
`NARROW`, whose 64-path chunks make the fold merge often enough to show.
The simulator plays in centred units, w = v - p0 and q = p - p0, so the
price level enters only `PathSample.path(i)`; the rows that mutate it run
`REPLAY`, the same six checks read from paths replayed one at a time.
The z-scores in the comments were measured on this table's runs.

A second table does the same for the paper bundle's Figure 1 checks: each
row breaks one closed form of `_closed_forms` as `report` reads it, writes
the bundle with `write_report_bundle`, and asserts the Figure 1 mismatches
it reports.
"""

import math
from dataclasses import astuple, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest

from privacy_lab import BatchParams, MarketParams, SimConfig, montecarlo, report, solve_closed_form, verify_batched
from privacy_lab import verify_simulation, write_report_bundle
from privacy_lab.equilibrium import FORMS, _closed_forms
from privacy_lab.montecarlo import _CO_ROWS, PathSample, RunningCross, RunningMoments, SampleStats

CFG = SimConfig(1_000_000, 42)
PARAMS = (MarketParams(1.0, 1.0, 0.5), MarketParams(1.0, 1.0, 0.5, p0=100.0), MarketParams(2.0, 0.3, 1.7))
WELFARE = ("π_I", "π_N", "π_M")
NONE = ()
RAISES = "the zero-sum check raises"  # a run's entry when it ends in the AssertionError
MISCOUNTS = "the path-count check raises"  # a run's entry when the fold's count is not n_paths
# the AssertionError message of each entry that ends a run in one
RAISED = {RAISES: "did not sum to zero", MISCOUNTS: "the fold counted 65536 paths, not 1000000"}

# the runs of a row, each returning the Check records
SIMULATE = tuple(partial(verify_simulation, p, solve_closed_form(p), CFG) for p in PARAMS)
BATCHED = tuple(
    partial(verify_batched, BatchParams(MarketParams(1.0, 1.0), tau), SimConfig(200_000, 42)) for tau in (1, 4, 16)
)
NARROW = (partial(verify_simulation, PARAMS[0], solve_closed_form(PARAMS[0]), SimConfig(100_000, 42, chunk_size=64)),)


def replayed(sample: PathSample) -> PathSample:
    """`sample` with the statistics of the paths its path(i) replays, in
    levels, each moment by two passes."""
    v, u, eps, x, y, y_tilde, p = np.array([astuple(sample.path(i)) for i in range(sample.n)]).T

    def moments(a):
        mean = float(a.mean())
        return RunningMoments(a.size, mean, float(((a - mean) ** 2).sum()))

    def cross(a, b):
        ma, mb = moments(a), moments(b)
        return RunningCross(a.size, ma.mean, mb.mean, ma.m2, mb.m2, float(((a - ma.mean) * (b - mb.mean)).sum()))

    edge = v - p
    pnl = (moments(edge * x), moments(edge * u), moments(-edge * y))
    return replace(sample, stats=SampleStats(*pnl, cross(y_tilde, v - sample.params.p0), cross(v, p)))


def verify_replayed(params: MarketParams, cfg: SimConfig) -> list:
    """verify_simulation's checks of a run, read from its replayed paths."""
    eq = solve_closed_form(params)
    sample = replayed(montecarlo.simulate(params, eq, cfg))
    with mock.patch.object(montecarlo, "simulate", lambda *args: sample):
        return verify_simulation(params, eq, cfg)


REPLAY = tuple(partial(verify_replayed, p, SimConfig(1000, 42)) for p in PARAMS)

_assemble, _pnl, _ols, _merge, _path_draws, _play_forms = (
    montecarlo._assemble,
    montecarlo._pnl,
    montecarlo._ols,
    montecarlo._merge,
    montecarlo._path_draws,
    montecarlo._play_forms,
)


def price_at_lam_1_01(paths, params, eq, observed=True):
    return _assemble(paths, params, replace(eq, lam=eq.lam * 1.01), observed)


def trader_at_beta_1_01(paths, params, eq, observed=True):
    return _assemble(paths, params, replace(eq, beta=eq.beta * 1.01), observed)


def eps_left_out_of_price(paths, params, eq, observed=True):
    """q = p - p0 = lam*y; y_tilde, which the maker is said to see, unchanged."""
    _assemble(paths, params, eq, observed)
    _, _, _, y, _, q, _ = paths
    np.multiply(y, eq.lam, out=q)
    return paths


class P0LeftOutOfPrice(PathSample):
    """path(i).p = lam*y_tilde."""

    def path(self, i):
        r = super().path(i)
        return replace(r, p=self.eq.lam * r.y_tilde)


class P0LeftOutOfOrder(PathSample):
    """path(i).x = beta*v, not beta*(v - p0); the flows and price follow from it."""

    def path(self, i):
        r = super().path(i)
        x = self.eq.beta * r.v
        y_tilde = x + r.u + r.eps
        return replace(r, x=x, y=x + r.u, y_tilde=y_tilde, p=self.params.p0 + self.eq.lam * y_tilde)


def pnl_informed_and_noise_swapped(paths):
    pnl = _pnl(paths)
    pnl[[0, 1]] = pnl[[1, 0]]
    return pnl


def pnl_maker_sign_flipped(paths):
    pnl = _pnl(paths)
    np.negative(pnl[2], out=pnl[2])
    return pnl


def ols_slope_over_m2_y(s):
    """The slope c_xy / m2_y, of x on y; its se and the residual variance kept."""
    _, se, resid_var = _ols(s)
    return s.c_xy / s.m2_y, se, resid_var


def merge_keeps_first(a, b):
    return a


def merge_without_between_chunk_terms(a, b):
    """The second moments and co-moments summed with no d²·w term."""
    n, means, _, _ = _merge(a, b)
    return n, means, [x + y for x, y in zip(a[2], b[2])], [x + y for x, y in zip(a[3], b[3])]


def merge_co_corrections_swapped(a, b):
    """Each co-moment takes the d_i·d_j·w term of the other pair of _CO_ROWS."""
    n, means, m2, _ = _merge(a, b)
    w = a[0] * b[0] / n
    d = [y - x for x, y in zip(a[1], b[1])]
    return n, means, m2, [x + y + d[i] * d[j] * w for x, y, (i, j) in zip(a[3], b[3], _CO_ROWS[::-1])]


def targets_1_01(sigma_v, sigma_u, sigma_eps, lam, beta):
    """Every Monte Carlo target 1% off: each field of the kernel's tuple times 1.01."""
    return tuple(1.01 * t for t in _play_forms(sigma_v, sigma_u, sigma_eps, lam, beta))


def increments_not_summed(params, seed, tau=1):
    """Each batch's noise flow is one increment, not the sum of tau."""
    return _path_draws(params, seed)


def increments_scaled_by_sqrt_tau(params, seed, tau=1):
    """The summed noise flow of each batch times sqrt(tau)."""
    value, noise_flow = _path_draws(params, seed, tau)  # a batched run draws no privacy stream

    def scaled(ws, k):
        noise_flow(ws, k)
        ws[0] *= math.sqrt(tau)

    return value, scaled


MUTANTS = [
    # max z 1.38 / 1.38 / 1.67
    pytest.param("_assemble", _assemble, SIMULATE, (NONE, NONE, NONE), id="unmutated"),
    # max z 12.6 / 12.6 / 13.5; on (2, 0.3, 1.7) pi_N moves by only 0.46 se
    pytest.param(
        "_assemble",
        price_at_lam_1_01,
        SIMULATE,
        (
            (*WELFARE, "E[p|v] slope", "Var(p|v)"),
            (*WELFARE, "E[p|v] slope", "Var(p|v)"),
            ("π_I", "π_M", "E[p|v] slope", "Var(p|v)"),
        ),
        id="price_at_lam_1.01",
    ),
    # z 10.3 / 10.3 / 9.97.  The pi checks are flat in beta to first order at
    # the equilibrium (the trader's first-order condition), and so is the
    # OLS lambda, whose posterior slope peaks where beta^2 sigma_v^2 =
    # sigma_u^2 + sigma_eps^2.
    pytest.param("_assemble", trader_at_beta_1_01, SIMULATE, (("E[p|v] slope",),) * 3, id="trader_at_beta_1.01"),
    # z 177 / 177 / 2.27e4: the price loses variance; the OLS lambda still
    # regresses v on the y_tilde it is given
    pytest.param("_assemble", eps_left_out_of_price, SIMULATE, (("Var(p|v)",),) * 3, id="eps_left_out_of_price"),
    # Replayed at 1000 paths, unmutated: max z 1.67 / 1.67 / 1.37
    pytest.param("PathSample", PathSample, REPLAY, (NONE, NONE, NONE), id="replay_unmutated"),
    # An equivalent mutant to every check, at any p0: x, u and y have mean
    # zero, so a price shifted by a constant moves no expected P&L, and the
    # slope and residual variance of p given v do not see a constant.
    pytest.param("PathSample", P0LeftOutOfPrice, REPLAY, (NONE, NONE, NONE), id="p0_left_out_of_price"),
    # z 3.3e3 on pi_I and 1.8e3 on pi_M at p0 = 100: the order's mean
    # beta*p0 lifts the mean price by lam*beta*p0 = p0/2, so the trader hands
    # the maker about beta*p0^2/2 a period; pi_N, with u of mean zero, does
    # not move.  At p0 = 0 it is the unmutated run.
    pytest.param(
        "PathSample", P0LeftOutOfOrder, REPLAY, (NONE, ("π_I", "π_M"), NONE), id="p0_left_out_of_order"
    ),
    # z 1204 / 1040, 1204 / 1040 and 4164 / 595 on pi_I / pi_N.  The rows
    # still sum to zero path by path, and the price checks read no P&L.
    pytest.param(
        "_pnl", pnl_informed_and_noise_swapped, SIMULATE, (("π_I", "π_N"),) * 3, id="pnl_informed_and_noise_swapped"
    ),
    pytest.param("_pnl", pnl_maker_sign_flipped, SIMULATE, (RAISES,) * 3, id="pnl_maker_sign_flipped"),
    # z 1501 / 1002, 1501 / 1002 and 490 / 1000 on the two slopes; Var(p|v)
    # reads the residual variance, which the mutant keeps
    pytest.param(
        "_ols", ols_slope_over_m2_y, SIMULATE, (("λ (OLS slope)", "E[p|v] slope"),) * 3, id="ols_slope_over_m2_y"
    ),
    # The fold keeps only the first 65536-path chunk, a valid sample whose
    # estimates and se are all read from its own count, so every check
    # would pass on it (max z 0.76 / 0.76 / 1.18); the runner's own count
    # check sees it.
    pytest.param("_merge", merge_keeps_first, SIMULATE, (MISCOUNTS,) * 3, id="merge_keeps_first"),
    # z 6.3-9.7 / 6.3-9.7 / 5.8-10.0 on the checks that fail.  Two blind
    # spots at 1e6 paths: pi_M reads z 0.78 on (1, 1, 0.5), where 1% of it is
    # 0.0011, and pi_N z 2.89 on (2, 0.3, 1.7).
    pytest.param(
        "_play_forms",
        targets_1_01,
        SIMULATE,
        (
            ("π_I", "π_N", "λ (OLS slope)", "E[p|v] slope", "Var(p|v)"),
            ("π_I", "π_N", "λ (OLS slope)", "E[p|v] slope", "Var(p|v)"),
            ("π_I", "π_M", "λ (OLS slope)", "E[p|v] slope", "Var(p|v)"),
        ),
        id="targets_times_1.01",
    ),
    # Batched at tau 1 / 4 / 16.  At tau 1 both mutants are the unmutated
    # draw (max z 1.14), and pi_I never fails: its mean does not depend on
    # the spread of u.  z on pi_N / pi_M: 550 / 230 and 1584 / 295 ...
    pytest.param(
        "_path_draws", increments_not_summed, BATCHED, (NONE, ("π_N", "π_M"), ("π_N", "π_M")),
        id="increments_not_summed",
    ),
    # ... and 224 / 230 and 292 / 296
    pytest.param(
        "_path_draws", increments_scaled_by_sqrt_tau, BATCHED, (NONE, ("π_N", "π_M"), ("π_N", "π_M")),
        id="increments_scaled_by_sqrt_tau",
    ),
    # At 64-path chunks; at the 65536-path chunks of SIMULATE a run of 1e6
    # paths merges 16 times, too few for these to show.  Max z 1.77.
    pytest.param("_merge", _merge, NARROW, (NONE,), id="narrow_unmutated"),
    # z 4.86: only the residual variance of p given v sees the lost spread
    pytest.param("_merge", merge_without_between_chunk_terms, NARROW, (("Var(p|v)",),), id="merge_without_d2w"),
    # z 7.42 and 9.73
    pytest.param(
        "_merge", merge_co_corrections_swapped, NARROW, (("E[p|v] slope", "Var(p|v)"),), id="merge_co_swapped"
    ),
]


@pytest.mark.parametrize("name,mutant,runs,failing", MUTANTS)
def test_mutant_fails_exactly_the_named_checks(monkeypatch, name, mutant, runs, failing):
    monkeypatch.setattr(montecarlo, name, mutant)
    for run, names in zip(runs, failing, strict=True):
        if names in RAISED:
            with pytest.raises(AssertionError, match=RAISED[names]):
                run()
            continue
        checks = run()
        failed = tuple(c.name for c in checks if not c.passed)
        assert failed == names, (run, {c.name: c.z for c in checks})


def kernel_with(form, change):
    """`_closed_forms` with the closed form `form` replaced by
    change(sigma_eps, value)."""
    k = FORMS.index(form)

    def mutant(sigma_v, sigma_u, sigma_eps):
        forms = list(_closed_forms(sigma_v, sigma_u, sigma_eps))
        forms[k] = change(sigma_eps, forms[k])
        return tuple(forms)

    return mutant


FIGURE1_MUTANTS = [
    # every subsidy the bundle writes is lifted; Figure 1 sees it in its
    # curve and at the inflection
    pytest.param(
        kernel_with("subsidy", lambda se, sub: sub + 1e-3),
        (
            "figure1.csv: curve at sigma_eps=0 is 0.001, expected 0",
            "figure1.csv: curve end 2.452452 does not round to 2.451",
            "figure1: subsidy at inflection 0.578350 does not round to 0.577",
        ),
        False,
        id="report_subsidy_plus_1e-3",
    ),
    pytest.param(
        kernel_with("subsidy", lambda se, sub: 1.0 if se > 2.0 else sub),
        ("figure1.csv: curve is not strictly increasing", "figure1.csv: curve end 1.000000 does not round to 2.451"),
        False,
        id="report_subsidy_flat_past_2",
    ),
    # only Figure 1 reads the inflection
    pytest.param(
        kernel_with("inflection", lambda se, x: x * 1.01),
        (
            "figure1.json: inflection 1.4283556979968262 != sqrt(2)",
            "figure1: subsidy at inflection 0.585048 does not round to 0.577",
        ),
        True,
        id="report_inflection_times_1.01",
    ),
]


@pytest.mark.parametrize("kernel,figure1,only", FIGURE1_MUTANTS)
def test_bundle_reports_the_broken_figure1(monkeypatch, tmp_path, kernel, figure1, only):
    """The bundle's Figure 1 mismatches are exactly `figure1`, and when
    `only`, it reports no other mismatch."""
    monkeypatch.setattr(report, "_closed_forms", kernel)
    mismatches = write_report_bundle(tmp_path).mismatches
    assert tuple(m for m in mismatches if m.startswith("figure1")) == figure1, mismatches
    if only:
        assert mismatches == figure1
