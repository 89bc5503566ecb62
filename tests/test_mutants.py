"""The Monte Carlo checks prove they can fail: a table of mutants.

Each row replaces one private function of the simulator with a broken copy,
runs `verify_simulation` at 1e6 paths and seed 42 on each parameter set of
`PARAMS`, and asserts exactly which checks fail there: the named ones fail
and every other one passes.  The table is thus the record of which check
catches what.  A mutant that no check can see stays in the table as a
passing row, with its reason.

So far the rows mutate `_assemble`, which forms the order, the flows and
the price of each path.  The z-scores in the comments were measured on
this table's runs.

A second table does the same for the paper bundle's Figure 1 checks: each
row breaks one closed form of `_closed_forms` as one module reads it, writes
the bundle with `write_report_bundle`, and asserts the Figure 1 mismatches
it reports.
"""

from dataclasses import replace

import numpy as np
import pytest

from privacy_lab import MarketParams, SimConfig, montecarlo, report, solve_closed_form, verify_simulation
from privacy_lab import welfare, write_report_bundle
from privacy_lab.equilibrium import FORMS, _closed_forms

CFG = SimConfig(1_000_000, 42)
PARAMS = (MarketParams(1.0, 1.0, 0.5), MarketParams(1.0, 1.0, 0.5, p0=100.0), MarketParams(2.0, 0.3, 1.7))
WELFARE = ("π_I", "π_N", "π_M")
NONE = ()

_assemble = montecarlo._assemble


def price_at_lam_1_01(paths, params, eq, observed=True):
    return _assemble(paths, params, replace(eq, lam=eq.lam * 1.01), observed)


def trader_at_beta_1_01(paths, params, eq, observed=True):
    return _assemble(paths, params, replace(eq, beta=eq.beta * 1.01), observed)


def eps_left_out_of_price(paths, params, eq, observed=True):
    """p = p0 + lam*y; y_tilde, which the maker is said to see, unchanged."""
    _assemble(paths, params, eq, observed)
    _, _, _, _, y, _, p = paths
    np.add(np.multiply(y, eq.lam, out=p), params.p0, out=p)
    return paths


def p0_left_out_of_price(paths, params, eq, observed=True):
    """p = lam*y_tilde."""
    _assemble(paths, params, eq, observed)
    np.multiply(paths[5], eq.lam, out=paths[6])
    return paths


def p0_left_out_of_order(paths, params, eq, observed=True):
    """x = beta*v, not beta*(v - p0); the flows and price follow from it."""
    _assemble(paths, replace(params, p0=0.0), eq, observed)
    np.add(paths[6], params.p0, out=paths[6])  # p = p0 + lam*y_tilde again
    return paths


MUTANTS = [
    # max z 1.38 / 1.38 / 1.67
    pytest.param(_assemble, (NONE, NONE, NONE), id="unmutated"),
    # max z 12.6 / 12.6 / 13.5; on (2, 0.3, 1.7) pi_N moves by only 0.46 se
    pytest.param(
        price_at_lam_1_01,
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
    pytest.param(trader_at_beta_1_01, (("E[p|v] slope",),) * 3, id="trader_at_beta_1.01"),
    # z 177 / 177 / 2.27e4: the price loses variance; the OLS lambda still
    # regresses v on the y_tilde it is given
    pytest.param(eps_left_out_of_price, (("Var(p|v)",),) * 3, id="eps_left_out_of_price"),
    # An equivalent mutant to every check, at any p0: x, u and y have mean
    # zero, so a price shifted by a constant moves no expected P&L, and the
    # slope and residual variance of p given v do not see a constant.
    pytest.param(p0_left_out_of_price, (NONE, NONE, NONE), id="p0_left_out_of_price"),
    # z 1.0e5 on pi_I and 5.4e4 on pi_M at p0 = 100: the order's mean
    # beta*p0 lifts the mean price by lam*beta*p0 = p0/2, so the trader hands
    # the maker about beta*p0^2/2 a period; pi_N, with u of mean zero, does
    # not move.  At p0 = 0 it is the unmutated run.
    pytest.param(p0_left_out_of_order, (NONE, ("π_I", "π_M"), NONE), id="p0_left_out_of_order"),
]


@pytest.mark.parametrize("mutant,failing", MUTANTS)
def test_mutant_fails_exactly_the_named_checks(monkeypatch, mutant, failing):
    monkeypatch.setattr(montecarlo, "_assemble", mutant)
    for params, names in zip(PARAMS, failing, strict=True):
        checks = verify_simulation(params, solve_closed_form(params), CFG)
        failed = tuple(c.name for c in checks if not c.passed)
        assert failed == names, (params, {c.name: c.z for c in checks})


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
    # the report's curve, and Table 1, read the lifted subsidy
    pytest.param(
        report,
        kernel_with("subsidy", lambda se, sub: sub + 1e-3),
        (
            "figure1.csv: curve at sigma_eps=0 is 0.001, expected 0",
            "figure1.csv: curve end 2.452452 does not round to 2.451",
        ),
        False,
        id="report_subsidy_plus_1e-3",
    ),
    pytest.param(
        report,
        kernel_with("subsidy", lambda se, sub: 1.0 if se > 2.0 else sub),
        ("figure1.csv: curve is not strictly increasing", "figure1.csv: curve end 1.000000 does not round to 2.451"),
        False,
        id="report_subsidy_flat_past_2",
    ),
    # only Figure 1 reads the inflection, through the welfare module's kernel
    pytest.param(
        welfare,
        kernel_with("inflection", lambda se, x: x * 1.01),
        (
            "figure1.json: inflection 1.4283556979968262 != sqrt(2)",
            "figure1: subsidy at inflection 0.585048 does not round to 0.577",
        ),
        True,
        id="welfare_inflection_times_1.01",
    ),
]


@pytest.mark.parametrize("module,kernel,figure1,only", FIGURE1_MUTANTS)
def test_bundle_reports_the_broken_figure1(monkeypatch, tmp_path, module, kernel, figure1, only):
    """The bundle's Figure 1 mismatches are exactly `figure1`, and when
    `only`, it reports no other mismatch."""
    monkeypatch.setattr(module, "_closed_forms", kernel)
    mismatches = write_report_bundle(tmp_path).mismatches
    assert tuple(m for m in mismatches if m.startswith("figure1")) == figure1, mismatches
    if only:
        assert mismatches == figure1
