"""One reduction and one merge for every Monte Carlo summary.

A chunk's summary is the tuple (n, means, m2, co-moments) of
`montecarlo._row_moments`, and `montecarlo._merge` is the one fold of two
summaries.  Hypothesis checks that folding the chunks of any split, chunks of
one path included, gives the moments of the whole sample, and that a run,
which reduces chunks side by side in groups, gives bit for bit the fold of
its chunks reduced one at a time; an `ast` guard keeps `merge` methods, and
calls of them, from coming back in the package.
"""

import ast
import functools
import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privacy_lab import MarketParams, SimConfig, simulate, solve_closed_form
from privacy_lab.montecarlo import _CO_ROWS, _chunk_paths, _merge, _row_moments, _stats_of

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privacy_lab"

RTOL = 1e-12


def two_pass(sample: np.ndarray, paired: bool) -> tuple:
    """(n, means, m2, co) of the rows of `sample`, by centering on the means first."""
    means = sample.sum(axis=1) / sample.shape[1]
    dev = sample - means[:, None]
    co = [float((dev[i] * dev[j]).sum()) for i, j in _CO_ROWS] if paired else []
    return sample.shape[1], means.tolist(), (dev * dev).sum(axis=1).tolist(), co


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=30),
    paired=st.booleans(),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    loc=st.floats(-10.0, 10.0),
    scale=st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
    rho=st.floats(-1.0, 1.0),
)
def test_folded_chunks_match_the_two_pass_moments(sizes, paired, rows, seed, loc, scale, rho):
    # the paired layout has the six rows whose _CO_ROWS pairs are co-moments,
    # each pair correlated by rho
    rng = np.random.default_rng(seed)
    sample = rng.standard_normal((6 if paired else rows, sum(sizes)))
    if paired:
        for i, j in _CO_ROWS:
            sample[j] = rho * sample[i] + math.sqrt(1.0 - rho * rho) * sample[j]
    sample = scale * (loc + sample)

    parts, lo = [], 0
    for m in sizes:
        chunk = sample[:, lo : lo + m].copy()
        parts += _row_moments(chunk[:, None], np.empty((2, 1, m)) if paired else None)
        lo += m
    n, means, m2, co = functools.reduce(_merge, parts)

    want_n, want_means, want_m2, want_co = two_pass(sample, paired)
    assert n == want_n
    # each statistic within RTOL of its own scale: a mean of its row's
    # largest magnitude, a co-moment of the geometric mean of its rows' m2
    for row, got, want in zip(sample, means, want_means):
        assert abs(got - want) <= RTOL * np.abs(row).max()
    for got, want in zip(m2, want_m2):
        assert abs(got - want) <= RTOL * want
    assert len(co) == len(want_co)
    for (i, j), got, want in zip(_CO_ROWS, co, want_co):
        # a product of roots, as m2_i * m2_j alone underflows at tiny scales
        assert abs(got - want) <= RTOL * math.sqrt(want_m2[i]) * math.sqrt(want_m2[j])


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    chunk_size=st.integers(1, 70_000),
    chunks=st.integers(1, 200),
    last=st.integers(1, 70_000),
    sigma_eps=st.sampled_from((0.0, 1.3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_run_is_the_fold_of_its_chunks(chunk_size, chunks, last, sigma_eps, seed):
    # up to 300000 paths, the last chunk partial or full; with sigma_eps = 0
    # the privacy stream is not drawn
    chunks = max(1, min(chunks, 300_000 // chunk_size))
    n = (chunks - 1) * chunk_size + min(last, chunk_size)
    params = MarketParams(2.0, 0.7, sigma_eps, p0=5.0)
    eq = solve_closed_form(params)
    stats = simulate(params, eq, SimConfig(n, seed, chunk_size=chunk_size)).stats
    widths = [min(chunk_size, n - k * chunk_size) for k in range(chunks)]
    alone = [
        _stats_of(_chunk_paths(params, eq, seed, k, m)[:, None], np.empty((2, 1, m)))[0]
        for k, m in enumerate(widths)
    ]
    # the rows (w, pnl_noise, pnl_informed, -pnl_maker, y_tilde, q), in
    # centred units: p0 enters only the price_value means
    n, means, m2, (c_price, c_signal) = functools.reduce(_merge, alone)
    assert repr(astuple(stats)) == repr((
        (n, means[2], m2[2]),
        (n, means[1], m2[1]),
        (n, -means[3], m2[3]),
        (n, means[4], means[0], m2[4], m2[0], c_signal),
        (n, params.p0 + means[0], params.p0 + means[5], m2[0], m2[5], c_price),
    ))  # repr tells -0.0 from 0.0


def merge_sites(path: Path) -> list[tuple[int, str]]:
    """(line, what) of every function or method named `merge` and every
    attribute `.merge`, called or passed, in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "merge":
            sites.append((node.lineno, "defines merge"))
        elif isinstance(node, ast.Attribute) and node.attr == "merge":
            sites.append((node.lineno, "uses .merge"))
    return sites


def violations(path: Path) -> list[str]:
    return [f"{path.name}:{line} {what}" for line, what in merge_sites(path)]


def test_summaries_have_one_merge():
    files = sorted(PACKAGE.glob("*.py"))
    assert "montecarlo.py" in {f.name for f in files}
    assert [v for f in files for v in violations(f)] == []
    # the one fold the guard leaves is still there
    defines = {
        f.name
        for f in files
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_merge"
    }
    assert defines == {"montecarlo.py"}


@pytest.mark.parametrize("source,bad", [
    ("class RunningMoments:\n    def merge(self, other):\n        return self\n", True),
    ("def merge(a, b):\n    return a\n", True),
    ("async def merge(a, b):\n    return a\n", True),
    ("def f(a, b):\n    return a.stats.merge(b)\n", True),
    ("import functools\nfold = functools.reduce(RunningMoments.merge, parts)\n", True),
    ("def _merge(a, b):\n    return a\n", False),
    ("import functools\ntotal = functools.reduce(_merge, parts)\n", False),
    ("def f(a, b):\n    '''b merged over a'''\n    merged = a | b\n    return merged\n", False),
])
def test_guard_catches_merge_methods_and_calls(source, bad, tmp_path):
    path = tmp_path / "montecarlo.py"
    path.write_text(source)
    assert bool(violations(path)) is bad
