"""One reduction and one merge for every Monte Carlo summary.

A chunk's summary is the tuple (n, means, m2, co-moments) of
`montecarlo._row_moments`, and `montecarlo._merge` is the one fold of two
summaries.  Hypothesis checks that folding the chunks of any split, chunks of
one path included, gives the moments of the whole sample; an `ast` guard
keeps `merge` methods, and calls of them, from coming back in the package.
"""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privacy_lab.montecarlo import _CO_ROWS, _merge, _row_moments

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
    # the paired layout has the seven rows whose _CO_ROWS pairs are co-moments,
    # each pair correlated by rho
    rng = np.random.default_rng(seed)
    sample = rng.standard_normal((7 if paired else rows, sum(sizes)))
    if paired:
        for i, j in _CO_ROWS:
            sample[j] = rho * sample[i] + math.sqrt(1.0 - rho * rho) * sample[j]
    sample = scale * (loc + sample)

    parts, lo = [], 0
    for m in sizes:
        chunk = sample[:, lo : lo + m].copy()
        parts.append(_row_moments(chunk, np.empty((2, m)) if paired else None))
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
        assert abs(got - want) <= RTOL * math.sqrt(want_m2[i] * want_m2[j])


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
