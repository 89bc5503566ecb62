"""One field check for every numeric input.

`equilibrium._real` and `equilibrium._integer` hold the type, finiteness and
range rules of every numeric argument.  The other `raise ParamError(` sites
each hold a rule no other field shares.  An `ast` guard keeps hand-written
checks from coming back anywhere else in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privacy_lab"

# `module.qualname` of each function that may raise a ParamError itself
ALLOWED = {
    "equilibrium._real": "the one check of a real number",
    "equilibrium._integer": "the one check of an integer",
    "montecarlo._require_paths": "the path count an estimate needs",
    "montecarlo._thread_cap": "the PRIVACY_LAB_THREADS parse",
    "montecarlo.verify_best_response": "the odd n_grid rule and the grid span",
    "report.SweepSpec.__post_init__": "iterable values and names, ordering, non-empty and known names",
}


def _names_param_error(exc) -> bool:
    target = exc.func if isinstance(exc, ast.Call) else exc
    return (isinstance(target, ast.Name) and target.id == "ParamError") or (
        isinstance(target, ast.Attribute) and target.attr == "ParamError"
    )


def _param_error_raises(node, scope=()):
    """(qualname, line) of each `raise ParamError` under `node`; qualname is
    the chain of enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _param_error_raises(child, (*scope, child.name))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None and _names_param_error(child.exc):
            yield ".".join(scope) or "<module>", child.lineno
        yield from _param_error_raises(child, scope)


def raise_sites(path: Path) -> list[tuple[str, int]]:
    """(`module.qualname`, line) of every `raise ParamError` in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(f"{path.stem}.{qualname}", line) for qualname, line in _param_error_raises(tree)]


def violations(path: Path) -> list[str]:
    return [f"{path.name}:{line} raises ParamError in {site}" for site, line in raise_sites(path) if site not in ALLOWED]


def test_param_errors_are_raised_only_by_the_field_check_and_the_named_rules():
    files = sorted(PACKAGE.glob("*.py"))
    assert {"equilibrium.py", "montecarlo.py", "report.py"} <= {f.name for f in files}
    assert [v for f in files for v in violations(f)] == []
    # every allowed function still raises one, so the list cannot go stale
    assert {site for f in files for site, _ in raise_sites(f)} == set(ALLOWED)


@pytest.mark.parametrize("module,source,bad", [
    ("welfare", "def f(lam):\n    if lam <= 0:\n        raise ParamError('lam', 'lam must be > 0')\n", True),
    ("report", "raise ParamError('x', 'at import')\n", True),
    ("cli", "from . import errors\ndef f():\n    raise errors.ParamError('x', 'y')\n", True),
    ("montecarlo", "def f():\n    raise ParamError\n", True),
    ("equilibrium", "def _real(field, value):\n    def inner():\n        raise ParamError(field, '')\n", True),
    ("equilibrium", "class SweepSpec:\n    def __post_init__(self):\n        raise ParamError('outputs', '')\n", True),
    ("equilibrium", "def _real(field, value):\n    raise ParamError(field, f'{field} must be finite')\n", False),
    ("report", "class SweepSpec:\n    def __post_init__(self):\n        raise ParamError('outputs', '')\n", False),
    ("report", "def f(x):\n    raise ValueError(x)\n", False),
])
def test_guard_catches_hand_written_param_errors(module, source, bad, tmp_path):
    path = tmp_path / f"{module}.py"
    path.write_text(source)
    assert bool(violations(path)) is bad
