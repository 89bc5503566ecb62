"""One standard-error rule.

`montecarlo.RunningMoments` is the one place that turns a count and a
centered second moment into a sample variance, std dev and standard error:
every estimator reads its `.std` or `.se`.  An `ast` guard keeps a division
by `n - 1` (or `<expr>.n - 1`) from coming back anywhere else in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privacy_lab"


def is_n_minus_one(node: ast.AST) -> bool:
    """Whether `node` is `n - 1` or `<expr>.n - 1`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    count, one = node.left, node.right
    named_n = (isinstance(count, ast.Name) and count.id == "n") or (
        isinstance(count, ast.Attribute) and count.attr == "n"
    )
    return named_n and isinstance(one, ast.Constant) and one.value == 1


def divisions_by_n_minus_one(path: Path) -> list[int]:
    """Lines of every `/` or `/=` by `n - 1` in the file, outside the class
    RunningMoments of montecarlo.py."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    if path.name == "montecarlo.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunningMoments":
                allowed |= {id(inner) for inner in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            divisor = node.right
        elif isinstance(node, ast.AugAssign):
            divisor = node.value
        else:
            continue
        if isinstance(node.op, ast.Div) and is_n_minus_one(divisor) and id(node) not in allowed:
            lines.append(node.lineno)
    return lines


def test_standard_errors_have_one_rule():
    files = sorted(PACKAGE.glob("*.py"))
    assert "montecarlo.py" in {f.name for f in files}
    assert [f"{f.name}:{line}" for f in files for line in divisions_by_n_minus_one(f)] == []
    # the one rule the guard leaves is still there
    montecarlo = ast.parse((PACKAGE / "montecarlo.py").read_text())
    (moments,) = [n for n in ast.walk(montecarlo) if isinstance(n, ast.ClassDef) and n.name == "RunningMoments"]
    assert any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div) and is_n_minus_one(n.right) for n in ast.walk(moments))


RUNNING_MOMENTS = "class RunningMoments:\n    @property\n    def variance(self):\n        return self.m2 / (self.n - 1)\n"


@pytest.mark.parametrize("name,source,bad", [
    ("montecarlo.py", "def f(q, n):\n    return math.sqrt(q / (n - 1)) / math.sqrt(n)\n", True),
    ("montecarlo.py", "def f(s):\n    return s.m2 / (s.n - 1)\n", True),
    ("montecarlo.py", "def f(x, n):\n    x /= n - 1\n    return x\n", True),
    ("montecarlo.py", "class Other:\n    def variance(self):\n        return self.m2 / (self.n - 1)\n", True),
    ("report.py", RUNNING_MOMENTS, True),
    ("montecarlo.py", RUNNING_MOMENTS, False),
    ("report.py", "def f(m, n_points):\n    return m / (n_points - 1)\n", False),
    ("montecarlo.py", "def f(s):\n    return s.m2 / (s.n - 2)\n", False),
    ("montecarlo.py", "def f(m2, n):\n    return m2 * (n - 1) // (n - 1)\n", False),
    ("montecarlo.py", "def f(m, n):\n    return m / n - 1\n", False),
])
def test_guard_catches_divisions_by_n_minus_one(name, source, bad, tmp_path):
    path = tmp_path / name
    path.write_text(source)
    assert bool(divisions_by_n_minus_one(path)) is bad
