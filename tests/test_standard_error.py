"""One standard-error rule.

`montecarlo.RunningMoments` is the one place that turns a count and a
centered second moment into a sample variance, std dev and standard error:
every estimator reads its `.std` or `.se`.  An `ast` guard keeps a division
by `n - 1` or `math.sqrt(n)` (or `<expr>.n - 1`, `math.sqrt(<expr>.n)`) from
coming back anywhere else in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privacy_lab"


def is_count(node: ast.AST) -> bool:
    """Whether `node` is `n` or `<expr>.n`."""
    return (isinstance(node, ast.Name) and node.id == "n") or (isinstance(node, ast.Attribute) and node.attr == "n")


def is_n_minus_one(node: ast.AST) -> bool:
    """Whether `node` is `n - 1` or `<expr>.n - 1`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    return is_count(node.left) and isinstance(node.right, ast.Constant) and node.right.value == 1


def is_sqrt_n(node: ast.AST) -> bool:
    """Whether `node` is `math.sqrt(n)` or `math.sqrt(<expr>.n)`."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sqrt"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "math"
        and len(node.args) == 1
        and is_count(node.args[0])
    )


def standard_error_divisions(path: Path) -> list[int]:
    """Lines of every `/` or `/=` by `n - 1` or `math.sqrt(n)` in the file,
    outside the class RunningMoments of montecarlo.py."""
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
        counted = is_n_minus_one(divisor) or is_sqrt_n(divisor)
        if isinstance(node.op, ast.Div) and counted and id(node) not in allowed:
            lines.append(node.lineno)
    return lines


def test_standard_errors_have_one_rule():
    files = sorted(PACKAGE.glob("*.py"))
    assert "montecarlo.py" in {f.name for f in files}
    assert [f"{f.name}:{line}" for f in files for line in standard_error_divisions(f)] == []
    # the one rule the guard leaves is still there
    montecarlo = ast.parse((PACKAGE / "montecarlo.py").read_text())
    (moments,) = [n for n in ast.walk(montecarlo) if isinstance(n, ast.ClassDef) and n.name == "RunningMoments"]
    divisors = [n.right for n in ast.walk(moments) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)]
    assert any(map(is_n_minus_one, divisors)) and any(map(is_sqrt_n, divisors))


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
    assert bool(standard_error_divisions(path)) is bad


@pytest.mark.parametrize("name,source,bad", [
    ("montecarlo.py", "def f(std, n):\n    return std / math.sqrt(n)\n", True),
    ("montecarlo.py", "def f(lam, z):\n    return lam * z.std / math.sqrt(z.n)\n", True),
    ("montecarlo.py", "def f(x, n):\n    x /= math.sqrt(n)\n    return x\n", True),
    ("report.py", "class RunningMoments:\n    def se(self):\n        return self.std / math.sqrt(self.n)\n", True),
    ("montecarlo.py", "class RunningMoments:\n    def se(self):\n        return self.std / math.sqrt(self.n)\n", False),
    ("montecarlo.py", "def f(std, n):\n    return std * math.sqrt(n)\n", False),
    ("montecarlo.py", "def f(r, m2_x):\n    return math.sqrt(r / m2_x)\n", False),
    ("montecarlo.py", "def f(x, n):\n    return x / math.sqrt(2.0 / n)\n", False),
])
def test_guard_catches_divisions_by_sqrt_n(name, source, bad, tmp_path):
    path = tmp_path / name
    path.write_text(source)
    assert bool(standard_error_divisions(path)) is bad
