"""Each entry point loads only the package modules it runs.

The package resolves every public name and submodule on first use (PEP 562),
and the CLI imports each command's modules inside its command, so importing
the package loads no submodule, every closed-form command stays numpy-free,
and each command loads exactly the modules of `LOADS`.  Each check runs in a
fresh interpreter, since this test process has long since loaded them all.
An `ast` guard keeps module-level imports of numpy and `montecarlo`, of any
submodule in `__init__.py`, and of any submodule but `errors`, `equilibrium`
and `_render` in `cli.py` from coming back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import privacy_lab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "privacy_lab"
MARKET = ["--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "0.5"]


def run_python(code: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def numpy_loaded_after(statements: str, cwd: Path) -> bool:
    return run_python(f"import sys\n{statements}\nprint('numpy' in sys.modules)", cwd) == "True"


@pytest.mark.parametrize("statements", ["import privacy_lab", "import privacy_lab.cli"])
def test_import_leaves_numpy_out(statements, tmp_path):
    assert not numpy_loaded_after(statements, tmp_path)


@pytest.mark.parametrize("argv", [
    ["equilibrium", *MARKET],
    ["decompose", *MARKET],
    ["fee", *MARKET],
    ["sweep", *MARKET, "--sigma-eps-values", "0,1,2"],
    ["reproduce-paper", "--outdir", "bundle"],
], ids=lambda argv: argv[0])
def test_closed_form_commands_leave_numpy_out(argv, tmp_path):
    statements = f"from privacy_lab.cli import main\nassert main({argv!r}) == 0"
    assert not numpy_loaded_after(statements, tmp_path)


def test_simulate_loads_numpy(tmp_path):
    argv = ["simulate", *MARKET, "--n-paths", "1000", "--seed", "3"]
    statements = f"from privacy_lab.cli import main\nassert main({argv!r}) in (0, 3)"
    assert numpy_loaded_after(statements, tmp_path)


def test_every_public_name_resolves_lazily(tmp_path):
    code = (
        "import sys, privacy_lab\n"
        "missing = [n for n in privacy_lab.__all__ if getattr(privacy_lab, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert privacy_lab.simulate is privacy_lab.montecarlo.simulate\n"
        "assert 'simulate' in vars(privacy_lab)\n"  # cached after first use
        "from privacy_lab import *\n"
        "assert SimConfig is privacy_lab.montecarlo.SimConfig\n"
        "print(privacy_lab.montecarlo.RNG_SCHEME)\n"
    )
    assert run_python(code, tmp_path) == "pcg64-seedseq-v1"


# the privacy_lab modules each entry point loads, exactly
CLI_BASE = {"privacy_lab", "privacy_lab.cli", "privacy_lab.errors", "privacy_lab.equilibrium", "privacy_lab._render"}
LOADS = [
    ("import privacy_lab", None, {"privacy_lab"}),
    ("equilibrium", MARKET, CLI_BASE),
    ("fee", MARKET, CLI_BASE | {"privacy_lab.welfare"}),
    ("decompose", MARKET, CLI_BASE | {"privacy_lab.welfare"}),
    ("sweep", [*MARKET, "--sigma-eps-values", "0,1,2"], CLI_BASE | {"privacy_lab.report"}),
    ("reproduce-paper", ["--outdir", "bundle"], CLI_BASE | {"privacy_lab.report"}),
    ("simulate", [*MARKET, "--n-paths", "1000", "--seed", "3"], CLI_BASE | {"privacy_lab.montecarlo"}),
]


@pytest.mark.parametrize("command,args,expected", LOADS, ids=[row[0] for row in LOADS])
def test_each_entry_point_loads_only_its_modules(command, args, expected, tmp_path):
    if args is None:
        statements = command
    else:
        statements = f"from privacy_lab.cli import main\nassert main({[command, *args]!r}) in (0, 3)"
    code = f"import sys\n{statements}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'privacy_lab'))"
    assert run_python(code, tmp_path) == str(sorted(expected))


def test_submodules_resolve_as_attributes(tmp_path):
    code = (
        "import privacy_lab\n"
        "names = ('equilibrium', 'errors', 'report', 'welfare', 'montecarlo')\n"
        "print(all(getattr(privacy_lab, n).__name__ == f'privacy_lab.{n}' for n in names))\n"
    )
    assert run_python(code, tmp_path) == "True"


def test_montecarlo_submodule_resolves_first(tmp_path):
    code = "import privacy_lab\nprint(privacy_lab.montecarlo.RNG_SCHEME)"
    assert run_python(code, tmp_path) == "pcg64-seedseq-v1"


def test_dir_and_unknown_names():
    assert set(privacy_lab.__all__) <= set(dir(privacy_lab))
    assert "montecarlo" in dir(privacy_lab)
    with pytest.raises(AttributeError, match="no_such_name"):
        privacy_lab.no_such_name  # noqa: B018
    assert not hasattr(privacy_lab, "SolveMethod")


def _module_level_imports(tree: ast.Module):
    """Import nodes that run when the module is imported: everything outside
    function bodies (class bodies and if/try blocks run at import time)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node) -> list[str]:
    """Absolute module names an import node loads, with `privacy_lab.` for
    relative imports from inside the package.  A name taken from the package
    itself loads the submodule that serves it, or the submodule of that name."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = ("privacy_lab." if node.level else "") + (node.module or "")
    names = [base.rstrip(".")]
    if names[0] == "privacy_lab":  # from . import montecarlo, from privacy_lab import sweep
        names += [f"privacy_lab.{privacy_lab._HOME.get(alias.name, alias.name)}" for alias in node.names]
    return names


# the package submodules a file of this name may import at module level;
# any other file may import every one but montecarlo
SUBMODULES_ALLOWED = {
    "__init__.py": frozenset(),
    "cli.py": frozenset({"privacy_lab.errors", "privacy_lab.equilibrium", "privacy_lab._render"}),
}


def import_violations(path: Path) -> list[str]:
    out = []
    allowed = SUBMODULES_ALLOWED.get(path.name)
    for node in _module_level_imports(ast.parse(path.read_text(), filename=str(path))):
        for name in _imported_modules(node):
            if (
                (name.split(".")[0] == "numpy" and path.name != "montecarlo.py")
                or name == "privacy_lab.montecarlo"
                or name.startswith("privacy_lab.montecarlo.")
                or (allowed is not None and name.startswith("privacy_lab.") and name not in allowed)
            ):
                out.append(f"{path.name}:{node.lineno} imports {name} at module level")
    return out


def test_no_module_level_numpy_or_montecarlo_import():
    files = sorted(PACKAGE.glob("*.py"))
    assert {"__init__.py", "cli.py", "montecarlo.py"} <= {f.name for f in files}
    assert [v for f in files for v in import_violations(f)] == []


@pytest.mark.parametrize("source,bad", [
    ("import numpy as np\n", True),
    ("from numpy.random import default_rng\n", True),
    ("from .montecarlo import simulate\n", True),
    ("from . import montecarlo\n", True),
    ("import privacy_lab.montecarlo\n", True),
    ("try:\n    import numpy\nexcept ImportError:\n    pass\n", True),
    ("class A:\n    from .montecarlo import simulate\n", True),
    ("def f():\n    import numpy\n    from .montecarlo import simulate\n", False),
    ("from .equilibrium import MarketParams\nimport math\n", False),
    # (file name, source): the rules of the package's own __init__.py and cli.py
    (("__init__.py", "from .errors import ParamError\n"), True),
    (("__init__.py", "from . import report\n"), True),
    (("__init__.py", "import privacy_lab.welfare\n"), True),
    (("__init__.py", "import importlib\ndef __getattr__(name):\n    from . import report\n"), False),
    (("cli.py", "from .report import sweep\n"), True),
    (("cli.py", "from .welfare import break_even_fee\n"), True),
    (("cli.py", "from . import report\n"), True),
    (("cli.py", "from ._render import _to_json\nfrom .equilibrium import MarketParams\nfrom .errors import ParamError\n"),
     False),
    (("cli.py", "def cmd_sweep(args, cfg):\n    from .report import sweep\n"), False),
    ("from privacy_lab import simulate\n", True),
    (("cli.py", "from privacy_lab import sweep\n"), True),
    (("cli.py", "from privacy_lab import MarketParams, ParamError\n"), False),
], ids=lambda v: ":".join(v) if isinstance(v, tuple) else None)
def test_import_guard_catches_module_level_imports(source, bad, tmp_path):
    name, source = source if isinstance(source, tuple) else ("module.py", source)
    path = tmp_path / name
    path.write_text(source)
    assert bool(import_violations(path)) is bad
