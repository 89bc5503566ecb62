"""One set of stream draws for every Monte Carlo entry point.

`montecarlo._path_draws` is the only code that draws a seeded stream into a
chunk, through `_draw` or, for the summed increments of a batch, straight
from `_chunk_rng`.  An `ast` guard keeps draw closures from coming back in
`simulate_batched`, `verify_best_response` or anywhere else in the package.
A known-answer table pins the first draws of a few streams, so a numpy whose
`SeedSequence`, `PCG64` or `standard_normal` changed fails there by name.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from privacy_lab.montecarlo import _chunk_rng

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privacy_lab"

DRAWS = {"_chunk_rng", "_draw"}

# `module.function` of each top-level function that may call one of DRAWS
ALLOWED = {
    "montecarlo._draw": "the one draw of a stream into a row",
    "montecarlo._path_draws": "the draws of a chunk's paths, batch increments included",
}


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def draw_sites(path: Path) -> list[tuple[str, int]]:
    """(`module.owner`, line) of every call of a name in DRAWS, where owner is
    the top-level function or class that holds the call, or <module>."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        sites += [
            (f"{path.stem}.{owner}", node.lineno)
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and _callee(node) in DRAWS
        ]
    return sites


def violations(path: Path) -> list[str]:
    return [f"{path.name}:{line} draws a stream in {site}" for site, line in draw_sites(path) if site not in ALLOWED]


def test_streams_are_drawn_only_by_path_draws():
    files = sorted(PACKAGE.glob("*.py"))
    assert "montecarlo.py" in {f.name for f in files}
    assert [v for f in files for v in violations(f)] == []
    # both allowed functions still draw, so the list cannot go stale
    assert {site for f in files for site, _ in draw_sites(f)} == set(ALLOWED)


@pytest.mark.parametrize("module,source,bad", [
    ("montecarlo", "def simulate_batched(bp):\n    def noise_flow(ws, k):\n        _chunk_rng(1, 1, k)\n", True),
    ("montecarlo", "def verify_best_response(params):\n    _draw(1, 1, 0, row, 1.0)\n", True),
    ("montecarlo", "class PathSample:\n    def path(self, i):\n        return _chunk_rng(1, 0, 0)\n", True),
    ("report", "from .montecarlo import _chunk_rng\nrng = _chunk_rng(1, 0, 0)\n", True),
    ("cli", "from . import montecarlo\ndef f(row):\n    montecarlo._draw(1, 0, 0, row, 1.0)\n", True),
    ("welfare", "def _path_draws(params, seed):\n    _draw(seed, 0, 0, row, 1.0)\n", True),
    ("montecarlo", "def _path_draws(p, seed):\n    def value(ws, k):\n        _draw(seed, 0, k, ws[0], 1.0)\n", False),
    ("montecarlo", "def _draw(seed, stream, k, row):\n    _chunk_rng(seed, stream, k).random(out=row)\n", False),
    ("montecarlo", "def simulate(params, cfg):\n    return _run_chunks(c, _path_draws(params, cfg.seed), f)\n", False),
    ("montecarlo", "def _chunk_rng(seed, stream, k):\n    return Generator(PCG64(SeedSequence(seed)))\n", False),
])
def test_guard_catches_draws_outside_path_draws(module, source, bad, tmp_path):
    path = tmp_path / f"{module}.py"
    path.write_text(source)
    assert bool(violations(path)) is bad


# float.hex of the first four standard normals of _chunk_rng(seed, stream, k).
# A seed or chunk index of 2**32 or more is split by SeedSequence into two
# 32-bit words, so the last two rows pin that split too.
KNOWN_DRAWS = {
    (42, 0, 0): ("0x1.3807c1104fc6bp-2", "-0x1.0a3c65fca9a7ep+0", "0x1.803b239e77350p-1", "0x1.e191b2d157f36p-1"),
    (7, 1, 3): ("0x1.048558cf47ca8p-2", "0x1.01a85e9aaed31p+0", "0x1.cd15382fbc531p-2", "0x1.d7c9e84fcec7ap+0"),
    (2**32 + 5, 2, 1): ("0x1.3b8842eff563ap-3", "-0x1.5abdf1abc7c22p+0", "0x1.0bf93b0baa952p+0", "-0x1.35bf70846f070p-1"),
    (42, 1, 2**32 + 3): ("-0x1.218ae561e1c62p+1", "0x1.e6b91c3062254p-3", "-0x1.ddbfc4acd7ccfp+0", "-0x1.5dfcb025fbecdp-1"),
}


@pytest.mark.parametrize("triple", KNOWN_DRAWS)
def test_streams_draw_their_known_answers(triple):
    got = tuple(x.hex() for x in _chunk_rng(*triple).standard_normal(4).tolist())
    assert got == KNOWN_DRAWS[triple], (
        f"numpy {np.__version__} draws other numbers for _chunk_rng{triple}; the pcg64-seedseq-v1 streams, every "
        "pinned Monte Carlo bit and every simulate golden file rest on these"
    )
