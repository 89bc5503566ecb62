"""One set of stream draws for every Monte Carlo entry point.

`montecarlo._path_draws` is the only code that draws a seeded stream into a
chunk, through `_draw` or, for the summed increments of a batch, straight
from the generator the runner hands it.  The runner, `_run_chunks`, is the
only code that builds a generator, by `_chunk_rng` from four state words,
and `_seed_words` the only code that makes those words.  An `ast` guard
keeps each name where it belongs, so draw closures cannot come back in
`simulate_batched`, `verify_best_response` or anywhere else in the package,
nor a second way to seed a generator.  A known-answer table pins the first
draws of a few streams of numpy's own ``PCG64(SeedSequence(...))``, so a
numpy whose `SeedSequence`, `PCG64` or `standard_normal` changed fails there
by name.  `_seed_words` asks SeedSequence for a block of one chunk, as a run
of one chunk and every path replay do, and replays its mixing for a larger
block; a property holds both to numpy's words, for every block the runner
can ask for, at each 32-bit word boundary of the seed and the chunk index.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privacy_lab.montecarlo import _SEED_BLOCK, _chunk_rng, _seed_words

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privacy_lab"

# each guarded name, with the `module.function` of the one top-level function
# that may name it
ALLOWED = {
    "_draw": {"montecarlo._path_draws": "the draws of a chunk's paths, batch increments included"},
    "_chunk_rng": {"montecarlo._run_chunks": "the one build of a generator, handed to its draw"},
    "SeedSequence": {"montecarlo._seed_words": "the one maker of a generator's state words"},
}


def _named(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def draw_sites(path: Path) -> list[tuple[str, str, int]]:
    """(name, `module.owner`, line) of every mention of a name in ALLOWED,
    where owner is the top-level function or class that holds it, or <module>."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (name := _named(node)) in ALLOWED:
                sites.append((name, f"{path.stem}.{owner}", node.lineno))
    return sites


def violations(path: Path) -> list[str]:
    sites = draw_sites(path)
    return [f"{path.name}:{line} names {name} in {site}" for name, site, line in sites if site not in ALLOWED[name]]


def test_streams_are_drawn_only_by_path_draws():
    files = sorted(PACKAGE.glob("*.py"))
    assert "montecarlo.py" in {f.name for f in files}
    assert [v for f in files for v in violations(f)] == []
    # every allowed function still names its name, so the list cannot go stale
    named = {(name, site) for f in files for name, site, _ in draw_sites(f)}
    assert named == {(name, site) for name, sites in ALLOWED.items() for site in sites}


@pytest.mark.parametrize("module,source,bad", [
    ("montecarlo", "def simulate_batched(bp):\n    def noise_flow(ws, rng):\n        _chunk_rng(words)\n", True),
    ("montecarlo", "def verify_best_response(params):\n    _draw(rng, row, 1.0)\n", True),
    ("montecarlo", "class PathSample:\n    def path(self, i):\n        return _chunk_rng(words)\n", True),
    ("report", "from .montecarlo import _chunk_rng\nrng = _chunk_rng(words)\n", True),
    ("cli", "from . import montecarlo\ndef f(row):\n    montecarlo._draw(rng, row, 1.0)\n", True),
    ("welfare", "def _path_draws(params, tau=1):\n    _draw(rng, row, 1.0)\n", True),
    ("montecarlo", "def _path_draws(p, sigma):\n    def value(ws, rng):\n        _draw(rng, ws[0], sigma)\n", False),
    # a draw that builds its own generator, as every draw once did
    ("montecarlo", "def _draw(seed, stream, words, row):\n    _chunk_rng(words).random(out=row)\n", True),
    ("montecarlo", "def simulate(params, cfg):\n    return _run_chunks(c, cfg.seed, _path_draws(params), f)\n", False),
    # a second way to seed a generator, beside the runner's
    ("montecarlo", "def _chunk_rng(seed, stream, k):\n    return PCG64(SeedSequence((seed, stream, k)))\n", True),
    ("montecarlo", "def _run_chunks(n, width, seed, draws, finish):\n    draw(ws, _chunk_rng(words))\n", False),
    ("montecarlo", "def _seed_words(seed, streams, chunks):\n    return np.random.SeedSequence((seed, 0, 0))\n", False),
    ("report", "import numpy as np\nSEEDS = np.random.SeedSequence\n", True),
])
def test_guard_catches_draws_outside_path_draws(module, source, bad, tmp_path):
    path = tmp_path / f"{module}.py"
    path.write_text(source)
    assert bool(violations(path)) is bad


# float.hex of the first four standard normals of PCG64(SeedSequence((seed,
# stream, k))).  A seed or chunk index of 2**32 or more is split by
# SeedSequence into two 32-bit words, so the last two rows pin that split too.
KNOWN_DRAWS = {
    (42, 0, 0): ("0x1.3807c1104fc6bp-2", "-0x1.0a3c65fca9a7ep+0", "0x1.803b239e77350p-1", "0x1.e191b2d157f36p-1"),
    (7, 1, 3): ("0x1.048558cf47ca8p-2", "0x1.01a85e9aaed31p+0", "0x1.cd15382fbc531p-2", "0x1.d7c9e84fcec7ap+0"),
    (2**32 + 5, 2, 1): ("0x1.3b8842eff563ap-3", "-0x1.5abdf1abc7c22p+0", "0x1.0bf93b0baa952p+0", "-0x1.35bf70846f070p-1"),
    (42, 1, 2**32 + 3): ("-0x1.218ae561e1c62p+1", "0x1.e6b91c3062254p-3", "-0x1.ddbfc4acd7ccfp+0", "-0x1.5dfcb025fbecdp-1"),
}


@pytest.mark.parametrize("triple", KNOWN_DRAWS)
def test_streams_draw_their_known_answers(triple):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(triple)))
    got = tuple(x.hex() for x in rng.standard_normal(4).tolist())
    assert got == KNOWN_DRAWS[triple], (
        f"numpy {np.__version__} draws other numbers for PCG64(SeedSequence({triple})); the pcg64-seedseq-v1 "
        "streams, every pinned Monte Carlo bit and every simulate golden file rest on these"
    )


@pytest.mark.parametrize("triple", KNOWN_DRAWS)
def test_block_words_draw_the_known_answers(triple):
    # the first chunk of a block of two, whose words the replayed mixing makes
    seed, stream, k = triple
    words = _seed_words(seed, (stream,), range(k, k + 2))[0, 0]
    got = tuple(x.hex() for x in _chunk_rng(words).standard_normal(4).tolist())
    assert got == KNOWN_DRAWS[triple]


SEEDS = (0, 2**32 - 1, 2**32, 2**64, 10**40)  # one to five 32-bit words


def at_every_seed_width(test):
    """`@example`s at each width of SEEDS: chunk 0; three chunks either side
    of 2**32, where the index gains a second word; one chunk at 2**64 - 1."""
    for seed in SEEDS:
        for first, count in ((0, 1), (2**32 - 3, 3), (2**32, 3), (2**64 - 1, 1)):
            test = example(seed, [0, 1, 2], first, count)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**160)),
    st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True),
    st.one_of(st.integers(0, 2**32 + 4), st.integers(0, 2**70)),
    st.integers(1, 3),
)
@at_every_seed_width
@example(7, [2, 0], 2**64, 2)  # a block of chunk indices of a third word
def test_seed_words_are_seedsequences(seed, streams, first, count):
    # the blocks the runner asks for: one chunk, or a few inside one
    # _SEED_BLOCK-aligned run of chunks
    first = min(first, first - first % _SEED_BLOCK + _SEED_BLOCK - count)
    chunks = range(first, first + count)
    got = _seed_words(seed, streams, chunks)
    expected = [[np.random.SeedSequence((seed, s, k)).generate_state(4, np.uint64) for k in chunks] for s in streams]
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.tolist() == np.array(expected).tolist()
