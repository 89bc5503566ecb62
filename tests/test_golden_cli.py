"""Every CLI command in every --format prints exactly what it printed when the
golden files under tests/golden/ were captured.

`reproduce-paper` writes into a temporary directory, whose path is replaced
by `<outdir>` before comparing; the bundle files it writes are compared too.
Usage errors compare their exit code and stderr; of an error that argparse
reports, only the last line, since its usage text wraps with the terminal.
A case that exits with a verification failure compares its exit code and
stdout only, since numpy may warn on stderr.

    PYTHONPATH=src python tests/test_golden_cli.py

rewrites the golden files from the current code.  Do that only for a change
that is meant to alter the output, and say so where the change is recorded.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from privacy_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"json": "json", "csv": "csv", "human": "txt"}
BTC = ("--sigma-v", "3000", "--sigma-u", "1000", "--sigma-eps", "1000", "--p0", "60000")
UNIT = ("--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "0.5")
SWEEP_CONFIG = GOLDEN / "inputs" / "sweep-config.json"
CASES = {
    "equilibrium": ("equilibrium", *BTC),
    "decompose": ("decompose", *BTC),
    "decompose-unit": ("decompose", *UNIT),
    "fee": ("fee", *BTC),
    "sweep": ("sweep", *UNIT, "--sigma-eps-values", "0,0.25,1,1.4142135623730951,4,1e160"),
    "sweep-fee": ("sweep", *UNIT, "--sigma-eps-values", "0,2", "--outputs", "fee"),
    "simulate": ("simulate", *UNIT, "--n-paths", "20000", "--seed", "7", "--chunk-size", "4096"),
    "simulate-batched": ("simulate", *UNIT[:4], "--batched", "--tau", "4", "--n-paths", "20000", "--seed", "7"),
    "sweep-partial": ("sweep", *UNIT, "--sigma-eps-values", "0,1,4", "--outputs", "equilibrium,welfare"),
    "sweep-subsidy": ("sweep", *UNIT, "--sigma-eps-values", "0,1.4142135623730951,4", "--outputs", "subsidy_analysis"),
    "sweep-config": ("sweep", "--config", str(SWEEP_CONFIG), "--sigma-u", "2"),
    "simulate-beta-scale": ("simulate", *UNIT, "--n-paths", "20000", "--seed", "7", "--chunk-size", "4096",
                            "--beta-scale", "1.2"),
    # The sample moments overflow at sigma_eps = 1e160, so the checks fail
    # and the run exits 3.  Scale-safe Monte Carlo (ROADMAP item 1) is meant
    # to make them pass, which will change this case on purpose.
    "simulate-overflow": ("simulate", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "1e160", "--n-paths", "1000"),
    "reproduce-paper": ("reproduce-paper",),
}
EXIT_CODES = {"simulate-overflow": 3}
BUNDLE = ("table1.csv", "table2.csv", "figure1.csv", "figure1.json", "fee_comparison.json")
ERRORS = (
    ("equilibrium", "--sigma-v", "0", "--sigma-u", "1"),
    ("equilibrium", "--sigma-v", "1", "--sigma-u", "-1"),
    ("equilibrium", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps", "-0.5"),
    ("decompose", "--sigma-v", "nan", "--sigma-u", "1"),
    ("fee", "--sigma-v", "1", "--sigma-u", "1", "--p0", "inf"),
    ("sweep", "--sigma-v", "1", "--sigma-u", "1", "--sigma-eps-values", "1,0"),
    ("simulate", "--sigma-v", "1", "--sigma-u", "1", "--n-paths", "1"),
    ("simulate", "--sigma-v", "1", "--sigma-u", "1", "--beta-scale", "-1", "--n-paths", "1000"),
    ("reproduce-paper", "--format", "csv"),
)
# reproduce-paper writes CSV files, but prints no CSV of its own
OUTPUTS = [(name, fmt) for name in CASES for fmt in FORMATS if (name, fmt) != ("reproduce-paper", "csv")]


def capture(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as e:
        return e.code, out.getvalue(), err.getvalue().splitlines(keepends=True)[-1]
    return rc, out.getvalue(), err.getvalue()


def case_output(name: str, fmt: str, outdir: Path) -> str:
    argv = [*CASES[name], "--format", fmt]
    if name == "reproduce-paper":
        argv += ["--outdir", str(outdir)]
    rc, out, err = capture(argv)
    assert rc == EXIT_CODES.get(name, 0)
    assert err == "" or rc == 3, err
    return out.replace(str(outdir), "<outdir>")


def errors_output() -> str:
    blocks = []
    for argv in ERRORS:
        rc, out, err = capture(argv)
        blocks.append(f"$ {' '.join(argv)}\nexit {rc}\n{out}{err}")
    return "".join(blocks)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflowing moments
@pytest.mark.parametrize("name,fmt", OUTPUTS)
def test_output_matches_golden(name, fmt, tmp_path):
    got = case_output(name, fmt, tmp_path / "bundle")
    assert got == (GOLDEN / f"{name}.{FORMATS[fmt]}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
def test_output_file_holds_the_stdout_bytes(fmt, tmp_path):
    dest = tmp_path / "out"
    rc, out, err = capture([*CASES["decompose"], "--format", fmt, "--output", str(dest)])
    assert (rc, out, err) == (0, "", "")
    assert dest.read_bytes() == (GOLDEN / f"decompose.{FORMATS[fmt]}").read_bytes()


def test_bundle_matches_golden(tmp_path):
    capture(["reproduce-paper", "--outdir", str(tmp_path), "--format", "json"])
    for name in BUNDLE:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "bundle" / name).read_bytes(), name


def test_usage_errors_match_golden():
    assert errors_output() == (GOLDEN / "errors.txt").read_text(encoding="utf-8")


def write_golden(tmp: Path) -> None:
    (GOLDEN / "bundle").mkdir(parents=True, exist_ok=True)
    for name, fmt in OUTPUTS:
        (GOLDEN / f"{name}.{FORMATS[fmt]}").write_text(case_output(name, fmt, tmp / "bundle"), encoding="utf-8")
    capture(["reproduce-paper", "--outdir", str(GOLDEN / "bundle")])
    (GOLDEN / "errors.txt").write_text(errors_output(), encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
