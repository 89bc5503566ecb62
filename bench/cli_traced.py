"""Run the privacy-lab CLI under the span tracer.

    python3 bench/cli_traced.py SPANS.npz CLI-ARGS...

Behaves like `python -m privacy_lab.cli CLI-ARGS...` (same output, exit code
and traceback), and on the way out writes the spans of the import and of
every traced call to SPANS.npz.  The traced cli-cold run launches this in
place of the CLI.
"""

import sys
import time

from tracer import Tracer


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter_ns()
    from privacy_lab import cli

    tracer.record("cli", "import", t0, time.perf_counter_ns())
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
