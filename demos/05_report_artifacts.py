"""Report artifacts: sweeps, calibrated tables, curve files, and the bundle.

Everything is emitted as deterministic CSV/JSON (floats at 17 significant
digits, so parsing a file back reproduces the exact doubles).
"""

import math
import tempfile
from pathlib import Path

from privacy_lab import MarketParams, SweepSpec, sweep, write_report_bundle
from privacy_lab.report import sweep_to_csv

print("=== a sigma_eps sweep with every output group ===")
spec = SweepSpec(
    params_base=MarketParams(sigma_v=1.0, sigma_u=1.0),
    sigma_eps_values=(0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, 3.0, 5.0),
)
rows = sweep(spec)
print(f"{'sigma_eps':>10} {'lambda':>8} {'beta':>8} {'subsidy':>8} {'fee':>8}  note")
for r in rows:
    print(f"{r.sigma_eps:>10.4f} {r.lam:>8.3f} {r.beta:>8.3f} {r.subsidy:>8.3f} {r.fee_rate:>8.3f}  {r.note}")

print("\n=== the same sweep as schema CSV (first three lines) ===")
for line in sweep_to_csv(rows).split("\n")[:3]:
    print(" ", line)

print("\n=== the full verified bundle ===")
with tempfile.TemporaryDirectory(prefix="privacy_lab_bundle_") as tmp:
    outdir = Path(tmp)
    result = write_report_bundle(outdir)
    for f in result.files:
        print(f"  wrote {f}")
    print("verified against pinned values:" , "OK" if result.ok else result.mismatches)
    print("\nthe same bundle is available from the command line:")
    print(f"  privacy-lab reproduce-paper --outdir {outdir}")
