"""Monte Carlo verification: seeded simulation against every closed form.

Draws are chunk-seeded (three independent streams for value, noise flow and
privacy noise), so every estimate is reproducible bit-for-bit regardless of
thread count.  `verify_simulation` and `verify_batched` compare each sample
estimate to its closed form at the 3-standard-error level and return one
`Check` record per comparison.  The script exits 1 if any check fails.
"""

import os
import sys
from dataclasses import replace

from privacy_lab import (
    BatchParams,
    MarketParams,
    SimConfig,
    solve_closed_form,
    verify_batched,
    verify_best_response,
    verify_simulation,
)

params = MarketParams(sigma_v=1.0, sigma_u=1.0, sigma_eps=1.0)
eq = solve_closed_form(params)
cfg = SimConfig(n_paths=1_000_000, seed=42)
failed = []


def show(checks):
    for c in checks:
        print(f"  {c.name:<14} closed form {c.expected:>10.5f}   MC {c.estimate:>10.5f}"
              f"   se {c.se:.2e}   z = {c.z:4.2f}  {'PASS' if c.passed else 'FAIL'}")
    failed.extend(c.name for c in checks if not c.passed)


print("=== welfare triple, regression slope, price moments (n = 1e6, seed 42) ===")
show(verify_simulation(params, eq, cfg))

print("\n=== off-equilibrium play at 1.2*beta: the targets move with the strategy ===")
show(verify_simulation(params, replace(eq, beta=1.2 * eq.beta), cfg))
print(f"  (equilibrium lambda is {eq.lam:.5f}; the OLS slope tracks the projection instead)")

print("\n=== the trader's order is optimal: profit-curve argmax vs x* ===")
chk = verify_best_response(params, eq, v=1.0, grid_halfwidth=0.5, n_grid=21, cfg=cfg)
print(f"  x* = {chk.x_star:.6f}, empirical argmax = {chk.argmax_x:.6f}, grid step = {chk.grid_step:.4f}")

print("\n=== batched clearing: the maker breaks even exactly ===")
for tau in (1, 4, 16):
    print(f"  tau = {tau}")
    show(verify_batched(BatchParams(MarketParams(1.0, 1.0), tau), cfg))

print("\n=== determinism: same seed, different thread caps ===")
os.environ["PRIVACY_LAB_THREADS"] = "1"
one = verify_simulation(params, eq, cfg)
os.environ["PRIVACY_LAB_THREADS"] = "8"
eight = verify_simulation(params, eq, cfg)
os.environ.pop("PRIVACY_LAB_THREADS")
print(f"  identical checks: {one == eight}")
if one != eight:
    failed.append("thread-cap determinism")

print("\nall checks passed" if not failed else f"\nFAILED: {', '.join(failed)}")
sys.exit(1 if failed else 0)
