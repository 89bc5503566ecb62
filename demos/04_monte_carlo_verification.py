"""Monte Carlo verification: seeded simulation against every closed form.

Draws are chunk-seeded (three independent streams for value, noise flow and
privacy noise), so every estimate is reproducible bit-for-bit regardless of
thread count.  Each check compares a sample estimate to its closed form at
the 3-standard-error level.
"""

import os
from dataclasses import replace

from privacy_lab import (
    BatchParams,
    MarketParams,
    SimConfig,
    batched_equilibrium,
    estimate_lambda_regression,
    estimate_price_moments,
    estimate_welfare,
    posterior_slope,
    simulate,
    simulate_batched,
    solve_closed_form,
    verify_best_response,
    welfare_decomposition,
)

params = MarketParams(sigma_v=1.0, sigma_u=1.0, sigma_eps=1.0)
eq = solve_closed_form(params)
cfg = SimConfig(n_paths=1_000_000, seed=42)


def line(name, expected, estimate, se):
    z = abs(estimate - expected) / se
    print(f"  {name:<22} closed form {expected:>10.5f}   MC {estimate:>10.5f}"
          f"   se {se:.2e}   z = {z:4.2f}  {'PASS' if z <= 3 else 'FAIL'}")


print("=== welfare triple, regression slope, price moments (n = 1e6, seed 42) ===")
sample = simulate(params, eq, cfg)
west = estimate_welfare(sample)
w = welfare_decomposition(params)
line("pi_I", w.pi_I, west.mean_pi_I, west.se_pi_I)
line("pi_N", w.pi_N, west.mean_pi_N, west.se_pi_N)
line("pi_M", w.pi_M, west.mean_pi_M, west.se_pi_M)
reg = estimate_lambda_regression(sample)
line("lambda (OLS)", eq.lam, reg.slope, reg.se)
pm = estimate_price_moments(sample, params)
line("E[p|v] slope", pm.slope_expected, pm.slope, pm.slope_se)
line("Var(p|v)", pm.resid_var_expected, pm.resid_var, pm.resid_var_se)

print("\n=== off-equilibrium play: the regression tracks the projection, not lambda ===")
perturbed = replace(eq, beta=1.2 * eq.beta)
off = estimate_lambda_regression(simulate(params, perturbed, cfg))
predicted = posterior_slope(params, perturbed.beta)
line("slope at 1.2*beta", predicted, off.slope, off.se)
print(f"  (equilibrium lambda is {eq.lam:.5f}; the estimator moved as predicted)")

print("\n=== the trader's order is optimal: profit-curve argmax vs x* ===")
chk = verify_best_response(params, eq, v=1.0, grid_halfwidth=0.5, n_grid=21, cfg=cfg)
print(f"  x* = {chk.x_star:.6f}, empirical argmax = {chk.argmax_x:.6f}, grid step = {chk.grid_step:.4f}")

print("\n=== batched clearing: the maker breaks even exactly ===")
for tau in (1, 4, 16):
    bp = BatchParams(MarketParams(1.0, 1.0), tau)
    est = simulate_batched(bp, batched_equilibrium(bp), cfg)
    print(f"  tau = {tau:>2}: pi_M = {est.mean_pi_M:+.5f} (se {est.se_pi_M:.1e}),"
          f" pi_I = {est.mean_pi_I:.5f} vs {0.5 * tau**0.5:.5f}")

print("\n=== determinism: same seed, different thread caps ===")
os.environ["PRIVACY_LAB_THREADS"] = "1"
one = estimate_welfare(simulate(params, eq, cfg))
os.environ["PRIVACY_LAB_THREADS"] = "8"
eight = estimate_welfare(simulate(params, eq, cfg))
os.environ.pop("PRIVACY_LAB_THREADS")
print(f"  identical estimates: {one == eight}")
