"""Welfare accounting: who pays for privacy, and how the cost curves.

The three per-period expected P&Ls sum to zero.  With privacy noise the
maker prices a coarser signal than it settles against, so it runs a loss
|pi_M| -- the privacy subsidy -- transferred to both trader types.
"""

from privacy_lab import (
    MarketParams,
    SweepSpec,
    incremental_gains,
    privacy_subsidy,
    subsidy_analysis,
    sweep,
    welfare_decomposition,
)

print("=== zero-sum decomposition across privacy levels (sigma_v = sigma_u = 1) ===")
print(f"{'sigma_eps':>10} {'pi_I':>10} {'pi_N':>10} {'pi_M':>10} {'sum':>10}")
for se in (0.0, 0.5, 1.0, 2.0, 5.0):
    w = welfare_decomposition(MarketParams(1.0, 1.0, se))
    print(f"{se:>10.2f} {w.pi_I:>10.4f} {w.pi_N:>10.4f} {w.pi_M:>10.4f} {w.pi_I + w.pi_N + w.pi_M:>10.1e}")
print("both trader types gain with privacy; the protocol pool pays the sum")

print("\n=== the subsidy curve and its inflection ===")
params = MarketParams(1.0, 1.0)
curve = sweep(SweepSpec(params, [0.5 * i for i in range(11)], {"welfare"}))
for row in curve:
    bar = "#" * int(round(40 * row.subsidy / curve[-1].subsidy))
    print(f"  sigma_eps = {row.sigma_eps:4.1f}  |pi_M| = {row.subsidy:6.4f}  {bar}")
print(f"inflection at sigma_eps* = sqrt(2)*sigma_u = {subsidy_analysis(params).inflection:.6f}")

a = subsidy_analysis(MarketParams(1.0, 1.0, 1.0))
print(f"\nat sigma_eps = 1: d|pi_M|/d sigma_eps = {a.d1:.6f} (> 0: strictly increasing)")
print(f"                  d2 = {a.d2:.6f} (> 0: still convex below the inflection)")
b = subsidy_analysis(MarketParams(1.0, 1.0, 2.0))
print(f"at sigma_eps = 2: d2 = {b.d2:.6f} (< 0: concave past the inflection)")

print("\n=== regimes: quadratic when noise is small, linear when it dominates ===")
sv, su = 1.0, 1.0
print(f"low-privacy coefficient sigma_v/(2 sigma_u) = {a.low_privacy_coeff}")
for k in (0.1, 0.01):
    se = k * su
    sub = privacy_subsidy(MarketParams(sv, su, se))
    print(f"  sigma_eps = {se:5.2f}: subsidy = {sub:.3e}  vs quadratic {a.low_privacy_coeff * se**2:.3e}")
print(f"high-privacy slope sigma_v/2 = {a.high_privacy_slope}")
for se in (100.0, 10_000.0):
    sub = privacy_subsidy(MarketParams(sv, su, se))
    print(f"  sigma_eps = {se:8.0f}: subsidy/sigma_eps = {sub / se:.6f}")

print("\n=== noise traders lose less as privacy grows ===")
for se in (0.0, 0.5, 1.0, 2.0):
    print(f"  sigma_eps = {se}: pi_N = {welfare_decomposition(MarketParams(1.0, 1.0, se)).pi_N:.6f}")

print("\n=== each type's gain over the no-noise baseline; they split the subsidy ===")
p = MarketParams(1.0, 1.0, 1.0)
gain_informed, gain_noise = incremental_gains(p)
print(f"informed gain = {gain_informed:.6f}, noise gain = {gain_noise:.6f}")
print(f"sum = {gain_informed + gain_noise:.6f} = subsidy = {privacy_subsidy(p):.6f}")
ratio = gain_informed / gain_noise
print(f"near zero noise the split is symmetric; at sigma_eps = sigma_u the ratio is {ratio:.4f}")
