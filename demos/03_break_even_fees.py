"""Break-even fees: the subsidy as a fee floor, and who ends up paying it.

A volume-proportional fee f = |pi_M| / (E|x| + E|u|) charged at the no-fee
equilibrium volumes exactly claws back each trader type's privacy gain, so
net-of-fee P&L reverts to the no-noise values +/- sigma_v*sigma_u/2 and the
maker is exactly compensated.
"""

import math

from privacy_lab import (
    MarketParams,
    SweepSpec,
    break_even_fee,
    incremental_gains,
    privacy_subsidy,
    sweep,
)

print("=== fee record at sigma_v = sigma_u = sigma_eps = 1 ===")
p = MarketParams(1.0, 1.0, 1.0)
fee = break_even_fee(p)
print(f"expected informed volume E|x| = {fee.e_abs_x:.5f}")
print(f"expected noise volume    E|u| = {fee.e_abs_u:.5f}")
print(f"total volume             Q    = {fee.q_total:.5f}")
print(f"break-even rate          f    = {fee.fee_rate:.5f}")

print("\n=== the fee burden equals each type's privacy gain ===")
gain_informed, gain_noise = incremental_gains(p)
print(f"fee on informed = {fee.fee_on_informed:.6f}  vs informed gain = {gain_informed:.6f}")
print(f"fee on noise    = {fee.fee_on_noise:.6f}  vs noise gain    = {gain_noise:.6f}")
print(f"net pi_I = {fee.net_pi_I:.6f}  (no-noise value +1/2)")
print(f"net pi_N = {fee.net_pi_N:.6f}  (no-noise value -1/2)")

print("\n=== fee floor across privacy levels ===")
print(f"{'sigma_eps':>10} {'fee rate':>10} {'on informed':>12} {'on noise':>10}")
for se in (0.0, 0.5, 1.0, 2.0):
    f = break_even_fee(MarketParams(1.0, 1.0, se))
    print(f"{se:>10.1f} {f.fee_rate:>10.5f} {f.fee_on_informed:>12.5f} {f.fee_on_noise:>10.5f}")

print("\n=== BTC/USDT calibration: the floor in dollars per day ===")
btc = MarketParams(3000.0, 1000.0)
ratios = (0.1, 0.5, 1.0, math.sqrt(2.0), 2.0)
for ratio, row in zip(ratios, sweep(SweepSpec(btc, [r * btc.sigma_u for r in ratios], {"welfare"}))):
    print(f"  sigma_eps/sigma_u = {ratio:6.4f}: subsidy = ${row.subsidy:>12,.0f}/day"
          f"  ({row.subsidy / (btc.sigma_v * btc.sigma_u):.3f} of sigma_v*sigma_u)")

print("\n=== does a 10 bp fee on $1B/day cover it? ===")
revenue = 1e9 * (10.0 / 1e4)
subsidy = privacy_subsidy(MarketParams(3000.0, 1000.0, 1000.0))
shortfall = subsidy - revenue
print(f"fee revenue  = ${revenue:,.0f}/day")
print(f"subsidy      = ${subsidy:,.0f}/day")
print(f"shortfall    = ${shortfall:,.0f}/day ({100.0 * shortfall / revenue:.2f}% of revenue)")
print("fee schedules and privacy parameters cannot be chosen independently")
