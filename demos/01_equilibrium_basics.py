"""Equilibrium basics: closed form, independent oracle, comparative statics.

One informed trader submits x = beta*(v - p0); noise traders add u; the
market maker sees only the privacy-noised flow y_tilde = x + u + eps and
prices it at the posterior mean p = p0 + lambda*y_tilde.  This script solves
for (lambda, beta) two independent ways and walks the comparative statics.
"""

import math

from privacy_lab import (
    MarketParams,
    posterior_slope,
    solve_closed_form,
    solve_fixed_point,
)

params = MarketParams(sigma_v=1.0, sigma_u=1.0, sigma_eps=1.0)

print("=== closed form vs fixed-point oracle ===")
cf = solve_closed_form(params)
fp = solve_fixed_point(params)
print(f"closed form : lambda = {cf.lam:.12f}  beta = {cf.beta:.12f}")
print(f"fixed point : lambda = {fp.lam:.12f}  beta = {fp.beta:.12f}")
print(f"relative discrepancy: {abs(fp.lam - cf.lam) / cf.lam:.2e}")
print(f"half-revealing product lambda*beta = {cf.lam * cf.beta}")

print("\n=== price impact falls, trading intensifies, as privacy noise grows ===")
print(f"{'sigma_eps':>10} {'lambda':>10} {'beta':>10} {'depth 1/lambda':>15}")
for se in (0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, 5.0):
    eq = solve_closed_form(MarketParams(1.0, 1.0, se))
    print(f"{se:>10.4f} {eq.lam:>10.4f} {eq.beta:>10.4f} {1.0 / eq.lam:>15.4f}")

print("\n=== the maker's posterior price rule p = p0 + slope * y_tilde ===")
slope = posterior_slope(params, beta=cf.beta)
print(f"projection slope at the equilibrium beta: {slope:.12f} (equals lambda)")
print("zero observed flow returns the prior:", params.p0 + slope * 0.0)
print("positive observed flow moves the quote up:", f"{params.p0 + slope * 2.0:.6f}")

print("\n=== the trader's best response is half the edge over price impact ===")
v = 1.0
x_star = (v - params.p0) / (2.0 * cf.lam)
print(f"v = {v}: x* = {x_star:.6f} (equals beta*(v - p0) = {cf.beta * v:.6f})")
for x in (0.5 * x_star, x_star, 1.5 * x_star):
    profit = (v - params.p0) * x - cf.lam * x**2
    print(f"  expected profit at x = {x:7.4f}: {profit:.6f}")

print("\n=== the real-flow zero-profit slope is blind to privacy noise ===")
for se in (0.0, 1.0, 3.0):
    p = MarketParams(1.0, 1.0, se)
    print(f"sigma_eps = {se}: zero-profit lambda = {p.sigma_v / (2.0 * p.sigma_u)}"
          f"  vs equilibrium lambda = {solve_closed_form(p).lam:.4f}")
print("(comparison only: sigma_v/(2*sigma_u) breaks even against the executed")
print(" flow, which a maker that observes just the noisy signal cannot price)")
