"""Numerical harnesses for the supporting inequalities.

Constant-1 inequalities (the additive large sieve, the zero-spacing count)
are tested on batches of randomized instances: every ratio must stay at or
below 1.  Comparison-shaped bounds are recorded as ratio distributions.
The six divisor-kernel sums get log-log slope fits against their stated
growth exponents; four of them carry polylog factors, so their fitted
slopes sit visibly above the exponent and only creep down as the range
grows.
"""

from ecdensity.harness import (
    DEFAULT_SEED,
    gallagher_spacing_suite,
    harness_csv,
    heathbrown_suite,
    large_sieve_suite,
    lemma_f_growth,
)

ls = large_sieve_suite(seed=DEFAULT_SEED)
print(f"large sieve: {ls.instances} instances, {ls.failures} failures, "
      f"max ratio {ls.max_ratio:.6f}")
gs = gallagher_spacing_suite(seed=DEFAULT_SEED)
print(f"zero spacing: {gs.instances} instances, {gs.failures} failures, "
      f"max ratio {gs.max_ratio:.6f}")
hb = heathbrown_suite(seed=DEFAULT_SEED)
print(f"fourth-moment comparison: max ratio {hb.max_ratio:.4f} "
      f"(p50 {hb.p50:.4f}, p90 {hb.p90:.4f})")

print()
print("divisor-kernel growth fits (slope vs stated exponent):")
for fit in lemma_f_growth(10**5):
    flag = "ok " if fit.ok else "hot"
    print(f"  {flag} {fit.name:32s} fitted {fit.slope:.3f} vs {fit.stated_exponent}")

print()
print("CSV header of the ratio log:",
      harness_csv([ls, gs, hb]).splitlines()[0])
