"""Minimal models, reduction types, and conductor bands.

Curves in the family can be non-minimal; the scaling u collapses them to a
minimal short model away from 2 and 3.  Reduction type at each bad prime
and the odd part of the conductor are exact, while the wild exponents at 2
and 3 are only bracketed, giving a conductor band.
"""

from ecdensity import conductor, minimal_short_model, reduction_type

for a, b in ((1, 1), (-16, 16), (1296, 46656), (2 * 5**4, 3 * 5**6)):
    am, bm, u = minimal_short_model(a, b)
    info = conductor(a, b)
    kinds = ", ".join(f"{p}:{kind}" for p, kind, _ in info.bad_primes)
    print(f"(a,b)=({a},{b})")
    print(f"  minimal model ({am},{bm}) with scaling u={u}")
    print(f"  odd conductor part {info.odd_part}, band [{info.n_lo}, {info.n_hi}]")
    print(f"  bad reduction at: {kinds or 'none odd'}")

print()
p = 31
kind, v = reduction_type(1, 1, p)
print(f"reduction of (1,1) at p={p}: {kind} (disc valuation {v})")
