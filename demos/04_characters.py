"""Dirichlet characters: enumeration, Gauss sums, and the cubic census.

Characters mod q are enumerated from a basis of the unit group, so order
and conductor come out structurally.  Gauss sums obey |tau| = sqrt(q) for
primitive characters, and the real primitive ones evaluate exactly.
Characters of order 3 only live over moduli of a constrained shape, which
a scan makes visible.
"""

import math

from ecdensity import (
    char_order_and_conductor,
    cubic_structure_report,
    gauss_sum_matrix,
    is_primitive,
)

q = 21
chars, units, taus = gauss_sum_matrix(q)  # taus[j, i] = tau_a(chi_j) at a = units[i]
print(f"modulus {q}: {len(chars)} characters")
for chi, tau in zip(chars[:6], taus[:6, 0]):  # units[0] = 1: the plain Gauss sum
    order, cond = char_order_and_conductor(chi)
    print(f"  order {order}  conductor {cond:2d}  primitive {is_primitive(chi)!s:5s}"
          f"  |tau| = {abs(tau):.4f}  (sqrt(q) = {math.sqrt(q):.4f})")

rows = cubic_structure_report(2000)
havers = [r for r in rows if r.n_primitive_cubic > 0]
print()
print(f"moduli up to 2000 carrying primitive cubic characters: {len(havers)}")
print("first few:", [r.q for r in havers[:10]])
print("every one matches the 9^a * (squarefree product of p = 1 mod 3) shape:",
      all(r.shape_ok for r in rows))
