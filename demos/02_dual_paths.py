"""Compare the direct prime sum with its Poisson-dual evaluation.

The direct path walks every curve in the lattice for every prime below
X^nu.  The dual path rewrites the complete (a, b) sum through twisted
character sums and Poisson summation, leaving only lattice points near the
origin of the dual, weighted by the decaying transform of the box weight.
The two differ only by the dual terms dropped below tail_tol, which is
tightened to 1e-14 here; the dual needs far fewer terms once X is large.
"""

import time

from ecdensity import family, p1_direct, p1_poisson
from ecdensity.density import direct_term_count, poisson_term_count

for x in (1e3, 1e4):
    f = family(x, tail_tol=1e-14)
    t0 = time.perf_counter()
    direct = p1_direct(f)
    t1 = time.perf_counter()
    dual = p1_poisson(f)
    t2 = time.perf_counter()
    print(f"X={x:.0e}  direct={direct:+.12e} ({t1 - t0:.2f}s)")
    print(f"         dual  ={dual:+.12e} ({t2 - t1:.2f}s)")
    print(f"         |diff|={abs(direct - dual):.2e}")

f = family(1e5)
n_dir = direct_term_count(f)
n_poi = poisson_term_count(f)
print()
print(f"term counts at X=1e5: direct {n_dir:,} vs dual {n_poi:,} "
      f"(ratio {n_poi / n_dir:.4f}; the ratio keeps falling with X)")
