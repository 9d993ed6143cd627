"""Short Weierstrass models y^2 = x^3 + a x + b: minimality, reduction, conductor.

Only short models are handled.  At p >= 5 the reduction type and local
conductor exponent read off the minimal short model exactly; at p = 2, 3 the
exponents are capped valuation heuristics (min(v2, 8), min(v3, 5)) carried
with an exact=False flag and a sensitivity band [drop 2 and 3 entirely, apply
the caps], since short models cannot decide those places.

conductor_log_batch evaluates the same heuristic over a product grid of a
and b values.  Its odd part is a residue sieve rather than trial division of
every curve: for a prime p >= 5, p | 4a^3 + 27b^2 exactly when
-4a^3 = 27b^2 (mod p), so joining the a-axis keys -4a^3 mod p against the
sorted b-axis keys 27b^2 mod p lists the cells p divides.  That is
O(na + nb) key work plus O(hits) per prime instead of O(na * nb).  The sieve
stops at the integer cube root of the largest 2- and 3-free remainder, where
each leftover is 1, q, q^2 or q*r and reads off exactly (conductor_log_batch
says why); on family(1e7) the 120 primes 5 <= p <= 676 hit 222,569 of
170,748 * 120 = 2.0e7 (curve, p) cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, icbrt, sieve_primes


@dataclass(frozen=True)
class CurveParams:
    a: int
    b: int

    @property
    def disc(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)


def minimal_short_model(a: int, b: int) -> tuple[int, int, int]:
    """(a', b', u): the largest u with u^4 | a and u^6 | b removed.

    Requires a nonsingular curve (4a^3 + 27b^2 != 0).  When a = 0 or b = 0
    the constraint from the zero coefficient is vacuous.
    """
    if 4 * a**3 + 27 * b**2 == 0:
        raise ValueError(f"singular curve (a, b) = ({a}, {b})")
    u = 1
    if a == 0:
        for p, e in factorize(abs(b)).factors:
            u *= p ** (e // 6)
    elif b == 0:
        for p, e in factorize(abs(a)).factors:
            u *= p ** (e // 4)
    else:
        fb = factorize(abs(b))
        for p, ea in factorize(abs(a)).factors:
            eb = fb.valuation(p)
            u *= p ** min(ea // 4, eb // 6)
    return a // u**4, b // u**6, u


def reduction_type(a: int, b: int, p: int) -> tuple[str, int]:
    """(type, local conductor exponent) at p >= 5 for a p-minimal short model.

    good: p does not divide disc; multiplicative: p | disc, p does not divide
    c4 = -48a; additive otherwise.  Exponents are 0 / 1 / 2.
    """
    if p < 5:
        raise ValueError("reduction_type handles p >= 5 only; see conductor() for 2 and 3")
    disc = -16 * (4 * a**3 + 27 * b**2)
    if disc % p != 0:
        return "good", 0
    if (48 * a) % p != 0:
        return "multiplicative", 1
    return "additive", 2


F2_CAP = 8
F3_CAP = 5


@dataclass(frozen=True)
class ConductorInfo:
    n: int                      # heuristic conductor value
    exact: bool                 # False whenever 2 or 3 divides the minimal disc
    f2: int
    f3: int
    odd_part: int               # prod over bad p >= 5 of p^f_p (exact)
    n_lo: int                   # band: drop the 2- and 3-contributions
    n_hi: int                   # band: apply the caps at 2 and 3 outright
    bad_primes: tuple[tuple[int, str, int], ...]
    u: int                      # scaling removed when minimizing


def conductor(a: int, b: int) -> ConductorInfo:
    a1, b1, u = minimal_short_model(a, b)
    disc = -16 * (4 * a1**3 + 27 * b1**2)
    fac = factorize(abs(disc))
    v2 = fac.valuation(2)
    v3 = fac.valuation(3)
    odd = 1
    bad = []
    for p, _ in fac.factors:
        if p < 5:
            continue
        typ, fp = reduction_type(a1, b1, p)
        odd *= p**fp
        bad.append((p, typ, fp))
    f2 = min(v2, F2_CAP)
    f3 = min(v3, F3_CAP)
    n = odd * 2**f2 * 3**f3
    n_hi = odd * (2**F2_CAP if v2 else 1) * (3**F3_CAP if v3 else 1)
    return ConductorInfo(
        n=n,
        exact=(v2 == 0 and v3 == 0),
        f2=f2,
        f3=f3,
        odd_part=odd,
        n_lo=odd,
        n_hi=n_hi,
        bad_primes=tuple(bad),
        u=u,
    )


def _leftover_log(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum of f_q log q over the primes q of each odd-sieve leftover r > 1,
    which is q, q^2 or q*q' (see conductor_log_batch); a holds the same
    cells' minimal-model coefficient, which decides f_q at a square."""
    q = np.rint(np.sqrt(r)).astype(np.int64)
    sq = np.flatnonzero(q * q == r)
    term = np.log(r)
    term[sq] = np.where(a[sq] % q[sq] != 0, 1, 2) * np.log(q[sq])
    return term


def conductor_log_batch(na: np.ndarray, nb: np.ndarray,
                        stats: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log n, log n_lo, log n_hi) over the grid na x nb of curves, vectorized.

    Same heuristic as conductor().  The arrays are flat in a-major order
    (cell i * nb.size + j is the curve (na[i], nb[j])).  The odd part of the
    minimal |disc|/16 is sieved one prime p >= 5 at a time on the two axes:
    p | 4a^3 + 27b^2 exactly when -4a^3 = 27b^2 (mod p), so joining the sorted
    keys 27b^2 mod p against the keys -4a^3 mod p yields the cells p divides
    in O(na + nb) key work plus O(hits), not O(na * nb) trial divisions.

    The sieve stops at root = icbrt(max rem), rem being each cell's minimal
    |disc|/16 with its 2- and 3-parts divided out.  Every prime factor of a
    leftover is then > root, and rem < (root + 1)^3 allows at most two, so
    the leftover is 1, q, q^2 or q*r.  A factor q | a would force q | b and
    q^2 | rem, so q and q*r are multiplicative at each factor and add
    log(rem), while q^2 adds f_q log q with f_q = 2 exactly when q | a.
    stats, when given, receives "primes", the number of primes the odd
    sieve ran.
    """
    na = np.asarray(na, dtype=np.int64)
    nb = np.asarray(nb, dtype=np.int64)
    if na.ndim != 1 or nb.ndim != 1:
        raise ValueError("curve axes must be 1-D")
    a = np.repeat(na, nb.size)
    b = np.tile(nb, na.size)
    if np.any(4 * a**3 + 27 * b**2 == 0):
        raise ValueError("singular curve in batch")
    # remove u^4 | a, u^6 | b: p^4 <= |a| when a != 0, p^6 <= |b| when a = 0
    amax = int(np.abs(na).max()) if na.size else 0
    b0max = int(np.abs(nb).max()) if np.any(na == 0) and nb.size else 0
    for p in sieve_primes(max(int(amax ** 0.25) + 1, int(b0max ** (1 / 6)) + 1, 2)):
        p4, p6 = p**4, p**6
        while True:
            m = (a % p4 == 0) & (b % p6 == 0) & (a != 0)
            m |= (a == 0) & (b % p6 == 0) & (b != 0)
            if not m.any():
                break
            a[m] //= p4
            b[m] //= p6
    rem = np.abs(4 * a**3 + 27 * b**2)  # |disc| / 16, divided down below
    del b
    # v2 of disc = 4 + v2(d); the factor 16 never meets the p >= 5 part
    v2 = np.frexp((rem & -rem).astype(np.float64))[1] - 1
    rem >>= v2
    v2 += 4
    v3 = np.zeros(a.shape, dtype=np.int64)
    for _ in range(41):
        m = rem % 3 == 0
        if not m.any():
            break
        v3[m] += 1
        rem[m] //= 3
    root = icbrt(int(rem.max()) if rem.size else 0)
    log_odd = np.zeros(a.shape, dtype=np.float64)
    rows = np.arange(na.size, dtype=np.int64) * nb.size
    a_side, b_side = -4 * na**3, 27 * nb**2
    primes = [p for p in sieve_primes(root) if p >= 5]
    for p in primes:
        ka, kb = a_side % p, b_side % p
        order = kb.argsort()
        kb = kb[order]
        lo = kb.searchsorted(ka, side="left")
        cnt = kb.searchsorted(ka, side="right") - lo
        total = int(cnt.sum())
        if total == 0:
            continue
        # flat cells of the original grid that p divides; minimization divides
        # disc by u^12, so keep those p still divides
        start = np.cumsum(cnt) - cnt
        pos = np.arange(total) - np.repeat(start - lo, cnt)
        idx = np.repeat(rows, cnt) + order[pos]
        idx = idx[rem[idx] % p == 0]
        fp = np.where(a[idx] % p != 0, 1, 2)
        log_odd[idx] += fp * math.log(p)
        r = rem[idx]
        while True:
            m = r % p == 0
            if not m.any():
                break
            r[m] //= p
        rem[idx] = r
    if stats is not None:
        stats["primes"] = len(primes)
    big = rem > 1
    log_odd[big] += _leftover_log(rem[big], a[big])
    l2, l3 = math.log(2), math.log(3)
    log_n = log_odd + np.minimum(v2, F2_CAP) * l2 + np.minimum(v3, F3_CAP) * l3
    log_hi = log_odd + F2_CAP * l2 + np.where(v3 > 0, F3_CAP, 0) * l3
    return log_n, log_odd.copy(), log_hi
