"""Short Weierstrass models y^2 = x^3 + a x + b: minimality, reduction, conductor.

Only short models are handled.  At p >= 5 the reduction type and local
conductor exponent read off the minimal short model exactly; at p = 2, 3 the
exponents are capped valuation heuristics (min(v2, 8), min(v3, 5)) carried
with a sensitivity band [drop 2 and 3 entirely, apply the caps], since short
models cannot decide those places.

conductor_log_batch evaluates the same heuristic over a product grid of a
and b values with no full-grid pass per prime or per valuation step.  The
minimization reads floor(v_p(a)/4) and floor(v_p(b)/6) off the two axes.  The
odd part is a residue sieve: p >= 5 divides 4a^3 + 27b^2 exactly when
-4a^3 = 27b^2 (mod p), so each chunk of consecutive primes, cut by
arith.runs under _CHUNK_HITS, runs as one stacked join of the a-axis keys
against the sorted b-axis keys, O(na + nb) key work per prime plus O(hits)
instead of O(na * nb), and np.add.at adds f_p log p in ascending prime
order, so every sum rounds as one prime at a time would.  The
sieve stops at the integer cube root of the largest 2- and 3-free remainder,
where each leftover is 1, q, q^2 or q*r and reads off exactly
(conductor_log_batch says why).  A report's term_counts["conductor_primes"]
and ["conductor_hits"] count the primes sieved and the (curve, p) pairs hit.

The grid's working set stays a few arrays: the sieve divides each p-part out
of the remainders in place, and the 2- and 3-adic step (_two_three), the
leftovers and the three logs run over tiles of at most _CHUNK_HITS cells.
conductor_log_tiles yields the logs tile by tile, on the pieces of numpy's
pairwise split (arith.pairwise_ends), so density.conductor_term sums them
into the same floats as np.sum over whole-grid arrays without building any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .arith import factorize, icbrt, pairwise_ends, runs, sieve_primes


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
        f2=f2,
        f3=f3,
        odd_part=odd,
        n_lo=odd,
        n_hi=n_hi,
        bad_primes=tuple(bad),
        u=u,
    )


def _leftover_log(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum of f_q log q over the primes q of each odd-sieve leftover r, which
    is 1, q, q^2 or q*q' (see conductor_log_batch); a holds the same cells'
    minimal-model coefficient, which decides f_q at a square.  r = 1 reads
    as the square of q = 1 and adds exactly 0.0."""
    q = np.rint(np.sqrt(r)).astype(np.int64)
    sq = np.flatnonzero(q * q == r)
    q = q[sq]
    term = np.log(r)
    term[sq] = np.where(a[sq] % q != 0, 1, 2) * np.log(q)
    return term


def _peel(r: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """(r / p^v, v) with v = v_p(r) >= 1 for each entry of r, every entry
    divisible by p (a scalar or an array beside r).  Each pass divides only
    the entries still divisible."""
    p = np.broadcast_to(p, r.shape)
    q = r // p
    v = np.ones(r.shape, dtype=np.int8)
    live = np.flatnonzero(q % p == 0)
    while live.size:
        pl = p[live]
        q[live] //= pl
        v[live] += 1
        live = live[q[live] % pl == 0]
    return q, v


def _p_part(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p^v_p(r) for each entry of r, every entry divisible by its p.  The
    part is p unless p^2 | r, so only those entries are peeled."""
    part = p.copy()
    deep = np.flatnonzero(r % (p * p) == 0)
    part[deep] **= _peel(r[deep], p[deep])[1]
    return part


def _axis_exponent(x: np.ndarray, p: int, k: int) -> np.ndarray:
    """floor(v_p(x) / k) along one axis; x = 0 reads as an exponent larger
    than any the other axis allows."""
    e = np.where(x == 0, np.iinfo(np.int8).max, 0).astype(np.int8)
    q, top = p**k, int(np.abs(x).max(initial=0))
    while q <= top:
        e += (x % q == 0) & (x != 0)
        q *= p**k
    return e


# The odd sieve joins a chunk of consecutive primes at once, closing it
# before the keys and a bound on the hits it adds, na + nb + 2n/p a prime
# among n curves, pass _CHUNK_HITS; a prime over it alone joins a block of
# rows at a time.  The per-cell steps run over tiles of at most _CHUNK_HITS
# cells, so no step's temporaries outgrow the few grid-wide arrays the sieve
# keeps.  On a 2-core host conductor_term at family(1e7) took 38, 33, 30 and
# 29 ms under budgets of 2^13, 2^14, 2^15 and 2^16 (medians of 15, the four
# interleaved in one process), and its traced peak (tracemalloc) was 3.00,
# 3.22, 3.70 and 4.78 MiB, against 10.3 MiB before the tiles.  At 2^16 a
# steady-state call after W and P2 faulted about 1,000 pages back in
# (getrusage minor faults, the heap trimmed after each call) and at
# 2^13-2^15 none; a fresh process running W, P2 and the conductor average
# peaks at the 40.3-40.5 MiB RSS that building family(1e7) reaches first.
# A fixed budget, not one in proportion to n, runs family(1e4) and 1e5 as
# one join.
_CHUNK_HITS = 1 << 14


def _two_three(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v2, v3) of the minimal disc -16 (4a^3 + 27b^2) of a tile of cells
    whose minimal |4a^3 + 27b^2| is r, which is divided by its 2- and 3-parts
    in place: the stage that an exact algorithm at 2 and 3 would replace."""
    # v2 of disc = 4 + v2(r); the factor 16 never meets the p >= 5 part
    v2 = np.frexp((r & -r).astype(np.float64))[1] - 1
    r >>= v2
    v3 = np.zeros(r.shape, dtype=np.int8)
    # 3 | 4a^3 + 27b^2 forces 3 | a and so 27 | r: divide that at once
    idx = np.flatnonzero(r % 3 == 0)
    r[idx] //= 27
    v3[idx] = 3
    idx = idx[r[idx] % 3 == 0]
    r[idx], v = _peel(r[idx], 3)
    v3[idx] += v
    return v2 + 4, v3


def _assemble(log_odd: np.ndarray, v2: np.ndarray, v3: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log n, log n_lo, log n_hi) of cells whose odd part has log log_odd
    and whose minimal disc has valuations v2 and v3."""
    l2, l3 = math.log(2), math.log(3)
    # minimum in float64: int8 * float is float16 under numpy 1.x
    log_n = np.minimum(v2, F2_CAP, dtype=np.float64) * l2
    log_n += log_odd  # IEEE addition commutes, so this is log_odd + that
    log_n += np.minimum(v3, F3_CAP, dtype=np.float64) * l3
    log_hi = log_odd + F2_CAP * l2
    log_hi += np.where(v3 > 0, F3_CAP * l3, 0.0)
    return log_n, log_odd, log_hi


def _odd_joins(primes: list[int], a_side: np.ndarray, b_side: np.ndarray
               ) -> Iterator[tuple[list[int], slice, np.ndarray, np.ndarray]]:
    """(chunk, rows, idx, cnt) for each join of the odd sieve over the grid
    a_side x b_side: idx the flat cells of the a-axis rows whose a_side =
    b_side mod a prime of chunk, prime by prime in ascending order, and
    cnt[s, i] the hits of chunk[s] in row rows.start + i.  A chunk of
    consecutive primes closes before the keys and the hits it adds, nb + na +
    2n/p a prime, pass _CHUNK_HITS, and a prime whose hits alone pass it
    joins a block of rows at a time."""
    na, nb = a_side.size, b_side.size
    for run in runs([na + nb + 2 * na * nb / p for p in primes], _CHUNK_HITS):
        chunk = primes[run.start:run.stop]
        k, m = len(chunk), chunk[-1] + 1
        ps = np.array(chunk, dtype=np.int64)[:, None]
        off = np.arange(k, dtype=np.int64)[:, None] * m  # slot s keys s * m + residue
        bres = b_side % ps
        # residues fit the narrowest unsigned type, whose stable sort is a radix sort
        order = bres.astype(np.min_scalar_type(m)).argsort(axis=1, kind="stable")
        kb = (np.take_along_axis(bres, order, axis=1) + off).ravel()
        order = order.ravel()
        ka = a_side % ps + off
        del bres
        for rows in runs([nb * sum(2 / p for p in chunk)] * na, _CHUNK_HITS):
            rows = slice(rows.start, rows.stop)
            keys = ka[:, rows].ravel()
            lo = kb.searchsorted(keys, side="left")
            cnt = kb.searchsorted(keys, side="right") - lo
            # expand each (slot, row) pair into the cells of its equal
            # b-keys, slot by slot, so each cell meets its primes in order
            first = np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
            idx = np.repeat(np.tile(np.arange(rows.start, rows.stop) * nb, k), cnt)
            idx += order[np.arange(first.size) - first]
            del keys, lo, first  # so the caller's work on idx runs beside idx alone
            if idx.size:
                yield chunk, rows, idx, cnt.reshape(k, -1)


def conductor_log_tiles(na: np.ndarray, nb: np.ndarray, stats: dict | None = None
                        ) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """conductor_log_batch's arrays one tile at a time: (end, (log n,
    log n_lo, log n_hi) over the cells from the previous tile's end to end),
    the tiles being the pieces of arith.pairwise_ends(cells, _CHUNK_HITS), so
    that sums over them recombine by arith.pairwise_sum into np.sum over the
    grid.  Only the sieve's arrays span the grid: each cell's remainder, its
    sieved log, v2 and v3 (int8) and its minimal a (the narrowest signed type
    of the a-axis); stats is filled before the first tile."""
    na = np.asarray(na, dtype=np.int64)
    nb = np.asarray(nb, dtype=np.int64)
    if na.ndim != 1 or nb.ndim != 1:
        raise ValueError("curve axes must be 1-D")
    # p | 4a^3 + 27b^2 exactly when a_side = b_side (mod p)
    a_side, b_side = -4 * na**3, 27 * nb**2
    rem = np.subtract.outer(a_side, b_side).ravel()  # -disc / 16; |.| divided down below
    singular = np.flatnonzero(rem == 0)
    if singular.size:
        i, j = divmod(int(singular[0]), nb.size)
        raise ValueError(f"singular curve in batch: (a, b) = ({na[i]}, {nb[j]})")
    np.abs(rem, out=rem)
    # remove u^4 | a, u^6 | b: p^4 <= |a| when a != 0, p^6 <= |b| when a = 0
    amax = int(np.abs(na).max()) if na.size else 0
    b0max = int(np.abs(nb).max()) if np.any(na == 0) and nb.size else 0
    a = np.repeat(na.astype(np.min_scalar_type(-amax - 1)), nb.size)  # each cell's minimal a
    filtered = False
    for p in sieve_primes(max(int(amax ** 0.25) + 1, int(b0max ** (1 / 6)) + 1, 2)):
        ea, eb = _axis_exponent(na, p, 4), _axis_exponent(nb, p, 6)
        ia, jb = np.flatnonzero(ea), np.flatnonzero(eb)
        if not (ia.size and jb.size):
            continue
        e = np.minimum.outer(ea[ia], eb[jb]).ravel().astype(np.int64)
        cells = np.add.outer(ia * nb.size, jb).ravel()
        rem[cells] //= p ** (12 * e)
        a[cells] //= p ** (4 * e)
        filtered |= p >= 5
    ends = pairwise_ends(rem.size, _CHUNK_HITS)
    tiles = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
    v2 = np.empty(rem.shape, dtype=np.int8)
    v3 = np.empty(rem.shape, dtype=np.int8)
    for t in tiles:
        v2[t], v3[t] = _two_three(rem[t])
    top = int(rem.max()) if rem.size else 0
    # int32 halves the remainders where they fit and still reads as float64
    # into np.sqrt and np.log, which a narrower type would not
    rem = rem.astype(np.result_type(np.int32, np.min_scalar_type(-top)))
    root = icbrt(top)
    log_odd = np.zeros(rem.shape, dtype=np.float64)
    primes = [p for p in sieve_primes(root) if p >= 5]
    hits = 0
    for chunk, rows, idx, cnt in _odd_joins(primes, a_side, b_side):
        per_slot = cnt.sum(axis=1)
        p = np.repeat(chunk, per_slot)
        logs = np.array([math.log(q) for q in chunk])
        if filtered:
            # minimization divides disc by u^12, so keep the hits p still
            # divides, and read f_p off the minimal a
            keep = rem[idx] % p == 0
            idx, p = idx[keep], p[keep]
            w = np.where(a[idx] % p != 0, 1, 2) * np.repeat(logs, per_slot)[keep]
        else:
            ps = np.array(chunk)[:, None]
            w = np.repeat((np.where(na[rows] % ps != 0, 1, 2) * logs[:, None]).ravel(), cnt.ravel())
        np.add.at(log_odd, idx, w)
        # divide each p-part out in place; a cell hit twice in the join takes
        # both divisions, which commute (in rem's own type: a cast slows .at)
        np.floor_divide.at(rem, idx, _p_part(rem[idx], p).astype(rem.dtype))
        hits += idx.size
    if stats is not None:
        stats["primes"] = len(primes)
        stats["hits"] = hits
    for t in tiles:
        log_odd[t] += _leftover_log(rem[t], a[t])
        yield t.stop, _assemble(log_odd[t], v2[t], v3[t])


def conductor_log_batch(na: np.ndarray, nb: np.ndarray,
                        stats: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log n, log n_lo, log n_hi) over the grid na x nb of curves, vectorized.

    Same heuristic as conductor().  The arrays are flat in a-major order
    (cell i * nb.size + j is the curve (na[i], nb[j])).

    Minimization reads floor(v_p(a) / 4) and floor(v_p(b) / 6) off the two
    axes (a zero coefficient constrains nothing) and divides only the cells
    where their minimum is positive.  3 | 4a^3 + 27b^2 forces 27 | it, so
    the cells divisible by 3 are divided by 27 at once, and further powers
    of 3 are peeled only from the cells still divisible.

    The odd part of the minimal |disc|/16 is sieved on the two axes: p | 4a^3
    + 27b^2 exactly when -4a^3 = 27b^2 (mod p), so joining the keys -4a^3 mod
    p against the sorted keys 27b^2 mod p yields the cells p divides in
    O(na + nb) key work plus O(hits), not O(na * nb) trial divisions.  A chunk
    of consecutive primes runs as one join, keyed slot * (max p + 1) +
    residue, whose hits come out in ascending prime order.  f_p reads off the
    a-axis, since u^4 | a with u free of p keeps p | a unchanged; only when
    some prime p >= 5 entered the minimization are the hits filtered by p |
    rem and f_p read off the minimal a.  np.add.at adds f_p log p to each
    cell in that order, so the sums round as one prime at a time would.

    The sieve stops at root = icbrt(max rem), rem being each cell's minimal
    |disc|/16 with its 2- and 3-parts divided out.  Every prime factor of a
    leftover is then > root, and rem < (root + 1)^3 allows at most two, so
    the leftover is 1, q, q^2 or q*r.  A factor q | a would force q | b and
    q^2 | rem, so q and q*r are multiplicative at each factor and add
    log(rem), while q^2 adds f_q log q with f_q = 2 exactly when q | a.
    stats, when given, receives "primes", the number of primes the odd
    sieve ran, and "hits", the (curve, p) pairs with p | minimal disc.
    The arrays are conductor_log_tiles' tiles, written end to end.
    """
    out = np.empty((3, np.size(na) * np.size(nb)))
    lo = 0
    for hi, logs in conductor_log_tiles(na, nb, stats):
        out[:, lo:hi] = logs
        lo = hi
    return tuple(out)
