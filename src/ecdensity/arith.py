"""Elementary arithmetic: primes, factorization, symbols, cube/square kernels,
and the splitters that batch consecutive indices.

Everything here but pairwise_sum, which recombines float sums bit for bit
as numpy would add them, is exact integer arithmetic.  These routines back
every other module, so they favour clarity and verifiability over raw speed;
the bulk paths (sieves, smallest-prime-factor tables) are provided for the
harnesses that sweep ranges up to ~10^6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# primes


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending.  limit < 2 gives []."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if sieve[i]]


def runs(costs: Sequence, budget, keys: Sequence | None = None) -> Iterator[range]:
    """Split the indices of costs into runs of consecutive indices, the one
    rule by which the pipeline batches consecutive primes.  A run closes
    before an index whose key differs from the run's first key or whose
    cost, added in order to the run's, would pass budget; so an index whose
    cost alone is over budget is a run of its own."""
    start = used = 0
    for i, cost in enumerate(costs):
        if i > start and ((keys is not None and keys[i] != keys[start])
                          or used + cost > budget):
            yield range(start, i)
            start, used = i, 0
        used += cost
    if costs:
        yield range(start, len(costs))


# numpy sums a contiguous float array pairwise: a piece of more than _PW_BLOCK
# terms is split at m = n // 2 - (n // 2) % 8 and its halves' sums are added
_PW_BLOCK = 128


def _pw_split(n: int) -> int:
    return n // 2 - n // 2 % 8


def pairwise_ends(n: int, leaf: int) -> list[int]:
    """Ends of the pieces of [0, n) that numpy's pairwise summation reaches
    when it is split down to at most leaf (>= _PW_BLOCK) terms, in order;
    pairwise_sum recombines np.sum over each piece into np.sum of all n."""
    if leaf < _PW_BLOCK:
        raise ValueError(f"leaf must be at least {_PW_BLOCK}")
    if n <= leaf:
        return [n]
    m = _pw_split(n)
    return pairwise_ends(m, leaf) + [m + e for e in pairwise_ends(n - m, leaf)]


def pairwise_sum(n: int, parts: Iterable):
    """np.sum of n float terms, bit for bit, from sums over pieces of them:
    parts yields (end, the piece's sum), in order, for pieces that numpy's
    split of [0, n) reaches (pairwise_ends), and each split adds its halves'
    sums as numpy adds them.  The sums may be arrays, summed elementwise."""
    parts = iter(parts)

    def total(lo, hi, part):
        end, s = part
        if end == hi:
            return s, next(parts, None)
        if hi - lo <= _PW_BLOCK:
            raise ValueError(f"piece ending at {end} is not one of numpy's pairwise split")
        m = lo + _pw_split(hi - lo)
        left, part = total(lo, m, part)
        right, part = total(m, hi, part)
        return left + right, part

    return total(0, n, next(parts))[0]


def smallest_factor_table(limit: int) -> list[int]:
    """spf[n] = smallest prime factor of n, for 0 <= n <= limit (spf[0]=spf[1]=0)."""
    spf = list(range(limit + 1))
    if limit >= 1:
        spf[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:  # p prime
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def icbrt(n: int) -> int:
    """Largest r with r^3 <= n, for n >= 0."""
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with factors sorted by p."""

    n: int
    factors: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def valuation(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


_TRIAL_BOUND = 10**6


def factorize(n: int) -> Factorization:
    """Exact factorization of n >= 1; trial division then Pollard rho.

    Raises ValueError for n <= 0.
    """
    if n <= 0:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return Factorization(1, ())
    fac: dict[int, int] = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # mod-30 wheel starting at 7
    i = 0
    while d * d <= m and d <= _TRIAL_BOUND:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += wheel[i]
        i = (i + 1) % 8
    if d * d > m > 1:  # trial division passed sqrt(m), so m is prime
        fac[m] = fac.get(m, 0) + 1
        m = 1
    # leftover m is 1 or, past _TRIAL_BOUND, a prime or a hard composite for rho
    rng = None
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        root = round(m ** (1 / 3))
        if root * root * root == m:  # rho struggles on perfect powers
            stack.extend((root, root, root))
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        if rng is None:  # seeded only when rho runs; trial division usually finishes
            rng = random.Random(0xC0FFEE ^ n)
        g = _pollard_rho(m, rng)
        stack.extend((g, m // g))
    return Factorization(n, tuple(sorted(fac.items())))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, built from its factorization."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# symbols and inverses


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n/p) in {-1, 0, 1} for an odd prime p (Euler criterion)."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"legendre requires an odd prime modulus, got {p}")
    n %= p
    if n == 0:
        return 0
    t = pow(n, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def jacobi(n: int, m: int) -> int:
    """Jacobi symbol (n/m) for odd m >= 1, by quadratic reciprocity."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"jacobi requires odd m >= 1, got {m}")
    n %= m
    result = 1
    while n != 0:
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                result = -result
        n, m = m, n
        if n % 4 == 3 and m % 4 == 3:
            result = -result
        n %= m
    return result if m == 1 else 0


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m; ValueError when gcd(a, m) != 1."""
    if m <= 0:
        raise ValueError(f"mod_inverse requires m >= 1, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} has no inverse mod {m} (gcd {math.gcd(a, m)})")


def psi4(p: int) -> complex:
    """Sign of the quadratic Gauss sum mod p: 1 for p = 1 (mod 4), i for p = 3 (mod 4).

    Defined for odd primes only; this is the unit making
    sum_b (b/p) e(b/p) = psi4(p) * sqrt(p).
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"psi4 requires an odd prime, got {p}")
    return 1.0 + 0.0j if p % 4 == 1 else 1.0j


# ---------------------------------------------------------------------------
# square / cube kernels


@dataclass(frozen=True)
class DTriple:
    """Square and cube kernels of d.

    d_sq   : least d' with d | d'^2          (prod p^ceil(e/2))
    d_star : d'^2 / d, the squarefree part   (prod p^(e mod 2 ... complement))
    d_cube : least d0 with d | d0^3          (prod p^ceil(e/3))
    """

    d: int
    d_sq: int
    d_star: int
    d_cube: int


def d_triple(d: int) -> DTriple:
    """Kernels (d', d*, d0) of d >= 1."""
    if d <= 0:
        raise ValueError(f"d_triple requires d >= 1, got {d}")
    d_sq = d_cube = 1
    for p, e in factorize(d).factors:
        d_sq *= p ** ((e + 1) // 2)
        d_cube *= p ** ((e + 2) // 3)
    return DTriple(d, d_sq, d_sq * d_sq // d, d_cube)


def cube_kernel(d: int) -> int:
    """Least f with d | f^3 (the d_cube component alone)."""
    return d_triple(d).d_cube
