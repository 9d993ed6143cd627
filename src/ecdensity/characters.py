"""Dirichlet characters as exponent vectors over a unit-group basis.

A character mod q is stored as a tuple of exponents against fixed generators
of (Z/q)^* obtained by CRT over the prime-power parts of q (two generators
{-1, 5} at powers of 2 >= 8).  Values are roots of unity computed from exact
integer phases t/L with L the group exponent, so order, conductor and
orthogonality checks are integer computations; complex values only appear at
the final exp(2*pi*i*t/L).

Character values have one evaluator: CharGroup.phases/values, which take a
stack of exponent vectors and return one row per character over n = 0..q-1
from a single integer product with the discrete-log table.  character_table
applies it to every character mod q, and Gauss sums, the large sieve and the
character expansion all read that table.  char_eval (a scalar integer dlog,
then cmath.exp) and count_cube_roots (exhaustive) stay as the independent
oracles the tests compare against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .arith import Factorization, divisors, factorize


# ---------------------------------------------------------------------------
# unit group basis


@dataclass(frozen=True)
class UnitGroupBasis:
    """Generators of (Z/q)^*, lifted to mod q, with their orders."""

    q: int
    prime_powers: tuple[int, ...]
    gens: tuple[int, ...]
    orders: tuple[int, ...]

    @property
    def phi(self) -> int:
        return math.prod(self.orders) if self.orders else 1


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r, _ in fac.factors):
            return g
    raise AssertionError(f"no primitive root mod {p}")


def power_table(g, n: int, q) -> np.ndarray:
    """g^t mod q for t = 0..n-1, one row per entry of g and q (scalars give a
    1-D row), by doubling: the first k powers times g^k are the next k.  The
    rows are int32 when every q < 46,341, so a product of two residues fits,
    and int64 otherwise (q < 3e9)."""
    q = np.asarray(q)
    dt = np.int32 if q.max() < 46341 else np.int64
    q = q.astype(dt)[..., None]
    step = np.asarray(g, dtype=dt)[..., None] % q
    out = np.empty(step.shape[:-1] + (n,), dtype=dt)
    out[..., :1] = 1 % q
    k = 1
    while k < n:
        m = min(k, n - k)
        seg = out[..., k:k + m]
        np.multiply(out[..., :m], step, out=seg)
        np.remainder(seg, q, out=seg)
        step = step * step % q
        k += m
    return out


def roots_of_unity(q: int) -> np.ndarray:
    """e(n/q) for n = 0..q-1.  With n = b i + j and b ~ sqrt(q), the b
    values e(j/q) and the q/b values e(b i/q) come from two short exp lists
    and one outer product; the coarse list reads its argument in
    (-q/2, q/2], where exp is most accurate.  roots[0] == 1."""
    b = math.isqrt(q) + 1
    coarse = np.arange(0, q, b)
    coarse[2 * coarse > q] -= q
    return (np.exp(2j * np.pi * coarse / q)[:, None]
            * np.exp(2j * np.pi * np.arange(b) / q)).ravel()[:q]


def dlog_tables(ps) -> tuple[np.ndarray, np.ndarray]:
    """(pw, dl), the discrete-log tables of a list of odd primes, one int32
    row per prime padded to the widest (a table mod p holds p entries, so
    p < 2^31): pw[i, t] = g^t mod ps[i] for t = 0..max(ps)-2,
    g = _primitive_root(ps[i]) (past t = p - 2 the powers cycle again), and
    dl[i] inverts pw[i] on 1..p-1, so dl[i, pw[i, t]] = t, with 0 at residue
    0 and past p - 1.  One prime's tables are dlog_tables([p]); the primes
    are the caller's to have checked."""
    w = max(ps) - 1
    pw = power_table([_primitive_root(p) for p in ps], w, ps).astype(np.int32, copy=False)
    dl = np.zeros((len(ps), w + 1), dtype=np.int32)
    t = np.arange(w, dtype=np.int32)
    for i, p in enumerate(ps):
        dl[i, pw[i, :p - 1]] = t[:p - 1]
    return pw, dl


def _odd_prime_power_generator(p: int, k: int) -> int:
    """Generator of the cyclic group (Z/p^k)^* for odd p."""
    g = _primitive_root(p)
    if k == 1:
        return g
    # g lifts to all p^k iff g^(p-1) != 1 mod p^2; otherwise g+p does
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def unit_group_basis(q: int) -> UnitGroupBasis:
    """Basis of (Z/q)^* by CRT over prime powers; q = 1, 2 give the empty basis."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    pps: list[int] = []
    gens: list[int] = []
    orders: list[int] = []
    for p, k in factorize(q).factors:
        pk = p**k
        if p == 2:
            if k == 1:
                continue
            if k == 2:
                pps.append(4)
                gens.append(3)
                orders.append(2)
            else:
                pps.extend((pk, pk))
                gens.extend((pk - 1, 5))
                orders.extend((2, pk // 4))
        else:
            pps.append(pk)
            gens.append(_odd_prime_power_generator(p, k))
            orders.append(pk - pk // p)
    # CRT lift: generator for component i is its local value, 1 elsewhere
    lifted = []
    for i, (pk, g) in enumerate(zip(pps, gens)):
        rest = q // pk
        if rest == 1:
            lifted.append(g % q)
        else:
            inv = pow(rest % pk, -1, pk)
            x = (1 + rest * ((g - 1) * inv % pk)) % q
            lifted.append(x)
    return UnitGroupBasis(q, tuple(pps), tuple(lifted), tuple(orders))


class CharGroup:
    """Character group mod q with precomputed discrete logs.

    dlog_mat[n] holds the exponent vector of n for units, all -1 otherwise.
    exponent L = lcm of generator orders; weights[i] = L // orders[i], so a
    character e has integer phase t(n) = sum_i e[i]*dlog[n][i]*weights[i] mod L
    and value e(t(n)/L).
    """

    def __init__(self, q: int):
        self.q = q
        self.basis = unit_group_basis(q)
        self.orders = self.basis.orders
        self.r = len(self.orders)
        self.L = math.lcm(*self.orders) if self.orders else 1
        self.weights = tuple(self.L // m for m in self.orders)
        self.phi = self.basis.phi
        self._build_dlogs()

    def _build_dlogs(self):
        q, r = self.q, self.r
        vals = np.ones(1, dtype=np.int64)
        for g, m in zip(self.basis.gens, self.orders):
            vals = (vals[:, None] * power_table(g, m, q)[None, :] % q).reshape(-1)
        self.dlog_mat = np.full((q, r), -1, dtype=np.int64)
        if r:
            digits = np.unravel_index(np.arange(self.phi), self.orders)
            for i in range(r):
                self.dlog_mat[vals, i] = digits[i]
        self.unit_mask = np.zeros(q, dtype=bool)
        self.unit_mask[vals % q] = True  # mod 1, the one residue 0 is a unit

    def dlog(self, n: int) -> tuple[int, ...] | None:
        n %= self.q
        if not self.unit_mask[n]:
            return None
        return tuple(int(x) for x in self.dlog_mat[n])

    def phases(self, exps) -> np.ndarray:
        """Integer phases t[j, n] mod L of the characters with exponent
        vectors exps[j], for n = 0..q-1; -1 at non-units."""
        weighted = np.asarray(exps, dtype=np.int64) * np.asarray(self.weights, dtype=np.int64)
        t = weighted @ self.dlog_mat.T % self.L
        t[:, ~self.unit_mask] = -1
        return t

    def values(self, exps) -> np.ndarray:
        """chi_j(n) = e(t[j, n]/L) as complex128, 0 at non-units; one row per
        exponent vector in exps, n = 0..q-1."""
        t = self.phases(exps)
        vals = np.exp(2j * np.pi * np.where(t < 0, 0, t) / self.L)
        vals[t < 0] = 0.0
        return vals


@lru_cache(maxsize=64)
def char_group(q: int) -> CharGroup:
    """Shared, cached character-group context for modulus q."""
    return CharGroup(q)


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class DirichletCharacter:
    q: int
    e: tuple[int, ...]

    def __call__(self, n: int) -> complex:
        return char_eval(self, n)


def _characters_with_principal_power(q: int, k: int) -> list[DirichletCharacter]:
    """Characters mod q with chi^k principal (k = 0: all of them), in
    lexicographic exponent order, so the principal one comes first.  On a
    component of order m the allowed exponents are the multiples of
    m / gcd(m, k)."""
    orders = char_group(q).orders
    return [DirichletCharacter(q, e)
            for e in product(*(range(0, m, m // math.gcd(m, k)) for m in orders))]


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q; the principal one comes first."""
    return _characters_with_principal_power(q, 0)


def character_table(q: int) -> tuple[list[DirichletCharacter], np.ndarray]:
    """The characters mod q in enumerate_characters order and their values,
    V[j, n] = chi_j(n) for n = 0..q-1, from one batched evaluation."""
    chars = enumerate_characters(q)
    return chars, char_group(q).values([chi.e for chi in chars])


def char_eval(chi: DirichletCharacter, n: int) -> complex:
    """chi(n); 0 when gcd(n, q) > 1."""
    g = char_group(chi.q)
    v = g.dlog(n)
    if v is None:
        return 0.0 + 0.0j
    t = sum(ei * vi * wi for ei, vi, wi in zip(chi.e, v, g.weights)) % g.L
    if t == 0:
        return 1.0 + 0.0j
    return cmath.exp(2j * math.pi * t / g.L)


def char_conj(chi: DirichletCharacter) -> DirichletCharacter:
    g = char_group(chi.q)
    return DirichletCharacter(chi.q, tuple((-x) % m for x, m in zip(chi.e, g.orders)))


def char_power(chi: DirichletCharacter, k: int) -> DirichletCharacter:
    g = char_group(chi.q)
    return DirichletCharacter(chi.q, tuple((x * k) % m for x, m in zip(chi.e, g.orders)))


def char_order_and_conductor(chi: DirichletCharacter) -> tuple[int, int]:
    """(order, conductor), both exact.

    The conductor is found as the least divisor f of q such that chi is
    constant (= 1) on units congruent to 1 mod f, checked with integer phases.
    """
    g = char_group(chi.q)
    order = 1
    for ei, m in zip(chi.e, g.orders):
        order = math.lcm(order, m // math.gcd(m, ei))
    q = chi.q
    t = g.phases([chi.e])[0]
    # n = 1, 1 + f, ... < q are the residues = 1 mod f; f = q always passes
    return order, next(f for f in divisors(q) if not (t[1:q:f] > 0).any())


def conductor(chi: DirichletCharacter) -> int:
    return char_order_and_conductor(chi)[1]


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi) == chi.q


def real_characters(q: int) -> list[DirichletCharacter]:
    """Characters with chi^2 principal (order 1 or 2)."""
    return _characters_with_principal_power(q, 2)


# ---------------------------------------------------------------------------
# Gauss sums


def unit_twist(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, E): the units a mod q ascending (a = 0 when q = 1) and
    E[n, i] = e(n units[i] / q) for n = 0..q-1, so V @ E holds tau_a."""
    units = np.flatnonzero(char_group(q).unit_mask)
    return units, roots_of_unity(q)[np.outer(np.arange(q), units) % q]


def gauss_sum_matrix(q: int) -> tuple[list[DirichletCharacter], np.ndarray, np.ndarray]:
    """tau_a(chi) = sum over b mod q of chi(b) e(ab/q) for every character
    and every unit a, in one BLAS product.

    Returns (characters, units, T) with T[j, i] = tau_{units[i]}(chi_j);
    units[0] is 1 (0 when q = 1), so T[:, 0] holds the plain Gauss sums.
    """
    chars, V = character_table(q)
    units, E = unit_twist(q)
    return chars, units, V @ E


def quadratic_gauss_bound_check(l: int, a: int, k: int) -> tuple[float, float]:
    """(|sum_b e((a b^2 + k b)/l)|, 2*sqrt(l)) for the quadratic phase sum."""
    if l <= 0:
        raise ValueError("modulus must be positive")
    b = np.arange(l)
    s = np.sum(np.exp(2j * np.pi * ((a % l) * b * b % l + (k % l) * b) / l))
    return float(abs(s)), 2.0 * math.sqrt(l)


# ---------------------------------------------------------------------------
# cube roots in the dual group, and the cubic-conductor structure


def count_cube_roots(q: int, chi1: DirichletCharacter) -> int:
    """#{chi mod q : conj(chi)^3 = chi1}, by exhaustive enumeration."""
    return sum(char_power(char_conj(chi), 3) == chi1 for chi in enumerate_characters(q))


def _odd_component_cubic_conductor(p: int, k: int) -> int:
    """Conductor of a nonprincipal cubic character on the (Z/p^k)^* component."""
    m = p**k - p ** (k - 1)
    e = m // 3  # both nonzero cubic exponents give the same p-valuation
    v = 0
    while e % p == 0:
        e //= p
        v += 1
    return p ** (k - v)


def cubic_characters(q: int) -> list[DirichletCharacter]:
    """All characters of exact order 3 mod q."""
    return _characters_with_principal_power(q, 3)[1:]  # the principal character comes first


@dataclass(frozen=True)
class CubicStructureRow:
    q: int
    n_cubic: int
    n_primitive_cubic: int
    shape_ok: bool


def _cubic_shape_admissible(fac: Factorization) -> bool:
    """q supports a primitive cubic character iff q = 9^a * squarefree product
    of primes = 1 (mod 3), with a in {0, 1} and q > 1."""
    if fac.n == 1:
        return False
    for p, k in fac.factors:
        if p == 3:
            if k != 2:
                return False
        else:
            if k != 1 or p % 3 != 1:
                return False
    return True


def cubic_structure_report(limit: int) -> list[CubicStructureRow]:
    """For each q <= limit, count primitive order-3 characters and check that
    they exist exactly for the admissible modulus shape, in the expected number
    2^(number of prime-power parts).

    Conductors here come from the per-component structure; tests cross-check
    against the generic divisor-scan conductor on small moduli.
    """
    rows = []
    for q in range(1, limit + 1):
        fac = factorize(q)
        comps = []
        for p, k in fac.factors:
            pk = p**k
            # cubic exponents need 3 | phi(p^k), which no power of 2 provides
            if (pk - pk // p) % 3 == 0:
                comps.append((pk, 3, _odd_component_cubic_conductor(p, k)))
            else:
                comps.append((pk, 1, 0))
        n_cubic = math.prod(c[1] for c in comps) - 1
        # a cubic char is primitive iff every component is nonprincipal with
        # full local conductor; count = prod over components of (#nonprincipal
        # cubic exponents with conductor pk), i.e. 2 per qualifying component
        prim_per_comp = []
        for pk, nloc, cond in comps:
            prim_per_comp.append(2 if (nloc == 3 and cond == pk) else 0)
        n_prim = math.prod(prim_per_comp) if comps else 0
        expected = 2 ** len(comps) if _cubic_shape_admissible(fac) else 0
        rows.append(CubicStructureRow(q, n_cubic, n_prim, n_prim == expected))
    return rows
