"""Small helpers that only the tests use: exact oracles and character algebra.

They live beside the tests rather than in the package because no pipeline
code calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ecdensity.arith import cube_kernel, legendre, psi4, sieve_primes
from ecdensity.characters import DirichletCharacter, char_eval, char_group
from ecdensity.density import _dyadic_ints, g_dyadic


@dataclass(frozen=True)
class CurveParams:
    a: int
    b: int

    @property
    def disc(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)


def principal_character(q: int) -> DirichletCharacter:
    g = char_group(q)
    return DirichletCharacter(q, (0,) * g.r)


def char_mul(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    if a.q != b.q:
        raise ValueError("character product needs a common modulus")
    g = char_group(a.q)
    return DirichletCharacter(a.q, tuple((x + y) % m for x, y, m in zip(a.e, b.e, g.orders)))


def is_principal(chi: DirichletCharacter) -> bool:
    return all(x == 0 for x in chi.e)


def count_cube_roots_structural(q: int, chi1: DirichletCharacter) -> int:
    """#{chi mod q : conj(chi)^3 = chi1} via the per-component congruence
    -3x = e1 (mod m)."""
    g = char_group(q)
    total = 1
    for t, m in zip(chi1.e, g.orders):
        d = math.gcd(3, m)
        if t % d:
            return 0
        total *= d
    return total


def _row_cuts(absa: np.ndarray, absb: np.ndarray, tol: float) -> np.ndarray:
    """Per h-row, the count of k with |va| |vb| >= tol: searchsorted, then
    steps by the exact product.  The test is monotone in |vb|, so a row keeps
    exactly its first count columns in descending |vb| order.  The one-prime
    oracle of density._group_cuts."""
    order = np.sort(absb)
    n = order.size
    idx = np.searchsorted(order, tol / np.maximum(absa, 1e-300))
    while (down := (idx > 0) & (absa * order[idx - 1] >= tol)).any():
        idx -= down
    while (up := (idx < n) & (absa * order[np.minimum(idx, n - 1)] < tol)).any():
        idx += up
    return n - idx


def q_dk_chi_scalar(d: int, k: int, chi: DirichletCharacter,
                    h_size: float, k_size: float, p_size: float, f) -> complex:
    """Q(d, k, chi) of density.q_dk_chi for one character, term by term:
    chi(p) and chi(h) from the scalar char_eval, the phase from pow, and the
    weight transform from one what(u, v) per term.  The one-character oracle
    of the table contraction."""
    k2 = k * k
    d0 = cube_kernel(d)
    a_sc, b_sc = f.a_scale, f.b_scale
    hs = _dyadic_ints(h_size / d0, 2 * h_size / d0)
    ps = [p for p in sieve_primes(int(2 * p_size)) if p > max(3, p_size)]
    gk = float(g_dyadic(k / k_size))
    total = 0.0 + 0.0j
    for p in ps:
        chip = char_eval(chi, p)
        if k % p == 0 or chip == 0.0:
            continue
        cp = (psi4(p) * chip * legendre(k, p) * float(g_dyadic(p / p_size)) * gk
              * math.log(p) / p**1.5)
        mod = p * k2
        for h in map(int, hs):
            t = pow(h, 3, mod) * pow(d0, 3, mod) % mod
            wv = f.weight.what(h * d0 * a_sc / p, k * b_sc / p)
            total += (cp * char_eval(chi, h).conjugate() ** 3 * float(g_dyadic(h * d0 / h_size))
                      * wv * np.exp(-2j * np.pi * t / mod))
    return complex(total)
