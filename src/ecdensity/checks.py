"""Registry of the exact identities the density pipeline rests on.

IDENTITY_CHECKS maps a name to a function of no arguments returning
(ok, detail): one acceptance gate's identity (gates 01-06) at that gate's
ranges, tolerances and time limit.  `ecdensity verify identities` runs the
same entries.  Conditions read `not err <= tol` so that a NaN fails.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .analysis import GaussianPair, poisson_mod_l_check
from .arith import sieve_primes
from .characters import (
    char_group,
    cubic_structure_report,
    gauss_sum_matrix,
    is_primitive,
    quadratic_gauss_bound_check,
    real_characters,
    unit_twist,
)
from .density import family, p1_direct, p1_poisson, verify_char_expansion
from .frobenius import lambda_sq_total, lambda_table, twisted_closed_form, twisted_complete_sum


def second_moment() -> tuple[bool, str]:
    """Gate 01: the sum of lambda^2 over all (a, b) mod p is the int
    p^2 (p - 1) for 5 <= p <= 97, within 30 s."""
    t0 = time.perf_counter()
    for p in sieve_primes(97)[2:]:  # p >= 5
        total = lambda_sq_total(p)
        if not isinstance(total, int) or total != p * p * (p - 1):
            return False, f"p={p}: total {total!r}, want p^2 (p - 1) = {p * p * (p - 1)}"
    elapsed = time.perf_counter() - t0
    return elapsed < 30.0, f"5 <= p <= 97, exact, {elapsed:.1f}s of 30s"


def twisted_sums() -> tuple[bool, str]:
    """Gate 02: the brute-force twisted complete sum equals its closed form
    to 1e-6 p^(3/2) at every (h, k) mod p, 5 <= p < 50, and the closed form
    is exactly 0 at k = 0; within 120 s."""
    t0 = time.perf_counter()
    for p in sieve_primes(50)[2:]:  # p >= 5
        tab = lambda_table(p)
        tol = 1e-6 * p**1.5
        for h in range(p):
            for k in range(p):
                brute = twisted_complete_sum(p, h, k, tab)
                closed = twisted_closed_form(p, h, k)
                if (k == 0 and closed != 0) or not abs(brute - closed) <= tol:
                    return False, f"(p, h, k)=({p}, {h}, {k}): brute {brute:.6g}, closed {closed:.6g}"
    elapsed = time.perf_counter() - t0
    return elapsed < 120.0, f"5 <= p < 50, every (h, k), {elapsed:.1f}s of 120s"


def dual_routes() -> tuple[bool, str]:
    """Gate 03, agreement half: direct and Poisson-dual P1 of family(X),
    X = 1e3 and 1e4, differ by at most 1e-6 (1 + |direct|); direct at 1e4
    runs within 120 s."""
    gaps = []
    for x in (1e3, 1e4):
        f = family(x)
        t0 = time.perf_counter()
        direct = p1_direct(f)
        elapsed = time.perf_counter() - t0
        gap = abs(direct - p1_poisson(f))
        if not gap <= 1e-6 * (1.0 + abs(direct)):
            return False, f"X={x:g}: |direct - dual| {gap:.2e} > 1e-6 (1 + |{direct:.6g}|)"
        if x == 1e4 and not elapsed < 120.0:
            return False, f"X={x:g}: direct took {elapsed:.1f}s, limit 120s"
        gaps.append(f"{gap:.1e}")
    return True, f"X = 1e3, 1e4: |direct - dual| {', '.join(gaps)} <= 1e-6 (1 + |P1|)"


def gauss_sums() -> tuple[bool, str]:
    """Gate 04: |tau_a(chi)| <= sqrt(l) for all chi and units a, l <= 300;
    real primitive chi mod odd squarefree l < 500 have tau_a = chi(a) eps
    sqrt(l), eps = 1 or i as l = 1 or 3 mod 4; quadratic phase sums for
    l <= 300, a in {1, 2, 3, l - 1} prime to l, k in {0, 1, 5} stay under 2 sqrt(l)."""
    for l in range(2, 301):
        top = abs(gauss_sum_matrix(l)[2]).max()
        if not top <= math.sqrt(l) + 1e-9:
            return False, f"l={l}: |tau| {top:.12g} > sqrt(l)"
    for l in range(3, 500, 2):
        if any(l % (q * q) == 0 for q in sieve_primes(int(math.isqrt(l)))):
            continue
        eps = 1.0 if l % 4 == 1 else 1.0j
        prim = [chi for chi in real_characters(l) if is_primitive(chi)]
        if not prim:
            return False, f"l={l}: no real primitive character"
        units, twist = unit_twist(l)
        vals = char_group(l).values([chi.e for chi in prim])  # chi(b), b = 0..l-1
        errs = np.abs(vals @ twist - vals[:, units] * eps * math.sqrt(l))
        if not errs.max() <= 1e-9:  # argmax finds a NaN first
            a = units[np.argmax(errs) % units.size]
            return False, f"(l, a)=({l}, {a}): real primitive tau off by {errs.max():.2e}"
    for l in range(2, 301):
        want = 2 * math.sqrt(l)
        for a in (1, 2, 3, l - 1):
            if math.gcd(a, l) != 1:
                continue
            for k in (0, 1, 5):
                s, bound = quadratic_gauss_bound_check(l, a, k)
                if not (abs(bound - want) <= 1e-6 * want and s <= bound + 1e-9):
                    return False, f"(l, a, k)=({l}, {a}, {k}): |sum| {s:.6g}, bound {bound:.6g}"
    return True, "|tau| for l <= 300, real primitive for l < 500, quadratic bound for l <= 300"


def cubic_structure() -> tuple[bool, str]:
    """Gate 05: for q <= 5000, primitive cubic characters exist exactly at
    the admissible moduli and in the expected number; 2 mod 9, none mod 27."""
    rows = cubic_structure_report(5000)
    bad = [r.q for r in rows if not r.shape_ok]
    if len(rows) != 5000 or bad:
        return False, f"{len(rows)} rows, shape violations at q = {bad[:5]}"
    by_q = {r.q: r.n_primitive_cubic for r in rows}
    if by_q[9] != 2 or by_q[27] != 0:
        return False, f"primitive cubic characters: {by_q[9]} mod 9, {by_q[27]} mod 27"
    n_cubic = sum(r.n_cubic > 0 for r in rows)
    n_prim = sum(r.n_primitive_cubic > 0 for r in rows)
    return True, f"of q <= 5000, {n_cubic} carry cubic characters, {n_prim} primitive ones"


def char_expansion() -> tuple[bool, str]:
    """Gate 06: the character expansion of the twisted dyadic block equals
    the nonzero literal block to rel 1e-8 for three (H, K, P) at X = 250."""
    f = family(250.0)
    for triple in ((4, 6, 50), (3, 4, 40), (5, 3, 30)):
        chk = verify_char_expansion(*triple, f)
        if not (abs(chk.lhs) > 0 and chk.rel_err <= 1e-8):
            return False, f"{triple}: lhs {chk.lhs:.6g}, rel err {chk.rel_err:.2e}"
    return True, "(4, 6, 50), (3, 4, 40), (5, 3, 30) at X = 250, rel err <= 1e-8"


def poisson_mod_l() -> tuple[bool, str]:
    """Poisson summation over n = 3 mod 7 at d = 5 for the self-dual
    Gaussian: both sides agree to 1e-12 (1 + |lhs|)."""
    lhs, rhs = poisson_mod_l_check(GaussianPair(1.0), 7, 3, 5.0)
    gap = abs(lhs - rhs)
    return gap <= 1e-12 * (1 + abs(lhs)), f"Gaussian, n = 3 mod 7, d = 5: gap {gap:.1e}"


IDENTITY_CHECKS = {check.__name__: check for check in (
    second_moment, twisted_sums, dual_routes, gauss_sums, cubic_structure,
    char_expansion, poisson_mod_l)}
