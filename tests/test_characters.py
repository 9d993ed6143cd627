"""Character group structure, orthogonality, Gauss sums, cubic counting."""

import cmath
import math
from itertools import product
from math import gcd

import numpy as np
import pytest

from ecdensity.arith import factorize, is_prime, jacobi, runs
from ecdensity.density import _P1_GROUP, _prime_weights, family
from ecdensity.characters import (
    CharGroup,
    _primitive_root,
    char_conj,
    char_eval,
    char_group,
    char_order_and_conductor,
    char_power,
    character_table,
    conductor,
    count_cube_roots,
    cubic_characters,
    cubic_structure_report,
    dlog_tables,
    enumerate_characters,
    gauss_sum_matrix,
    is_primitive,
    power_table,
    quadratic_gauss_bound_check,
    real_characters,
    roots_of_unity,
    unit_group_basis,
)
from helpers import char_mul, count_cube_roots_structural, is_principal, principal_character

SMALL_Q = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24, 35, 36, 40, 63, 72, 100]


def test_unit_group_basis_sizes():
    for q in SMALL_Q:
        basis = unit_group_basis(q)
        phi = sum(1 for n in range(1, q + 1) if gcd(n, q) == 1) if q > 1 else 1
        assert basis.phi == phi
        assert (math.prod(basis.orders) if basis.orders else 1) == phi


def test_unit_group_basis_mod_8():
    b = unit_group_basis(8)
    assert sorted(b.orders) == [2, 2]
    gens = set(b.gens)
    assert gens == {7, 5} or gens == {3, 5}  # -1 and 5 up to choice


def _dlog_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """One prime's (pw, dl) from Python's pow alone, sharing no code with the
    stacked builder: pw[t] = g^t mod p and dl[pw[t]] = t, dl[0] = 0."""
    g = _primitive_root(p)
    pw = np.array([pow(g, t, p) for t in range(p - 1)])
    dl = np.zeros(p, dtype=np.int64)
    dl[pw] = np.arange(p - 1)
    return pw, dl


def test_dlog_table_is_a_power_permutation(rng):
    # one prime's tables are the single row of dlog_tables([p])
    for p in [p for p in range(5, 2000) if is_prime(p)] + [79_427]:
        pw, dl = (t[0] for t in dlog_tables([p]))
        units = np.arange(1, p)
        assert np.array_equal(np.sort(pw), units)
        assert np.array_equal(pw[dl[units]], units)
        g = _primitive_root(p)
        for t in [0, 1, p - 2] + [rng.randrange(p - 1) for _ in range(20)]:
            assert pw[t] == pow(g, t, p)


@pytest.mark.parametrize("ps", [
    pytest.param(None, id="p1-primes-1e4"),
    pytest.param([2039, 2053], id="fft-length-boundary"),
    pytest.param([46337, 46349], id="int32-boundary"),
    pytest.param([65537, 79427], id="int64-rows"),
])
def test_dlog_tables_match_dlog_table(ps):
    # each padded row of the stacked context, cut to p, is the one-prime
    # table built by pow; family(1e4)'s P1 primes go in the P1 routes' groups
    # of 16, and rows past 46,341 are built in int64
    if ps is None:
        primes = _prime_weights(family(1e4), 1)[0]
        groups = [primes[r.start:r.stop] for r in runs([1] * len(primes), _P1_GROUP)]
    else:
        groups = [ps]
    for group in groups:
        pw, dl = dlog_tables(group)
        assert pw.shape == (len(group), max(group) - 1) and dl.shape == (len(group), max(group))
        for i, p in enumerate(group):
            want_pw, want_dl = _dlog_table(p)
            assert np.array_equal(dl[i, :p], want_dl) and not dl[i, p:].any()
            # past t = p - 2 the padded row cycles through the powers again
            assert np.array_equal(pw[i], want_pw[np.arange(pw.shape[1]) % (p - 1)])


def test_power_table_rows_match_pow():
    # stacked rows, one modulus each, on both sides of the int32 cutoff and
    # at composite moduli; a scalar g and q give one 1-D row
    for gs, qs in (([2, 3, 5], [46337, 46340, 9]), ([3, 7], [46341, 2_999_999_999])):
        rows = power_table(gs, 1000, qs)
        assert rows.dtype == (np.int32 if max(qs) < 46341 else np.int64)
        assert rows.tolist() == [[pow(g, t, q) for t in range(1000)] for g, q in zip(gs, qs)]
    assert power_table(5, 7, 12).tolist() == [pow(5, t, 12) for t in range(7)]


def test_roots_of_unity_match_extended_precision():
    # np.exp(2j pi n/q) is itself up to 1.3e-15 off at these q, so the
    # reference is e(n/q) in long double, about 1e-18 accurate on x86
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double has no extra precision here")
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for q in [1, 2, 3, 7, 97, 1000, 4096, 15_823, 79_427]:
        roots = roots_of_unity(q)
        assert roots.shape == (q,) and roots[0] == 1
        t = 2 * pi * np.arange(q, dtype=np.longdouble) / q
        err = np.hypot(roots.real - np.cos(t), roots.imag - np.sin(t))
        assert float(err.max()) <= 1e-15
        assert np.abs(roots - np.exp(2j * np.pi * np.arange(q) / q)).max() <= 2e-15


def test_dlog_mat_matches_loop_reference():
    # n = prod gens[i]^digits[i] mod q, one scalar pow at a time
    for q in range(1, 400):
        grp = CharGroup(q)
        ref = np.full((q, grp.r), -1, dtype=np.int64)
        units = np.zeros(q, dtype=bool)
        for digits in product(*(range(m) for m in grp.orders)):
            n = 1 % q
            for gen, d in zip(grp.basis.gens, digits):
                n = n * pow(gen, d, q) % q
            ref[n] = digits
            units[n] = True
        assert np.array_equal(grp.dlog_mat, ref)
        assert np.array_equal(grp.unit_mask, units)


def test_character_count_and_homomorphism(rng):
    for q in SMALL_Q:
        chars = enumerate_characters(q)
        phi = unit_group_basis(q).phi
        assert len(chars) == phi
        for chi in chars[: min(4, len(chars))]:
            for _ in range(20):
                m = rng.randrange(1, max(q, 2) + 40)
                n = rng.randrange(1, max(q, 2) + 40)
                lhs = char_eval(chi, m * n)
                rhs = char_eval(chi, m) * char_eval(chi, n)
                assert abs(lhs - rhs) < 1e-12
            if q > 1:
                for n in range(q):
                    if gcd(n, q) != 1:
                        assert char_eval(chi, n) == 0


def test_batched_values_match_char_eval():
    for q in SMALL_Q + [300]:
        chars, table = character_table(q)
        assert chars == enumerate_characters(q)
        assert table.shape == (len(chars), q)
        for chi, row in zip(chars, table):
            for n in range(q):
                if gcd(n, q) != 1:
                    assert row[n] == 0
                assert abs(row[n] - char_eval(chi, n)) <= 1e-12


def test_real_and_cubic_characters_filter_the_enumeration():
    for q in range(1, 200):
        chars = enumerate_characters(q)
        assert real_characters(q) == [
            chi for chi in chars if is_principal(char_power(chi, 2))]
        assert cubic_characters(q) == [
            chi for chi in chars
            if is_principal(char_power(chi, 3)) and not is_principal(chi)]


def test_character_periodicity_and_unit_modulus(rng):
    for q in (7, 12, 16, 45):
        for chi in enumerate_characters(q):
            n = rng.randrange(1, 1000)
            assert abs(char_eval(chi, n) - char_eval(chi, n + q)) < 1e-12
            if gcd(n, q) == 1:
                assert abs(abs(char_eval(chi, n)) - 1.0) < 1e-12


def test_orthogonality_both_ways():
    for q in (5, 8, 12, 21, 36):
        chars = enumerate_characters(q)
        phi = len(chars)
        # sum over n of chi(n) conj(psi(n)) = phi * [chi == psi]
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                s = sum(char_eval(chi, n) * char_eval(psi, n).conjugate()
                        for n in range(q))
                want = phi if i == j else 0.0
                assert abs(s - want) < 1e-9
        # sum over chi of chi(n) = phi * [n == 1 mod q]
        for n in range(1, q):
            if gcd(n, q) != 1:
                continue
            s = sum(char_eval(chi, n) for chi in chars)
            want = phi if n % q == 1 % q else 0.0
            assert abs(s - want) < 1e-9


def test_char_algebra(rng):
    q = 36
    chars = enumerate_characters(q)
    a, b = chars[3], chars[7]
    n = rng.randrange(1, 200)
    assert abs(char_eval(char_mul(a, b), n)
               - char_eval(a, n) * char_eval(b, n)) < 1e-12
    assert abs(char_eval(char_conj(a), n)
               - char_eval(a, n).conjugate()) < 1e-12
    assert abs(char_eval(char_power(a, 3), n)
               - char_eval(a, n) ** 3) < 1e-12
    assert is_principal(principal_character(q))
    assert is_principal(char_mul(a, char_conj(a)))


def test_order_and_conductor_brute_force():
    # conductor = least f | q with chi constant on 1 + f Z intersect units
    for q in (8, 9, 12, 24, 45):
        for chi in enumerate_characters(q):
            order, cond = char_order_and_conductor(chi)
            assert is_principal(char_power(chi, order))
            assert all(not is_principal(char_power(chi, k))
                       for k in range(1, order))
            divs = [f for f in range(1, q + 1) if q % f == 0]
            found = None
            for f in divs:
                if all(abs(char_eval(chi, n) - 1) < 1e-9
                       for n in range(1, q + 1)
                       if gcd(n, q) == 1 and n % f == 1 % f):
                    found = f
                    break
            assert cond == found
            assert conductor(chi) == cond
            assert is_primitive(chi) == (cond == q)


def test_real_characters_match_jacobi():
    for q in (3, 4, 5, 8, 12):
        reals = real_characters(q)
        for chi in reals:
            for n in range(1, 3 * q):
                v = char_eval(chi, n)
                assert abs(v.imag) < 1e-12
        # number of real characters = number of square roots of 1 in dual
        count = sum(1 for chi in enumerate_characters(q)
                    if is_principal(char_power(chi, 2)))
        assert len(reals) == count
    # mod 8 all four characters are real
    assert len(real_characters(8)) == 4
    # the quadratic character mod an odd prime is the Legendre symbol
    for p in (5, 7, 13):
        quads = [c for c in real_characters(p) if not is_principal(c)]
        assert len(quads) == 1
        for n in range(1, p):
            assert abs(char_eval(quads[0], n) - jacobi(n, p)) < 1e-12


def test_gauss_sum_values():
    # principal character mod q (first in order): tau = mu(q), the Ramanujan
    # sum at a = 1, which is units[0]
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1}
    for q, m in mu.items():
        chars, units, T = gauss_sum_matrix(q)
        assert chars[0] == principal_character(q) and units[0] == (0 if q == 1 else 1)
        assert abs(T[0, 0] - m) < 1e-9
    # primitive characters: |tau| = sqrt(q)
    for q in (5, 7, 9, 11, 16):
        chars, _, T = gauss_sum_matrix(q)
        for chi, tau in zip(chars, T[:, 0]):
            if is_primitive(chi):
                assert abs(abs(tau) - math.sqrt(q)) < 1e-9


def test_gauss_sum_twisted_relation():
    # primitive chi: tau_a(chi) = conj(chi)(a) tau(chi) at every unit a
    for q in (7, 9, 16):
        chars, units, T = gauss_sum_matrix(q)
        for chi, taus in zip(chars, T):
            if is_primitive(chi):
                for a, tau_a in zip(units.tolist(), taus):
                    assert abs(tau_a - char_eval(chi, a).conjugate() * taus[0]) < 1e-9


def test_gauss_sum_matches_brute_sum():
    # independent of the shared value table: scalar char_eval and cmath.exp
    for q in (1, 2, 7, 12, 16, 21, 36):
        chars, units, T = gauss_sum_matrix(q)
        for chi, taus in zip(chars, T):
            for a, tau_a in zip(units.tolist(), taus):
                brute = sum(char_eval(chi, b) * cmath.exp(2j * math.pi * a * b / q)
                            for b in range(q))
                assert abs(tau_a - brute) < 1e-9


def test_gauss_sum_matrix_matches_scalar():
    # rows follow the scalar enumerate_characters, columns the units of q in
    # order; test_gauss_sum_matches_brute_sum checks every entry
    for q in (1, 2, 12, 21):
        chars, units, T = gauss_sum_matrix(q)
        assert chars == enumerate_characters(q)
        assert units.tolist() == ([0] if q == 1 else [a for a in range(q) if gcd(a, q) == 1])
        assert T.shape == (len(chars), len(units))


def test_quadratic_gauss_bound(rng):
    # the 2 sqrt(l) bound needs gcd(a, l) = 1; degenerate a (say a = 0)
    # collapses the quadratic phase and can reach the trivial bound l
    for _ in range(50):
        l = rng.randrange(2, 400)
        a = rng.choice([n for n in range(1, l + 1) if gcd(n, l) == 1])
        k = rng.randrange(0, l)
        lhs, rhs = quadratic_gauss_bound_check(l, a, k)
        assert lhs <= rhs + 1e-9
    # for odd prime l and a nonzero the magnitude is exactly sqrt(l)
    for l in (5, 7, 11, 13):
        for a in range(1, l):
            lhs, _ = quadratic_gauss_bound_check(l, a, 3)
            assert abs(lhs - math.sqrt(l)) < 1e-9


def test_cube_root_counts_agree():
    for q in (7, 9, 13, 14, 19, 21, 27, 63):
        chars = enumerate_characters(q)
        for chi1 in chars[:6]:
            assert count_cube_roots(q, chi1) == count_cube_roots_structural(q, chi1)


def test_cube_root_count_of_principal():
    assert count_cube_roots(7, principal_character(7)) == 3
    assert count_cube_roots(9, principal_character(9)) == 3
    assert count_cube_roots(5, principal_character(5)) == 1
    # 819 = 9 * 7 * 13: three components each contributing gcd(3, m) = 3
    assert count_cube_roots_structural(819, principal_character(819)) == 27


def test_cubic_characters_have_order_three():
    for q in (7, 9, 13, 14, 63):
        cubs = cubic_characters(q)
        for chi in cubs:
            assert not is_principal(chi)
            assert is_principal(char_power(chi, 3))
        # count: prod gcd(3, order of component) - 1
        b = unit_group_basis(q)
        want = math.prod(gcd(3, m) for m in b.orders) - 1
        assert len(cubs) == want
    assert cubic_characters(5) == []


def test_primitive_cubic_moduli_up_to_20():
    have = [q for q in range(1, 21)
            if any(is_primitive(c) for c in cubic_characters(q))]
    assert have == [7, 9, 13, 19]


def test_cubic_structure_report():
    rows = cubic_structure_report(200)
    assert all(r.shape_ok for r in rows)
    by_q = {r.q: r for r in rows}
    # brute-force comparison on every q
    for q in range(1, 201):
        cubs = cubic_characters(q)
        n_prim = sum(1 for c in cubs if is_primitive(c))
        assert by_q[q].n_cubic == len(cubs)
        assert by_q[q].n_primitive_cubic == n_prim
        # admissible shape: 9^a * squarefree primes = 1 mod 3
        fac = factorize(q)
        admissible = q > 1 and all(
            (p == 3 and e == 2) or (p % 3 == 1 and e == 1 and is_prime(p))
            for p, e in fac.factors)
        assert (n_prim > 0) == admissible
        if admissible:
            assert n_prim == 2 ** len(fac.factors)
