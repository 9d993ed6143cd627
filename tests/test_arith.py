"""Prime, symbol, and kernel arithmetic against independent oracles."""

import math

import numpy as np
import pytest

from ecdensity.arith import (
    DTriple,
    cube_kernel,
    d_triple,
    divisors,
    factorize,
    is_prime,
    jacobi,
    legendre,
    mod_inverse,
    pairwise_ends,
    pairwise_sum,
    psi4,
    runs,
    sieve_primes,
    smallest_factor_table,
)
from ecdensity.characters import dlog_tables


def test_sieve_matches_known_counts():
    ps = sieve_primes(100)
    assert len(ps) == 25
    assert ps[0] == 2 and ps[-1] == 97
    assert sieve_primes(1) == []
    # pi(10^4) = 1229
    assert len(sieve_primes(10**4)) == 1229


def test_sieve_agrees_with_trial_division():
    naive = [n for n in range(2, 500)
             if all(n % d for d in range(2, int(math.isqrt(n)) + 1))]
    assert sieve_primes(499) == naive


def test_smallest_factor_table():
    spf = smallest_factor_table(30)
    assert spf[15] == 3
    assert spf[17] == 17
    assert spf[28] == 2
    for n in range(2, 31):
        assert n % spf[n] == 0
        assert is_prime(spf[n])


def test_is_prime_agrees_with_sieve():
    ps = set(sieve_primes(2000))
    for n in range(2001):
        assert is_prime(n) == (n in ps)


def test_is_prime_large_inputs():
    assert is_prime(2**31 - 1)          # Mersenne prime
    assert not is_prime(2**31 + 1)
    assert is_prime(10**12 + 39)
    assert not is_prime(10**12 + 37)


def test_factorize_known_value():
    f = factorize(496)
    assert f.n == 496
    assert f.factors == ((2, 4), (31, 1))
    assert f.valuation(2) == 4
    assert f.valuation(31) == 1
    assert f.valuation(7) == 0


def test_factorize_round_trip(rng):
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert list(f.factors) == sorted(f.factors)


def test_divisors_match_a_scan():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_semiprime_rho_path():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_seeds_rho_only_when_rho_runs(monkeypatch):
    # trial division finishes p - 1 for every prime the pipeline meets, so
    # neither call may build the generator Pollard rho draws from
    def refuse(*args):
        raise AssertionError("random.Random built although rho never ran")
    monkeypatch.setattr("ecdensity.arith.random.Random", refuse)
    assert factorize(79426).factors == ((2, 1), (151, 1), (263, 1))
    pw, dl = dlog_tables([631])
    assert sorted(pw[0]) == list(range(1, 631))


def test_legendre_known_and_euler(rng):
    assert legendre(3, 5) == -1
    assert legendre(4, 5) == 1
    assert legendre(10, 5) == 0
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 101, 997])
        n = rng.randrange(-50, 50)
        sym = legendre(n, p)
        if n % p == 0:
            assert sym == 0
        else:
            assert sym == (1 if pow(n, (p - 1) // 2, p) == 1 else -1)


def test_legendre_multiplicative(rng):
    for _ in range(200):
        p = rng.choice([5, 7, 13, 97])
        m, n = rng.randrange(1, 200), rng.randrange(1, 200)
        assert legendre(m * n, p) == legendre(m, p) * legendre(n, p)


def test_jacobi_factors_over_odd_moduli(rng):
    assert jacobi(2, 15) == 1
    for _ in range(300):
        m1 = rng.choice([3, 5, 7, 9, 11, 15])
        m2 = rng.choice([3, 5, 7, 9, 13])
        n = rng.randrange(-100, 100)
        assert jacobi(n, m1 * m2) == jacobi(n, m1) * jacobi(n, m2)
    for p in (3, 7, 19):
        for n in range(-10, 10):
            assert jacobi(n, p) == legendre(n, p)


def test_mod_inverse(rng):
    assert mod_inverse(10, 17) == 12
    for _ in range(300):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            with pytest.raises(ValueError):
                mod_inverse(a, m)
        else:
            assert a * mod_inverse(a, m) % m == 1


def test_psi4_values():
    assert psi4(5) == 1
    assert psi4(13) == 1
    assert psi4(7) == 1j
    assert psi4(11) == 1j
    for p in (2, 9, 15):
        with pytest.raises(ValueError):
            psi4(p)


def test_psi4_is_gauss_sum_sign():
    # sum_b (b/p) e(b/p) = psi4(p) sqrt(p)
    import cmath
    for p in (5, 7, 11, 13, 29, 31):
        s = sum(legendre(b, p) * cmath.exp(2j * cmath.pi * b / p)
                for b in range(1, p))
        assert abs(s - psi4(p) * math.sqrt(p)) < 1e-9


def test_d_triple_known_value():
    assert d_triple(12) == DTriple(12, 6, 3, 6)
    assert d_triple(1) == DTriple(1, 1, 1, 1)
    assert d_triple(8) == DTriple(8, 4, 2, 2)
    assert cube_kernel(24) == 6      # 24 = 2^3 * 3 -> 2 * 3
    assert cube_kernel(16) == 4      # 2^4 needs 2^2


def test_d_triple_defining_properties(rng):
    for _ in range(300):
        d = rng.randrange(1, 5000)
        t = d_triple(d)
        assert t.d_sq**2 % d == 0
        assert t.d_sq**2 == d * t.d_star
        assert t.d_cube**3 % d == 0
        # minimality: removing any prime breaks divisibility
        for p, _ in factorize(t.d_sq).factors:
            assert (t.d_sq // p) ** 2 % d != 0
        for p, _ in factorize(t.d_cube).factors:
            assert (t.d_cube // p) ** 3 % d != 0
        # d_star is squarefree
        assert all(e == 1 for _, e in factorize(t.d_star).factors)


def test_d_triple_rejects_nonpositive():
    for bad in (0, -4):
        with pytest.raises(ValueError):
            d_triple(bad)


# -- runs of consecutive indices --------------------------------------------

def test_runs_close_at_a_key_change():
    assert [list(r) for r in runs([1, 1, 1, 1, 1], 10, [4, 4, 8, 8, 4])] == [[0, 1], [2, 3], [4]]


def test_runs_close_before_the_index_that_passes_the_budget():
    # 3 + 4 = 7 fits a budget of 7 exactly; adding 1 would pass it
    assert [list(r) for r in runs([3, 4, 1, 2, 5], 7)] == [[0, 1], [2, 3], [4]]
    assert [list(r) for r in runs([1] * 35, 16)] == [list(range(0, 16)), list(range(16, 32)),
                                                    list(range(32, 35))]


def test_runs_put_an_index_alone_over_budget_in_a_run_of_its_own():
    assert [list(r) for r in runs([2, 9, 1, 12, 3], 5)] == [[0], [1], [2], [3], [4]]
    assert [list(r) for r in runs([9], 5)] == [[0]]


def test_runs_of_nothing():
    assert list(runs([], 5)) == []
    assert list(runs([], 5, [])) == []


def _chunks_by_hits(primes, n, budget):
    """The conductor sieve's old chunk rule, as an independent oracle: a
    chunk closes before the prime whose 2n/p would take its float total of
    hits past budget."""
    chunks, hits = [], budget
    for p in primes:
        if hits + 2 * n / p > budget:
            chunks.append([])
            hits = 0.0
        chunks[-1].append(p)
        hits += 2 * n / p
    return chunks


def test_runs_add_float_costs_in_index_order():
    # 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001 when added in order,
    # although the exact sum of the three doubles rounds to 0.6
    assert math.fsum([0.1, 0.2, 0.3]) == 0.6
    assert [list(r) for r in runs([0.1, 0.2, 0.3], 0.6)] == [[0, 1], [2]]
    primes = [p for p in sieve_primes(20_000) if p >= 5]
    for n in (1, 170_748, 10**7):
        for budget in (1 << 10, 1 << 14):
            got = [primes[r.start:r.stop] for r in runs([2 * n / p for p in primes], budget)]
            assert got == _chunks_by_hits(primes, n, budget)


# -- numpy's pairwise split -----------------------------------------------

def _pieces_sum(x, leaf):
    ends = pairwise_ends(x.size, leaf)
    return pairwise_sum(x.size, ((e, x[lo:e].sum()) for lo, e in zip([0] + ends[:-1], ends)))


def test_pairwise_pieces_recombine_into_np_sum():
    rng = np.random.default_rng(3)
    for n in range(1, 2049):
        x = rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n))
        assert _pieces_sum(x, 128) == x.sum()


def test_pairwise_pieces_recombine_at_the_lattice_sizes():
    from ecdensity.curves import _CHUNK_HITS
    from ecdensity.density import _axis_lattice, family

    rng = np.random.default_rng(4)
    for x in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        f = family(x)
        n = _axis_lattice(f, 0)[0].size * _axis_lattice(f, 1)[0].size
        v = rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, n))
        assert _pieces_sum(v, 128) == _pieces_sum(v, _CHUNK_HITS) == v.sum()


def test_pairwise_pieces_are_nodes_of_the_split():
    assert pairwise_ends(0, 128) == [0]
    # 300 splits at 150 - 150 % 8 = 144, and 144 and 156 split at 72
    assert pairwise_ends(300, 128) == [72, 144, 216, 300]
    assert pairwise_ends(300, 156) == [144, 300]
    assert pairwise_sum(300, iter([(144, 1.0), (300, 2.0)])) == 3.0
    with pytest.raises(ValueError):
        pairwise_ends(10, 127)
    with pytest.raises(ValueError, match="ending at 150"):
        pairwise_sum(300, iter([(150, 1.0), (300, 1.0)]))
