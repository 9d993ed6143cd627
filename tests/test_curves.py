"""Short-model minimization, reduction types, conductor band heuristic."""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ecdensity import curves
from ecdensity.arith import factorize, icbrt, sieve_primes
from ecdensity.curves import (
    ConductorInfo,
    conductor,
    conductor_log_batch,
    minimal_short_model,
    reduction_type,
)
from ecdensity.density import _axis_lattice, conductor_term, density_report, family, report_json
from helpers import CurveParams


def test_disc_formula():
    assert CurveParams(1, 1).disc == -496
    assert CurveParams(-16, 16).disc == 151552
    assert CurveParams(0, 1).disc == -432


def test_minimal_short_model_known():
    assert minimal_short_model(1296, 46656) == (1, 1, 6)
    assert minimal_short_model(1, 1) == (1, 1, 1)
    assert minimal_short_model(0, 64) == (0, 1, 2)
    assert minimal_short_model(16, 0) == (1, 0, 2)
    assert minimal_short_model(-16, 16) == (-16, 16, 1)


def test_minimal_short_model_properties(rng):
    for _ in range(100):
        a = rng.randrange(-40, 40)
        b = rng.randrange(-40, 40)
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        u = rng.choice([1, 2, 3, 6])
        a2, b2, u2 = minimal_short_model(a * u**4, b * u**6)
        # recovered model reproduces the input under scaling
        assert a2 * u2**4 == a * u**4 and b2 * u2**6 == b * u**6
        # and is itself fixed by another minimization pass
        assert minimal_short_model(a2, b2) == (a2, b2, 1)


def test_minimal_short_model_rejects_singular():
    for a, b in ((0, 0), (-3, 2), (-27, 54)):
        with pytest.raises(ValueError):
            minimal_short_model(a, b)


def test_reduction_type_cases():
    assert reduction_type(1, 1, 7) == ("good", 0)
    assert reduction_type(1, 1, 31) == ("multiplicative", 1)
    assert reduction_type(0, 5, 5) == ("additive", 2)
    with pytest.raises(ValueError):
        reduction_type(1, 1, 3)


def test_conductor_known_values():
    info = conductor(1, 1)
    assert info.odd_part == 31
    assert info.n == 496
    assert info.n_lo == 31
    assert info.n_hi == 2**8 * 31
    assert info.bad_primes == ((31, "multiplicative", 1),)
    assert not info.exact

    info = conductor(-16, 16)
    # true conductor 37 sits at the bottom of the band
    assert info.odd_part == 37
    assert info.n_lo == 37
    assert info.n_hi == 2**8 * 37
    assert info.n_lo <= 37 <= info.n_hi
    assert info.u == 1


def test_conductor_band_ordering(rng):
    for _ in range(80):
        a = rng.randrange(-60, 60)
        b = rng.randrange(-60, 60)
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        info = conductor(a, b)
        assert 1 <= info.n_lo <= info.n <= info.n_hi
        assert info.n_lo == info.odd_part
        assert info.odd_part % 2 == 1 and info.odd_part % 3 != 0
        for p, typ, fp in info.bad_primes:
            assert p >= 5
            assert (typ, fp) in (("multiplicative", 1), ("additive", 2))


def test_conductor_scaling_invariance():
    # scaled models reduce to the same minimal data
    base = conductor(2, 3)
    scaled = conductor(2 * 5**4, 3 * 5**6)
    assert scaled.n == base.n
    assert scaled.u == 5


def _assert_grid_matches_scalar(na, nb):
    ln, lo, hi = conductor_log_batch(np.array(na, dtype=np.int64),
                                     np.array(nb, dtype=np.int64))
    assert ln.shape == lo.shape == hi.shape == (len(na) * len(nb),)
    for i, a in enumerate(na):
        for j, b in enumerate(nb):
            k = i * len(nb) + j  # a-major flat order
            info = conductor(a, b)
            assert abs(ln[k] - math.log(info.n)) < 1e-9
            assert abs(lo[k] - math.log(info.n_lo)) < 1e-9
            assert abs(hi[k] - math.log(info.n_hi)) < 1e-9


def _nonsingular_b(na, bs):
    return [b for b in bs if all(4 * a**3 + 27 * b**2 != 0 for a in na)]


def test_batch_matches_scalar(rng):
    # random axis grids: negative a, a = 0 and b = 0, singular cells excluded
    for trial in range(12):
        na = rng.sample(range(-60, 60), 7)
        nb = rng.sample(range(-60, 60), 7)
        if trial % 3 == 0:
            na[0] = 0
        elif trial % 3 == 1:
            nb[0] = 0
        nb = _nonsingular_b(na, nb)
        assert any(a < 0 for a in na) and nb
        _assert_grid_matches_scalar(na, nb)


def test_batch_minimizes_at_primes_from_five():
    # every cell scaled by u = 11: 11 divides the input disc, not the minimal one
    _assert_grid_matches_scalar([11**4, -(11**4)], [2 * 11**6, 11**6, -(11**6)])
    # u = 5 beside cells that stay unminimized (5^5 | b only) and so keep 5
    _assert_grid_matches_scalar([2 * 5**4, -(5**4), 3 * 5**4],
                                [3 * 5**6, -(5**6), 5**5, 2 * 5**6])


@pytest.mark.parametrize("na, nb", [
    ([1250, -1875, 2401, 0], [15625, -46875, 7, 1]),
    ([1250, -1875, 2401, 7], [15625, -46875, 0, 1]),
])
def test_batch_minimizes_at_five_beside_cells_it_does_not(na, nb):
    # 1250 = 2 * 5^4 and -1875 = -3 * 5^4 against 15625 = 5^6 and -46875 =
    # -3 * 5^6: four cells minimize at 5, and so do (0, 5^6) and (0, -3 * 5^6)
    # on the a = 0 row, or (2 * 5^4, 0) and (-3 * 5^4, 0) on the b = 0 column;
    # 2401 = 7^4 minimizes only against b = 0
    u = [conductor(a, b).u for a in na for b in nb]
    assert sum(x == 5 for x in u) == 6 and sum(x == 7 for x in u) == (0 in nb)
    assert set(u) <= {1, 5, 7}
    _assert_grid_matches_scalar(na, nb)


def test_batch_minimizes_a_zero_by_sixth_powers_of_b():
    # with a = 0 no fourth power of a bounds u; the sixth powers in b do
    assert conductor(0, 5**6).u == 5 and conductor(0, 2 * 7**6).u == 7
    _assert_grid_matches_scalar([0], [5**6, 2 * 7**6])


def test_batch_deep_valuations_at_three_and_past_five():
    # 3 | 4a^3 + 27b^2 forces 27 | it, so the 3-part divides by 27 at once and
    # peels further only where 3 still divides; a sieve hit peels only where
    # p^2 divides.  This grid has v3 = 3, 4, 5 and 6, and v_p >= 2 at 5 (to
    # exponents 2 and 3), 7 and 11
    na, nb = [-6, -15, 12, 21, -24, 33], [1, 7, 25, -9, 50, -125, 36]
    v3, deep = Counter(), set()
    for a in na:
        for b in nb:
            a1, b1, _ = minimal_short_model(a, b)
            fac = factorize(abs(4 * a1**3 + 27 * b1**2))
            v3[fac.valuation(3)] += 1
            deep |= {(p, e) for p, e in fac.factors if p >= 5 and e >= 2}
    assert v3 == {3: 37, 4: 3, 5: 1, 6: 1}
    assert deep == {(5, 2), (5, 3), (7, 2), (11, 2)}
    _assert_grid_matches_scalar(na, nb)


def test_batch_stops_sieving_once_every_remainder_is_prime():
    # (1, 2*7^6) has the largest odd part, 1801 * 7057 * 7351, so the sieve
    # runs to its cube root 4,537 and leaves 7057 * 7351, two primes above it
    _assert_grid_matches_scalar([0, 1], [5**6, 2 * 7**6, 3])
    # (0, 2003) has 2003^2 with additive reduction; 2003 is below the root
    # here, so the sieve divides it out with exponent 2
    _assert_grid_matches_scalar([0, 1], [5**6, 2 * 7**6, 3, 2003])


def test_batch_leftover_primes_on_both_sides_of_sqrt(rng):
    na = rng.sample(range(-400, 400), 10)
    nb = _nonsingular_b(na, rng.sample(range(-400, 400), 10))
    # largest odd prime p >= 5 of each minimal |disc|/16, on both sides of
    # sqrt(max) of the 2- and 3-free parts; the sieve itself stops lower, at
    # the cube root, and the cells must match either way
    tops, rems = [], []
    for a in na:
        for b in nb:
            a1, b1, _ = minimal_short_model(a, b)
            d = abs(4 * a1**3 + 27 * b1**2)
            while d % 2 == 0:
                d //= 2
            while d % 3 == 0:
                d //= 3
            rems.append(d)
            tops.append(max((p for p, _ in factorize(d).factors), default=1))
    root = math.isqrt(max(rems))
    assert any(root // 4 < p <= root for p in tops)  # below sqrt(max)
    assert any(p > root for p in tops)               # above sqrt(max)
    _assert_grid_matches_scalar(na, nb)


def _odd_rems(na, nb):
    """The 2- and 3-free part of each minimal |disc|/16, a-major, and the
    sieve bound icbrt of their maximum."""
    rems = []
    for a in na:
        for b in nb:
            a1, b1, _ = minimal_short_model(a, b)
            d = abs(4 * a1**3 + 27 * b1**2)
            while d % 2 == 0:
                d //= 2
            while d % 3 == 0:
                d //= 3
            rems.append(d)
    return rems, icbrt(max(rems))


def _leftover(d, root):
    """Prime factors (with exponent) of d above root: what the sieve leaves."""
    return tuple((p, e) for p, e in factorize(d).factors if p > root)


def test_icbrt():
    assert [icbrt(n) for n in (0, 1, 7, 8, 26, 27, 63, 64)] == [0, 1, 1, 2, 2, 3, 3, 4]
    for r in (10**5, 2**21 - 1, 1290000):
        assert icbrt(r**3) == r and icbrt(r**3 - 1) == r - 1


def test_batch_leftover_two_primes_above_cube_root():
    # (-29, 19) leaves 277 * 317 and (-29, 40) leaves 107 * 127, every factor
    # above icbrt(max) = 44; each is multiplicative and adds log(q * r)
    na, nb = [-29, 1], [19, 40]
    rems, root = _odd_rems(na, nb)
    assert root == 44
    assert _leftover(rems[0], root) == ((277, 1), (317, 1))
    assert _leftover(rems[1], root) == ((107, 1), (127, 1))
    _assert_grid_matches_scalar(na, nb)


def test_batch_leftover_square_multiplicative():
    # (-29, 42) leaves 79^2 and (-25, 66) leaves 83^2, neither prime dividing
    # a: one factor of log q each, not log(q^2)
    na, nb = [-29, -25], [42, 66]
    rems, root = _odd_rems(na, nb)
    assert _leftover(rems[0], root) == ((79, 2),) and 29 % 79 != 0
    assert _leftover(rems[3], root) == ((83, 2),) and 25 % 83 != 0
    assert conductor(-29, 42).bad_primes == ((79, "multiplicative", 1),)
    _assert_grid_matches_scalar(na, nb)


def test_batch_leftover_square_additive_on_a_zero_row():
    # (0, q) has |disc|/16 = 27 q^2: q^2 above the cube root, q | a = 0
    na, nb = [0], [1009, 2003]
    rems, root = _odd_rems(na, nb)
    assert rems == [1009**2, 2003**2] and root < 1009
    assert conductor(0, 2003).bad_primes == ((2003, "additive", 2),)
    _assert_grid_matches_scalar(na, nb)


@pytest.mark.parametrize("a, b", [(1, 10**6 + 3), (10**4, 7), (3 * 10**4, 1)])
def test_batch_lone_curve_with_one_large_coefficient(a, b):
    # 2- and 3-free |disc|/16 of 4e12 to 2.7e13: the sieve stops at 15,874 to
    # 30,000, where a square-root bound would run to 2e6 to 5.2e6
    _assert_grid_matches_scalar([a], [b])


def test_batch_sieve_stops_at_cube_root(monkeypatch):
    limits = []
    real = curves.sieve_primes

    def spy(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(curves, "sieve_primes", spy)
    na, nb = [10**4, -7, 0], [7, 1, 10**3 + 9]
    _, root = _odd_rems(na, nb)
    stats = {}
    conductor_log_batch(np.array(na), np.array(nb), stats)
    # the last call is the odd sieve; the earlier ones minimize
    assert limits[-1] <= root
    assert stats["primes"] == sum(1 for p in real(root) if p >= 5)
    _assert_grid_matches_scalar(na, nb)


def test_conductor_primes_counted_at_family_1e3(fam_1e3):
    na = [int(a) for a in _axis_lattice(fam_1e3, 0)[0]]
    nb = [int(b) for b in _axis_lattice(fam_1e3, 1)[0]]
    rems, root = _odd_rems(na, nb)
    primes = [p for p in sieve_primes(root) if p >= 5]
    # (curve, p) pairs with p | minimal disc, by plain trial division
    hits = sum(1 for r in rems for p in primes if r % p == 0)
    rep = density_report(fam_1e3)
    assert rep.term_counts["conductor_primes"] == len(primes) > 0
    assert rep.term_counts["conductor_hits"] == hits > 0
    counts = json.loads(report_json(rep))["term_counts"]
    assert (counts["conductor_primes"], counts["conductor_hits"]) == (len(primes), hits)


def test_conductor_term_reprs_pinned():
    # read before the odd sieve ran in stacked chunks; only exact conductors at
    # 2 and 3 should move them
    assert [repr(v) for v in conductor_term(family(1e6))] == [
        "1.3754970806686186", "1.0096260071468175", "1.5434512929241777"]
    assert [repr(v) for v in conductor_term(family(1e7))] == [
        "1.321665720744381", "1.0080079447977932", "1.4656313759694575"]


def _full_array_term(f):
    """conductor_term's three averages from whole-grid arrays, summed at once."""
    na, wa = _axis_lattice(f, 0)
    nb, wb = _axis_lattice(f, 1)
    wv = np.outer(wa, wb).ravel()
    w = float(wv.sum())
    return tuple(float((wv * x).sum()) / (w * f.log_x) for x in conductor_log_batch(na, nb))


@pytest.mark.parametrize("x, box", [
    (1e3, None), (1e4, None), (1e5, None), (1e6, None),
    (round(1e5 * math.exp(0.004)), None), (round(1e6 * math.exp(-0.007)), None),
    (1e5, (0.1, 0.9, 0.2, 1.3)), (1e6, (-0.9, 0.8, 0.3, 1.0))])
def test_conductor_term_matches_full_array_sums(x, box):
    f = family(x) if box is None else family(x, box=box)
    assert [repr(v) for v in conductor_term(f)] == [repr(v) for v in _full_array_term(f)]


def test_tiles_and_joins_leave_every_number_unchanged(monkeypatch):
    # the smallest budget cuts family(1e4) into 7 tiles, many joins and row
    # blocks; every array and average must read as at the default budget
    na, nb = _axis_lattice(family(1e4), 0)[0], _axis_lattice(family(1e4), 1)[0]
    want, want_stats = conductor_log_batch(na, nb), {}
    conductor_log_batch(na, nb, want_stats)
    terms = [conductor_term(family(x)) for x in (1e3, 1e4)]
    monkeypatch.setattr(curves, "_CHUNK_HITS", 128)
    stats = {}
    got = conductor_log_batch(na, nb, stats)
    assert len(list(curves.conductor_log_tiles(na, nb))) == 7
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want] and stats == want_stats
    assert [conductor_term(family(x)) for x in (1e3, 1e4)] == terms
    assert [repr(v) for v in conductor_term(family(1e4))] == [
        repr(v) for v in _full_array_term(family(1e4))]


def test_conductor_term_working_set_stays_small():
    # only the sieve's arrays span the grid: each cell's remainder (int32
    # here), sieved log, v2 and v3 (int8) and minimal a (int16), 3.2 MiB
    # traced at family(1e7) against 10.3 MiB with whole-grid int64 steps
    f = family(1e7)
    tracemalloc.start()
    try:
        conductor_term(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_batch_joins_thousands_of_primes_at_once():
    # coefficients near 1e7 put the sieve bound near 3.2e5, so one join holds
    # thousands of primes, keyed by slot * (max p + 1) + residue; the cell
    # (200000, 10^7) is minimized by u = 10 (5^4 | a, 5^6 | b), so the hits
    # are filtered, and most leftovers are a prime or two above the bound
    na, nb = [200_000, -199_999, 123_457], [10**7, 9_999_991, -10_000_019]
    rems, root = _odd_rems(na, nb)
    primes = [p for p in sieve_primes(root) if p >= 5]
    a_side, b_side = -4 * np.array(na) ** 3, 27 * np.array(nb) ** 2
    assert max(len(chunk) for chunk, *_ in curves._odd_joins(primes, a_side, b_side)) > 1000
    stats = {}
    conductor_log_batch(np.array(na), np.array(nb), stats)
    assert stats == {"primes": len(primes),
                     "hits": sum(1 for r in rems for p in primes if r % p == 0)}
    assert conductor(200_000, 10**7).u == 10
    _assert_grid_matches_scalar(na, nb)


def test_batch_rejects_singular_and_shape_mismatch():
    with pytest.raises(ValueError):
        conductor_log_batch(np.array([-3]), np.array([2]))
    # the first singular cell in a-major order is named
    with pytest.raises(ValueError, match=r"\(a, b\) = \(-3, 2\)"):
        conductor_log_batch(np.array([1, -3]), np.array([5, 2]))
    with pytest.raises(ValueError):
        conductor_log_batch(np.array([[1, 2]]), np.array([1]))
