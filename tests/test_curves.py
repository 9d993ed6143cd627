"""Short-model minimization, reduction types, conductor band heuristic."""

import math

import numpy as np
import pytest

from ecdensity.arith import factorize
from ecdensity.curves import (
    ConductorInfo,
    CurveParams,
    conductor,
    conductor_log_batch,
    minimal_short_model,
    reduction_type,
)


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


def test_batch_minimizes_a_zero_by_sixth_powers_of_b():
    # with a = 0 no fourth power of a bounds u; the sixth powers in b do
    assert conductor(0, 5**6).u == 5 and conductor(0, 2 * 7**6).u == 7
    _assert_grid_matches_scalar([0], [5**6, 2 * 7**6])


def test_batch_stops_sieving_once_every_remainder_is_prime():
    # sqrt(max) is about 1.2e6 from (1, 2*7^6), whose odd part is
    # 1801 * 7057 * 7351; once those are out, the sieve may stop long before
    _assert_grid_matches_scalar([0, 1], [5**6, 2 * 7**6, 3])
    # (0, 2003) leaves 2003^2 with additive reduction: stopping before 2003
    # would count it as one leftover prime of exponent 2
    _assert_grid_matches_scalar([0, 1], [5**6, 2 * 7**6, 3, 2003])


def test_batch_leftover_primes_on_both_sides_of_sqrt(rng):
    na = rng.sample(range(-400, 400), 10)
    nb = _nonsingular_b(na, rng.sample(range(-400, 400), 10))
    # largest odd prime p >= 5 of each minimal |disc|/16, against the sieve
    # bound sqrt(max) of the 2- and 3-free parts
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
    assert any(root // 4 < p <= root for p in tops)  # found by the sieve
    assert any(p > root for p in tops)               # left over, prime
    _assert_grid_matches_scalar(na, nb)


def test_batch_rejects_singular_and_shape_mismatch():
    with pytest.raises(ValueError):
        conductor_log_batch(np.array([-3]), np.array([2]))
    with pytest.raises(ValueError):
        conductor_log_batch(np.array([[1, 2]]), np.array([1]))
