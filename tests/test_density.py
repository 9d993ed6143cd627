"""Density pipeline: lattice sums, dual routes, reports, zero-list crosscheck.

The brute-force oracles here are pure Python (pow-based symbols, explicit
loops) so they share no code with the vectorized paths they certify.
"""

import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ecdensity import characters, density, frobenius
from ecdensity.density import (
    DEFAULT_TAIL_TOL,
    TABLE_CAP,
    CrosscheckReport,
    DensityReport,
    ZeroFileError,
    ZeroList,
    ZeroListTooShort,
    _axis_lattice,
    _block_terms,
    _dual_extent,
    _dual_group_sums,
    _dual_groups,
    _dual_radii,
    _lattice_blocks,
    _prime_weights,
    _single_prime_side,
    check_lattice,
    conductor_term,
    density_report,
    direct_term_count,
    explicit_formula_crosscheck,
    family,
    g_dyadic,
    p1_direct,
    p1_poisson,
    p2_direct,
    p2_predicted_over_w,
    parse_zero_file,
    poisson_term_count,
    q_dk_chi,
    rank_bound_exact,
    report_json,
    s_hkp_direct,
    scaled_mass,
    sweep_csv,
    verify_char_expansion,
    w_total,
    write_zero_file,
)
from ecdensity.characters import enumerate_characters
from ecdensity.frobenius import lambda_table
from helpers import _row_cuts, q_dk_chi_scalar

ZERO_FILE = Path(__file__).parent / "data" / "curve_m16_16_zeros.txt"


# -- pure-Python reference implementations ---------------------------------

def _leg(n: int, p: int) -> int:
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def _primes_upto(m: int) -> list[int]:
    return [p for p in range(5, m + 1)
            if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]


def _lam(a: int, b: int, p: int) -> int:
    return -sum(_leg(x * x * x + a * x + b, p) for x in range(p))


def _u(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return math.exp(-1.0 / (t * (1.0 - t)))


def _lattice(scale: float, lo: float, hi: float):
    out = []
    n = math.floor(lo * scale) + 1
    while n <= math.ceil(hi * scale) - 1:
        t = (n / scale - lo) / (hi - lo)
        out.append((n, _u(t)))
        n += 1
    return out


def _brute_family(f):
    ax = _lattice(f.a_scale, f.weight.box[0], f.weight.box[1])
    bx = _lattice(f.b_scale, f.weight.box[2], f.weight.box[3])
    return ax, bx


def _brute_p1(f) -> float:
    ax, bx = _brute_family(f)
    lx = f.log_x
    total = 0.0
    for p in _primes_upto(int(f.x ** float(f.nu)) + 2):
        u = math.log(p) / lx
        ph = max(0.0, 1.0 - u / float(f.nu))
        if ph == 0.0:
            continue
        inner = sum(wa * wb * _lam(a, b, p) for a, wa in ax for b, wb in bx)
        total += inner * ph * 2.0 * math.log(p) / (p * lx)
    return total


def _brute_p2(f) -> float:
    ax, bx = _brute_family(f)
    lx = f.log_x
    total = 0.0
    for p in _primes_upto(int(f.x ** (float(f.nu) / 2.0)) + 2):
        u = 2.0 * math.log(p) / lx
        ph = max(0.0, 1.0 - u / float(f.nu))
        if ph == 0.0:
            continue
        inner = sum(wa * wb * (_lam(a, b, p) ** 2 - p)
                    for a, wa in ax for b, wb in bx)
        total += inner * ph * 2.0 * math.log(p) / (p * p * lx)
    return total


# -- family geometry -------------------------------------------------------

def test_family_scales():
    f = family(1e3)
    assert f.a_scale == pytest.approx(10.0)
    assert f.b_scale == pytest.approx(math.sqrt(1000.0))
    assert f.log_x == pytest.approx(math.log(1000.0))
    assert f.nu == Fraction(7, 10)


def test_family_nu_comes_from_the_test_pair():
    # nu is read off phi, so a spec cannot carry a nu its test pair lacks
    f = family(1e3)
    assert f.nu == f.phi.nu == Fraction(7, 10)
    with pytest.raises(TypeError):
        dataclasses.replace(f, nu=Fraction(1, 2))
    half = family(1e3, nu=Fraction(1, 2))
    assert half.nu == half.phi.nu == Fraction(1, 2)


def test_family_float_nu_is_the_rational(fam_1e3):
    # a float nu reaches fejer_pair's limit_denominator, so 0.7 is 7/10
    f = family(1e3, nu=0.7)
    assert f.nu == fam_1e3.nu == Fraction(7, 10)
    assert density_report(f).rank_bound == density_report(fam_1e3).rank_bound


def test_w_total_matches_brute(fam_250, fam_1e3):
    for f in (fam_250, fam_1e3):
        ax, bx = _brute_family(f)
        want = sum(wa for _, wa in ax) * sum(wb for _, wb in bx)
        assert w_total(f) == pytest.approx(want, rel=1e-13)
    assert scaled_mass(fam_1e3) > 0


def test_empty_lattice_raises():
    # a box thinner than one lattice spacing at tiny X has no integer points
    with pytest.raises(ValueError):
        w_total(family(30.0, box=(0.5, 0.6, 0.5, 1.0)))


# -- P1 and P2, direct routes vs oracles -----------------------------------

def test_p1_direct_matches_brute(fam_250):
    got = p1_direct(fam_250)
    want = _brute_p1(fam_250)
    assert got == pytest.approx(want, abs=1e-11 * max(1.0, abs(want)))


def test_p2_direct_matches_brute(fam_250):
    got = p2_direct(fam_250)
    want = _brute_p2(fam_250)
    assert got == pytest.approx(want, abs=1e-11 * max(1.0, abs(want)))


def _full_table_terms(f, p):
    """(P1, P2) inner sums at p over the full residue grid: sa @ T @ sb."""
    na, wa = _axis_lattice(f, 0)
    nb, wb = _axis_lattice(f, 1)
    sa = np.bincount(na % p, weights=wa, minlength=p)
    sb = np.bincount(nb % p, weights=wb, minlength=p)
    t = lambda_table(p).table.astype(np.float64)
    return sa @ t @ sb, sa @ (t * t - p) @ sb


@pytest.mark.parametrize("x, picks", [
    pytest.param(1e3, None, id="1e3"),
    pytest.param(1e5, (5, 997, 1009, 2003, 3137), id="1e5"),
])
def test_lattice_block_matches_full_table(x, picks, tmp_path):
    # every P1 prime of family(1e3) and a few of family(1e5), some above
    # TABLE_CAP: the lattice-residue block contracts to the full-table value,
    # and the cached table's slice is the lambda_rows block exactly
    f = family(x)
    cached = family(x, cache_dir=str(tmp_path))
    primes = _prime_weights(f, 1)[0] if picks is None else list(picks)
    assert set(primes) <= set(_prime_weights(f, 1)[0])
    for p, (u, lam, v), (_, lam_c, _) in zip(primes, _lattice_blocks(f, primes),
                                             _lattice_blocks(cached, primes), strict=True):
        want1, want2 = _full_table_terms(f, p)
        assert u @ lam @ v == pytest.approx(want1, rel=1e-12)
        assert u @ (lam * lam - p) @ v == pytest.approx(want2, rel=1e-12)
        assert np.array_equal(lam_c, lam)


def test_p1_direct_streams_family_1e5():
    # pinned exactly, as the direct route's oracle value at 1e5, and equal to
    # the exactly rounded sum of its per-prime terms
    f = family(1e5)
    got = p1_direct(f)
    assert repr(got) == "5.537144739874145e-05"
    ps, ws = _prime_weights(f, 1)
    terms, _, _ = _block_terms(f, ps, dict(zip(ps, ws)), {})
    assert got == float(sum(map(Fraction, terms)))


def test_p1_threads_bitwise_deterministic(fam_1e3, monkeypatch):
    # below _P1_POOL_WORK (1e3 and 1e4 here) no pool starts, whatever
    # threads asks for, and the value is the serial one
    def no_pool(*args, **kwargs):
        raise AssertionError("p1_direct started a process pool")
    want = [repr(p1_direct(f)) for f in (fam_1e3, family(1e4))]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert [repr(p1_direct(family(x, threads=2))) for x in (1e3, 1e4)] == want


@pytest.mark.parametrize("x, threads, cores, want", [
    (1e3, 5000, 3, 2),    # 2 chunks
    (1e4, 5000, 3, 3),    # 7 chunks, 3 cores
    (1e4, 2, 3, 2),
    (1e4, 5000, None, 1),  # os.cpu_count() unknown
])
def test_p1_pool_never_outnumbers_chunks_or_cores(x, threads, cores, want, monkeypatch):
    # a recording stand-in for the executor runs map serially, so no pool starts
    asked = []

    class Recording:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    serial = repr(p1_direct(family(x)))
    monkeypatch.setattr(density, "_P1_POOL_WORK", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    stats: dict = {}
    assert repr(p1_direct(family(x, threads=threads), stats)) == serial
    assert stats["pooled"] and asked == [want]


def test_p1_pool_keeps_the_serial_bits(fam_1e3, monkeypatch):
    # forced through the process pool, the fixed chunks and reduction order
    # still give the serial value bit for bit
    monkeypatch.setattr(density, "_P1_POOL_WORK", 0)
    stats: dict = {}
    assert repr(p1_direct(family(1e3, threads=2), stats)) == repr(p1_direct(fam_1e3))
    assert stats["cells"] > 0


def test_single_prime_side_matches_brute(fam_250):
    f = fam_250
    lx = f.log_x
    for a, b in ((-16, 16), (1, 1)):
        p1, p2 = _single_prime_side(a, b, f)
        want1 = 0.0
        for p in _primes_upto(int(f.x ** 0.7) + 2):
            ph = max(0.0, 1.0 - math.log(p) / lx / 0.7)
            want1 += _lam(a, b, p) * ph * 2.0 * math.log(p) / (p * lx)
        assert p1 == pytest.approx(want1, rel=1e-12)
        want2 = 0.0
        for p in _primes_upto(int(f.x ** 0.35) + 2):
            ph = max(0.0, 1.0 - 2.0 * math.log(p) / lx / 0.7)
            want2 += (_lam(a, b, p) ** 2 - p) * ph * 2.0 * math.log(p) / (p * p * lx)
        assert p2 == pytest.approx(want2, rel=1e-12)


@pytest.mark.parametrize("x, p1, p2", [
    pytest.param(1e3, "-0.39734920861766104", "-0.019035433364034383", id="1e3"),
    pytest.param(1e4, "-0.4280540779083526", "-0.026102293358851496", id="1e4"),
])
def test_single_prime_side_pinned(x, p1, p2):
    # the values of the separate P1 and P2 sums, each counting points at its
    # own primes, which the one pass keeps bit for bit
    assert tuple(map(repr, _single_prime_side(-16, 16, family(x)))) == (p1, p2)


def test_direct_term_count(fam_1e3):
    want = sum(p * p for p in _primes_upto(int(1e3 ** 0.7) + 2)
               if math.log(p) / math.log(1e3) < 0.7)
    assert direct_term_count(fam_1e3) == want


# -- dual (Poisson) route --------------------------------------------------

def test_poisson_matches_direct(fam_250, fam_1e3):
    for f in (fam_250, fam_1e3):
        stats: dict = {}
        got = p1_poisson(dataclasses.replace(f, tail_tol=1e-14), stats=stats)
        want = p1_direct(f)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
        assert stats["imag_leak"] < 1e-9
        assert stats["terms"] > 0


def test_poisson_term_count_consistent(fam_250, fam_1e3):
    stats: dict = {}
    tight = dataclasses.replace(fam_250, tail_tol=1e-10)
    p1_poisson(tight, stats=stats)
    assert poisson_term_count(tight) == stats["terms"]
    for f, want in ((fam_1e3, 225_338), (family(1e4), 3_608_826)):
        stats = {}
        p1_poisson(f, stats=stats)
        assert poisson_term_count(f) == stats["terms"] == want
        # one built cell serves the four cells (+-h, +-k)
        assert 4 * stats["cells"] >= stats["terms"]


@pytest.mark.parametrize("x, want, cells", [
    (1e3, "-0.00023161107910030728", 137_219),
    (1e4, "-0.0003755939904706961", 1_434_769),
])
def test_p1_poisson_pinned(x, want, cells):
    # the dual P1 and its built cells, as read before the windows, cuts and
    # tables of a prime group were stacked; the P1 reprs moved in their last
    # digits (2.2e-15 and 5.8e-16 relative) when the Gauss-Legendre rule
    # moved from leggauss to Newton on the recurrence, the cells did not
    stats = {}
    assert repr(p1_poisson(family(x), stats)) == want
    assert stats["cells"] == cells


def test_poisson_term_count_pinned():
    # the dual term set: a transform or row-cut change that flips one kept
    # (h, k) cell moves these counts; 1e6 holds the widest staircases
    for x, want in ((1e3, 225_338), (1e4, 3_608_826), (1e5, 52_822_536),
                    (1e6, 847_424_990)):
        assert poisson_term_count(family(x)) == want


@pytest.mark.parametrize("x", [1e3, 1e4])
def test_grouped_transforms_change_no_term(x, monkeypatch):
    # one axis_progressions call per prime against the default groups: the
    # same cells, and P1 to rounding of the transform
    f = family(x)
    grouped = {}
    p1 = p1_poisson(f, grouped)
    terms = poisson_term_count(f)
    monkeypatch.setattr(density, "_P1_GROUP", 1)
    single = {}
    assert p1_poisson(f, single) == pytest.approx(p1, rel=1e-13, abs=0.0)
    assert (single["terms"], single["cells"]) == (grouped["terms"], grouped["cells"])
    assert poisson_term_count(f) == terms == grouped["terms"]
    assert single["points"] <= grouped["points"]  # no padding in groups of one


@pytest.mark.parametrize("x", [1e8, 10.0])
def test_dual_route_with_empty_windows(x):
    # at 1e8 every one of the 23 P1 windows has kmax = 0; at 10 there is no
    # P1 prime at all
    f = family(x, nu=Fraction(1, 4))
    stats = {}
    assert p1_poisson(f, stats) == 0.0
    assert stats["terms"] == stats["cells"] == 0
    assert stats["primes"] == (23 if x == 1e8 else 0)
    assert poisson_term_count(f) == 0


def test_p1_points_pinned(fam_1e3):
    # transform points of the dual route, group padding included: at least
    # the h = 0..hmax and k = 0..kmax of every prime
    rep = density_report(fam_1e3, method="poisson")
    radii = _dual_radii(fam_1e3)
    bare = sum(h + k + 2 for h, k in (_dual_extent(fam_1e3, p, radii)
                                      for p in _prime_weights(fam_1e3, 1)[0]))
    assert rep.term_counts["p1_points"] == 6_328 >= bare
    assert json.loads(report_json(rep))["term_counts"]["p1_points"] == 6_328
    assert "p1_points" not in density_report(fam_1e3, method="direct").term_counts


def test_direct_values_pinned_at_1e4():
    # the direct P1 and P2 at family(1e4), as before the row transforms of
    # consecutive primes were stacked
    f = family(1e4)
    assert repr(p1_direct(f)) == "-0.0003755342990648632"
    assert repr(p2_direct(f)) == "-0.0003780626979751568"


@pytest.mark.parametrize("x", [1e3, 1e4])
def test_direct_report_p2_is_p2_direct(x, monkeypatch):
    # the direct route takes P2 from P1's blocks; it keeps p2_direct's bits,
    # also when the chunks run in a process pool
    want = repr(p2_direct(family(x)))
    assert repr(density_report(family(x), method="direct").p2) == want
    monkeypatch.setattr(density, "_P1_POOL_WORK", 0)
    assert repr(density_report(family(x, threads=2), method="direct").p2) == want


def test_direct_report_builds_each_base_row_once(monkeypatch):
    # one direct report builds the base rows of every P1 prime exactly once:
    # the P2 primes' blocks are not built a second time
    built = []
    base_rows = frobenius._base_rows

    def counted(ps, nrows):
        built.extend(ps)
        return base_rows(ps, nrows)
    monkeypatch.setattr(frobenius, "_base_rows", counted)
    f = family(1e4)
    density_report(f, method="direct")
    assert built == _prime_weights(f, 1)[0]
    assert set(_prime_weights(f, 2)[0]) < set(built)


@pytest.mark.parametrize("x, stacks", [(1e3, 5), (1e4, 19)])
def test_p1_row_stacks_pinned(x, stacks, tmp_path):
    # one stacked transform per run of primes with one FFT length: at 1e3 the
    # runs are 5-7, 11-13, 17-31, 37-61 and 67-127; with every prime read
    # from the disk cache the direct route transforms nothing
    rep = density_report(family(x), method="direct")
    assert rep.term_counts["p1_row_stacks"] == stacks
    assert json.loads(report_json(rep))["term_counts"]["p1_row_stacks"] == stacks
    assert "p1_row_stacks" not in density_report(family(x), method="poisson").term_counts
    cached = density_report(family(x, cache_dir=str(tmp_path)), method="direct")
    assert cached.term_counts["p1_row_stacks"] == 0


def test_row_cuts_apply_the_exact_product_test():
    rng = np.random.default_rng(5)
    absa = np.append(rng.random(300), 0.0)
    absb = np.repeat(rng.random(50), 2)  # ties, as |vb(-k)| == |vb(k)|
    cols = np.argsort(-absb, kind="stable")
    for tol in absa[:60] * absb[:60]:    # products on the boundary
        counts = _row_cuts(absa, absb, tol)
        mask = absa[:, None] * absb[None, :] >= tol
        # each row keeps exactly the first counts[h] columns by descending |vb|
        prefix = np.arange(absb.size)[None, :] < counts[:, None]
        assert np.array_equal(prefix, mask[:, cols])
        assert np.array_equal(counts, mask.sum(axis=1))


def _dense_dual_term(f, p):
    """The dual (h, k) block at p by the per-point transform and a dense
    complex mask: sum of va(h) (k/p) e(-h^3 kbar^2/p) vb(k) over the kept
    cells, their count, and the count of those with h >= 0 and k > 0."""
    wt, tol = f.weight, f.tail_tol
    hmax, kmax = _dual_extent(f, p, _dual_radii(f))
    h = np.arange(-hmax, hmax + 1)
    k = np.array([k for k in range(-kmax, kmax + 1) if k % p])
    va = wt.axis_transform(0, h * (f.a_scale / p))
    vb = wt.axis_transform(1, k * (f.b_scale / p))
    mask = np.abs(va)[:, None] * np.abs(vb)[None, :] >= tol
    kinv2 = np.array([pow(int(x), -2, p) for x in k])
    h3 = np.array([pow(int(x), 3, p) for x in h])
    mat = np.exp(-2j * np.pi * (np.outer(h3, kinv2) % p) / p)
    sym = np.array([_leg(int(x), p) for x in k])
    return (complex(va @ ((mat * mask) @ (sym * vb))), int(mask.sum()),
            int(mask[h >= 0][:, k > 0].sum()))


@pytest.mark.parametrize("x, p, tail_tol", [
    # the h window reaches 2p, so rows with h^3 = 0 mod p are present
    pytest.param(1e3, 7, DEFAULT_TAIL_TOL, id="1000.0-7"),
    # tight tolerance: the widest window, about 1e6 kept cells
    pytest.param(1e4, 613, 1e-14, id="10000.0-613-1e-14"),
    pytest.param(1e5, 3137, DEFAULT_TAIL_TOL, id="100000.0-3137"),
    pytest.param(1e9, 79411, DEFAULT_TAIL_TOL, id="1000000000.0-79411"),
])
def test_poisson_term_matches_dense_contraction(x, p, tail_tol):
    # at p = 79411 (X = 1e7 reaches it) h^3 kbar^2 overflows int32
    f = family(x, tail_tol=tail_tol)
    grp = next(_dual_groups(f, [p], _dual_radii(f)))
    [(got, cells)] = _dual_group_sums(grp)
    want, want_n, want_quarter = _dense_dual_term(f, p)
    assert grp.kept == [want_n] and want_n > 0
    assert cells >= want_quarter  # cells with h < 0 or k < 0 come from h >= 0, k > 0
    # S_p is real at p = 1 (mod 4) and imaginary at p = 3 (mod 4); got is
    # its one nonzero component
    on, off = (want.imag, want.real) if p % 4 == 3 else (want.real, want.imag)
    assert got == pytest.approx(on, rel=1e-12, abs=1e-12 * abs(want))
    assert abs(off) < 1e-12 * abs(want)
    assert abs(complex(got - on, off)) <= 1e-12 * abs(want)


def _oracle_axes(f, p, h, k):
    """va at h A/p and vb at k B/p by the full-node transform."""
    wt = f.weight
    return (wt.axis_transform(0, h * (f.a_scale / p)),
            wt.axis_transform(1, k * (f.b_scale / p)))


def _group_windows(f):
    """(p, row cuts over h = 0..hmax, kept columns k) of each P1 prime, cut
    from the stacked groups."""
    radii = _dual_radii(f)
    for grp in _dual_groups(f, _prime_weights(f, 1)[0], radii):
        for i, p in enumerate(grp.ps):
            hmax = _dual_extent(f, p, radii)[0]
            yield p, grp.cuts[i, : hmax + 1], np.flatnonzero(grp.keep[i]) + 1


@pytest.mark.parametrize("x, tail_tol", [
    # the h window at 1e3 passes p = 7, so rows h >= p are cut too
    (1e3, DEFAULT_TAIL_TOL), (1e4, DEFAULT_TAIL_TOL), (1e4, 1e-14),
])
def test_group_cuts_match_row_cuts(x, tail_tol):
    # the stacked cuts of each group against _row_cuts, the exact oracle, on
    # the same transform values prime by prime
    f = family(x, tail_tol=tail_tol)
    radii = _dual_radii(f)
    for grp in _dual_groups(f, _prime_weights(f, 1)[0], radii):
        for i, p in enumerate(grp.ps):
            hmax = _dual_extent(f, p, radii)[0]
            want = _row_cuts(np.abs(grp.va[i, : hmax + 1]), np.abs(grp.vb[i, grp.keep[i]]),
                             tail_tol)
            assert np.array_equal(grp.cuts[i, : hmax + 1], want)
            assert not grp.cuts[i, hmax + 1:].any()
            assert grp.kept[i] == 4 * int(want.sum()) - 2 * int(want[0])


@pytest.mark.parametrize("x", [1e3, 1e4])
def test_dual_row_counts_are_mirror_symmetric(x):
    # the fold builds rows h >= 0 only; it needs row -h to keep row h's
    # count, and the window's half rows to keep half of each full row
    f = family(x)
    tol, radii = f.tail_tol, _dual_radii(f)
    for p, cuts, _ in _group_windows(f):
        hmax, kmax = _dual_extent(f, p, radii)
        k = np.arange(-kmax, kmax + 1)
        va, vb = _oracle_axes(f, p, np.arange(-hmax, hmax + 1), k)
        counts = _row_cuts(np.abs(va), np.abs(vb[k % p != 0]), tol)
        assert counts.size == 2 * hmax + 1
        assert np.array_equal(counts, counts[::-1])
        assert np.array_equal(counts[hmax:], 2 * cuts)


@pytest.mark.parametrize("x", [1e3, 1e4])
def test_dual_columns_fold_over_k(x):
    # the fold builds columns k > 0 only; it needs vb(-k) to be conj vb(k) to
    # the bit and every row to keep as many columns -k as columns k
    f = family(x)
    tol, radii = f.tail_tol, _dual_radii(f)
    for p, cuts, cols in _group_windows(f):
        hmax, kmax = _dual_extent(f, p, radii)
        k = np.arange(1, kmax + 1)
        va, pos = _oracle_axes(f, p, np.arange(hmax + 1), k)
        neg = f.weight.axis_transform(1, -k * (f.b_scale / p))
        assert np.array_equal(neg.view(np.int64), pos.conj().view(np.int64))
        keep = k % p != 0
        both = _row_cuts(np.abs(va), np.abs(np.concatenate((neg[keep], pos[keep]))), tol)
        half = _row_cuts(np.abs(va), np.abs(pos[keep]), tol)
        assert np.array_equal(both, 2 * half)
        assert np.array_equal(cols, k[keep]) and np.array_equal(cuts, half)


def test_dual_report_splits_the_p1_timing(fam_250):
    dual = density_report(fam_250, method="poisson")
    t = dual.timings
    assert t["p1_transform"] > 0 and t["p1_contract"] > 0
    assert t["p1_transform"] + t["p1_contract"] <= t["p1"]
    direct = density_report(fam_250, method="direct")
    assert "p1_transform" not in direct.timings and "p1_contract" not in direct.timings


def test_report_times_p2_on_both_routes(fam_250):
    # the direct route times P2's contractions inside the shared pass
    for method in ("direct", "poisson"):
        assert density_report(fam_250, method=method).timings["p2"] >= 0.0


def test_import_and_report_load_no_scipy():
    # scipy serves only the verification harnesses, imported where they run
    code = ("import sys, ecdensity\n"
            "ecdensity.density_report(ecdensity.family(1e3))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_serial_report_loads_no_process_pool():
    # the pool and multiprocessing are imported only when p1_direct pools, and
    # the Gauss-Legendre rule comes without numpy.polynomial's leggauss
    code = ("import sys, ecdensity\n"
            "ecdensity.density_report(ecdensity.family(1e3))\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process',\n"
            "                         'numpy.polynomial') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_first_family_build_stays_small_next_to_the_import():
    # the high-water mark of a fresh process that builds family(1e3) (the
    # rule, the bump profile and the envelopes) over one that only imports
    # ecdensity: about 2.1 MiB with 2^13-point FFTs, where one 2^18-point
    # rfft and leggauss read about 9 MiB (one BLAS thread in both).  Both
    # peaks come from os.wait4 in a small launcher, because a child's
    # ru_maxrss starts at the RSS of the process that spawned it (pytest's)
    launcher = ("import os, subprocess, sys\n"
                "for code in ('import ecdensity', 'import ecdensity; ecdensity.family(1e3)'):\n"
                "    pid = subprocess.Popen([sys.executable, '-c', code]).pid\n"
                "    _, status, usage = os.wait4(pid, 0)\n"
                "    assert status == 0\n"
                "    print(usage.ru_maxrss / 1024)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", launcher], capture_output=True, text=True,
                         env=env, check=True)
    base, built = map(float, out.stdout.split())
    assert built - base < 4.0


def test_nan_tail_tol_is_refused():
    # NaN fails every comparison, so the radius test is written to fail it;
    # before, it read radius 0 and dual P1 as -0.0 with no terms
    for run in (lambda f: density_report(f), poisson_term_count):
        with pytest.raises(ValueError, match="tail_tol nan must exceed"):
            run(family(1e5, tail_tol=float("nan")))


def test_poisson_tail_tol_monotone(fam_250):
    # tighter tolerance keeps at least as many dual terms
    loose = poisson_term_count(dataclasses.replace(fam_250, tail_tol=1e-6))
    tight = poisson_term_count(dataclasses.replace(fam_250, tail_tol=1e-12))
    assert tight >= loose > 0


# -- conductor average and assembled statistic -----------------------------

def test_conductor_term_banded(fam_1e3):
    c, lo, hi = conductor_term(fam_1e3)
    assert lo <= c <= hi
    assert 0 < lo and hi < 4


def test_check_lattice_finds_every_singular_curve():
    for box in [(-2, 1, 0.5, 1), (-2, 1, -1, -0.5), (-1, 1, -1, 1), (0.5, 1, 0.5, 1),
                (-3, -1, 0.1, 0.4), (-0.5, 0.5, 0.2, 0.9)]:
        f = family(1e3, box=box)
        a0, a1 = math.floor(box[0] * f.a_scale) + 1, math.ceil(box[1] * f.a_scale) - 1
        b0, b1 = math.floor(box[2] * f.b_scale) + 1, math.ceil(box[3] * f.b_scale) - 1
        singular = [(a, b) for a in range(a0, a1 + 1) for b in range(b0, b1 + 1)
                    if 4 * a**3 + 27 * b**2 == 0]
        if singular:
            with pytest.raises(ValueError, match="singular curve"):
                check_lattice(f)
        else:
            check_lattice(f)
    with pytest.raises(ValueError, match="axis 0"):
        check_lattice(family(8.0, box=(0.5, 0.51, 0.5, 1)))


def test_conductor_term_matches_scalar_route(fam_250):
    from ecdensity.curves import conductor
    f = fam_250
    ax, bx = _brute_family(f)
    lx = f.log_x
    num = num_lo = num_hi = den = 0.0
    for a, wa in ax:
        for b, wb in bx:
            w = wa * wb
            info = conductor(a, b)
            num += w * math.log(info.n)
            num_lo += w * math.log(info.n_lo)
            num_hi += w * math.log(info.n_hi)
            den += w
    c, lo, hi = conductor_term(f)
    assert c == pytest.approx(num / den / lx, rel=1e-10)
    assert lo == pytest.approx(num_lo / den / lx, rel=1e-10)
    assert hi == pytest.approx(num_hi / den / lx, rel=1e-10)


def test_rank_bound_exact_values():
    assert rank_bound_exact(Fraction(7, 10)) == Fraction(27, 14)
    assert rank_bound_exact(Fraction(2, 3)) == Fraction(2)
    assert isinstance(rank_bound_exact(Fraction(1, 2)), Fraction)


def test_density_report_consistency(fam_1e3):
    rep = density_report(fam_1e3)
    assert isinstance(rep, DensityReport)
    assert fam_1e3.x ** float(fam_1e3.nu) <= TABLE_CAP
    assert rep.method == "direct"
    assert rep.w == pytest.approx(w_total(fam_1e3), rel=1e-14)
    assert rep.p1_over_w == pytest.approx(rep.p1 / rep.w, rel=1e-14)
    assert rep.p2_over_w == pytest.approx(rep.p2 / rep.w, rel=1e-14)
    want = (rep.c * fam_1e3.phi.phihat0 + 0.5 * fam_1e3.phi.phi0
            - (rep.p1 + rep.p2) / rep.w)
    assert rep.assembled == pytest.approx(want, rel=1e-13)
    assert rep.gap == pytest.approx(abs(rep.assembled - rep.predicted))
    assert rep.rank_bound == Fraction(27, 14)
    assert rep.warnings == ()
    assert rep.term_counts["p1_terms"] == direct_term_count(fam_1e3)
    assert rep.term_counts["p1_primes"] > 0


def test_density_report_methods_agree(fam_250):
    d = density_report(fam_250, method="direct")
    p = density_report(fam_250, method="poisson")
    assert p.method == "poisson"
    # report-level runs keep the default tail_tol truncation, so the gate
    # here is looser than the tight-tolerance route comparison above
    assert d.p1 == pytest.approx(p.p1, abs=1e-6 * max(1.0, abs(d.p1)))
    assert d.p2 == p.p2                    # P2 has a single route
    with pytest.raises(ValueError):
        density_report(fam_250, method="nonsense")


def test_density_report_warns_beyond_proven_support():
    rep = density_report(family(250.0, nu=Fraction(3, 4)))
    assert any("7/10" in w for w in rep.warnings)


def test_predicted_value_at_default_support(fam_1e3):
    rep = density_report(fam_1e3)
    assert rep.predicted == pytest.approx(1.35)


# -- serialization ---------------------------------------------------------

def test_sweep_csv_shape_and_determinism():
    r1 = density_report(family(250.0))
    r2 = density_report(family(250.0))
    csv1 = sweep_csv([r1])
    csv2 = sweep_csv([r2])
    assert csv1 == csv2
    header, row = csv1.strip().split("\n")
    cols = header.split(",")
    assert cols[0] == "X" and "assembled" in cols and "nu" in cols
    assert len(row.split(",")) == len(cols)
    # floats round-trip exactly through repr
    vals = dict(zip(cols, row.split(",")))
    assert float(vals["assembled"]) == r1.assembled
    assert vals["nu"] == "7/10"


def test_cached_report_matches_uncached(tmp_path):
    # the pipeline reads table slices from the cache; the row must not move,
    # on the cold fill or on the warm re-read
    want = sweep_csv([density_report(family(1e3))])
    f = family(1e3, cache_dir=str(tmp_path))
    assert sweep_csv([density_report(f)]) == want
    assert len(list(tmp_path.glob("*.frbt"))) == len(_prime_weights(f, 1)[0])
    assert sweep_csv([density_report(f)]) == want


def test_report_json_round_trip(fam_250):
    rep = density_report(fam_250)
    blob = json.loads(report_json(rep))
    assert blob["X"] == 250.0
    assert blob["method"] == rep.method
    assert blob["assembled"] == rep.assembled
    assert blob["rank_bound"] == "27/14"
    assert rep.method == "direct" and blob["P1_imag_leak"] is None
    dual = density_report(fam_250, method="poisson")
    blob = json.loads(report_json(dual))
    assert isinstance(dual.p1_imag_leak, float)
    assert blob["P1_imag_leak"] == dual.p1_imag_leak < 1e-9 * abs(dual.p1)
    ax, bx = _brute_family(fam_250)
    lx = fam_250.log_x
    cells = sum(len({a % p for a, _ in ax}) * len({b % p for b, _ in bx})
                for p in _primes_upto(int(fam_250.x ** 0.7) + 2)
                if math.log(p) / lx < 0.7)
    assert rep.term_counts["p1_cells"] == cells < rep.term_counts["p1_terms"]
    counts = blob["term_counts"]
    assert counts == dual.term_counts and 4 * counts["p1_cells"] >= counts["p1_terms"] > 0


def test_p2_prediction_in_json_not_csv(fam_250):
    # the complete-residue average of lambda^2 - p is -1; ROADMAP's table
    # gives the prediction -1.26e-2 at X = 1e4 and -1.41e-2 at 1e5
    assert p2_predicted_over_w(family(1e4)) == pytest.approx(-1.26e-2, rel=1e-2)
    assert p2_predicted_over_w(family(1e5)) == pytest.approx(-1.41e-2, rel=1e-2)
    rep = density_report(fam_250)
    assert rep.p2_predicted_over_w == p2_predicted_over_w(fam_250) < 0
    blob = json.loads(report_json(rep))
    assert blob["P2_predicted_over_W"] == rep.p2_predicted_over_w
    assert "P2_over_W" in blob
    assert "predicted_over" not in sweep_csv([rep])


# -- dyadic block and its character expansion ------------------------------

def test_g_dyadic_window():
    assert g_dyadic(1.5) == pytest.approx(math.exp(-4.0), rel=1e-14)
    assert g_dyadic(1.0) == 0.0
    assert g_dyadic(2.0) == 0.0
    assert g_dyadic(0.5) == 0.0


def test_char_expansion_exact(fam_250):
    for h, k, p in ((4, 6, 50), (3, 4, 40)):
        chk = verify_char_expansion(h, k, p, fam_250)
        assert chk.rel_err < 1e-8
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-8 * max(1e-300, abs(chk.lhs)))


def test_char_expansion_rhs_is_genuinely_computed(fam_250):
    # the identity must not pass vacuously: the block itself is nonzero
    chk = verify_char_expansion(4, 6, 50, fam_250)
    assert abs(chk.lhs) > 0


def test_q_dk_chi_requires_divisibility(fam_250):
    with pytest.raises(ValueError):
        q_dk_chi(5, 3, 4.0, 6.0, 50.0, fam_250)


@pytest.mark.parametrize("d, k, h_size, k_size, p_size", [
    pytest.param(1, 7, 4, 6, 4, id="window-prime-7-divides-k"),
    pytest.param(2, 6, 6, 4, 50, id="d0^3/d-shares-2-with-q-18"),
    pytest.param(9, 9, 5, 6, 30, id="d0^3/d-shares-3-with-q-9"),
    pytest.param(1, 8, 3, 5, 40, id="q-64-two-generators"),
])
def test_q_dk_chi_matches_scalar_oracle(fam_250, d, k, h_size, k_size, p_size):
    # every character's Q from the table contraction against the term-by-term
    # sum over char_eval values, entry by entry
    got = q_dk_chi(d, k, h_size, k_size, p_size, fam_250)
    want = [q_dk_chi_scalar(d, k, chi, h_size, k_size, p_size, fam_250)
            for chi in enumerate_characters(k * k // d)]
    assert np.count_nonzero(want) == len(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_q_dk_chi_empty_windows_give_zeros(fam_250):
    # no prime in (1, 2), no h in (0.05, 0.1): one zero per character mod 49
    for h_size, p_size in ((4.0, 1.0), (0.1, 50.0)):
        assert q_dk_chi(1, 7, h_size, 6.0, p_size, fam_250).tolist() == [0j] * 42


def test_char_expansion_reads_no_scalar_character(fam_250, monkeypatch):
    # counted where characters calls it and where density would import it
    calls = []
    real = characters.char_eval
    counted = lambda chi, n: calls.append(n) or real(chi, n)  # noqa: E731
    monkeypatch.setattr(characters, "char_eval", counted)
    monkeypatch.setattr(density, "char_eval", counted, raising=False)
    assert verify_char_expansion(4, 6, 50, fam_250).rel_err < 1e-8
    assert calls == []


def test_s_hkp_direct_empty_prime_window(fam_250):
    # a window below the smallest admissible prime has no terms
    assert s_hkp_direct(4.0, 6.0, 1.0, fam_250) == 0


# -- zero lists and the explicit-formula crosscheck ------------------------

def test_parse_zero_file_round_trip(tmp_path):
    zl = ZeroList("test(1,2)", 12.5, (0.0, 1.25, 3.5))
    path = tmp_path / "z.txt"
    write_zero_file(path, zl)
    back = parse_zero_file(path)
    assert back == zl


def test_parse_zero_file_errors(tmp_path):
    path = tmp_path / "z.txt"

    path.write_text("1.0\n2.0\n")
    with pytest.raises(ZeroFileError) as e:
        parse_zero_file(path)
    assert e.value.line_no == 1

    path.write_text("# curve=c T=ten\n1.0\n")
    with pytest.raises(ZeroFileError):
        parse_zero_file(path)

    path.write_text("# curve=c T=10\n1.0\nfoo\n")
    with pytest.raises(ZeroFileError) as e:
        parse_zero_file(path)
    assert e.value.line_no == 3

    path.write_text("# curve=c T=10\n2.0\n1.0\n")
    with pytest.raises(ZeroFileError) as e:
        parse_zero_file(path)
    assert e.value.line_no == 3

    path.write_text("# curve=c T=10\n-1.0\n")
    with pytest.raises(ZeroFileError):
        parse_zero_file(path)

    # a height that is not finite and >= 0, and a non-finite ordinate (a nan
    # would otherwise switch off the order check for the lines after it)
    for height in ("inf", "nan", "-5", "-inf"):
        path.write_text(f"# curve=c T={height}\n1.0\n")
        with pytest.raises(ZeroFileError) as e:
            parse_zero_file(path)
        assert e.value.line_no == 1
    for text, line_no in (("1.0\nnan\n3.0\n2.0\n", 3), ("1.0\n2.0\ninf\n", 4),
                          ("-inf\n", 2)):
        path.write_text("# curve=c T=10\n" + text)
        with pytest.raises(ZeroFileError) as e:
            parse_zero_file(path)
        assert e.value.line_no == line_no


def test_parse_zero_file_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("# curve=c T=10\n\n# interior comment\n1.0\n\n2.0\n")
    assert parse_zero_file(path).gammas == (1.0, 2.0)


def test_frozen_zero_list_parses():
    zl = parse_zero_file(ZERO_FILE)
    assert zl.height == 22.0
    assert zl.gammas[0] == 0.0             # central zero of the rank-1 curve
    assert zl.gammas[1] == pytest.approx(5.00317001401, abs=1e-9)
    assert len(zl.gammas) == 15
    assert all(b > a for a, b in zip(zl.gammas, zl.gammas[1:]))


def test_crosscheck_passes_on_frozen_curve():
    zl = parse_zero_file(ZERO_FILE)
    rep = explicit_formula_crosscheck(zl, -16, 16, family(1e4))
    assert isinstance(rep, CrosscheckReport)
    assert rep.passed
    assert rep.gap_band <= rep.budget
    assert rep.tail_bound <= 0.1 * rep.budget
    assert rep.conductor_info.n_lo == 37
    assert rep.rhs_lo <= rep.rhs <= rep.rhs_hi
    # the zeros side really sums the listed ordinates
    f = family(1e4)
    scale = f.log_x / (2 * math.pi)
    want = sum((1.0 if g == 0 else 2.0) * float(f.phi.phi(g * scale))
               for g in zl.gammas)
    assert rep.lhs == pytest.approx(want, rel=1e-12)


def test_crosscheck_rejects_short_list():
    zl = parse_zero_file(ZERO_FILE)
    kept = tuple(g for g in zl.gammas if g <= 3.0)
    short = ZeroList(zl.label, 3.0, kept)
    with pytest.raises(ZeroListTooShort) as e:
        explicit_formula_crosscheck(short, -16, 16, family(1e4))
    assert e.value.required == 15.1875          # 3 * 1.5**4
    # a height-0 list: the tail integral from the 1e-9 floor is huge, not
    # negative, so the list is too short however few zeros it misses
    with pytest.raises(ZeroListTooShort) as e:
        explicit_formula_crosscheck(ZeroList(zl.label, 0.0, ()), -16, 16, family(1e4))
    assert e.value.required > 3.0
