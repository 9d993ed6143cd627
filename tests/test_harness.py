"""Inequality harnesses: strict constant-1 checks and ratio recorders."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from ecdensity.harness import (
    CONSTANT_ONE,
    RatioReport,
    WellSpacedSet,
    dirichlet_meanvalue_check,
    dirichlet_meanvalue_suite,
    expsum_ratio,
    gallagher_integral_ratio,
    gallagher_integral_suite,
    gallagher_spacing_check,
    gallagher_spacing_suite,
    harness_csv,
    heathbrown_ratio,
    heathbrown_suite,
    large_sieve_check,
    large_sieve_suite,
    lemma_f_growth,
    weyl_ratio,
)


# -- character large sieve (constant exactly 1) ----------------------------

def test_large_sieve_simple_instance():
    # constant sequence on a full period: the principal character soaks up
    # everything, and the bound still holds
    q, n = 5, 5
    lhs, rhs, ok = large_sieve_check(q, 0, n, np.ones(n))
    assert ok
    assert lhs <= rhs
    assert rhs == (q + n) * n


def test_large_sieve_extremal_single_point():
    # one nonzero coefficient: lhs = phi(q) |a|^2 <= (q+1) |a|^2
    lhs, rhs, ok = large_sieve_check(7, 1, 1, [2.0])
    assert ok
    assert lhs == pytest.approx(6 * 4.0)
    assert rhs == pytest.approx(8 * 4.0)


def test_large_sieve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        large_sieve_check(0, 0, 3, [1, 2, 3])
    with pytest.raises(ValueError):
        large_sieve_check(5, 0, 3, [1, 2])


def test_large_sieve_suite_all_pass():
    rep = large_sieve_suite(trials=60)
    assert rep.failures == 0
    assert rep.instances == 60
    assert rep.max_ratio <= 1.0 + 1e-12
    assert 0 < rep.p50 <= rep.p90 <= rep.max_ratio


def test_passed_holds_constant_one_suites_to_gate_07():
    rep = large_sieve_suite(trials=100)
    assert rep.lemma in CONSTANT_ONE and rep.failures == 0 and rep.passed
    assert not dataclasses.replace(rep, instances=99).passed
    assert not dataclasses.replace(rep, failures=1).passed
    assert not dataclasses.replace(rep, max_ratio=1.0 + 1e-9).passed
    assert not dataclasses.replace(rep, max_ratio=math.nan).passed
    # a harnessed constant is only held to its failure count
    other = dataclasses.replace(rep, lemma="heathbrown", instances=8, max_ratio=3.0)
    assert other.passed and not dataclasses.replace(other, failures=1).passed


def test_large_sieve_suite_seeded_reproducible():
    a = large_sieve_suite(trials=25, seed=7)
    b = large_sieve_suite(trials=25, seed=7)
    assert a.ratios == b.ratios


# -- quadratic-symbol sieve (harnessed constant) ---------------------------

def test_heathbrown_ratio_basic(rng):
    vals = []
    for p_size, n in ((50, 50), (80, 120)):
        a = np.array([1.0 if rng.random() < 0.5 else 0.0 for _ in range(n)])
        if not a.any():
            a[0] = 1.0
        r = heathbrown_ratio(p_size, n, a)
        assert r is not None and r > 0
        vals.append(r)
    assert all(math.isfinite(v) for v in vals)


def _euler(n: int, p: int) -> int:
    return 0 if n % p == 0 else (1 if pow(n, (p - 1) // 2, p) == 1 else -1)


def test_heathbrown_ratio_matches_euler_criterion(rng):
    # P = 3 takes the primes 3 and 5; n runs past both so (n/p) wraps
    n = 40
    a = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
    for p_size in (3, 20):
        lhs = sum(abs(sum(_euler(j, p) * a[j - 1] for j in range(1, n + 1))) ** 2
                  for p in range(p_size, 2 * p_size)
                  if all(p % d for d in range(2, math.isqrt(p) + 1)))
        denom = sum(abs(a[n1 - 1] * a[q * q // n1 - 1])
                    for q in range(1, n + 1) for n1 in range(1, n + 1)
                    if q * q % n1 == 0 and q * q // n1 <= n)
        assert heathbrown_ratio(p_size, n, a) == pytest.approx(
            lhs / ((p_size + n) * denom), rel=1e-12)
    with pytest.raises(ValueError):
        heathbrown_ratio(2, n, a)


def test_heathbrown_ratio_zero_denominator():
    assert heathbrown_ratio(50, 3, [0.0, 0.0, 0.0]) is None


def test_heathbrown_suite_runs():
    rep = heathbrown_suite(sizes=((40, 40), (80, 80)))
    assert rep.instances == 4            # squarefree + random per size
    assert rep.max_ratio > 0


# -- point sampling of trigonometric polynomials (constant 1) --------------

def test_gallagher_spacing_simple_case():
    s = lambda t: math.sin(t)
    sp = lambda t: math.cos(t)
    pts = [0.5, 1.7, 2.9, 4.1]
    lhs, rhs, ok = gallagher_spacing_check(s, sp, pts, 0.0, 5.0, 1.0)
    assert ok
    assert lhs <= rhs + 1e-6


def test_gallagher_spacing_rejects_crowded_points():
    s = lambda t: 1.0
    with pytest.raises(ValueError):
        gallagher_spacing_check(s, s, [1.0, 1.2], 0.0, 5.0, 1.0)
    with pytest.raises(ValueError):
        # point outside the shrunk window [T0 + d/2, T0 + T - d/2]
        gallagher_spacing_check(s, s, [0.1], 0.0, 5.0, 1.0)


def test_gallagher_spacing_suite_all_pass():
    rep = gallagher_spacing_suite(trials=40)
    assert rep.failures == 0
    assert rep.instances == 40


# -- second Gallagher lemma, exact event-sweep right side ------------------

def test_gallagher_integral_single_frequency_is_two():
    for n0, t in ((1, 1.0), (7, 3.5), (120, 11.0)):
        assert gallagher_integral_ratio({n0: 2.3 + 1.1j}, t) == pytest.approx(2.0, rel=1e-12)


def test_gallagher_integral_list_coefficients():
    r = gallagher_integral_ratio([1.0, 0.5, 0.25], 2.0)
    assert math.isfinite(r) and r > 0


def test_gallagher_integral_validates_input():
    with pytest.raises(ValueError):
        gallagher_integral_ratio({3: 1.0}, 0.5)
    with pytest.raises(ValueError):
        gallagher_integral_ratio({}, 2.0)
    with pytest.raises(ValueError):
        gallagher_integral_ratio({0: 1.0}, 2.0)


def test_gallagher_integral_suite_runs():
    rep = gallagher_integral_suite(trials=20)
    assert rep.instances == 20
    assert rep.max_ratio > 0
    assert rep.p50 <= rep.max_ratio


# -- well-spaced zero sets and the mean-value bound ------------------------

def test_well_spaced_set_accepts_valid():
    pts = (0.6 + 0j, 0.9 + 2.5j, 0.7 - 2.5j)
    ws = WellSpacedSet(pts, 1.0, 0.5, 10.0)
    assert ws.delta == 1.0


def test_well_spaced_set_rejects_violations():
    with pytest.raises(ValueError):
        WellSpacedSet((0.6 + 0j, 0.6 + 0.5j), 1.0, 0.5, 10.0)
    with pytest.raises(ValueError):
        WellSpacedSet((2.0 + 0j,), 1.0, 0.5, 10.0)      # beta out of range
    with pytest.raises(ValueError):
        WellSpacedSet((0.6 + 99j,), 1.0, 0.5, 10.0)      # above t_max
    with pytest.raises(ValueError):
        WellSpacedSet((0.6 + 0j,), -1.0, 0.5, 10.0)


def test_dirichlet_meanvalue_check_finite(rng):
    q = 7
    a = np.array([rng.random() for _ in range(30)])
    from ecdensity.characters import enumerate_characters
    sets = [tuple(0.5 + 1j * (3.0 * i + 0.1 * j) for i in range(3))
            for j, _ in enumerate(enumerate_characters(q))]
    lhs, rhs, ratio = dirichlet_meanvalue_check(q, a, sets, 0.5, 30.0)
    assert lhs >= 0 and rhs > 0
    assert ratio == pytest.approx(lhs / rhs)


def test_dirichlet_meanvalue_check_needs_one_set_per_character():
    with pytest.raises(ValueError):
        dirichlet_meanvalue_check(7, np.ones(10), [(0.5 + 1j,)], 0.5, 30.0)


def test_dirichlet_meanvalue_suite_runs():
    rep = dirichlet_meanvalue_suite(trials=10)
    assert rep.instances == 10
    assert rep.max_ratio > 0


# -- divisor-kernel growth fits --------------------------------------------

def test_growth_fit_mechanics():
    fits = lemma_f_growth(3000)
    assert len(fits) == 6
    for fit in fits:
        assert len(fit.grid) == len(fit.sums)
        assert fit.grid[0] >= 2 and fit.grid[-1] <= 3000
        assert list(fit.grid) == sorted(set(fit.grid))
        assert all(s > 0 for s in fit.sums)
        assert all(b >= a for a, b in zip(fit.sums, fit.sums[1:]))
        assert math.isfinite(fit.slope)
        # ok is a pure predicate on the fit, not a separate measurement
        assert fit.ok == (fit.slope <= fit.stated_exponent + 0.1)


def test_growth_fit_slope_matches_least_squares():
    fit = lemma_f_growth(2000)[3]
    xs = [math.log(d) for d in fit.grid]
    ys = [math.log(s) for s in fit.sums]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    assert fit.slope == pytest.approx(slope, rel=1e-9)


def test_growth_fit_convergent_sums_pass():
    # the 1/sqrt(d') sum and the last sum have little or no divisor-kernel
    # excess; they land inside the margin already at moderate range
    fits = lemma_f_growth(20000)
    assert fits[3].ok, fits[3].slope
    assert fits[5].ok, fits[5].slope
    assert fits[5].slope < 0.05


def test_growth_fit_excess_shrinks_with_range():
    # the remaining sums carry polylog factors: the fitted slope must
    # decrease toward the stated exponent as the range grows
    lo = lemma_f_growth(3000)
    hi = lemma_f_growth(30000)
    for a, b in zip(lo, hi):
        excess_lo = a.slope - a.stated_exponent
        excess_hi = b.slope - b.stated_exponent
        assert excess_hi < excess_lo + 1e-9, a.name


def test_growth_fit_requires_range():
    # Dmax < 100 is refused before the grid is built (a negative one would
    # make it complex); 100 and 101 collapse the 12-point grid to 1 and 2
    # distinct D, too few for a slope; 102 is the least Dmax that fits
    for dmax in (-5, 0, 50, 100, 101):
        with pytest.raises(ValueError):
            lemma_f_growth(dmax)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(lemma_f_growth(102)[0].grid) == 3


# -- exponential-sum harnesses ---------------------------------------------

def test_expsum_ratio_runs_and_seeds():
    a = expsum_ratio(16, 32, 1, 1, trials=3, seed=11)
    b = expsum_ratio(16, 32, 1, 1, trials=3, seed=11)
    assert a.ratios == b.ratios
    assert a.instances == 3
    assert all(r > 0 for r in a.ratios)


def test_expsum_ratio_rejects_huge_instances():
    with pytest.raises(ValueError):
        expsum_ratio(10**5, 10**4, 1, 1)


def test_weyl_ratio_runs():
    rep = weyl_ratio(8, 64, 3, trials=2)
    assert rep.instances == 2
    assert all(r > 0 for r in rep.ratios)


# -- report plumbing -------------------------------------------------------

def test_harness_csv_layout():
    rep = large_sieve_suite(trials=5)
    text = harness_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == "lemma,params,seed,ratio"
    assert len(lines) == 1 + rep.instances
    assert all(line.startswith("large_sieve,") for line in lines[1:])
    # deterministic
    assert text == harness_csv([large_sieve_suite(trials=5)])


def test_ratio_report_quantiles_ordered():
    rep = gallagher_integral_suite(trials=12)
    p50, p90, mx = rep.quantiles
    assert p50 <= p90 <= mx
