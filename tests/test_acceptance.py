"""Acceptance checks: one test per release gate, at the stated tolerances.

Each test asserts a gate exactly as stated, so ``pytest -v`` prints one
pass/fail line per gate.  Two gates are currently red and are left red on
purpose rather than loosened:

* gate 08: four of the six divisor-kernel sums carry polylog factors, so
  their fitted slopes at Dmax = 1e5 land 0.03-0.14 above the allowed
  exponent + 0.1 (measured 0.633, 0.373, 0.235, 0.158 against allowances
  0.6, 0.35, 0.1, 0.1).  The excess shrinks as Dmax grows, which is the
  polylog signature, but no feasible range brings it under the margin.
* gate 09: |P2|/W rises from 2.99e-3 at X = 1e3 to 1.42e-2 at X = 1e4
  before flattening, so the non-increasing chain fails at the first step.
  The values themselves are confirmed against a brute-force evaluation in
  test_density.py.

Gates 01-06 check exact identities.  Their ranges, tolerances and time
limits are defined once, in ecdensity.checks.IDENTITY_CHECKS, which
``ecdensity verify identities`` runs as well; each gate here calls its entry
and asserts the result.  Gate 03 adds its own cost claim on top.  Gate 07's
condition is RatioReport.passed, which ``ecdensity verify lemmas`` prints.

The measured values are asserted nowhere else; unit suites check the
mechanics of these paths and stay green.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ecdensity import (
    density_report,
    family,
    lambda_table,
    lemma_f_growth,
    load_table,
    p2_direct,
    rank_bound_exact,
    save_table,
    sweep_csv,
    w_total,
    TableFormatError,
)
from ecdensity.checks import IDENTITY_CHECKS
from ecdensity.density import direct_term_count, poisson_term_count
from ecdensity.harness import CONSTANT_ONE, gallagher_spacing_suite, large_sieve_suite

SEED = 20260823


@pytest.fixture(scope="module")
def reports():
    """Density reports at X = 1e3, 1e4, 1e5 under the default settings."""
    reps = [density_report(family(10.0**k)) for k in (3, 4, 5)]
    assert reps[2].method == "poisson"
    return reps


# -- 01: exact second moment of the trace over the full (a, b) grid ---------

def test_01_second_moment_identity_exact():
    ok, detail = IDENTITY_CHECKS["second_moment"]()
    assert ok, detail


# -- 02: twisted complete sum against its closed form, all residue pairs ----

def test_02_twisted_sum_closed_form_all_pairs():
    ok, detail = IDENTITY_CHECKS["twisted_sums"]()
    assert ok, detail


# -- 03: Poisson-dual path equals the direct path, and is the cheap one -----

def test_03_poisson_dual_equivalence():
    ok, detail = IDENTITY_CHECKS["dual_routes"]()
    assert ok, detail
    f6 = family(1e6)
    assert poisson_term_count(f6) < 0.01 * direct_term_count(f6)


# -- 04: Gauss sum bounds and the real-primitive evaluation -----------------

def test_04_gauss_sum_suite():
    ok, detail = IDENTITY_CHECKS["gauss_sums"]()
    assert ok, detail


# -- 05: cubic characters exist only at the structured moduli ---------------

def test_05_cubic_character_structure():
    ok, detail = IDENTITY_CHECKS["cubic_structure"]()
    assert ok, detail


# -- 06: character-expansion identity for the twisted double sum ------------

def test_06_character_expansion_identity():
    ok, detail = IDENTITY_CHECKS["char_expansion"]()
    assert ok, detail


# -- 07: constant-1 inequalities over randomized instances ------------------

def test_07_constant_one_inequalities():
    # RatioReport.passed: no failure, >= 100 instances, max ratio <= 1 + 1e-12
    for rep in (large_sieve_suite(seed=SEED), gallagher_spacing_suite(seed=SEED)):
        assert rep.lemma in CONSTANT_ONE
        assert rep.passed, (rep.lemma, rep.instances, rep.failures, rep.max_ratio)


# -- 08: divisor-kernel growth fits (red: polylog excess, see module doc) ---

def test_08_growth_fits():
    fits = lemma_f_growth(10**5)
    assert len(fits) == 6
    over = [
        f"{fit.name}: slope {fit.slope:.3f} > {fit.stated_exponent} + 0.1"
        for fit in fits
        if fit.slope > fit.stated_exponent + 0.1
    ]
    assert not over, "; ".join(over)


# -- 09: symmetric-square term decay (red: first step rises, see doc) -------

def test_09_symmetric_square_smallness():
    ratios = []
    for x in (1e3, 1e4, 1e5):
        f = family(x)
        p2 = p2_direct(f)
        assert math.isfinite(p2)
        ratio = abs(p2) / w_total(f)
        assert ratio > 0 and math.isfinite(ratio)
        ratios.append(ratio)
    assert ratios[0] >= ratios[1] >= ratios[2], ratios


# -- 10: density statistic trends toward the predicted value ----------------

def test_10_density_trend(reports):
    gaps = [abs(rep.assembled - rep.predicted) for rep in reports]
    p1s = [abs(rep.p1_over_w) for rep in reports]
    p2s = [abs(rep.p2_over_w) for rep in reports]
    band = [max(rep.c_lo - 1.0, 1.0 - rep.c_hi, 0.0) for rep in reports]
    assert all(rep.predicted == 1.35 for rep in reports)

    def two_consecutive_rises(seq):
        steps = [b > a for a, b in zip(seq, seq[1:])]
        return any(x and y for x, y in zip(steps, steps[1:]))

    for name, seq in (("gap", gaps), ("p1", p1s), ("p2", p2s), ("band", band)):
        assert not two_consecutive_rises(seq), (name, seq)
    # the trend has to be visible, not merely non-divergent
    assert gaps[2] < gaps[0]
    assert p1s[2] < p1s[0]


# -- 11: conditional rank bound as an exact rational ------------------------

def test_11_rank_bound_exact_rationals():
    assert rank_bound_exact(Fraction(7, 10)) == Fraction(27, 14)
    assert rank_bound_exact(Fraction(2, 3)) == Fraction(2, 1)
    rep_a = density_report(family(250.0))
    assert rep_a.rank_bound == Fraction(27, 14)
    rep_b = density_report(family(250.0, nu=Fraction(2, 3)))
    assert rep_b.rank_bound == Fraction(2, 1)


# -- 12: cache integrity and bit-exact rerun determinism --------------------

def test_12_cache_and_determinism(tmp_path):
    tab = lambda_table(29)
    a, b = tmp_path / "a.frbt", tmp_path / "b.frbt"
    save_table(tab, a)
    save_table(tab, b)
    assert a.read_bytes() == b.read_bytes()
    back = load_table(a)
    assert back.p == 29 and np.array_equal(back.table, tab.table)

    raw = bytearray(a.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    a.write_bytes(bytes(raw))
    with pytest.raises(TableFormatError):
        load_table(a)

    def run():
        reps = [density_report(family(x, threads=2)) for x in (250.0, 500.0)]
        return sweep_csv(reps)

    first, second = run(), run()
    assert first == second
