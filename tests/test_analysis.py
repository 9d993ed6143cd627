"""Test-function pairs, bump weights, transforms, Poisson summation."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ecdensity.analysis import (
    _PROFILE_BINS,
    _PROFILE_SAMPLES,
    DEFAULT_BOX,
    GaussianPair,
    SmoothWeight,
    bump,
    fejer_pair,
    _unit_bump_constants,
    poisson_mod_l_check,
    verify_fourier_pair,
)


def test_bump_values():
    assert bump(0.5) == pytest.approx(math.exp(-4.0), rel=1e-15)
    assert bump(0.0) == 0.0
    assert bump(1.0) == 0.0
    assert bump(-0.3) == 0.0
    assert bump(1.7) == 0.0
    # symmetric about 1/2, maximal there
    ts = np.linspace(0.01, 0.99, 57)
    assert np.allclose(bump(ts), bump(1.0 - ts), rtol=1e-14)
    assert bump(ts).max() <= bump(0.5)


def test_bump_matches_the_plain_expression_bit_for_bit():
    rng = np.random.default_rng(2)
    ts = np.concatenate([rng.uniform(-0.5, 1.5, 4096), (np.arange(4096) + 0.5) / 4096,
                         [0.0, 1.0, -0.0, np.nan, np.inf, 1e-300, 1.0 - 1e-16]])
    inside = (ts > 0.0) & (ts < 1.0)
    tt = np.where(inside, ts, 0.5)
    want = np.where(inside, np.exp(-1.0 / (tt * (1.0 - tt))), 0.0)
    assert bump(ts).tobytes() == want.tobytes()
    assert bump(ts[:8192].reshape(64, -1)).tobytes() == want[:8192].tobytes()
    assert np.array([bump(float(t)) for t in ts[-64:]]).tobytes() == want[-64:].tobytes()


def test_bump_vectorized_no_overflow():
    ts = np.array([-1e6, 0.0, 1e-12, 0.5, 1.0 - 1e-12, 2.0, 1e9])
    out = bump(ts)
    assert np.all(np.isfinite(out))
    assert out[0] == out[-1] == 0.0


def test_fejer_pair_values():
    pair = fejer_pair(Fraction(7, 10))
    assert pair.nu == Fraction(7, 10)
    assert pair.phi0 == pytest.approx(0.7)
    assert pair.phihat0 == 1.0
    assert pair.phihat_support == pytest.approx(0.7)
    assert pair.phihat(0.35) == pytest.approx(0.5)
    assert pair.phihat(0.7) == 0.0
    assert pair.phihat(-0.2) == pytest.approx(1.0 - 0.2 / 0.7)
    assert pair.phihat(5.0) == 0.0
    # phi(x) = sin^2(pi nu x) / (pi^2 nu x^2)
    for x in (0.3, 1.0, 2.7):
        want = math.sin(math.pi * 0.7 * x) ** 2 / (math.pi**2 * 0.7 * x * x)
        assert pair.phi(x) == pytest.approx(want, rel=1e-12)
    assert pair.phi(0.0) == pytest.approx(0.7)


def test_fejer_pair_accepts_strings_and_rejects_bad_nu():
    assert fejer_pair("2/3").nu == Fraction(2, 3)
    assert fejer_pair(1).nu == Fraction(1)
    for bad in (0, -1, Fraction(11, 10)):
        with pytest.raises(ValueError):
            fejer_pair(bad)


def test_fourier_pair_numerically():
    pair = fejer_pair(Fraction(7, 10))
    worst = verify_fourier_pair(pair, [0.0, 0.2, 0.35, 0.55, 0.7, 1.0, 2.3])
    assert worst < 1e-6


def test_fourier_pair_other_nu():
    worst = verify_fourier_pair(fejer_pair(Fraction(2, 3)), [0.0, 0.4, 0.9])
    assert worst < 1e-6


def test_smooth_weight_center_value():
    w = SmoothWeight()
    assert w.box == DEFAULT_BOX
    assert w.w(0.75, 0.75) == pytest.approx(math.exp(-8.0), rel=1e-13)
    assert w.w(0.5, 0.75) == 0.0
    assert w.w(0.75, 1.0) == 0.0
    assert w.w(0.2, 0.75) == 0.0
    # separability
    assert w.w(0.8, 0.6) == pytest.approx(
        float(w.axis_weight(0, 0.8) * w.axis_weight(1, 0.6)), rel=1e-14)


def test_smooth_weight_rejects_degenerate_box():
    # an edge that is not finite too: an infinite one once gave mass nan
    for box in ((1.0, 0.5, 0.5, 1.0), (0.5, math.inf, 0.5, 1.0), (0.5, 1.0, -math.inf, 1.0),
                (0.5, 1.0, 0.5, math.nan)):
        with pytest.raises(ValueError, match="invalid weight box"):
            SmoothWeight(box)


def test_axis_transform_against_quadrature():
    w = SmoothWeight((0.5, 1.0, 0.25, 2.0))
    for i, (lo, hi) in enumerate(((0.5, 1.0), (0.25, 2.0))):
        for u in (0.0, 0.7, -3.2):
            re, _ = quad(lambda x: float(w.axis_weight(i, x))
                         * math.cos(2 * math.pi * u * x), lo, hi, limit=200)
            im, _ = quad(lambda x: -float(w.axis_weight(i, x))
                         * math.sin(2 * math.pi * u * x), lo, hi, limit=200)
            got = complex(w.axis_transform(i, u))
            assert got == pytest.approx(complex(re, im), abs=1e-12)


# n * step stays in the band |u| <= 41 where the quadrature is trusted; the
# last two are the widest progressions the pipeline builds, (A/p, hmax) at the
# top P1 prime p = 15823 of X = 1e6 and at p = 79427 with A = 1e7^(1/3)
PROGRESSIONS = [(0.5, 0), (0.5, 1), (1.3, 15), (0.31, 7), (0.1, 205), (0.0146, 1400),
                (0.0293, 1400), (0.00631991404916893, 3243),
                (0.0027124714392232907, 7557)]


@pytest.mark.parametrize("step, n", PROGRESSIONS)
def test_axis_progression_matches_axis_transform(step, n):
    w = SmoothWeight((0.5, 1.0, 0.25, 2.0))
    j = np.arange(n + 1)
    for i in (0, 1):
        v = w.axis_progressions(i, [step], n)
        assert v.shape == (1, n + 1)
        want = w.axis_transform(i, j * step)
        assert np.abs(v[0] - want).max() <= 1e-16
        # the dual fold reads v(-j) as conj v(j): the full-node oracle's
        # negative half is that mirror to the bit
        assert np.array_equal(w.axis_transform(i, -j * step), want.conj())


@pytest.mark.parametrize("box", [DEFAULT_BOX, (0.5, 1.0, 0.25, 2.0)])
def test_grouped_progressions_match_axis_transform(box):
    # one call for every step, padded to the longest n; each row's own
    # prefix is checked against the full-node oracle
    w = SmoothWeight(box)
    steps = [s for s, _ in PROGRESSIONS]
    nmax = max(n for _, n in PROGRESSIONS)
    for i in (0, 1):
        rows = w.axis_progressions(i, steps, nmax)
        assert rows.shape == (len(steps), nmax + 1)
        for row, (step, n) in zip(rows, PROGRESSIONS):
            want = w.axis_transform(i, np.arange(n + 1) * step)
            assert np.abs(row[: n + 1] - want).max() <= 1e-16


def _pairs_about_centre(xs, wf, lo, hi) -> bool:
    """Nodes c +- d to rounding, and weights equal across each pair up to an
    odd part (half the summed |difference|, all the half-node form drops)
    within rounding of the axis mass: the premise of axis_progressions."""
    c, scale = 0.5 * (lo + hi), max(abs(lo), abs(hi))
    return (np.abs(xs + xs[::-1] - 2.0 * c).max() <= 4.0 * np.finfo(float).eps * scale
            and 0.5 * np.abs(wf - wf[::-1]).sum() <= 1e-15 * wf.sum())


@pytest.mark.parametrize("box", [DEFAULT_BOX, (0.5, 1.0, 0.25, 2.0), (-3.0, -1.0, 0.1, 0.4)])
def test_quadrature_nodes_pair_about_axis_centre(box):
    w = SmoothWeight(box)
    for lo, hi, xs, wf in w._ax:
        assert _pairs_about_centre(xs, wf, lo, hi)
        bad = wf.copy()
        bad[120] *= 1.0 + 1e-12  # one weight of the pair (120, 135)
        assert not _pairs_about_centre(xs, bad, lo, hi)


def test_axis_progression_against_mpmath():
    mp = pytest.importorskip("mpmath")
    w = SmoothWeight()
    lo, hi = DEFAULT_BOX[:2]

    def exact(u):
        def f(x):
            t = (x - lo) / (hi - lo)
            return mp.exp(-1 / (t * (1 - t)) - 2j * mp.pi * x * u)
        with mp.workdps(30):
            return complex(mp.quad(f, mp.linspace(lo, hi, 9)))

    for u in (0.0, 1.3, 10.7, 20.49):
        step = u / 10  # j = 10 = 2 * 4 + 2 reaches both factor tables
        v = w.axis_progressions(0, [step], 10)
        want = exact(10 * mp.mpf(step))
        assert abs(v[0, 10] - want) <= 1e-16
        assert abs(complex(w.axis_transform(0, -10 * step)) - want.conjugate()) <= 1e-16


def test_what_factorizes_and_conjugates():
    w = SmoothWeight()
    u, v = 1.3, -0.4
    assert w.what(u, v) == pytest.approx(
        complex(w.axis_transform(0, u)) * complex(w.axis_transform(1, v)),
        rel=1e-12)
    assert w.what(-u, -v) == pytest.approx(w.what(u, v).conjugate(), rel=1e-12)
    assert w.mass > 0
    assert w.mass == pytest.approx(w.axis_mass(0) * w.axis_mass(1), rel=1e-12)


def test_what_grid_matches_scalar():
    # axis_transform on arrays, outer product, against the scalar what
    w = SmoothWeight()
    us = np.array([0.0, 0.5, -1.2])
    vs = np.array([0.3, 2.0])
    grid = np.outer(w.axis_transform(0, us), w.axis_transform(1, vs))
    assert grid.shape == (3, 2)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert grid[i, j] == pytest.approx(w.what(float(u), float(v)), rel=1e-12)


def test_radius_certifies_decay():
    w = SmoothWeight()
    for thresh in (1e-4, 1e-8, 1e-12):
        r = w.radius(0, thresh)
        assert r > 0
        # beyond r the axis transform stays below thresh (small slack for
        # quadrature error of the evaluator itself at the 1e-12 scale)
        us = r + np.linspace(0.0, 40.0, 173)
        mags = np.abs(w.axis_transform(0, us))
        assert mags.max() < 1.05 * thresh
    # tighter thresholds never shrink the radius
    assert w.radius(0, 1e-12) >= w.radius(0, 1e-4)


def test_radius_raises_at_the_envelope_floor():
    # the default box's envelope ends near 7.5e-20: no radius is certified
    # at or below its last value
    w = SmoothWeight()
    du, env = w._env[0]
    assert 1e-20 < env[-1] < 1e-19
    assert w.radius(0, 1e-19) < du * len(env)
    for thresh in (env[-1], 1e-21):
        with pytest.raises(ValueError, match="not certified"):
            w.radius(0, thresh)


def _complex_fft_profile():
    # the envelope's oracle: the same bins from the full complex FFT
    m = _PROFILE_SAMPLES
    samples = bump((np.arange(m) + 0.5) / m)
    return np.abs(np.fft.fft(samples, n=4 * m))[: 4 * _PROFILE_BINS]


ENVELOPE_BOXES = [DEFAULT_BOX, (0.5, 1.0, 0.25, 2.0), (-3.0, -1.0, 0.1, 0.4),
                  (0.25, 0.75, 0.5, 2.0)]


def test_bump_profile_matches_complex_fft():
    want = _complex_fft_profile()
    got = _unit_bump_constants()[2]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * want.max()


@pytest.mark.parametrize("box", ENVELOPE_BOXES)
def test_radius_matches_complex_fft_envelope(box):
    # the radii the dual route asks for, tail_tol over the other axis's mass,
    # read from an envelope built as _axis_envelope builds it but on the oracle
    w = SmoothWeight(box)
    prof = _complex_fft_profile()
    for i in (0, 1):
        lo, hi = box[2 * i], box[2 * i + 1]
        s = hi - lo
        env = 1.15 * np.maximum.accumulate((s * prof / _PROFILE_SAMPLES)[::-1])[::-1]
        du = 1.0 / (4.0 * s)
        for tol in (1e-6, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14):
            thresh = tol / w.axis_mass(1 - i)
            want = du * len(env) if thresh <= env[-1] else du * int(np.argmax(env < thresh))
            assert w.radius(i, thresh) == want


def test_bump_profile_build_stays_small():
    # the profile comes from 2^13-point FFTs of folded samples: about 1.0 MiB
    # traced, against 2.7 MiB for one 2^18-point rfft and 6.6 MiB for the
    # complex FFT of the same padded samples
    tracemalloc.start()
    try:
        _unit_bump_constants.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_gauss_legendre_rule_matches_a_40_digit_reference():
    # Newton on the Legendre recurrence at 40 digits from each float node:
    # every node within 2 ulp of a root of P_256, every weight within 1e-12
    # relative (numpy's eigenvalue-based leggauss is 2.1e-11 off at the
    # ends), and the 40-digit weights sum to 2, so no root is found twice
    mp = pytest.importorskip("mpmath")
    g, w, _ = _unit_bump_constants()
    n = len(g)
    assert np.all(np.diff(g) > 0) and np.array_equal(g, -g[::-1]) and np.array_equal(w, w[::-1])
    total = mp.mpf(0)
    with mp.workdps(40):
        for x0, w0 in zip(g[n // 2:], w[n // 2:]):
            x = mp.mpf(float(x0))
            for step in range(3):
                p0, p1 = mp.mpf(1), x
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                dp = n * (p0 - x * p1) / (1 - x * x)
                if step < 2:
                    x -= p1 / dp
            want = 2 / ((1 - x * x) * dp**2)
            total += 2 * want
            assert abs(mp.mpf(float(x0)) - x) <= 2 * np.spacing(float(x))
            assert abs(mp.mpf(float(w0)) - want) <= 1e-12 * want
        assert abs(total - 2) < mp.mpf(10) ** -30


def test_gaussian_pair_closed_form_transform():
    g = GaussianPair(1.7)
    for u in (0.0, 0.4, 1.1):
        re, _ = quad(lambda x: float(g.w(x)) * math.cos(2 * math.pi * u * x),
                     -30, 30, limit=400)
        assert float(g.what(u)) == pytest.approx(re, abs=1e-12)


def test_poisson_summation_gaussian():
    lhs, rhs = poisson_mod_l_check(GaussianPair(1.0), 7, 3, 5.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    lhs, rhs = poisson_mod_l_check(GaussianPair(0.6), 5, 0, 11.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_poisson_check_rejects_bad_arguments():
    with pytest.raises(ValueError):
        poisson_mod_l_check(GaussianPair(1.0), 0, 0, 1.0)
    with pytest.raises(ValueError):
        poisson_mod_l_check(GaussianPair(1.0), 5, 0, -2.0)
