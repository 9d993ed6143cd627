"""Numerical harnesses for the analytic inequalities behind the density bound.

Two kinds of checks live here.  Inequalities whose constant is exactly 1
(the single-modulus character large sieve, Gallagher's point-sampling lemma)
are strict tests: every instance must pass, up to quadrature error.  The
rest carry unspecified implied constants, so they are harnessed instead:
the left/right ratio is recorded over seeded instances and reported with
quantiles, never turned into a pass/fail with an invented threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import divisors, factorize, sieve_primes, smallest_factor_table
from .characters import character_table, enumerate_characters
from .frobenius import legendre_table

CONSTANT_ONE = ("large_sieve", "gallagher_spacing")  # constant exactly 1: gate 07
DEFAULT_SEED = 20260823


@dataclass(frozen=True)
class RatioReport:
    lemma: str
    instances: int
    max_ratio: float
    p50: float
    p90: float
    sizes: dict
    seed: int | None
    ratios: tuple[float, ...]
    failures: int = 0

    @property
    def quantiles(self) -> tuple[float, float, float]:
        return (self.p50, self.p90, self.max_ratio)

    @property
    def passed(self) -> bool:
        """No failure; for CONSTANT_ONE, also gate 07's >= 100 instances, max <= 1 + 1e-12."""
        strict = self.instances >= 100 and self.max_ratio <= 1.0 + 1e-12
        return self.failures == 0 and (strict or self.lemma not in CONSTANT_ONE)


def _make_report(lemma: str, ratios: list[float], sizes: dict,
                 seed: int | None, failures: int = 0) -> RatioReport:
    arr = np.asarray(ratios, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{lemma}: no instances recorded")
    return RatioReport(
        lemma=lemma,
        instances=int(arr.size),
        max_ratio=float(arr.max()),
        p50=float(np.quantile(arr, 0.5)),
        p90=float(np.quantile(arr, 0.9)),
        sizes=sizes,
        seed=seed,
        ratios=tuple(float(r) for r in arr),
        failures=failures,
    )


def harness_csv(reports: list[RatioReport]) -> str:
    """One row per recorded ratio: lemma, params, seed, ratio."""
    lines = ["lemma,params,seed,ratio"]
    for r in reports:
        params = "|".join(f"{k}={v}" for k, v in sorted(r.sizes.items()))
        for v in r.ratios:
            lines.append(f"{r.lemma},{params},{r.seed},{repr(v)}")
    return "\n".join(lines) + "\n"


def _check_well_spaced(points, delta: float, lo: float, hi: float,
                       what: str = "point") -> list[float]:
    pts = sorted(float(t) for t in points)
    eps = 1e-9 * max(1.0, abs(lo), abs(hi))
    for t in pts:
        if not (lo - eps <= t <= hi + eps):
            raise ValueError(f"{what} {t} outside [{lo}, {hi}]")
    for s, t in zip(pts, pts[1:]):
        if t - s < delta - eps:
            raise ValueError(f"{what}s {s} and {t} closer than {delta}")
    return pts


@dataclass(frozen=True)
class WellSpacedSet:
    """Complex points beta + i*gamma with beta in [sigma, sigma+1], |gamma|
    <= t_max, and imaginary parts pairwise >= delta apart."""

    points: tuple[complex, ...]
    delta: float
    sigma: float
    t_max: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("spacing must be positive")
        for rho in self.points:
            beta = rho.real
            if not (self.sigma - 1e-12 <= beta <= self.sigma + 1 + 1e-12):
                raise ValueError(f"Re {rho} outside [{self.sigma}, {self.sigma + 1}]")
            if abs(rho.imag) > self.t_max + 1e-12:
                raise ValueError(f"|Im {rho}| exceeds {self.t_max}")
        _check_well_spaced([rho.imag for rho in self.points], self.delta,
                           -self.t_max, self.t_max, what="ordinate")


# ---------------------------------------------------------------------------
# single-modulus character large sieve (constant 1)


def large_sieve_check(q: int, m: int, n: int, a) -> tuple[float, float, bool]:
    """sum_chi |sum_{M <= j < M+N} a_j chi(j)|^2 against (q+N) sum |a_j|^2."""
    if q < 1 or n < 1:
        raise ValueError("q and N must be >= 1")
    a = np.asarray(a, dtype=complex)
    if a.shape != (n,):
        raise ValueError(f"need {n} coefficients, got shape {a.shape}")
    idx = np.arange(m, m + n) % q
    sums = character_table(q)[1][:, idx] @ a
    lhs = float((np.abs(sums) ** 2).sum())
    rhs = (q + n) * float((np.abs(a) ** 2).sum())
    return lhs, rhs, lhs <= rhs * (1 + 1e-12)


def large_sieve_suite(trials: int = 120, seed: int = DEFAULT_SEED) -> RatioReport:
    rng = np.random.default_rng(seed)
    q_max = n_max = 200
    ratios, failures = [], 0
    for _ in range(trials):
        q = int(rng.integers(1, q_max + 1))
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(0, 50))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs, rhs, ok = large_sieve_check(q, m, n, a)
        ratios.append(lhs / rhs)
        failures += not ok
    return _make_report("large_sieve", ratios,
                        {"q_max": q_max, "n_max": n_max}, seed, failures)


# ---------------------------------------------------------------------------
# quadratic-symbol large sieve (implied constant harnessed)


def heathbrown_ratio(p_size: int, n: int, a) -> float | None:
    """Ratio of sum_{p ~ P} |sum_n a_n (n/p)|^2 to (P+N) sum_{q <= N}
    sum_{n1 n2 = q^2} |a_{n1} a_{n2}|, the epsilon power dropped.  None when
    the diagonal denominator vanishes (a = 0).  Each (n/p) is read from
    legendre_table(p)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (n,):
        raise ValueError(f"need {n} coefficients, got shape {a.shape}")
    ns = np.arange(1, n + 1)
    lhs = 0.0
    for p in sieve_primes(2 * p_size - 1):
        if p >= p_size:
            lhs += abs(legendre_table(p)[ns % p] @ a) ** 2
    denom = 0.0
    mags = np.abs(a)
    for q in range(1, n + 1):
        for n1 in divisors(q * q):
            n2 = q * q // n1
            if n1 <= n and n2 <= n:
                denom += mags[n1 - 1] * mags[n2 - 1]
    if denom == 0.0:
        return None
    return lhs / ((p_size + n) * denom)


def heathbrown_suite(sizes=((50, 50), (100, 100), (200, 200), (400, 400)),
                     seed: int = DEFAULT_SEED) -> RatioReport:
    """Squarefree-indicator and random coefficients across a doubling grid."""
    rng = np.random.default_rng(seed)
    ratios = []
    for p_size, n in sizes:
        sf = np.array([all(e == 1 for _, e in factorize(j).factors)
                       for j in range(1, n + 1)], dtype=float)
        r = heathbrown_ratio(p_size, n, sf)
        if r is not None:
            ratios.append(r)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = heathbrown_ratio(p_size, n, a)
        if r is not None:
            ratios.append(r)
    return _make_report("heathbrown", ratios, {"sizes": tuple(sizes)}, seed)


# ---------------------------------------------------------------------------
# Gallagher point sampling (constant 1)


def gallagher_spacing_check(s, s_prime, points, t0: float, t_len: float,
                            delta: float) -> tuple[float, float, bool]:
    """sum over the delta-spaced points of |S|^2 against
    (1/delta) int |S|^2 + sqrt(int |S|^2) sqrt(int |S'|^2) on [T0, T0+T].
    Quadrature error is folded into the pass tolerance."""
    from scipy.integrate import quad

    if delta <= 0 or t_len < delta:
        raise ValueError("need T >= delta > 0")
    pts = _check_well_spaced(points, delta, t0 + delta / 2, t0 + t_len - delta / 2)
    i2, err2 = quad(lambda t: abs(s(t)) ** 2, t0, t0 + t_len,
                    limit=400, epsabs=1e-12, epsrel=1e-10)
    d2, errd = quad(lambda t: abs(s_prime(t)) ** 2, t0, t0 + t_len,
                    limit=400, epsabs=1e-12, epsrel=1e-10)
    lhs = sum(abs(s(t)) ** 2 for t in pts)
    rhs = i2 / delta + math.sqrt(max(i2, 0.0) * max(d2, 0.0))
    budget = 1e-8 * max(1.0, rhs) + err2 / delta + err2 + errd
    return lhs, rhs, lhs <= rhs + budget


def _random_trig_poly(rng):
    terms = int(rng.integers(1, 7))
    freq = rng.uniform(-5.0, 5.0, terms)
    coef = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)

    def s(t):
        return complex(np.sum(coef * np.exp(1j * freq * t)))

    def s_prime(t):
        return complex(np.sum(coef * 1j * freq * np.exp(1j * freq * t)))

    return s, s_prime


def gallagher_spacing_suite(trials: int = 120, seed: int = DEFAULT_SEED) -> RatioReport:
    rng = np.random.default_rng(seed)
    ratios, failures = [], 0
    for _ in range(trials):
        s, sp = _random_trig_poly(rng)
        delta = float(rng.uniform(0.3, 2.0))
        t_len = delta + float(rng.uniform(0.5, 15.0))
        t0 = float(rng.uniform(-5.0, 5.0))
        lo, hi = t0 + delta / 2, t0 + t_len - delta / 2
        cand = np.sort(rng.uniform(lo, hi, 24))
        pts, last = [], -np.inf
        for t in cand:
            if t - last >= delta:
                pts.append(float(t))
                last = t
        lhs, rhs, ok = gallagher_spacing_check(s, sp, pts, t0, t_len, delta)
        ratios.append(lhs / rhs if rhs > 0 else 0.0)
        failures += not ok
    return _make_report("gallagher_spacing", ratios, {"trials": trials},
                        seed, failures)


# ---------------------------------------------------------------------------
# Gallagher's integral lemma (implied constant harnessed)


def _coeffs(a) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(a, dict):
        ns = np.array(sorted(a), dtype=np.int64)
        cs = np.array([a[int(n)] for n in ns], dtype=complex)
    else:
        cs = np.asarray(a, dtype=complex)
        ns = np.arange(1, cs.size + 1, dtype=np.int64)
    if ns.size == 0 or ns[0] < 1:
        raise ValueError("coefficients must be indexed by n >= 1")
    return ns, cs


def gallagher_integral_ratio(a, t: float) -> float:
    """Ratio of int_{-T}^{T} |sum a_n n^{-it}|^2 dt (closed form) to
    T^2 int_0^inf |sum_{y < n <= tau y} a_n|^2 dy/y with tau = e^{1/T};
    the right side is piecewise-exact since the bracket is a step function.
    A single supported n gives exactly 2."""
    if t < 1:
        raise ValueError("T must be >= 1")
    ns, cs = _coeffs(a)
    logn = np.log(ns.astype(float))
    diff = logn[:, None] - logn[None, :]
    kern = np.where(diff == 0.0, 2.0 * t, 2.0 * np.sin(t * diff)
                    / np.where(diff == 0.0, 1.0, diff))
    lhs = float(np.real(cs @ kern @ cs.conj()))
    events = []
    for z, c in zip(logn, cs):
        events.append((z - 1.0 / t, 1, c))
        events.append((z, -1, c))
    events.sort(key=lambda e: (e[0], e[1]))
    cur = 0.0 + 0.0j
    prev = None
    integral = 0.0
    for z, typ, c in events:
        if prev is not None:
            integral += abs(cur) ** 2 * (z - prev)
        cur = cur + c if typ == 1 else cur - c
        prev = z
    rhs = t * t * integral
    if rhs == 0.0:
        raise ValueError("zero coefficient sequence")
    return lhs / rhs


def gallagher_integral_suite(trials: int = 60, seed: int = DEFAULT_SEED) -> RatioReport:
    rng = np.random.default_rng(seed)
    n_max, t_max = 120, 40.0
    ratios = []
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        t = float(rng.uniform(1.0, t_max))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ratios.append(gallagher_integral_ratio(a, t))
    return _make_report("gallagher_integral", ratios,
                        {"n_max": n_max, "t_max": t_max}, seed)


# ---------------------------------------------------------------------------
# mean values of character-twisted Dirichlet polynomials


def dirichlet_meanvalue_check(q: int, a, sets, sigma: float,
                              t_max: float) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) for sum_m sum_{rho in S(m)} |sum_n chi_m(n) a_n
    n^{-rho}|^2 against (log 2N) (N + q T) sum |a_n|^2 n^{-2 sigma}; the
    sieve hypothesis supplies (F, G) = (1, q)."""
    a = np.asarray(a, dtype=complex)
    n_len = a.size
    if n_len < 1:
        raise ValueError("empty coefficient vector")
    chars, table = character_table(q)
    if len(sets) != len(chars):
        raise ValueError(f"need one point set per character ({len(chars)})")
    ns = np.arange(1, n_len + 1)
    logn = np.log(ns.astype(float))
    lhs = 0.0
    for vals, rhos in zip(table[:, ns % q], sets):
        pts = [complex(r) for r in rhos]
        WellSpacedSet(tuple(pts), 1.0, sigma, t_max)
        base = vals * a
        for rho in pts:
            lhs += abs(np.sum(base * np.exp(-rho * logn))) ** 2
    rhs = (math.log(2 * n_len) * (n_len + q * t_max)
           * float(np.sum(np.abs(a) ** 2 * ns ** (-2.0 * sigma))))
    return lhs, rhs, lhs / rhs


def dirichlet_meanvalue_suite(trials: int = 50, seed: int = DEFAULT_SEED) -> RatioReport:
    rng = np.random.default_rng(seed)
    q, n_len, sigma, t_max = 7, 50, 0.5, 30.0
    n_chars = len(enumerate_characters(q))
    ratios = []
    for _ in range(trials):
        a = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
        sets = []
        for _ in range(n_chars):
            count = int(rng.integers(1, 6))
            gammas, last = [], -t_max - 1.0  # first draw stays >= -t_max
            for _ in range(count):
                g = last + 1.0 + float(rng.uniform(0.0, 8.0))
                if g > t_max:
                    break
                gammas.append(g)
                last = g
            gammas = gammas or [0.0]
            betas = rng.uniform(sigma, sigma + 1.0, len(gammas))
            sets.append([complex(b, g) for b, g in zip(betas, gammas)])
        _, _, ratio = dirichlet_meanvalue_check(q, a, sets, sigma, t_max)
        ratios.append(ratio)
    return _make_report("dirichlet_meanvalue", ratios,
                        {"q": q, "n": n_len, "sigma": sigma, "t": t_max}, seed)


# ---------------------------------------------------------------------------
# growth of the six square/cube-kernel sums


@dataclass(frozen=True)
class GrowthFit:
    name: str
    stated_exponent: float
    slope: float
    grid: tuple[int, ...]
    sums: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return self.slope <= self.stated_exponent + 0.1


_GROWTH_NAMES = (
    "d sqrt(d*) / (sqrt(d0) d'^(3/2))",
    "d sqrt(d*) / (d0 d'^(3/2))",
    "d / (d^4)0",
    "1 / sqrt(d')",
    "d^(1/3) / (d0^(2/3) d')",
    "d^(1/3) d* / (d0^(2/3) d'^3)",
)
_GROWTH_EXPONENTS = (0.5, 0.25, 0.0, 0.5, 0.0, 0.0)


def _kernel_terms(d: int, spf: np.ndarray) -> tuple[float, ...]:
    dp = ds = d0 = d40 = 1
    m = d
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        dp *= p ** ((e + 1) // 2)
        d0 *= p ** ((e + 2) // 3)
        d40 *= p ** ((4 * e + 2) // 3)
    ds = dp * dp // d
    cbrt = float(d) ** (1.0 / 3.0)
    return (
        d * math.sqrt(ds) / (math.sqrt(d0) * dp**1.5),
        d * math.sqrt(ds) / (d0 * dp**1.5),
        d / d40,
        1.0 / math.sqrt(dp),
        cbrt / (float(d0) ** (2.0 / 3.0) * dp),
        cbrt * ds / (float(d0) ** (2.0 / 3.0) * dp**3),
    )


def lemma_f_growth(dmax: int) -> tuple[GrowthFit, ...]:
    """Least-squares slope of log(sum) vs log(D) on a 12-point geometric D
    grid for each of the six multiplicative sums; slopes compared downstream
    against the stated exponents (1/2, 1/4, 0, 1/2, 0, 0) plus a 0.1 margin."""
    if dmax < 100:
        raise ValueError("Dmax must be >= 100")
    grid = sorted({int(round(100.0 * (dmax / 100.0) ** (j / 11))) for j in range(12)})
    if len(grid) < 3:  # a fit needs 3 distinct points: Dmax >= 102
        raise ValueError(f"Dmax = {dmax} gives fewer than 3 distinct grid points")
    spf = smallest_factor_table(dmax)
    terms = np.fromiter((_kernel_terms(d, spf) for d in range(1, grid[-1] + 1)),
                        dtype=(float, 6), count=grid[-1])
    # running sums in d order, one contiguous row per kernel sum
    sums = np.cumsum(terms, axis=0, out=terms)[np.array(grid) - 1].T.copy()
    logd = np.log(np.asarray(grid, dtype=float))
    return tuple(GrowthFit(name, stated, float(np.polyfit(logd, np.log(s), 1)[0]),
                           tuple(grid), tuple(s.tolist()))
                 for name, stated, s in zip(_GROWTH_NAMES, _GROWTH_EXPONENTS, sums))


# ---------------------------------------------------------------------------
# exponential-sum ratio harnesses


def _cubic_phase_sum(ns, mod: int, scale: int, cs) -> complex:
    total = 0.0 + 0.0j
    red = [pow(int(n), 3, mod) * scale % mod for n in ns]
    angles = -2j * math.pi / mod
    for t, c in zip(red, cs):
        total += c * np.exp(angles * t)
    return total


def expsum_ratio(n_size: int, p_size: int, d0: int, k: int, trials: int = 8,
                 seed: int = DEFAULT_SEED) -> RatioReport:
    """R = sum_{p ~ P} |sum_{n ~ N} e(n^3 d0^3/(p k^2)) c_n| with |c_n| <= 1
    against N^(1/2) P + N^(1/4) P^(5/4) k^(1/2) d0^(-3/4).  Trial 0 is
    c = 1; later trials draw random phases."""
    if n_size * p_size > 10**7:
        raise ValueError("instance too large for direct evaluation")
    rng = np.random.default_rng(seed)
    ns = range(n_size, 2 * n_size)
    primes = [p for p in sieve_primes(2 * p_size - 1) if p >= p_size]
    rhs = (math.sqrt(n_size) * p_size
           + n_size**0.25 * p_size**1.25 * math.sqrt(k) * d0**-0.75)
    ratios = []
    for trial in range(trials):
        if trial == 0:
            cs = np.ones(n_size, dtype=complex)
        else:
            cs = (rng.uniform(0.0, 1.0, n_size)
                  * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n_size)))
        r = 0.0
        for p in primes:
            mod = p * k * k
            r += abs(_cubic_phase_sum(ns, mod, pow(d0, 3, mod), cs))
        ratios.append(r / rhs)
    return _make_report("expsum", ratios,
                        {"N": n_size, "P": p_size, "d0": d0, "k": k}, seed)


def weyl_ratio(h_size: int, p_size: int, k: int, trials: int = 4,
               seed: int = DEFAULT_SEED) -> RatioReport:
    """sum_{p ~ P} |sum_{h ~ H} e(h^3 kbar^2/p)| against
    H^(3/4) P + H P^(3/4) + H^(1/4) P^(5/4), epsilon power dropped.
    Trial 0 uses the given k; further trials draw random k."""
    if h_size * p_size > 10**7:
        raise ValueError("instance too large for direct evaluation")
    rng = np.random.default_rng(seed)
    hs = range(h_size, 2 * h_size)
    primes = [p for p in sieve_primes(2 * p_size - 1) if p >= p_size]
    rhs = h_size**0.75 * p_size + h_size * p_size**0.75 + h_size**0.25 * p_size**1.25
    ones = np.ones(h_size, dtype=complex)
    ratios = []
    for trial in range(trials):
        kk = k if trial == 0 else int(rng.integers(1, 100))
        r = 0.0
        for p in primes:
            if kk % p == 0:
                continue
            kbar2 = pow(pow(kk, -1, p), 2, p)
            r += abs(_cubic_phase_sum(hs, p, kbar2, ones))
        ratios.append(r / rhs)
    return _make_report("weyl", ratios, {"H": h_size, "P": p_size, "k": k}, seed)
