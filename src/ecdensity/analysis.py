"""Test functions, smooth weights, and their Fourier transforms.

Convention throughout: e(t) = exp(2*pi*i*t) and fhat(u) = integral of
f(x) e(-x u) dx.  The density pipeline needs an even test function phi >= 0
whose transform has compact support; the shipped pair is the Fejer pair

    phihat(y) = max(0, 1 - |y|/nu),    phi(x) = nu * sinc(nu x)^2,

so phi(0) = nu and phihat(0) = 1.  Family weights are tensor products of the
C-infinity bump u(t) = exp(-1/(t(1-t))) scaled to a box; their transforms
are a fixed 256-node Gauss-Legendre sum per axis, at single points, or on
whole progressions for several steps at once: the nodes pair about the axis
centre, so each progression is one real product of two power tables over
the 128 node pairs (one complex exp per node and table, the rest by
doubling).  The DFT magnitude profile of the unit bump, built once per
process from short FFTs and scaled to each axis, supplies certified
truncation radii for lattice sums (the quadrature itself is only trusted
inside the profiled band).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# test function pairs


@dataclass(frozen=True)
class TestFunctionPair:
    """The even Fejer pair (phi, phihat) at parameter nu; phihat vanishes
    outside [-nu, nu]."""

    nu: Fraction

    def phi(self, x):
        n = float(self.nu)
        return n * np.sinc(n * np.asarray(x, dtype=float)) ** 2

    def phihat(self, y):
        n = float(self.nu)
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(y, dtype=float)) / n)

    @property
    def phi0(self) -> float:
        return float(self.nu)

    @property
    def phihat0(self) -> float:
        return 1.0

    @property
    def phihat_support(self) -> float:
        """phihat vanishes outside [-support, support]."""
        return float(self.nu)


def fejer_pair(nu: Fraction | str | float) -> TestFunctionPair:
    """The Fejer pair at parameter nu in (0, 1]; nu is kept as an exact rational."""
    nu = Fraction(nu).limit_denominator(10**9) if isinstance(nu, float) else Fraction(nu)
    if not 0 < nu <= 1:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    return TestFunctionPair(nu=nu)


def explicit_rhs(pair: TestFunctionPair, log_n_over_log_x: float, prime_side: float) -> float:
    """phihat(0) L + phi(0)/2 - prime_side, the right-hand side of the explicit
    formula at L = log N/log X: density_report's assembled (L = C, prime side
    (P1 + P2)/W) and predicted (L = 1, prime side 0), and the crosscheck's
    rhs_lo, rhs and rhs_hi (L = log n/log X, prime side P1 + P2)."""
    return pair.phihat0 * log_n_over_log_x + 0.5 * pair.phi0 - prime_side


def _fejer_tail(w: float, x0: float, nu: float) -> float:
    """integral_{x0}^inf cos(2 pi w x) / (pi^2 nu x^2) dx, w >= 0."""
    from scipy.integrate import quad

    if w == 0.0:
        return 1.0 / (math.pi**2 * nu * x0)
    val, _ = quad(lambda x: 1.0 / (math.pi**2 * nu * x * x), x0, np.inf,
                  weight="cos", wvar=2.0 * math.pi * w)
    return val


def verify_fourier_pair(pair: TestFunctionPair, grid) -> float:
    """Max over the grid of |quadrature transform of phi - claimed phihat|.

    The slowly decaying oscillatory integral is split as
    2 phi(x) cos(2 pi x y) = [cos(2 pi y x) - cos(2 pi (y+nu) x)/2
    - cos(2 pi |y-nu| x)/2] / (pi^2 nu x^2), finite part by adaptive
    quadrature and the three 1/x^2 tails by QAWF.
    """
    from scipy.integrate import quad

    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    worst = 0.0
    nu = float(pair.nu)
    x0 = 24.0 / nu
    for y in np.abs(grid):
        finite, _ = quad(lambda x: 2.0 * pair.phi(x) * math.cos(2.0 * math.pi * x * y),
                         0.0, x0, limit=2000, epsabs=1e-11, epsrel=1e-11)
        tails = (_fejer_tail(y, x0, nu)
                 - 0.5 * _fejer_tail(y + nu, x0, nu)
                 - 0.5 * _fejer_tail(abs(y - nu), x0, nu))
        worst = max(worst, abs(finite + tails - float(pair.phihat(y))))
    return worst


# ---------------------------------------------------------------------------
# smooth compactly supported weights


def bump(t):
    """exp(-1/(t(1-t))) on (0, 1), 0 elsewhere; vectorized, overflow-safe."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    t = np.where(inside, t, 0.5)
    return np.where(inside, np.exp(-1.0 / (t * (1.0 - t))), 0.0)


def _power_rows(z: np.ndarray, count: int, first) -> np.ndarray:
    """Rows first * z^t for t = 0..count-1 on the second-last axis, one
    stack per leading index of z: rows [m, 2m) are rows [0, m) times z^m,
    with z^m by squaring, so row t is first times one power z^(2^k) per set
    bit k of t, at most ceil(log2 count) products."""
    rows = np.empty(z.shape[:-1] + (count, z.shape[-1]), dtype=complex)
    rows[..., 0, :] = first
    z = z[..., None, :]
    m = 1
    while m < count:
        k = min(m, count - m)
        np.multiply(rows[..., :k, :], z, out=rows[..., m:m + k, :])
        m += k
        z = z * z
    return rows


DEFAULT_BOX = (0.5, 1.0, 0.5, 1.0)
GL_NODES = 256
_PROFILE_SAMPLES = 1 << 16
_PROFILE_BINS = 4096
# glibc raises its mmap threshold to each mmapped block freed: this untouched 2 MiB block keeps
# blocks up to that size in the heap, as the profile's 2^18-point rfft once did: the conductor
# sieve's 1.30 MiB grids at 1e7 and load_table's read buffer (cached 1e4 peaks 1 MiB less)
np.empty(1 << 18)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule, n even, by Newton
    on the recurrence (Hale and Townsend, SIAM J. Sci. Comput. 2013), mirrored."""
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * np.arange(n // 2) + 3) / (4 * n + 2))
    for step in range(4):  # three Newton steps reach rounding at n = 256; the fourth reads P_n'
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))  # 1 - x^2, accurate at the ends
        x = x - p1 / dp if step < 3 else x
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


@cache
def _unit_bump_constants() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Gauss-Legendre nodes, weights, |DFT| of the unit bump at _PROFILE_SAMPLES
    midpoints, 4x zero-padded, first 4 _PROFILE_BINS bins), built once with no
    LAPACK call.  Bins D j + r are the FFT of the samples folded to 4 m / D
    points (row q times e(-r q / D)), twiddled by e(-r t / 4 m) from two short
    tables; bins D j + D - r are its bins 4 m / D - 1 - j, conjugated."""
    m, d = _PROFILE_SAMPLES, 32  # the last bins are rounding noise, and move with d
    n, ln, keep = 4 * m, 4 * m // d, 4 * _PROFILE_BINS // d
    rows = np.empty((m // ln, ln))
    for q, row in enumerate(rows):  # a row at a time keeps the temporaries short
        row[:] = bump((np.arange(q * ln, (q + 1) * ln) + 0.5) / m)
    prof, y = np.empty((keep, d + 1)), np.empty(ln, dtype=complex)
    for r in range(d // 2 + 1):
        fold = np.exp(-2j * np.pi * r * np.arange(m // ln) / d)
        y.real, y.imag = fold.real @ rows, fold.imag @ rows
        grid = y.reshape(-1, 128)  # t = 128 i + j
        grid *= np.exp(-2j * np.pi * r * np.arange(128) / n)
        grid *= np.exp(-2j * np.pi * r * np.arange(0, ln, 128) / n)[:, None]
        spec = np.abs(np.fft.fft(y))
        prof[:, d - r] = spec[:-keep - 1:-1]  # column d is scratch; r = d/2 is overwritten
        prof[:, r] = spec[:keep]
    return (*_gauss_legendre(GL_NODES), prof[:, :d].ravel())


class SmoothWeight:
    """Tensor-product bump weight on a box, with transform and truncation data.

    what(u, v) factorizes as axis_transform(0, u) * axis_transform(1, v); each
    axis transform is a fixed Gauss-Legendre sum over the box edge, also
    evaluated on progressions u = j * step, j >= 0, for a batch of steps by
    axis_progressions, which sums the same nodes in pairs about the axis
    centre (axis_transform stays the full-node oracle).  radius(i,
    thresh) returns a frequency beyond which |axis transform| stays below
    thresh, certified by a dense FFT magnitude envelope rather than by the
    quadrature (which loses accuracy far outside the profiled band).
    """

    def __init__(self, box: tuple[float, float, float, float] = DEFAULT_BOX):
        x0, x1, y0, y1 = box
        if not (x0 < x1 and y0 < y1 and all(map(math.isfinite, box))):
            raise ValueError(f"invalid weight box {box}")
        self.box = tuple(float(t) for t in box)
        g, w, _ = _unit_bump_constants()
        half = slice(GL_NODES // 2, None)  # the nodes g > 0
        self._ax = []
        self._half = []
        self._env = []
        for lo, hi in ((x0, x1), (y0, y1)):
            s = hi - lo
            xs = lo + 0.5 * s * (g + 1.0)
            ws = 0.5 * s * w
            wf = ws * bump((xs - lo) / s)
            self._ax.append((lo, hi, xs, wf))
            # node pairs c +- d, each pair's two weights summed
            self._half.append((0.5 * (lo + hi), 0.5 * s * g[half],
                               wf[half] + wf[half.start - 1::-1]))
            self._env.append(self._axis_envelope(lo, hi))

    @staticmethod
    def _axis_envelope(lo: float, hi: float):
        # 4x zero-padding puts four bins per oscillation of the transform
        # (period 1/s in u); sampling at the bare bin spacing 1/s can land
        # on nulls and understate between-bin peaks.  The residual off-bin
        # rise is below sec(pi/8) ~ 1.09; fold it into a 1.15 margin.
        s = hi - lo
        mags = s * _unit_bump_constants()[2] / _PROFILE_SAMPLES
        env = 1.15 * np.maximum.accumulate(mags[::-1])[::-1]
        return 1.0 / (4.0 * s), env  # frequency step in u, envelope values

    # -- real-space evaluators

    def axis_weight(self, i: int, t):
        lo, hi, _, _ = self._ax[i]
        return bump((np.asarray(t, dtype=float) - lo) / (hi - lo))

    def w(self, x, y):
        return self.axis_weight(0, x) * self.axis_weight(1, y)

    # -- transforms

    def axis_transform(self, i: int, u):
        """uhat_i(u) = integral over the axis of w_i(x) e(-x u) dx."""
        _, _, xs, wf = self._ax[i]
        u_arr = np.asarray(u, dtype=float)
        ph = np.exp(-2j * np.pi * np.multiply.outer(u_arr, xs))
        return ph @ wf

    def axis_progressions(self, i: int, steps, n: int) -> np.ndarray:
        """Rows axis_transform(i, j * step) for j = 0..n, one row per step.

        The Gauss-Legendre nodes and weights are symmetric about 0 and the
        bump about 1/2, so the nodes pair as c +- d about the axis centre c
        with equal weights: the sines of each pair cancel, and the same
        quadrature reads uhat(u) = e(-c u) sum over the 128 pairs of
        W_d cos(2 pi d u), W_d the pair's summed weight.  With j = q b + r,
        b ~ sqrt(n), the cosine is Re(e(d q b step) e(-d r step)), read from
        two sqrt(n)-row tables of powers per node, filled by doubling from
        one exp per node (the outer table starts at W_d): one real matrix
        product over 2 x 128 columns, stacked over the steps.  The phase
        e(-c j step) rides along as one more table column."""
        c, d, wd = self._half[i]
        steps = np.asarray(steps, dtype=float)[:, None]
        b = math.isqrt(n) + 1
        inner = _power_rows(np.exp(-2j * np.pi * steps * np.append(d, c)), b, 1.0)
        outer = _power_rows(np.exp(2j * np.pi * (b * steps) * np.append(d, -c)),
                            n // b + 1, np.append(wd, 1.0))
        cos = outer[..., :-1].view(float) @ inner[..., :-1].view(float).swapaxes(1, 2)
        v = cos * outer[..., -1:] * inner[:, None, :, -1]
        return v.reshape(steps.size, -1)[:, : n + 1]

    def what(self, u: float, v: float) -> complex:
        """2D transform value; conjugate-symmetric: what(-u,-v) = conj(what(u,v))."""
        return complex(self.axis_transform(0, float(u))) * complex(self.axis_transform(1, float(v)))

    @property
    def mass(self) -> float:
        """what(0, 0) = integral of w > 0; also the max of |what|."""
        return float(self.what(0.0, 0.0).real)

    def axis_mass(self, i: int) -> float:
        return float(abs(complex(self.axis_transform(i, 0.0))))

    def radius(self, i: int, thresh: float) -> float:
        """Least grid frequency r with |axis transform| < thresh beyond r;
        ValueError when the envelope never falls below thresh or thresh is NaN."""
        du, env = self._env[i]
        if not thresh > env[-1]:  # so a NaN thresh fails too
            raise ValueError(f"axis {i} transform not certified below {env[-1]:.3g}, "
                             f"asked for {thresh:.3g}")
        j = int(np.argmax(env < thresh))
        return du * j


# ---------------------------------------------------------------------------
# 1D Poisson summation check


@dataclass(frozen=True)
class GaussianPair:
    """Self-dual reference pair: w(x) = exp(-pi (x/sigma)^2), what(u) =
    sigma exp(-pi (sigma u)^2).  Used to exercise Poisson summation with a
    transform known in closed form."""

    sigma: float = 1.0

    def w(self, x):
        return np.exp(-np.pi * (np.asarray(x, dtype=float) / self.sigma) ** 2)

    def what(self, u):
        return self.sigma * np.exp(-np.pi * (self.sigma * np.asarray(u, dtype=float)) ** 2)

    def radius_x(self, tol: float) -> float:
        return self.sigma * math.sqrt(math.log(1.0 / tol) / math.pi)

    def radius_u(self, tol: float) -> float:
        return math.sqrt(math.log(max(self.sigma, 1.0) / tol) / math.pi) / self.sigma


def poisson_mod_l_check(pair, l: int, a: int, d: float) -> tuple[float, float]:
    """Both sides of sum over n = a (mod l) of w(n/d)
    = (d/l) * sum_h what(h d / l) e(h a / l), truncated where the factors
    have decayed below 1e-15.  Returns (lhs, rhs) as floats (rhs real part;
    the imaginary part cancels by conjugate pairing).
    """
    if l <= 0 or d <= 0:
        raise ValueError("need l >= 1 and d > 0")
    rx = pair.radius_x(1e-15)
    nmax = int(math.ceil(rx * d)) + l
    ns = np.arange(a - (a + nmax) // l * l, nmax + 1, l, dtype=float)
    lhs = float(np.sum(pair.w(ns / d)))
    ru = pair.radius_u(1e-15)
    hmax = int(math.ceil(ru * l / d)) + 1
    hs = np.arange(-hmax, hmax + 1, dtype=float)
    rhs_c = (d / l) * np.sum(pair.what(hs * d / l) * np.exp(2j * np.pi * hs * a / l))
    return lhs, float(rhs_c.real)
