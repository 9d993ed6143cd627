"""One-level density over the family y^2 = x^3 + a x + b.

Curves are weighted by w(a/A, b/B) with A = X^(1/3), B = X^(1/2), w a smooth
box bump.  With an even test pair (phi, phihat), the averaged explicit
formula reads

    assembled = phihat(0) * C(X) + phi(0)/2 - (P1 + P2) / W,

where W is the total weight, C(X) the weighted mean of log N / log X, and

    P1 = sum_{p>3} phihat(log p/log X) (2 log p/(p log X))
              sum_{a,b} lambda(a,b,p) w(a/A, b/B),
    P2 = the analogous sum at p^2 with lambda(p)^2 - p.

P1 has two routes.  The direct route contracts, per prime, the lambda block
over the residues the (a, b) lattice hits against their weight sums,
u @ lam @ v; P2 contracts the same block as u @ (lam^2 - p) @ v.
Both routes cut their prime list into groups of _P1_GROUP consecutive
primes with arith.runs.  _lattice_blocks builds the blocks of a direct
chunk by one frobenius.sieved_blocks call, which runs the residue-row FFTs of
consecutive primes sharing a transform length as one stacked transform
(term_counts["p1_row_stacks"] counts them) over one stacked context of
discrete-log tables (characters.dlog_tables) per run; when cache_dir is
set, each p <= TABLE_CAP is sliced from its disk-cached table instead.
density_report on the direct route takes P1 and P2 from one pass over the
blocks: the P2 primes, p < X^(nu/2) + 2, are among the P1 primes, so each
block is built once, and timings["p2"] holds only the seconds of the P2
contractions (their block builds count under timings["p1"]; when the
chunks run in a process pool, p2 adds up the workers' seconds and p1 is the
wall time of the whole pass).  p2_direct, which the dual route calls,
builds the blocks of every P2 prime itself.  The process pool needs P1
primes summing to _P1_POOL_WORK, so under method="auto" it never starts:
auto takes the direct route only while X^nu <= TABLE_CAP, where they sum to
at most 76,122; the pool serves forced "direct" and "both" runs.
The dual route applies 2D Poisson summation per prime, turning the inner
double sum into

    -(AB/log X) sum_p psi4(p) (2 log p / p^{3/2}) phihat(log p/log X)
        sum_{h,k} (k/p) e(-h^3 kbar^2 / p) what(hA/p, kB/p),

whose (h, k) window shrinks with the transform decay of the weight.  Terms
with |what| < tail_tol are dropped, so the routes differ by that truncation,
not by rounding: 8.5e-5, 1.6e-4 and 4.0e-3 relative at X = 1e3, 1e4, 1e5 by
default.  The route makes one pass per group of _P1_GROUP consecutive
primes.  _dual_groups finds the kept cells with h >= 0 and k > 0 of every
prime in the group (all poisson_term_count needs) as stacked arrays: one
weight-transform call per axis, one kept-column mask, one stable sort of
|vb| that orders the columns and serves the row cuts, and the cuts of every
prime by the exact product test.  _dual_group_sums takes the
discrete logs of the group from one characters.dlog_tables context and the
column coefficients, phase offsets and row order as stacked gathers, and
per prime builds only its phase table and the staircase of row blocks; each
built cell, with one real coefficient per column, also serves -h and -k, so
the p1_cells count of built cells is about a quarter to a third of p1_terms
and every prime's sum is real by construction (p1_imag_leak is 0.0).  On a
shared 2-core host with one BLAS thread P1 takes about 0.14 s at X = 1e5
and 1.56 s at 1e6 (medians of 15 and of 5 in-process calls).

Both routes and P2 read their primes and weights
w_k(p) = phihat(k log p/log X) 2 log p/(p^k log X) from _prime_weights, and
every sum over primes is math.fsum, correctly rounded, so no value depends
on the order or grouping of its terms.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .analysis import DEFAULT_BOX, SmoothWeight, TestFunctionPair, bump, explicit_rhs, fejer_pair
from .arith import cube_kernel, divisors, legendre, pairwise_sum, psi4, runs, sieve_primes
from .characters import character_table, dlog_tables, gauss_sum_matrix, roots_of_unity
from .curves import ConductorInfo, conductor, conductor_log_tiles
from .frobenius import get_table, lambda_p, sieved_blocks

NU_PROVEN_LIMIT = Fraction(7, 10)
DEFAULT_TAIL_TOL = 1e-9
TABLE_CAP = 1000  # auto routing's cutoff on X^nu; the largest p read through the disk cache
# The dual staircase is contracted in one row block per _P1_BLOCK_CELLS kept
# cells, at most _P1_BLOCKS; a block costs about 12 us besides its cells, and
# on a 2-core host the block loop took 28 against 38 ms at X = 1e4 with 8
# blocks at every prime (196 against 208 ms at 1e5, level at 1e6).
# Both P1 routes batch _P1_GROUP consecutive primes (arith.runs): a direct
# chunk is one sieved_blocks call and one pool task, and a dual group shares
# one axis_progressions call per axis, whose stage at 1e5 read 57, 31, 27,
# 27, 29 and 37 ms in groups of 1, 4, 8, 16, 32 and 64 primes, and 0.24
# against 0.31 s at 1e6 in groups of 16 against 8.
_P1_BLOCKS = 8
_P1_BLOCK_CELLS = 8000
_P1_GROUP = 16
# sum of the P1 primes below which p1_direct stays serial: on a 2-core host,
# with stacked row transforms, a two-process pool lost to the serial loop at
# X = 2e4 (sum 80,184: 0.081 against 0.042 s, medians of 15), tied at 3e4
# (134,742: 0.064 against 0.068 s, 7 of 15 won) and won from 3.5e4 (166,546:
# 0.070 against 0.074 s, 11 of 15; 0.079 against 0.085 s at 4e4, 0.095
# against 0.113 s at 5e4, 0.168 against 0.243 s at 1e5).  Re-measured with
# one dlog_tables context per run (three runs, medians of 15): the pool won
# 0 of 15 at 2e4, 8, 9 and 3 at 3e4, 12, 5 and 11 at 3.5e4, and 11, 13 and
# 13 at 4e4, so the crossover stayed between 3e4 and 4e4.
_P1_POOL_WORK = 150_000


@dataclass
class FamilySpec:
    """Family parameters: size X, test pair, weight; the support parameter
    nu is the test pair's, so the two cannot disagree."""

    x: float
    phi: TestFunctionPair
    weight: SmoothWeight
    tail_tol: float = DEFAULT_TAIL_TOL
    threads: int = 1
    cache_dir: str | None = None

    @property
    def nu(self) -> Fraction:
        return self.phi.nu

    @property
    def a_scale(self) -> float:
        return self.x ** (1.0 / 3.0)

    @property
    def b_scale(self) -> float:
        return math.sqrt(self.x)

    @property
    def log_x(self) -> float:
        return math.log(self.x)


def family(x: float, nu: Fraction | str | float = Fraction(7, 10),
           box: tuple = DEFAULT_BOX, **kw) -> FamilySpec:
    return FamilySpec(x=float(x), phi=fejer_pair(nu), weight=SmoothWeight(box), **kw)


# ---------------------------------------------------------------------------
# lattice sums


def _axis_lattice(f: FamilySpec, i: int) -> tuple[np.ndarray, np.ndarray]:
    scale = f.a_scale if i == 0 else f.b_scale
    lo = f.weight.box[2 * i]
    hi = f.weight.box[2 * i + 1]
    n0 = math.floor(lo * scale) + 1
    n1 = math.ceil(hi * scale) - 1
    ns = np.arange(n0, n1 + 1, dtype=np.int64)
    if ns.size == 0:
        raise ValueError(
            f"weight box axis {i} contains no lattice points at X={f.x:g}"
        )
    return ns, f.weight.axis_weight(i, ns / scale)


def check_lattice(f: FamilySpec) -> None:
    """Raise ValueError naming the axis of the weight box with no lattice
    point, or the first singular curve in the box; 4a^3 + 27b^2 = 0 exactly
    at (a, b) = (-3t^2, 2t^3)."""
    na, _ = _axis_lattice(f, 0)
    nb, _ = _axis_lattice(f, 1)
    a0, a1, b0, b1 = int(na[0]), int(na[-1]), int(nb[0]), int(nb[-1])
    for t in range(math.isqrt(max(-a0, 0) // 3) + 1):
        for s in (-t, t):
            a, b = -3 * t * t, 2 * s**3
            if a0 <= a <= a1 and b0 <= b <= b1:
                raise ValueError(
                    f"weight box holds the singular curve (a, b) = ({a}, {b}) at X={f.x:g}"
                )


def w_total(f: FamilySpec) -> float:
    """W = sum over integer (a, b) of w(a/A, b/B); errors on empty support."""
    _, wa = _axis_lattice(f, 0)
    _, wb = _axis_lattice(f, 1)
    return float(wa.sum() * wb.sum())


def scaled_mass(f: FamilySpec) -> float:
    """A * B * integral of w, the continuous stand-in for W (reported alongside)."""
    return f.a_scale * f.b_scale * f.weight.mass


# ---------------------------------------------------------------------------
# prime ranges


def _prime_weights(f: FamilySpec, k: int) -> tuple[list[int], list[float]]:
    """(primes, weights) of the degree-k prime sum (k = 1 for P1, 2 for P2):
    the primes 3 < p <= int(X^(nu/k)) + 2 with phihat(k log p/log X) > 0, and
    w_k(p) = phihat(k log p/log X) 2 log p/(p^k log X) for each."""
    ps = np.array([p for p in sieve_primes(int(f.x ** (float(f.nu) / k)) + 2) if p > 3],
                  dtype=np.int64)
    lp = np.array([math.log(p) for p in ps.tolist()])
    lx = f.log_x
    ph = f.phi.phihat(k * lp / lx)
    keep = ph > 0.0
    w = ph[keep] * 2.0 * lp[keep] / (ps[keep] ** k * lx)
    return ps[keep].tolist(), w.tolist()


def _p2_weights(f: FamilySpec, primes: list[int]) -> dict[int, float]:
    """w_2(p) by P2 prime; RuntimeError unless every P2 prime is among primes,
    the P1 primes, so one pass over the P1 primes serves P2 as well."""
    w2 = dict(zip(*_prime_weights(f, 2)))
    if not w2.keys() <= set(primes):
        raise RuntimeError("a P2 prime is not a P1 prime")
    return w2


# ---------------------------------------------------------------------------
# P1, direct route


def _lattice_blocks(f: FamilySpec, ps: list[int], stats: dict | None = None
                    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(u, lam, v) at each sieved p of ps in order: u and v the weight sums of
    the residues the a and b axes hit, lam the lambda block over those
    residues.  The block is sliced from the cached table when cache_dir is set
    and p <= TABLE_CAP, one prime at a time; the other primes are built by
    one sieved_blocks call, which stacks the transforms of consecutive primes
    and counts them in stats["row_stacks"]."""
    na, wa = _axis_lattice(f, 0)
    nb, wb = _axis_lattice(f, 1)
    hits = []  # (ares, u, bres, v) per prime, only the residues hit
    for p in ps:
        sa = np.bincount(na % p, weights=wa, minlength=p)
        sb = np.bincount(nb % p, weights=wb, minlength=p)
        ares, bres = np.flatnonzero(sa), np.flatnonzero(sb)
        hits.append((ares, sa[ares], bres, sb[bres]))
    cached = [f.cache_dir is not None and p <= TABLE_CAP for p in ps]
    built = sieved_blocks([p for p, c in zip(ps, cached) if not c],
                          [h[0] for h, c in zip(hits, cached) if not c],
                          [h[2] for h, c in zip(hits, cached) if not c], stats)
    for p, c, (ares, u, bres, v) in zip(ps, cached, hits):
        lam = get_table(p, f.cache_dir).table[np.ix_(ares, bres)] if c else next(built)
        yield u, lam.astype(np.float64), v


def _p1_direct_chunk(f: FamilySpec, pairs: list[tuple[int, float]], w2: dict[int, float]
                     ) -> tuple[list[float], list[float], dict]:
    """(the P1 term w_1(p) u @ lam @ v of each (p, w_1(p)) pair, the P2 term
    w_2(p) u @ (lam^2 - p) @ v of each of those primes that w2 maps to
    w_2(p), counts of the cells contracted and of the stacked row transforms
    run, and the seconds of the P2 contractions)."""
    counts = {"cells": 0, "row_stacks": 0, "p2_s": 0.0}
    terms, terms2 = [], []
    for (p, w), (u, lam, v) in zip(pairs, _lattice_blocks(f, [p for p, _ in pairs], counts)):
        terms.append(w * float(u @ lam @ v))
        counts["cells"] += lam.size
        if p in w2:
            t0 = time.perf_counter()
            terms2.append(w2[p] * float(u @ (lam * lam - p) @ v))
            counts["p2_s"] += time.perf_counter() - t0
    return terms, terms2, counts


def p1_direct(f: FamilySpec, stats: dict | None = None) -> float:
    """P1 by residue-block contraction per prime, in chunks of _P1_GROUP
    primes, across a process pool when threads > 1 and the work is large
    (at most threads workers, and no more than there are chunks or cores).
    The same pass contracts the blocks of the P2 primes (all among the P1
    primes) for P2, which goes to stats["p2"] with the seconds of its
    contractions in stats["p2_s"]; stats["pooled"] says whether the chunks
    ran in the pool, where p2_s adds up the seconds of the workers."""
    primes, weights = _prime_weights(f, 1)
    w2 = _p2_weights(f, primes)
    pairs = list(zip(primes, weights))
    chunks = [pairs[r.start:r.stop] for r in runs([1] * len(pairs), _P1_GROUP)]
    w2s = [{p: w2[p] for p, _ in c if p in w2} for c in chunks]
    pooled = f.threads > 1 and len(chunks) > 1 and sum(primes) >= _P1_POOL_WORK
    if pooled:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # never more workers than chunks or cores: the executor may start them all at once
        workers = min(f.threads, len(chunks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_p1_direct_chunk, [f] * len(chunks), chunks, w2s))
    else:
        parts = [_p1_direct_chunk(f, c, w) for c, w in zip(chunks, w2s)]
    if stats is not None:
        stats["primes"] = len(primes)
        stats["terms"] = sum(p * p for p in primes)
        for key in ("cells", "row_stacks", "p2_s"):
            stats[key] = sum(c[key] for _, _, c in parts)
        stats["p2"] = math.fsum(t for _, terms2, _ in parts for t in terms2)
        stats["pooled"] = pooled
    return math.fsum(t for terms, _, _ in parts for t in terms)


def direct_term_count(f: FamilySpec) -> int:
    """Summand count of the direct route over the full residue grid, p^2 per
    prime.  The route contracts only the residues the lattice hits; p1_direct
    reports that count as stats["cells"]."""
    return sum(p * p for p in _prime_weights(f, 1)[0])


# ---------------------------------------------------------------------------
# P1, dual (Poisson) route


def _dual_radii(f: FamilySpec) -> tuple[float, float]:
    """(r0, r1), the radius of each axis at tail_tol over the other's mass;
    neither depends on p, so a prime loop computes them once."""
    wt = f.weight
    try:
        return (wt.radius(0, f.tail_tol / wt.axis_mass(1)),
                wt.radius(1, f.tail_tol / wt.axis_mass(0)))
    except ValueError:  # the least tail_tol: an axis's envelope floor times the other's mass
        least = max(wt._env[i][1][-1] * wt.axis_mass(1 - i) for i in (0, 1))
        raise ValueError(f"tail_tol {f.tail_tol:g} must exceed {least:.3g}, below which "
                         "the weight box certifies no radius") from None


def _dual_extent(f: FamilySpec, p: int, radii: tuple[float, float]) -> tuple[int, int]:
    """(hmax, kmax) at p: past |h| = hmax or |k| = kmax, |what(hA/p, kB/p)|
    is certified below tail_tol by the radii of _dual_radii."""
    r0, r1 = radii
    return int(r0 * p / f.a_scale), int(r1 * p / f.b_scale)


class _DualGroup(NamedTuple):
    """The kept cells of the dual (h, k) blocks with h >= 0, k > 0 at a group
    of consecutive primes, one row per prime, padded to the group's widest
    window."""

    ps: list[int]
    va: np.ndarray    # axis-0 transform at hA/p, h = 0..max hmax
    vb: np.ndarray    # axis-1 transform at kB/p, k = 1..max kmax
    keep: np.ndarray  # the columns 0 < k <= kmax with p not dividing k
    cols: np.ndarray  # k - 1 by stable descending |vb|, |vb| read as 0 off keep
    cuts: np.ndarray  # per row h, the count of kept k with |va| |vb| >= tail_tol
    kept: list[int]   # kept (h, k) of all signs: 4 per cut cell, 2 on row h = 0


def _group_cuts(absa: np.ndarray, desc: np.ndarray, tol: float) -> np.ndarray:
    """Per h-row of each prime in a stack, the count of k with |va| |vb| >=
    tol: absa holds each prime's |va|, zero past its window, and desc its
    |vb| in descending order, so a row keeps exactly its first count columns.
    A searchsorted guess per prime, then steps by the exact product over the
    whole stack."""
    n = desc.shape[1]
    if n == 0:
        return np.zeros(absa.shape, dtype=np.intp)
    thr = -tol / np.maximum(absa, 1e-300)
    cut = np.stack([np.searchsorted(a, t, side="right") for a, t in zip(-desc, thr)])
    rows = np.arange(len(desc))[:, None]
    while (down := (cut > 0) & (absa * desc[rows, cut - 1] < tol)).any():
        cut -= down
    while (up := (cut < n) & (absa * desc[rows, np.minimum(cut, n - 1)] >= tol)).any():
        cut += up
    return cut


def _dual_group(f: FamilySpec, group: list[int], radii: tuple[float, float],
                stats: dict | None = None) -> _DualGroup:
    """The windows over _dual_extent, truncated at f.tail_tol, of a group of
    consecutive primes.  The axis transforms come from one
    axis_progressions call per axis, padded to the group's widest extent;
    stats["points"] counts the points they evaluate.  One stable sort of |vb|,
    dropped columns zeroed, orders the columns of every prime."""
    hmax, kmax = np.array([_dual_extent(f, p, radii) for p in group]).T
    ps = np.array(group, dtype=float)
    vas = f.weight.axis_progressions(0, f.a_scale / ps, int(hmax.max()))
    vbs = f.weight.axis_progressions(1, f.b_scale / ps, int(kmax.max()))
    if stats is not None:
        stats["points"] = stats.get("points", 0) + vas.size + vbs.size
    vbs = vbs[:, 1:]
    k = np.arange(1, vbs.shape[1] + 1)
    keep = (k <= kmax[:, None]) & (k % np.array(group)[:, None] != 0)  # (k/p) = 0 at p | k
    negb = np.where(keep, -np.abs(vbs), 0.0)
    cols = np.argsort(negb, axis=1, kind="stable")
    # |va| past each prime's hmax reads 0, which keeps no cell
    absa = np.where(np.arange(vas.shape[1]) <= hmax[:, None], np.abs(vas), 0.0)
    cuts = _group_cuts(absa, -np.take_along_axis(negb, cols, axis=1), f.tail_tol)
    return _DualGroup(group, vas, vbs, keep, cols, cuts,
                      (4 * cuts.sum(axis=1) - 2 * cuts[:, 0]).tolist())


def _dual_groups(f: FamilySpec, primes: list[int], radii: tuple[float, float],
                 stats: dict | None = None) -> Iterator[_DualGroup]:
    """_dual_group of each run of _P1_GROUP consecutive primes in turn."""
    for r in runs([1] * len(primes), _P1_GROUP):
        yield _dual_group(f, primes[r.start:r.stop], radii, stats)


def _dual_group_sums(grp: _DualGroup) -> list[tuple[float, int]]:
    """(s_p, phase cells built) at each prime of the group: the dual (h, k)
    sum S_p over the kept cells, which is s_p when p = 1 (mod 4) and i s_p
    when p = 3 (mod 4).

    The block folds over both signs.  va(-h) = conj va(h) and vb(-k) =
    conj vb(k) exactly, so the four cells (+-h, +-k) keep or drop together;
    the phase e(-h^3 kbar^2/p) is even in k and conjugates under h -> -h; and
    (-k/p) = (-1/p) (k/p).  So only h >= 0, k > 0 are built, and columns
    k, -k merge into one real coefficient r_k: with (k/p) = (-1)^dl(k),
    r_k = 2 (k/p) Re vb(k) and S_p real when p = 1 (mod 4), r_k = 2 (k/p)
    Im vb(k) and S_p = i times a real sum when p = 3 (mod 4).  Each row gives
    R_h = sum_k omega(h, k) r_k, and rows h, -h add up to Re(u_h R_h) with
    u_h = 2 va(h), u_0 = va(0).  The phase of h^3 kbar^2 = g^(3 dl(h) -
    2 dl(k)) is read from a doubled table of g-powers by an integer sum, with
    one extra stretch of ones for the rows h = 0 mod p and a 0 sentinel.
    Columns go in the group's column order and rows in stable descending
    kept count, so the kept cells form a staircase; it is contracted in one
    row block per _P1_BLOCK_CELLS kept cells, at most _P1_BLOCKS, each as
    wide as its widest row.  Everything but omega and the blocks is built
    once for the group, from one characters.dlog_tables context; each
    prime's omega is filled in place in one buffer for the group."""
    pi = np.array(grp.ps, dtype=np.int64)[:, None]
    pw, dl = dlog_tables(grp.ps)
    dk = np.take_along_axis(dl, (grp.cols + 1) % pi, axis=1)
    vk = np.take_along_axis(grp.vb, grp.cols, axis=1)
    imag = pi % 4 == 3  # (-1/p) = -1, so S_p is i times a real sum
    coeff = np.where(dk & 1, -2.0, 2.0) * np.where(imag, vk.imag, vk.real)
    # cuts fit the narrowest unsigned type, whose stable sort is a radix sort
    top = int(grp.cuts.max(initial=0))
    rows = (top - grp.cuts).astype(np.min_scalar_type(top)).argsort(axis=1, kind="stable")
    cuts = np.take_along_axis(grp.cuts, rows, axis=1)
    u = 2.0 * grp.va
    u[:, 0] = grp.va[:, 0]  # row h = 0 counts once
    u = np.take_along_axis(u, rows, axis=1)
    # indices into omega stay below 3p, so int32 holds; 3(p - 1) is the sentinel
    hmod = rows % pi
    dh = np.take_along_axis(dl, hmod, axis=1).astype(np.int64)
    ah = np.where(hmod == 0, 2 * (pi - 1), 3 * dh % (pi - 1)).astype(np.int32)
    bk = (-2 * dk.astype(np.int64) % (pi - 1)).astype(np.int32)
    out = []
    buf = np.empty(3 * max(grp.ps) - 2, dtype=complex)  # each prime's omega, filled in place
    for i, p in enumerate(grp.ps):
        c = cuts[i]
        n = int(np.count_nonzero(c))
        nblk = min(_P1_BLOCKS, n, -(-int(c.sum()) // _P1_BLOCK_CELLS))
        s_p = 0.0
        cells = 0
        if nblk:
            omega = buf[:3 * p - 2]
            wpow = roots_of_unity(p).take(pw[i, :p - 1], out=omega[:p - 1])
            np.conjugate(wpow, out=wpow)
            omega[p - 1:2 * p - 2] = wpow
            omega[2 * p - 2:-1] = 1.0
            omega[-1] = 0.0
        for j in range(nblk):
            lo, hi = j * n // nblk, (j + 1) * n // nblk
            width, low = int(c[lo]), int(c[hi - 1])
            phase = np.add.outer(ah[i, lo:hi], bk[i, :width])
            np.copyto(phase[:, low:], 3 * (p - 1), where=np.arange(low, width) >= c[lo:hi, None])
            s_p += float((u[i, lo:hi] @ (omega.take(phase) @ coeff[i, :width])).real)
            cells += phase.size
        out.append((s_p, cells))
    return out


def p1_poisson(f: FamilySpec, stats: dict | None = None) -> float:
    """P1 through the per-prime dual-lattice identity; exact up to the
    (h, k) truncation at f.tail_tol on |what|.  The prefactor keeps its own
    phihat(log p/log X) (2 log p/p^{3/2}) rather than w_1(p) log X/sqrt(p),
    equal in exact arithmetic but not to the last bit."""
    lx = f.log_x
    vals = []
    terms = cells = 0
    window_s = sum_s = 0.0
    primes = _prime_weights(f, 1)[0]
    counts: dict = {"points": 0}
    t0 = time.perf_counter()
    for grp in _dual_groups(f, primes, _dual_radii(f), counts):
        t1 = time.perf_counter()
        sums = _dual_group_sums(grp)
        t2 = time.perf_counter()
        window_s += t1 - t0
        sum_s += t2 - t1
        for p, kept, (s_p, c) in zip(grp.ps, grp.kept, sums):
            terms += kept
            cells += c
            w1 = float(f.phi.phihat(math.log(p) / lx))
            v = (2.0 * math.log(p) / p**1.5) * w1 * s_p
            # psi4(p) S_p is s_p at p = 1 (mod 4) and i * i s_p = -s_p at 3
            vals.append(v if p % 4 == 1 else -v)
        del grp  # free the group's arrays before the next group's transforms
        t0 = time.perf_counter()
    total = -(f.a_scale * f.b_scale / lx) * math.fsum(vals)
    if stats is not None:
        stats["primes"] = len(primes)
        stats["terms"] = terms
        stats["cells"] = cells
        stats["points"] = counts["points"]
        # every term is real by construction, so no imaginary part can leak;
        # a NaN s_p still shows, since it makes P1 itself NaN
        stats["imag_leak"] = 0.0
        stats["transform_s"], stats["contract_s"] = window_s, sum_s
    return total


def poisson_term_count(f: FamilySpec) -> int:
    """Summand count of the dual route without evaluating the sums."""
    groups = _dual_groups(f, _prime_weights(f, 1)[0], _dual_radii(f))
    return sum(sum(grp.kept) for grp in groups)


# ---------------------------------------------------------------------------
# P2 and the conductor average


def p2_direct(f: FamilySpec) -> float:
    """P2 over p < X^(nu/2), with lambda(p^2) = lambda(p)^2 - p throughout."""
    primes, weights = _prime_weights(f, 2)
    terms = [w * float(u @ (lam * lam - p) @ v)
             for p, w, (u, lam, v) in zip(primes, weights, _lattice_blocks(f, primes))]
    return math.fsum(terms)


def p2_predicted_over_w(f: FamilySpec) -> float:
    """The P2/W that a complete-residue average predicts: lambda(p)^2 - p
    averages -1 over (a, b) mod p, so P2/W is about
    -sum phihat(2 log p/log X) 2 log p/(p^2 log X) over the P2 primes."""
    return -math.fsum(_prime_weights(f, 2)[1])


def conductor_term(f: FamilySpec, stats: dict | None = None) -> tuple[float, float, float]:
    """(C, C_lo, C_hi): weighted averages of log N / log X over the family,
    at the heuristic conductor and at both ends of its sensitivity band.
    The weighted sums run over conductor_log_tiles' tiles and recombine by
    arith.pairwise_sum, so each equals np.sum over the whole grid bit for bit
    while no weight or log array spans the grid.  stats, when given,
    receives the sieve's "primes" and "hits" counts (conductor_log_batch)."""
    na, wa = _axis_lattice(f, 0)
    nb, wb = _axis_lattice(f, 1)

    def tile_sums():
        lo = 0
        for hi, logs in conductor_log_tiles(na, nb, stats):
            i = lo // nb.size  # the tile's weights, cut from its rows of the outer product
            wv = np.outer(wa[i:-(-hi // nb.size)], wb).ravel()[lo - i * nb.size:hi - i * nb.size]
            yield hi, np.array([wv.sum()] + [(wv * x).sum() for x in logs])
            lo = hi

    w, s_n, s_lo, s_hi = pairwise_sum(na.size * nb.size, tile_sums()).tolist()
    lx = f.log_x
    return s_n / (w * lx), s_lo / (w * lx), s_hi / (w * lx)


# ---------------------------------------------------------------------------
# report assembly


def rank_bound_exact(nu: Fraction) -> Fraction:
    """Average-rank bound 1/2 + 1/nu from the one-level density at support nu."""
    nu = Fraction(nu)
    if nu <= 0:
        raise ValueError("nu must be positive")
    return Fraction(1, 2) + 1 / nu


@dataclass
class DensityReport:
    x: float
    nu: Fraction
    method: str
    w: float
    scaled_mass: float
    p1: float
    p2: float
    p1_over_w: float
    p2_over_w: float
    p2_predicted_over_w: float
    c: float
    c_lo: float
    c_hi: float
    assembled: float
    predicted: float
    gap: float
    rank_bound: Fraction
    p1_imag_leak: float | None = None  # |Im P1| on the dual route
    term_counts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def density_report(f: FamilySpec, method: str = "auto") -> DensityReport:
    """Full pipeline at one X; method "auto" switches to the dual route once
    the prime cutoff X^nu passes TABLE_CAP."""
    if method == "auto":
        method = "poisson" if f.x ** float(f.nu) > TABLE_CAP else "direct"
    if method not in ("direct", "poisson"):
        raise ValueError(f"unknown method {method!r}")
    warnings = []
    if f.nu > NU_PROVEN_LIMIT:
        warnings.append(
            f"nu = {f.nu} exceeds 7/10; the density limit is unproven there"
        )
    timings: dict[str, float] = {}
    counts: dict[str, int] = {}
    t0 = time.perf_counter()
    w = w_total(f)
    timings["w_total"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    stats: dict = {}
    if method == "direct":
        p1, p2 = p1_direct(f, stats), stats["p2"]
        # summed worker seconds overlap in wall time, so only the serial
        # pass takes them out of p1
        timings["p1"] = time.perf_counter() - t0 - (0.0 if stats["pooled"] else stats["p2_s"])
        timings["p2"] = stats["p2_s"]
    else:
        p1 = p1_poisson(f, stats=stats)
        timings["p1"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        p2 = p2_direct(f)
        timings["p2"] = time.perf_counter() - t0
    if "transform_s" in stats:
        timings["p1_transform"] = stats["transform_s"]
        timings["p1_contract"] = stats["contract_s"]
    counts["p1_terms"] = stats.get("terms", 0)
    counts["p1_primes"] = stats.get("primes", 0)
    if "row_stacks" in stats:
        counts["p1_row_stacks"] = stats["row_stacks"]
    if "cells" in stats:
        counts["p1_cells"] = stats["cells"]
    if "points" in stats:
        counts["p1_points"] = stats["points"]
    t0 = time.perf_counter()
    c_stats: dict = {}
    c, c_lo, c_hi = conductor_term(f, c_stats)
    timings["conductor"] = time.perf_counter() - t0
    counts["conductor_primes"] = c_stats["primes"]
    counts["conductor_hits"] = c_stats["hits"]
    assembled = explicit_rhs(f.phi, c, (p1 + p2) / w)
    predicted = explicit_rhs(f.phi, 1.0, 0.0)
    return DensityReport(
        x=f.x,
        nu=f.nu,
        method=method,
        w=w,
        scaled_mass=scaled_mass(f),
        p1=p1,
        p2=p2,
        p1_over_w=p1 / w,
        p2_over_w=p2 / w,
        p2_predicted_over_w=p2_predicted_over_w(f),
        c=c,
        c_lo=c_lo,
        c_hi=c_hi,
        assembled=assembled,
        predicted=predicted,
        gap=abs(assembled - predicted),
        rank_bound=rank_bound_exact(f.nu),
        p1_imag_leak=stats.get("imag_leak"),
        term_counts=counts,
        timings=timings,
        warnings=tuple(warnings),
    )


CSV_COLUMNS = ("X", "nu", "W", "P1_over_W", "P2_over_W", "C_lo", "C", "C_hi",
               "assembled", "predicted", "gap")


def sweep_csv(reports: list[DensityReport]) -> str:
    """Deterministic CSV (repr floats) for a sweep of reports."""
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        row = (repr(r.x), str(r.nu), repr(r.w), repr(r.p1_over_w), repr(r.p2_over_w),
               repr(r.c_lo), repr(r.c), repr(r.c_hi), repr(r.assembled),
               repr(r.predicted), repr(r.gap))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def report_json(r: DensityReport) -> str:
    d = {
        "X": r.x,
        "nu": str(r.nu),
        "method": r.method,
        "W": r.w,
        "scaled_mass": r.scaled_mass,
        "P1": r.p1,
        "P2": r.p2,
        "P1_imag_leak": r.p1_imag_leak,
        "P1_over_W": r.p1_over_w,
        "P2_over_W": r.p2_over_w,
        "P2_predicted_over_W": r.p2_predicted_over_w,
        "C_lo": r.c_lo,
        "C": r.c,
        "C_hi": r.c_hi,
        "assembled": r.assembled,
        "predicted": r.predicted,
        "gap": r.gap,
        "rank_bound": str(r.rank_bound),
        "rank_bound_float": float(r.rank_bound),
        "term_counts": r.term_counts,
        "timings": r.timings,
        "warnings": list(r.warnings),
    }
    return json.dumps(d, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# dyadic block and its multiplicative-character expansion


def g_dyadic(t):
    """Smooth dyadic bump supported in (1, 2)."""
    return bump(np.asarray(t, dtype=float) - 1.0)


def _dyadic_ints(lo: float, hi: float) -> np.ndarray:
    return np.arange(math.floor(lo) + 1, math.ceil(hi), dtype=np.int64)


def s_hkp_direct(h_size: float, k_size: float, p_size: float, f: FamilySpec) -> complex:
    """Literal dyadic block:

    S = sum_{h ~ H} sum_{k ~ K} sum_{p ~ P} (log p / p^{3/2}) psi4(p) (k/p)
           e(-h^3 kbar^2/p) what(hA/p, kB/p) g(h/H) g(k/K) g(p/P),

    g = g_dyadic, p > 3 prime, and terms with p | k vanish through the symbol.
    """
    a_sc, b_sc = f.a_scale, f.b_scale
    hs = _dyadic_ints(h_size, 2 * h_size)
    ks = _dyadic_ints(k_size, 2 * k_size)
    ps = [p for p in sieve_primes(int(2 * p_size)) if p > max(3, p_size)]
    total = 0.0 + 0.0j
    for p in ps:
        gp = float(g_dyadic(p / p_size))
        if gp == 0.0:
            continue
        cp = math.log(p) / p**1.5 * psi4(p) * gp
        for k in ks:
            if k % p == 0:
                continue
            gk = float(g_dyadic(k / k_size))
            if gk == 0.0:
                continue
            lk = legendre(int(k), p)
            kinv2 = pow(int(k), -2, p)
            for h in hs:
                gh = float(g_dyadic(h / h_size))
                if gh == 0.0:
                    continue
                t = pow(int(h), 3, p) * kinv2 % p
                wv = f.weight.what(h * a_sc / p, k * b_sc / p)
                total += cp * lk * gk * gh * wv * np.exp(-2j * np.pi * t / p)
    return complex(total)


def q_dk_chi(d: int, k: int, h_size: float, k_size: float, p_size: float,
             f: FamilySpec) -> np.ndarray:
    """Inner blocks of the character expansion at divisor d | k^2, one per
    character mod q = k^2/d in character_table order:

    Q(chi) = sum_{p ~ P} sum_{h ~ H/d0} chi(p) conj(chi)(h)^3 M[p, h],
    M[p, h] = psi4(p) (k/p) e(-h^3 d0^3/(p k^2)) U,
    U = g(h d0/H) g(k/K) g(p/P) what(h d0 A/p, k B/p) (log p / p^{3/2}),

    where d0 is the least integer with d | d0^3.  The weight matches the
    literal block of s_hkp_direct term for term (h there = h d0 here).  M
    does not depend on chi, so with V the character table mod q every Q is
    one contraction, Q = sum_{p,h} V[:, p] M[p, h] conj(V[:, h])^3.  The
    phase reads (h d0)^3 mod p k^2, exact in int64 while p k^2 < 3e9.
    """
    k2 = k * k
    if k2 % d != 0:
        raise ValueError(f"d = {d} must divide k^2 = {k2}")
    q, d0 = k2 // d, cube_kernel(d)
    table = character_table(q)[1]
    hs = _dyadic_ints(h_size / d0, 2 * h_size / d0)
    primes = [p for p in sieve_primes(int(2 * p_size)) if p > max(3, p_size) and k % p]
    ps = np.array(primes, dtype=np.int64)
    cp = np.array([psi4(p) * legendre(k, p) * math.log(p) / p**1.5 for p in primes],
                  dtype=complex)
    cp *= g_dyadic(ps / p_size) * g_dyadic(k / k_size) * f.weight.axis_transform(
        1, k * f.b_scale / ps)
    hd, mod = hs * d0, (ps * k2)[:, None]  # h of the literal block, and the phase's modulus
    t = hd % mod
    t = t * t % mod * t % mod
    m = (cp[:, None] * g_dyadic(hd / h_size) * np.exp(-2j * np.pi * t / mod)
         * f.weight.axis_transform(0, hd * f.a_scale / ps[:, None]))
    return (table[:, ps % q] * (table[:, hs % q].conj() ** 3 @ m.T)).sum(axis=1)


@dataclass(frozen=True)
class ExpansionCheck:
    lhs: complex
    rhs: complex
    rel_err: float


def verify_char_expansion(h_size: float, k_size: float, p_size: float,
                          f: FamilySpec) -> ExpansionCheck:
    """Exact identity: the literal dyadic block equals

    sum_{k ~ K} sum_{d | k^2} (1/phi(k^2/d)) sum_{chi mod k^2/d}
        tau(chi) conj(chi)(d0^3/d) Q(d, k, chi),

    with tau the modulus-level Gauss sum, the first column of
    gauss_sum_matrix(q), and every Q of one (d, k) the one array of
    q_dk_chi.  Strata whose d0^3/d shares a factor with k^2/d contribute 0
    through conj(chi)(d0^3/d), so they are skipped.
    """
    lhs = s_hkp_direct(h_size, k_size, p_size, f)
    rhs = 0.0 + 0.0j
    for k in map(int, _dyadic_ints(k_size, 2 * k_size)):
        for d in divisors(k * k):
            q, c = k * k // d, cube_kernel(d) ** 3 // d
            if math.gcd(c, q) > 1:
                continue
            taus = gauss_sum_matrix(q)[2][:, 0]
            factors = character_table(q)[1][:, c % q].conj()
            rhs += taus * factors @ q_dk_chi(d, k, h_size, k_size, p_size, f) / len(taus)
    scale = max(abs(lhs), 1e-300)
    return ExpansionCheck(complex(lhs), complex(rhs), abs(lhs - rhs) / scale)


# ---------------------------------------------------------------------------
# single-curve explicit formula against listed zeros


def _single_prime_side(a: int, b: int, f: FamilySpec) -> tuple[float, float]:
    """(P1, P2) of the one curve (a, b) in one pass over the P1 primes, one
    lambda_p point count each; the P2 primes are among them and take
    lambda(p^2) = lambda(p)^2 - p from the same count."""
    primes, weights = _prime_weights(f, 1)
    w2 = _p2_weights(f, primes)
    lams = [lambda_p(a, b, p) for p in primes]
    return (math.fsum(lam * w for lam, w in zip(lams, weights)),
            math.fsum((lam * lam - p) * w2[p] for p, lam in zip(primes, lams) if p in w2))


@dataclass(frozen=True)
class ZeroList:
    label: str
    height: float
    gammas: tuple[float, ...]  # ordinates >= 0; a central zero is listed as 0


class ZeroFileError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ZeroListTooShort(ValueError):
    def __init__(self, height: float, required: float):
        super().__init__(
            f"zero list reaches height {height:g} but {required:g} is needed"
        )
        self.required = required


def parse_zero_file(path: str | Path) -> ZeroList:
    """Read '# curve=<label> T=<height>' then one ordinate per line, ascending;
    the height and every ordinate must be finite and >= 0."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ZeroFileError("missing '# curve=<label> T=<height>' header", 1)
    head = lines[0].lstrip("#").split()
    fields = dict(part.split("=", 1) for part in head if "=" in part)
    if "curve" not in fields or "T" not in fields:
        raise ZeroFileError("header must carry curve=<label> and T=<height>", 1)
    try:
        height = float(fields["T"])
    except ValueError:
        raise ZeroFileError(f"bad height {fields['T']!r}", 1)
    if not (math.isfinite(height) and height >= 0):
        raise ZeroFileError(f"height {height} is not a finite number >= 0", 1)
    gammas = []
    prev = -1.0
    for no, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            g = float(text)
        except ValueError:
            raise ZeroFileError(f"not a number: {text!r}", no)
        if not math.isfinite(g):
            raise ZeroFileError(f"ordinate {g} is not finite", no)
        if g < 0:
            raise ZeroFileError(f"ordinate {g} is negative", no)
        if g < prev:
            raise ZeroFileError(f"ordinate {g} breaks ascending order", no)
        prev = g
        gammas.append(g)
    return ZeroList(fields["curve"], height, tuple(gammas))


def write_zero_file(path: str | Path, zl: ZeroList) -> None:
    out = [f"# curve={zl.label} T={zl.height:g}"]
    out += [repr(g) for g in zl.gammas]
    Path(path).write_text("\n".join(out) + "\n")


def _zero_tail_bound(height: float, log_n_hi: float, nu: float, scale: float) -> float:
    """Bound on the neglected sum over zeros above the listed height: the test
    function envelope 1/(pi^2 nu (scale t)^2) times a zero-count density
    log(N (2+t)) per unit ordinate, integrated upward in closed form:
    int_T^inf (L + log(2+t))/t^2 dt = (L + log(2+T))/T + log1p(2/T)/2."""
    val = (log_n_hi + math.log(2.0 + height)) / height + 0.5 * math.log1p(2.0 / height)
    return 2.0 * val / (math.pi**2 * nu * scale**2)


@dataclass(frozen=True)
class CrosscheckReport:
    curve: tuple[int, int]
    x: float
    lhs: float
    rhs_lo: float
    rhs: float
    rhs_hi: float
    gap: float          # |lhs - rhs| at the heuristic conductor
    gap_band: float     # distance from lhs to the whole rhs band
    budget: float
    budget_c: float
    tail_bound: float
    required_height: float
    conductor_info: ConductorInfo
    passed: bool


DEFAULT_BUDGET_C = 4.0


def explicit_formula_crosscheck(zl: ZeroList, a: int, b: int, f: FamilySpec) -> CrosscheckReport:
    """Sum phi over listed ordinates of one curve against the prime-side
    explicit formula (analysis.explicit_rhs), with the conductor entering
    through its heuristic band.

    budget(X) = DEFAULT_BUDGET_C * (log X)^(-2/5); the residual is reported
    against it, and the listed height must make the zero tail small next to it.
    """
    lx = f.log_x
    scale = lx / (2.0 * math.pi)
    info = conductor(a, b)
    nu = float(f.nu)
    budget = DEFAULT_BUDGET_C * lx ** (-0.4)
    tail = _zero_tail_bound(max(zl.height, 1e-9), math.log(info.n_hi), nu, scale)
    req = max(zl.height, 1e-9)
    while _zero_tail_bound(req, math.log(info.n_hi), nu, scale) > 0.1 * budget:
        req *= 1.5
    if tail > 0.1 * budget:
        raise ZeroListTooShort(zl.height, req)
    lhs = math.fsum((1.0 if g < 1e-12 else 2.0) * float(f.phi.phi(g * scale))
                    for g in zl.gammas)
    p1, p2 = _single_prime_side(a, b, f)
    rhs_lo, rhs, rhs_hi = (explicit_rhs(f.phi, math.log(n) / lx, p1 + p2)
                           for n in (info.n_lo, info.n, info.n_hi))
    gap = abs(lhs - rhs)
    if rhs_lo <= lhs <= rhs_hi:
        gap_band = 0.0
    else:
        gap_band = min(abs(lhs - rhs_lo), abs(lhs - rhs_hi))
    return CrosscheckReport(
        curve=(a, b),
        x=f.x,
        lhs=lhs,
        rhs_lo=rhs_lo,
        rhs=rhs,
        rhs_hi=rhs_hi,
        gap=gap,
        gap_band=gap_band,
        budget=budget,
        budget_c=DEFAULT_BUDGET_C,
        tail_bound=tail,
        required_height=req,
        conductor_info=info,
        passed=gap_band <= budget,
    )
