"""Traces of Frobenius for y^2 = x^3 + a x + b over F_p, p > 3.

lambda(a, b, p) = -sum_x ((x^3 + a x + b)/p), so #E(F_p) = p + 1 - lambda for
nonsingular reductions; the same Legendre-sum value is used at singular
residue pairs.  Degree-p^2 entries follow the convention
lambda(a, b, p^2) = lambda(a, b, p)^2 - p at every p > 3.

Residue rows come from one evaluator, sieved_blocks, which takes a list of
primes the caller has sieved (lambda_rows is its one-prime call, which
checks that p is prime):
real-FFT linear correlations against the doubled Legendre sequence for the
base rows 1 and g (g the primitive root of characters.dlog_tables), plus
row 0 only when some alpha = 0 (mod p) is asked for, and every other row by
the quadratic twist lambda(d^2 alpha, d^3 beta) = (d/p) lambda(alpha, beta)
(Silverman, AEC III.1) as one integer gather, so a full table costs three
correlations plus O(p^2).  Consecutive primes that share one FFT length
form a run (arith.runs cuts them under _STACK_SAMPLES), and each run is
handled as one stack, which saves the per-call overhead that dominates
below p of a few thousand: one stacked context of
discrete-log tables (characters.dlog_tables) supplies everything mod p the
rows need (the Legendre sequence, the twist d and its (d/p), and d^-3); the
value counts of every base row come from one offset bincount; one rfft of
the Legendre sequences, one of the counts and one irfft give all base rows,
which take one audit; and one twist gather serves each stretch of the run
whose blocks share a shape.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import dataclass
from itertools import accumulate, groupby
from pathlib import Path
from typing import Iterator

import numpy as np

from .arith import is_prime, legendre, mod_inverse, psi4, runs
from .characters import dlog_tables

TABLE_MAGIC = b"FRBT"
TABLE_VERSION = 2
# Residue-row correlations of consecutive primes that share one FFT length
# are stacked into one rfft/irfft per run of at most _STACK_SAMPLES samples.
# On a 2-core host (one BLAS thread) direct P1 at family(1e4) took 33 ms in
# runs of one prime against 27, 26 and 25 ms at caps of 2^14, 2^15 and 2^16
# (medians of 60), and at 1e5 282 ms against 242 and 230 ms at 2^15 and 2^16
# (medians of 21), within the host's noise of each other.  At family(1e7)
# the traced peak (tracemalloc) of P2 is 1.28 MiB in runs of one prime, 1.49
# at 2^15 and 1.85 at 2^16; a fresh process running W, P2 and the conductor
# average there peaks at 40.3-40.5 MiB RSS under all three, the peak that
# building family(1e7) reaches before any of them runs.  Under 2^15, primes
# above 2,048 are runs of one.
_STACK_SAMPLES = 1 << 15

def _check_p(p: int) -> None:
    if p <= 3 or not is_prime(p):
        raise ValueError(f"need a prime p > 3, got {p}")


def legendre_table(p: int) -> np.ndarray:
    """ls[t] = (t/p) as int8 for an odd prime p, built from the squares mod p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime p, got {p}")
    ls = np.full(p, -1, dtype=np.int8)
    ls[0] = 0
    x = np.arange(1, p, dtype=np.int64)
    ls[(x * x) % p] = 1
    return ls


def lambda_p(a: int, b: int, p: int) -> int:
    """Trace of Frobenius by direct Legendre summation, O(p)."""
    _check_p(p)
    ls = legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    vals = (x * x % p * x + a % p * x + b) % p
    return -int(ls[vals].sum())


@dataclass(frozen=True)
class FrobTable:
    """Complete residue table: table[alpha, beta] = lambda(alpha, beta, p)."""

    p: int
    table: np.ndarray  # int16, shape (p, p), read-only

    def __post_init__(self):
        self.table.setflags(write=False)


def _audit(lam: np.ndarray, p) -> None:
    """Integer audits of lambda rows: each row sums to 0, |lambda| < 2 sqrt(p).
    p is one prime or a column holding the prime of each row."""
    hasse = np.ravel(2.0 * np.sqrt(p))
    bad = (np.abs(lam).max(axis=1) >= hasse + 0.5) | (lam.sum(axis=1) != 0)
    if bad.any():
        primes = np.unique(np.broadcast_to(np.ravel(p), bad.shape)[bad]).tolist()
        raise RuntimeError(f"table audit failed for p={', '.join(map(str, primes))}")


def _fft_len(p: int) -> int:
    """The least power of two >= 2p, the length of p's linear correlation."""
    return 1 << (2 * p - 1).bit_length()


def _base_rows(ps: list[int], nrows: list[int]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """(pw, dl, base, first) for a run of primes sharing one FFT length n:
    the stacked tables of characters.dlog_tables, and the int16 base rows
    c = 1, g (0, 1, g when nrows[i] is 3) of lambda(c, beta), beta = 0..p-1,
    prime i's at base[first[i]:first[i] + nrows[i]], zero past p.  The
    doubled Legendre sequences, (t/p) = (-1)^dl(t), and the value counts of
    x^3 + c x (one offset bincount) are stacked, zero-padded to n, into one
    rfft each; all rows come back from one irfft and take one audit."""
    n = _fft_len(ps[0])
    pw, dl = dlog_tables(ps)
    q = np.array(ps, dtype=np.int64)[:, None]
    w = dl.shape[1]  # max(ps); rfft zero-pads the rows from 2w and w to n
    t = np.arange(w, dtype=np.int64)
    inside = t < q
    ls = np.where(dl & 1, -1.0, 1.0) * inside
    ls[:, 0] = 0.0
    ls2 = np.zeros((len(ps), 2 * w))
    ls2[:, :w] = ls
    ls2.ravel()[q + t + np.arange(0, ls2.size, 2 * w)[:, None]] = ls  # the period at p..2p-1
    first = list(accumulate(nrows[:-1], initial=0))
    prime = np.repeat(np.arange(len(ps)), nrows)  # the prime of each row
    c = np.array([v for gi, k in zip(pw[:, 1].tolist(), nrows)
                  for v in ((0, 1, gi) if k == 3 else (1, gi))], dtype=np.int64)
    cubes = t * t % q * t
    vals = (cubes[prime] + c[:, None] * t) % q[prime] + (np.arange(c.size) * w)[:, None]
    counts = np.bincount(vals[inside[prime]], minlength=c.size * w).reshape(c.size, w)
    spec = np.conj(np.fft.rfft(counts, n, axis=1))
    for lf, i, k in zip(np.fft.rfft(ls2, n, axis=1), first, nrows):
        spec[i:i + k] *= lf  # in place: a fresh spectrum-sized array costs more
    base = -np.rint(np.fft.irfft(spec, n, axis=1)[:, :w]) * inside[prime]
    _audit(base, q[prime])
    return pw, dl, base.astype(np.int16), first


def sieved_blocks(ps: list[int], alphas, betas, stats: dict | None = None
                  ) -> Iterator[np.ndarray]:
    """lambda(alpha, beta, p) over alphas[i] x betas[i] at each prime
    p = ps[i] > 3, which the caller has sieved (no primality check), yielded in
    order as int16 arrays of shape (len(alphas[i]), len(betas[i])).

    Base rows c = 1, g, and c = 0 only when some alpha = 0 (mod p), are the
    correlation -sum_t counts_c[t] ((t + beta)/p) of the value counts of
    x^3 + c x, taken as a linear correlation against the doubled Legendre
    sequence by real FFTs at n, the least power of two >= 2p; exact after
    rounding (|lambda| < 2 sqrt(p) << the double mantissa; the audits catch a
    failure).  Consecutive primes with one n are transformed together, one
    stacked rfft of their Legendre sequences, one of their counts and one
    irfft per run, each run holding at most _STACK_SAMPLES samples (a prime
    above that is a run of its own) and reading one dlog_tables context;
    stats["row_stacks"], when stats is given, is increased by the number of
    runs.  Any other row alpha = g^t is c d^2 with c = g^(t mod 2) and
    d = g^floor(t/2), so it is read off as
    lambda(alpha, beta) = (d/p) lambda(c, beta d^-3 mod p), with
    (d/p) = (-1)^floor(t/2) and d^-3 = g^(-3 floor(t/2)).
    """
    a = [np.asarray(al, dtype=np.int64) % p for al, p in zip(alphas, ps)]
    b = [np.asarray(be, dtype=np.int64) % p for be, p in zip(betas, ps)]
    nrows = [3 if (ai == 0).any() else 2 for ai in a]
    n = [_fft_len(p) for p in ps]  # a prime stacks a Legendre row and nrows count rows
    for run in runs([(1 + k) * m for k, m in zip(nrows, n)], _STACK_SAMPLES, n):
        if stats is not None:
            stats["row_stacks"] = stats.get("row_stacks", 0) + 1
        pw, dl, base, first = _base_rows([ps[i] for i in run], [nrows[i] for i in run])
        # the row c = 1 of each prime, after its row c = 0 when it has one
        one = np.array([f + nrows[i] - 2 for f, i in zip(first, run)])
        # the base rows then their negatives, read by flat index: row r of
        # signed is -base[r - len(base)] past len(base)
        signed = np.concatenate((base, -base)).ravel()
        w = base.shape[1]
        # one twist gather per stretch of the run whose blocks share a shape
        for _, same in groupby(enumerate(run), key=lambda e: (a[e[1]].size, b[e[1]].size)):
            js, idx = zip(*same)
            j = np.array(js)[:, None]
            q = np.array([ps[i] for i in idx], dtype=np.int64)[:, None]
            al = np.array([a[i] for i in idx])
            # alpha = g^t -> base row c = g^(t & 1), twist d = g^(t >> 1);
            # alpha = 0 reads row 0 with d = 1 (dl[0] = 0)
            t = dl[j, al]
            row = np.where(al == 0, one[j] - 1, one[j] + (t & 1))
            half = t >> 1
            dt = np.int32 if q.max() < 46341 else np.int64  # beta * d^-3 < p^2 fits int32
            step = pw[j, -3 * half % (q - 1)].astype(dt)
            be = np.array([b[i] for i in idx], dtype=dt)
            cols = be[:, None, :] * step[:, :, None] % q.astype(dt)[:, :, None]
            row += np.where(half & 1, len(base), 0)  # (d/p) = -1 reads the negated row
            yield from signed.take(cols + (row * w)[:, :, None])


def lambda_rows(p: int, alphas, betas) -> np.ndarray:
    """lambda(alpha, beta, p) over alphas x betas, an int16 array of shape
    (len(alphas), len(betas)): the one-prime call of sieved_blocks, whose
    docstring gives the method."""
    _check_p(p)
    return next(sieved_blocks([int(p)], [alphas], [betas]))


def lambda_table(p: int) -> FrobTable:
    """All lambda(alpha, beta, p): three correlations plus an O(p^2) gather
    (lambda_rows over every residue), audited again as a whole."""
    res = np.arange(p)
    lam = lambda_rows(p, res, res)
    _audit(lam, p)
    return FrobTable(p, lam)


def lambda_sq_total(p: int) -> int:
    """sum over all residue pairs of lambda^2; equals p^2 (p - 1)."""
    t = lambda_table(p).table.astype(np.int64)
    return int((t * t).sum())


# ---------------------------------------------------------------------------
# complete character-twisted sums


def twisted_complete_sum(p: int, h: int, k: int, tab: FrobTable | None = None) -> complex:
    """Brute force sum over all residues of lambda(alpha,beta,p) e((h alpha + k beta)/p)."""
    _check_p(p)
    if tab is None:
        tab = lambda_table(p)
    idx = np.arange(p)
    eh = np.exp(2j * np.pi * (h % p) * idx / p)
    ek = np.exp(2j * np.pi * (k % p) * idx / p)
    return complex(eh @ tab.table.astype(np.float64) @ ek)


def twisted_closed_form(p: int, h: int, k: int) -> complex:
    """Closed form: -(k/p) psi4(p) p^{3/2} e(-h^3 kbar^2 / p); 0 when p | k."""
    _check_p(p)
    if k % p == 0:
        return 0.0 + 0.0j
    kinv = mod_inverse(k % p, p)
    t = pow(h % p, 3, p) * kinv % p * kinv % p
    return -legendre(k, p) * psi4(p) * p**1.5 * np.exp(-2j * np.pi * t / p)


# ---------------------------------------------------------------------------
# binary cache: magic, version u32, p u64, entry width u8, int16 payload,
# zlib.crc32 of everything before it as u32


def save_table(tab: FrobTable, path: str | Path) -> None:
    """Write the header, the table's own buffer and the CRC chained over
    both, with no copy of the table in memory."""
    payload = np.ascontiguousarray(tab.table, dtype="<i2")
    head = TABLE_MAGIC + struct.pack("<IQB", TABLE_VERSION, tab.p, 2)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))


class TableFormatError(ValueError):
    pass


def load_table(path: str | Path, p: int | None = None) -> FrobTable:
    """Read a cached table; any mismatch (magic, version, size, CRC, and the
    header's prime when p is given) raises.  The file is read once, every
    check runs on that buffer, and the table is a read-only view of it."""
    raw = Path(path).read_bytes()
    if len(raw) < 21:
        raise TableFormatError(f"{path}: truncated header")
    if not raw.startswith(TABLE_MAGIC):
        raise TableFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, hp, width = struct.unpack_from("<IQB", raw, 4)
    if version != TABLE_VERSION:
        raise TableFormatError(f"{path}: unsupported version {version}")
    if width != 2:
        raise TableFormatError(f"{path}: unsupported entry width {width}")
    if p is not None and hp != p:
        raise TableFormatError(f"{path}: holds the table for p={hp}, not {p}")
    need = 17 + 2 * hp * hp + 4
    if len(raw) != need:
        raise TableFormatError(f"{path}: wrong length {len(raw)}, expected {need}")
    (stored,) = struct.unpack_from("<I", raw, need - 4)
    if zlib.crc32(memoryview(raw)[:-4]) != stored:
        raise TableFormatError(f"{path}: checksum mismatch")
    table = np.frombuffer(raw, "<i2", count=hp * hp, offset=17).astype(np.int16, copy=False)
    return FrobTable(int(hp), table.reshape(hp, hp))


def table_path(p: int, directory: str | Path) -> Path:
    return Path(directory) / f"frob_p{p}.frbt"


def get_table(p: int, directory: str | Path | None = None) -> FrobTable:
    """The table for p, read through the cache in `directory` when one is given.

    With no directory the table is computed and no file is touched.  With
    one, a valid entry is loaded; a missing, corrupt or older-format entry,
    or one whose header holds another prime, is recomputed and, when the
    directory exists, overwritten with the fresh table.  Every entry but a
    missing one first emits a RuntimeWarning that names the file and what is
    wrong with it.
    """
    if directory is None:
        return lambda_table(p)
    path = table_path(p, directory)
    if path.exists():
        try:
            return load_table(path, p)
        except TableFormatError as exc:
            warnings.warn(f"recomputing table cache entry: {exc}", RuntimeWarning, stacklevel=2)
    tab = lambda_table(p)
    if path.parent.is_dir():
        save_table(tab, path)
    return tab
