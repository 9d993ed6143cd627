"""Traces of Frobenius for y^2 = x^3 + a x + b over F_p, p > 3.

lambda(a, b, p) = -sum_x ((x^3 + a x + b)/p), so #E(F_p) = p + 1 - lambda for
nonsingular reductions; the same Legendre-sum value is used at singular
residue pairs.  Degree-p^2 entries follow the convention
lambda(a, b, p^2) = lambda(a, b, p)^2 - p at every p > 3.

Residue rows come from one evaluator, lambda_blocks, which takes a list of
primes (lambda_rows is its one-prime call): real-FFT linear correlations
against the doubled Legendre sequence for the base rows 1 and g (g the
primitive root of characters.dlog_table), plus row 0 only when some
alpha = 0 (mod p) is asked for, and every other row by the quadratic twist
lambda(d^2 alpha, d^3 beta) = (d/p) lambda(alpha, beta) (Silverman, AEC
III.1) as one integer gather, so a full table costs three correlations plus
O(p^2).  The correlations of consecutive primes that share one FFT length
run as one stacked rfft/irfft, which saves the per-call overhead that
dominates below p of a few thousand.  The one discrete-log table mod p
supplies everything mod p the rows need: the Legendre sequence, the twist d
and its (d/p), and d^-3.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .arith import is_prime, legendre, mod_inverse, psi4
from .characters import dlog_table

TABLE_MAGIC = b"FRBT"
TABLE_VERSION = 2
TABLE_CAP = 1000  # the largest p read through the disk cache; auto routing's cutoff
# Residue-row correlations of consecutive primes that share one FFT length
# are stacked into one rfft/irfft per run of at most _STACK_SAMPLES samples.
# On a 2-core host (one BLAS thread) direct P1 at family(1e4) took 33 ms in
# runs of one prime against 27, 26 and 25 ms at caps of 2^14, 2^15 and 2^16
# (medians of 60), and at 1e5 282 ms against 242 and 230 ms at 2^15 and 2^16
# (medians of 21), within the host's noise of each other.  2^16 raised the
# peak RSS of P2 plus the conductor average at family(1e7) from 53.2 to
# 54.1 MiB; 2^15 leaves it at 53.3.  Under 2^15, primes above 2,048 are runs
# of one.
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


def lambda_p2(a: int, b: int, p: int) -> int:
    """lambda at p^2 under the lambda^2 - p convention (all p > 3)."""
    lam = lambda_p(a, b, p)
    return lam * lam - p


@dataclass(frozen=True)
class FrobTable:
    """Complete residue table: table[alpha, beta] = lambda(alpha, beta, p)."""

    p: int
    table: np.ndarray  # int16, shape (p, p), read-only

    def __post_init__(self):
        self.table.setflags(write=False)


def _audit(lam: np.ndarray, p: int) -> None:
    """Integer audits of lambda rows: each row sums to 0, |lambda| < 2 sqrt(p)."""
    hasse = 2.0 * math.sqrt(p)
    if np.abs(lam).max() >= hasse + 0.5 or np.abs(lam.sum(axis=1)).max() != 0:
        raise RuntimeError(f"table audit failed for p={p}")


def _fft_len(p: int) -> int:
    """The least power of two >= 2p, the length of p's linear correlation."""
    return 1 << (2 * p - 1).bit_length()


def _row_runs(ps: list[int], nrows: list[int], cap: int) -> Iterator[range]:
    """Split ps into runs of consecutive primes with one FFT length n whose
    stacked samples, (1 + nrows[i]) n per prime (its Legendre row and its
    count rows), stay within cap; a prime that alone exceeds cap is a run."""
    start = used = 0
    for i, p in enumerate(ps):
        need = (1 + nrows[i]) * _fft_len(p)
        if i > start and (_fft_len(p) != _fft_len(ps[start]) or used + need > cap):
            yield range(start, i)
            start, used = i, 0
        used += need
    if ps:
        yield range(start, len(ps))


def _base_rows(ps: list[int], nrows: list[int]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(pw, dl, base) for each prime of a run sharing one FFT length n: the
    dlog table mod p and the int16 base rows c = 1, g (0, 1, g when nrows[i]
    is 3) of lambda(c, beta), beta = 0..p-1.  The doubled Legendre sequences and
    the value counts of x^3 + c x are stacked, zero-padded to n, into one
    rfft each, and all rows come back from one irfft."""
    n = _fft_len(ps[0])
    tabs = [dlog_table(p) for p in ps]
    # each prime's rows of counts and corr
    spans = [slice(e - k, e) for k, e in zip(nrows, np.cumsum(nrows).tolist())]
    w = max(ps)  # rfft zero-pads the rows from 2w and w to n
    ls2 = np.zeros((len(ps), 2 * w))
    counts = np.zeros((sum(nrows), w))
    for p, (pw, dl), ls, span in zip(ps, tabs, ls2, spans):
        ls[:p] = np.where(dl & 1, -1.0, 1.0)  # (t/p) = (-1)^dl(t)
        ls[0] = 0.0
        ls[p : 2 * p] = ls[:p]
        x = np.arange(p, dtype=np.int64)
        cubes = x * x % p * x % p
        rows = counts[span]
        cs = (0, 1, int(pw[1])) if len(rows) == 3 else (1, int(pw[1]))
        for row, c in zip(rows, cs):
            row[:p] = np.bincount((cubes + c * x) % p, minlength=p)
    spec = np.conj(np.fft.rfft(counts, n, axis=1))
    for lf, span in zip(np.fft.rfft(ls2, n, axis=1), spans):
        spec[span] *= lf  # in place: a fresh spectrum-sized array costs more
    corr = np.fft.irfft(spec, n, axis=1)
    out = []
    for p, (pw, dl), span in zip(ps, tabs, spans):
        base = -np.rint(corr[span, :p])
        _audit(base, p)
        out.append((pw, dl, base.astype(np.int16)))
    return out


def lambda_blocks(ps, alphas, betas, stats: dict | None = None) -> Iterator[np.ndarray]:
    """lambda(alpha, beta, p) over alphas[i] x betas[i] at each p = ps[i],
    yielded in order as int16 arrays of shape (len(alphas[i]), len(betas[i])).

    Base rows c = 1, g, and c = 0 only when some alpha = 0 (mod p), are the
    correlation -sum_t counts_c[t] ((t + beta)/p) of the value counts of
    x^3 + c x, taken as a linear correlation against the doubled Legendre
    sequence by real FFTs at n, the least power of two >= 2p; exact after
    rounding (|lambda| < 2 sqrt(p) << the double mantissa; the audits catch a
    failure).  Consecutive primes with one n are transformed together, one
    stacked rfft of their Legendre sequences, one of their counts and one
    irfft per run, each run holding at most _STACK_SAMPLES samples (a prime
    above that is a run of its own); stats["row_stacks"], when stats is
    given, is increased by the number of runs.  Any other row alpha = g^t is
    c d^2 with c = g^(t mod 2) and d = g^floor(t/2), so it is read off as
    lambda(alpha, beta) = (d/p) lambda(c, beta d^-3 mod p), with
    (d/p) = (-1)^floor(t/2) and d^-3 = g^(-3 floor(t/2)).
    """
    ps = [int(p) for p in ps]
    for p in ps:
        _check_p(p)
    a = [np.asarray(al, dtype=np.int64) % p for al, p in zip(alphas, ps)]
    nrows = [3 if (ai == 0).any() else 2 for ai in a]
    for run in _row_runs(ps, nrows, _STACK_SAMPLES):
        if stats is not None:
            stats["row_stacks"] = stats.get("row_stacks", 0) + 1
        bases = _base_rows([ps[i] for i in run], [nrows[i] for i in run])
        for i, (pw, dl, base) in zip(run, bases):
            p = ps[i]
            # alpha = g^t -> base row c = g^(t & 1), twist d = g^(t >> 1);
            # alpha = 0 reads row 0 with d = 1 (dl[0] = 0)
            t = dl[a[i]]
            row = np.where(a[i] == 0, 0, 1 + (t & 1)) if nrows[i] == 3 else t & 1
            half = t >> 1
            dt = np.int32 if p < 46341 else np.int64  # beta * d^-3 < p^2 fits int32
            step = pw[-3 * half % (p - 1)].astype(dt)
            b = (np.asarray(betas[i], dtype=np.int64) % p).astype(dt)
            cols = b[None, :] * step[:, None] % p
            sign = np.where(half & 1, -1, 1).astype(np.int16)
            yield base[row[:, None], cols] * sign[:, None]


def lambda_rows(p: int, alphas, betas) -> np.ndarray:
    """lambda(alpha, beta, p) over alphas x betas, an int16 array of shape
    (len(alphas), len(betas)): the one-prime call of lambda_blocks, whose
    docstring gives the method."""
    return next(lambda_blocks([p], [alphas], [betas]))


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
    payload = np.ascontiguousarray(tab.table, dtype="<i2").tobytes()
    head = TABLE_MAGIC + struct.pack("<IQB", TABLE_VERSION, tab.p, 2)
    body = head + payload
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


class TableFormatError(ValueError):
    pass


def load_table(path: str | Path, p: int | None = None) -> FrobTable:
    """Read a cached table; any mismatch (magic, version, size, CRC, and the
    header's prime when p is given) raises."""
    raw = Path(path).read_bytes()
    if len(raw) < 21:
        raise TableFormatError(f"{path}: truncated header")
    if raw[:4] != TABLE_MAGIC:
        raise TableFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, hp, width = struct.unpack("<IQB", raw[4:17])
    if version != TABLE_VERSION:
        raise TableFormatError(f"{path}: unsupported version {version}")
    if width != 2:
        raise TableFormatError(f"{path}: unsupported entry width {width}")
    if p is not None and hp != p:
        raise TableFormatError(f"{path}: holds the table for p={hp}, not {p}")
    need = 17 + 2 * hp * hp + 4
    if len(raw) != need:
        raise TableFormatError(f"{path}: wrong length {len(raw)}, expected {need}")
    (stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != stored:
        raise TableFormatError(f"{path}: checksum mismatch")
    table = np.frombuffer(raw[17:-4], dtype="<i2").reshape(hp, hp).astype(np.int16)
    return FrobTable(int(hp), table)


def cache_dir() -> Path:
    """Cache directory; ECDENSITY_CACHE_DIR overrides the default."""
    env = os.environ.get("ECDENSITY_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ecdensity"


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
