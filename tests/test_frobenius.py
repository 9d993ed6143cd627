"""Trace tables: values, identities, serialization, cache behavior."""

import math
import re
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from ecdensity.arith import legendre, psi4, sieve_primes
from ecdensity import arith, frobenius
from ecdensity.frobenius import (
    FrobTable,
    TableFormatError,
    get_table,
    lambda_p,
    lambda_rows,
    lambda_sq_total,
    lambda_table,
    legendre_table,
    load_table,
    save_table,
    sieved_blocks,
    table_path,
    twisted_closed_form,
    twisted_complete_sum,
)

PRIMES = [5, 7, 11, 13, 17, 19, 23]


def brute_lambda(a: int, b: int, p: int) -> int:
    return -sum(legendre(x**3 + a * x + b, p) for x in range(p))


def test_legendre_table_values():
    for p in PRIMES:
        t = legendre_table(p)
        assert t.shape == (p,)
        assert all(t[n] == legendre(n, p) for n in range(p))
    assert legendre_table(3).tolist() == [0, 1, -1]
    with pytest.raises(ValueError):
        legendre_table(2)


def test_lambda_p_known_values():
    assert lambda_p(1, 1, 5) == -3
    assert lambda_p(0, 1, 7) == -4
    assert lambda_p(2, 3, 11) == brute_lambda(2, 3, 11)


def test_lambda_p_rejects_small_primes():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            lambda_p(1, 1, p)


def test_table_matches_brute_force():
    for p in (5, 7, 11, 13):
        tab = lambda_table(p)
        assert tab.p == p
        for a in range(p):
            for b in range(p):
                assert tab.table[a, b] == brute_lambda(a, b, p)


def test_table_row_sums_and_hasse():
    for p in (17, 29, 53):
        tab = lambda_table(p)
        assert tab.table.sum(axis=1).tolist() == [0] * p
        hasse = 2.0 * math.sqrt(p)
        assert np.abs(tab.table).max() < hasse


def test_second_moment_identity():
    # sum over all (a, b) of lambda^2 = p^2 (p - 1), exactly
    for p in sieve_primes(100):
        if p <= 3:
            continue
        assert lambda_sq_total(p) == p * p * (p - 1)


def test_table_matches_lambda_p_every_class():
    # every p mod 3 and p mod 4 class, including the least non-residues 2, 3, 5
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        tab = lambda_table(p)
        assert tab.table.dtype == np.int16
        want = np.array([[lambda_p(a, b, p) for b in range(p)] for a in range(p)])
        assert np.array_equal(tab.table, want)


def test_lambda_rows_matches_table():
    # one row at a time, with residues given outside [0, p)
    for p in (7, 13):
        tab = lambda_table(p)
        bs = np.arange(p, dtype=np.int64)
        for a in range(p):
            assert np.array_equal(lambda_rows(p, [a], bs)[0], tab.table[a])
            assert np.array_equal(lambda_rows(p, [a - p], bs + p)[0], tab.table[a])


@pytest.mark.parametrize("p", [1009, 3163, 65537])
def test_lambda_rows_random_blocks(rng, p):
    # alpha = 0, a repeated alpha and unsorted betas, against direct summation;
    # at 65537 many products beta * d^-3 pass the int32 range
    alphas = [0] + [rng.randrange(1, p) for _ in range(6)]
    alphas += [alphas[3], 0]
    betas = [rng.randrange(p) for _ in range(12)] + [0]
    block = lambda_rows(p, np.array(alphas), np.array(betas))
    assert block.shape == (len(alphas), len(betas))
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            assert block[i, j] == lambda_p(a, b, p)


@pytest.mark.parametrize("p", [5, 7, 1009, 3163, 46349, 65537])
def test_lambda_rows_without_alpha_zero(rng, p):
    # no alpha = 0 (mod p): only base rows 1 and g are correlated.  The FFT
    # pads 2p to 4p - 2 at p = 65537; from 46,349 the columns are int64
    alphas = [rng.randrange(1, p) for _ in range(6)] + [1, p + 1, p - 1]
    betas = [rng.randrange(p) for _ in range(10)] + [0, p - 1]
    block = lambda_rows(p, np.array(alphas), np.array(betas))
    assert block.dtype == np.int16 and block.shape == (len(alphas), len(betas))
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            assert block[i, j] == lambda_p(a, b, p)
    # the same rows read through the three-row path with alpha = 0 asked too
    assert np.array_equal(lambda_rows(p, np.array([0] + alphas), np.array(betas))[1:], block)


def _chunk(rng, ps, with_zero):
    """Random alphas (0 among them where with_zero says) and betas per prime."""
    alphas = [[0] * z + [rng.randrange(1, p) for _ in range(5)] + [p - 1]
              for p, z in zip(ps, with_zero)]
    betas = [[rng.randrange(p) for _ in range(7)] + [0] for p in ps]
    return alphas, betas


def test_sieved_blocks_across_an_fft_length(rng):
    # 503, 509 transform at n = 1024 and 521, 523 at 2048: two stacked runs,
    # each mixing primes with and without alpha = 0, give the one-prime blocks
    ps = [503, 509, 521, 523]
    assert [frobenius._fft_len(p) for p in ps] == [1024, 1024, 2048, 2048]
    alphas, betas = _chunk(rng, ps, [True, False, False, True])
    stats: dict = {}
    blocks = list(sieved_blocks(ps, alphas, betas, stats))
    assert stats == {"row_stacks": 2}
    for p, al, be, block in zip(ps, alphas, betas, blocks, strict=True):
        assert np.array_equal(block, lambda_rows(p, al, be))
        assert block[0, 1] == lambda_p(al[0], be[1], p)


def test_sieved_blocks_split_runs_at_the_sample_cap(rng, monkeypatch):
    # four primes of n = 1024 hold 4 + 3 + 3 + 4 rows of 1024 samples; a cap
    # of 7 rows' worth splits them into two runs, a cap below one prime's
    # rows into runs of one, and every block stays the one-prime block
    ps = [257, 263, 269, 271]
    alphas, betas = _chunk(rng, ps, [True, False, False, True])
    want = [lambda_rows(p, al, be) for p, al, be in zip(ps, alphas, betas)]
    n = [frobenius._fft_len(p) for p in ps]
    costs = [(1 + k) * m for k, m in zip([3, 2, 2, 3], n)]
    assert [list(r) for r in arith.runs(costs, 7 * 1024, n)] == [[0, 1], [2, 3]]
    for cap, runs in ((7 * 1024, 2), (1024, 4), (14 * 1024, 1)):
        monkeypatch.setattr(frobenius, "_STACK_SAMPLES", cap)
        stats: dict = {}
        blocks = list(sieved_blocks(ps, alphas, betas, stats))
        assert stats["row_stacks"] == runs
        assert all(np.array_equal(b, w) for b, w in zip(blocks, want, strict=True))


def test_stacked_audit_names_the_failing_prime():
    # one audit covers the stacked rows of a run and names the primes whose
    # rows fail: a nonzero row sum at 7, a Hasse violation at 11
    rows = np.array([[1, -1, 0], [2, -1, 0], [8, -8, 0]])
    frobenius._audit(rows[:1], 5)
    with pytest.raises(RuntimeError, match=r"p=7, 11$"):
        frobenius._audit(rows, np.array([[5], [7], [11]]))


def test_twist_identity(rng):
    # lambda(d^2 alpha, d^3 beta) = (d/p) lambda(alpha, beta), by direct sums
    for _ in range(40):
        p = rng.choice(PRIMES + [101, 409])
        a, b, d = rng.randrange(p), rng.randrange(p), rng.randrange(1, p)
        assert brute_lambda(d * d * a, d**3 * b, p) == legendre(d, p) * brute_lambda(a, b, p)


def test_twisted_sum_closed_form():
    # sum over (a, b) of lambda * e((ha + kb)/p) has a closed form built
    # from psi4, the Legendre symbol, and a cubic-phase Gauss factor
    for p in (5, 7, 11, 13, 19, 31):
        scale = p**1.5
        for h, k in [(0, 1), (1, 1), (2, 3), (0, 0)]:
            d = twisted_complete_sum(p, h, k)
            c = twisted_closed_form(p, h, k)
            assert abs(d - c) < 1e-6 * scale


def test_twisted_sum_frozen_value():
    # (p, h, k) = (5, 0, 1): the sum collapses to -psi4(5) * 5^(3/2)
    val = twisted_complete_sum(5, 0, 1)
    assert abs(val - (-psi4(5) * 5**1.5)) < 1e-9


def _v1_file(tab):
    # the retired v1 layout: same header, 8-byte checksum trailer
    payload = np.ascontiguousarray(tab.table, dtype="<i2").tobytes()
    return b"FRBT" + struct.pack("<IQB", 1, tab.p, 2) + payload + bytes(8)


def test_save_load_round_trip(tmp_path):
    tab = lambda_table(11)
    path = tmp_path / "t.frbt"
    save_table(tab, path)
    back = load_table(path)
    assert back.p == 11
    assert np.array_equal(back.table, tab.table)


def _traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_table_is_one_read_and_a_view(tmp_path):
    # one buffer as large as the file, and the table is a view of it
    tab = lambda_table(631)
    path = tmp_path / "t.frbt"
    save_table(tab, path)
    back, peak = _traced_peak(load_table, path, 631)
    assert peak < 1.1 * path.stat().st_size
    assert back.p == 631 and back.table.shape == (631, 631)
    assert back.table.dtype == np.int16 and back.table.dtype.isnative
    assert not back.table.flags.writeable
    assert np.array_equal(back.table, tab.table)


def test_save_table_writes_the_format_without_copies(tmp_path):
    # the file is the header, the int16 payload and the CRC32 of both; the
    # p = 631 table (0.76 MiB) is written with no copy of it in memory
    for p in (29, 631):
        tab = lambda_table(p)
        path = tmp_path / f"t{p}.frbt"
        _, peak = _traced_peak(save_table, tab, path)
        body = b"FRBT" + struct.pack("<IQB", 2, p, 2) + tab.table.astype("<i2").tobytes()
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))
    assert peak < 0.1 * path.stat().st_size


def test_load_rejects_corruption(tmp_path):
    tab = lambda_table(11)
    path = tmp_path / "t.frbt"
    save_table(tab, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(TableFormatError):
        load_table(path)


def test_load_rejects_truncation_and_garbage(tmp_path):
    tab = lambda_table(7)
    path = tmp_path / "t.frbt"
    save_table(tab, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(TableFormatError):
        load_table(path)
    path.write_bytes(b"not a table at all")
    with pytest.raises(TableFormatError):
        load_table(path)
    path.write_bytes(_v1_file(tab))
    with pytest.raises(TableFormatError, match="unsupported version 1"):
        load_table(path)


def test_load_names_each_rejection(tmp_path):
    tab = lambda_table(13)
    path = tmp_path / "t.frbt"
    save_table(tab, path)
    good = path.read_bytes()

    def edit(at, new):
        return good[:at] + new + good[at + len(new):]

    cases = [
        (good[:20], {}, "truncated header"),
        (edit(0, b"FRBX"), {}, "bad magic b'FRBX'"),
        (edit(4, struct.pack("<I", 3)), {}, "unsupported version 3"),
        (edit(16, b"\x04"), {}, "unsupported entry width 4"),
        (good, {"p": 17}, "holds the table for p=13, not 17"),
        (good + b"\x00", {}, f"wrong length {len(good) + 1}, expected {len(good)}"),
        (edit(len(good) - 1, bytes([good[-1] ^ 1])), {}, "checksum mismatch"),
    ]
    for raw, kw, reason in cases:
        path.write_bytes(raw)
        with pytest.raises(TableFormatError, match=re.escape(f"{path}: {reason}")):
            load_table(path, **kw)


def test_get_table_uses_cache(tmp_path):
    p = 13
    path = table_path(p, tmp_path)
    assert not path.exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a missing entry is filled silently
        t1 = get_table(p, tmp_path)
    assert path.exists()
    flipped = bytearray(path.read_bytes())
    flipped[-1] ^= 0xFF
    # poison the in-file copy; a fresh load must detect it, recompute,
    # return correct values and replace the entry with a loadable one,
    # warning with the path and the reason
    for poisoned, reason in ((bytes(flipped), "checksum mismatch"),
                             (_v1_file(t1), "unsupported version 1")):
        path.write_bytes(poisoned)
        with pytest.raises(TableFormatError):
            load_table(path)
        with pytest.warns(RuntimeWarning, match=re.escape(f"{path}: {reason}")):
            t2 = get_table(p, tmp_path)
        assert np.array_equal(t1.table, t2.table)
        assert np.array_equal(t1.table, lambda_table(p).table)
        assert np.array_equal(load_table(path).table, lambda_table(p).table)


def test_get_table_rejects_another_primes_entry(tmp_path):
    # a valid file for p = 29 under the name of p = 31 is a corrupt entry:
    # warned about, recomputed and overwritten with the table for 31
    save_table(lambda_table(29), table_path(31, tmp_path))
    with pytest.raises(TableFormatError, match="p=29, not 31"):
        load_table(table_path(31, tmp_path), 31)
    with pytest.warns(RuntimeWarning, match="holds the table for p=29, not 31"):
        tab = get_table(31, tmp_path)
    assert tab.p == 31
    assert np.array_equal(tab.table, lambda_table(31).table)
    assert load_table(table_path(31, tmp_path), 31).p == 31


def test_get_table_without_cache(tmp_path, monkeypatch):
    # no directory, no file: not in the working directory, not under home
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    t = get_table(17)
    assert list(tmp_path.iterdir()) == []
    assert t.p == 17


def test_table_file_is_deterministic(tmp_path):
    a, b = tmp_path / "a.frbt", tmp_path / "b.frbt"
    save_table(lambda_table(19), a)
    save_table(lambda_table(19), b)
    assert a.read_bytes() == b.read_bytes()
