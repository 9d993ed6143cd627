"""Checks on the benchmark's tracer and metric lists.

    python3 -m pytest bench/test_spans.py -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import UNITS, Tracer  # noqa: E402

E = run.load_library()


def _report(f, method) -> dict:
    d = json.loads(E.density.report_json(E.density.density_report(f, method)))
    d.pop("timings")
    return d


@pytest.mark.parametrize("method", ["direct", "poisson"])
def test_traced_report_is_bit_identical(method, tmp_path):
    f = E.family(2e3, threads=1, cache_dir=str(tmp_path))
    plain = _report(f, method)
    originals = (E.density.get_table, E.frobenius.load_table,
                 E.analysis.SmoothWeight.axis_transform)
    tracer = Tracer()
    tracer.call = 0
    with tracer.installed(E):
        assert E.density.get_table is E.frobenius.get_table is not originals[0]
        traced = _report(f, method)
    assert traced == plain
    assert (E.density.get_table, E.frobenius.load_table,
            E.analysis.SmoothWeight.axis_transform) == originals
    m = tracer.layer_metrics()
    assert m["density.p1_terms"] == plain["term_counts"]["p1_terms"]
    assert 0 < m["density.p1_self_s"] <= m["density.p1_s"]


def test_cache_counts_come_from_spans(tmp_path):
    f = E.family(2e3, threads=1, cache_dir=str(tmp_path))
    tracer = Tracer()
    with tracer.installed(E):
        run.fill_cache(E, f)                      # set-up: every lookup misses
        tables = sorted(tmp_path.glob("*.frbt"))
        raw = bytearray(tables[-1].read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        tables[-1].write_bytes(bytes(raw))
        tracer.call = 0
        E.density.density_report(f, "direct")
    m = tracer.layer_metrics()
    assert m["frobenius.save_bytes"] == sum(p.stat().st_size for p in tables)
    assert m["frobenius.cache_corrupt"] == 1
    assert m["frobenius.cache_miss"] == 0
    assert m["frobenius.cache_hit"] == m["density.p1_primes"] + m["density.p2_primes"] - 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
