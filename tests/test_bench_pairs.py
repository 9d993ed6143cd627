"""The parent/change pairs script: its summary on fixed numbers."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
           {"name": "pass_frac", "unit": "frac", "better": "higher", "bound": 0.01}]


def test_summary_on_fixed_numbers():
    parent = [{"peak_rss_mb": v, "pass_frac": 1.0} for v in (42.0, 42.5, 41.0, 43.0, 42.25)]
    change = [{"peak_rss_mb": v, "pass_frac": f}
              for v, f in ((37.0, 1.0), (42.5, 1.0), (36.0, 0.5), (44.0, 1.0), (36.5, 1.0))]
    s = bench_pairs.summarize(parent, change, METRICS)
    rss = s["peak_rss_mb"]
    assert rss["parent_median"] == 42.25 and rss["change_median"] == 37.0
    # inclusive quartiles of 41, 42, 42.25, 42.5, 43: 42 and 42.5
    assert rss["parent_iqr"] == 0.5
    # lower is better; the tie at 42.5 counts for neither side
    assert rss["won"] == 3 and rss["pairs"] == 5
    frac = s["pass_frac"]
    # higher is better: four ties and one loss win nothing
    assert frac["won"] == 0 and frac["change_median"] == 1.0 and frac["parent_iqr"] == 0.0
    assert rss["parent"] == [42.0, 42.5, 41.0, 43.0, 42.25]
    # 3 of 5 pairs claim no gain however far the medians moved; 5.25 MiB
    # lower is no regression, and neither is pass_frac's unchanged median
    assert (rss["gain"], rss["regressed"]) == (False, False)
    assert (frac["gain"], frac["regressed"]) == (False, False)
    assert bench_pairs.summary_line("w", "peak_rss_mb", rss) == (
        "w              peak_rss_mb  42.25 -> 37 MiB (parent IQR 0.5, won 3/5) "
        "gain=False regressed=False")


@pytest.mark.parametrize("shift, frac, gain, regressed", [
    pytest.param(-2.0, 1.0, True, False, id="gain"),
    pytest.param(-0.25, 1.0, False, False, id="won-all-inside-iqr"),
    pytest.param(4.0, 1.0, False, False, id="worse-inside-bound"),
    pytest.param(4.5, 0.98, False, True, id="regressed"),
])
def test_verdicts_on_fixed_numbers(shift, frac, gain, regressed):
    # peak_rss_mb, lower is better: parent median 42.25 and IQR 0.5, so a
    # gain needs all 5 pairs (9 of 10 scaled to 5) and a median more than 0.5
    # lower; the bound 0.1 makes a median above 46.475 a regression.
    # pass_frac, higher is better: 0.98 against 1.0 is worse by more than 0.01
    parent = [{"peak_rss_mb": v, "pass_frac": 1.0} for v in (42.0, 42.5, 41.0, 43.0, 42.25)]
    change = [{"peak_rss_mb": r["peak_rss_mb"] + shift, "pass_frac": frac} for r in parent]
    s = bench_pairs.summarize(parent, change, METRICS)
    assert (s["peak_rss_mb"]["gain"], s["peak_rss_mb"]["regressed"]) == (gain, regressed)
    assert (s["pass_frac"]["gain"], s["pass_frac"]["regressed"]) == (False, frac < 1.0)


def test_paths_of_different_lengths_are_refused(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    assert bench_pairs.same_length_paths(str(a), str(b)) == (a.resolve(), b.resolve())
    with pytest.raises(ValueError, match="differ in length"):
        bench_pairs.same_length_paths(str(a), str(tmp_path / "changed"))


def test_a_run_reporting_incorrect_output_stops_the_pairs(tmp_path, monkeypatch):
    # a stub benchmark in two checkouts: the parent's runs pass, the change's
    # report "correct": false, so pair 1 stops before any medians are taken
    spec = {"command": [sys.executable, "stub.py"], "run_seconds": 1,
            "workloads": [{"name": "stub_wl"}], "end_to_end": METRICS}
    for side, correct in (("parent", True), ("change", False)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
        record = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                  "metrics": {m["name"]: {"value": 1.0} for m in METRICS}}
        (tmp_path / side / "stub.py").write_text(f"print({json.dumps(json.dumps(record))})\n")
    assert bench_pairs.run_once(tmp_path / "parent", spec["command"], "stub_wl", 0, 1) == {
        "peak_rss_mb": 1.0, "pass_frac": 1.0}
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)  # where BENCH_<label>.json would go
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "stub"])
    assert str(stop.value) == (f"bench_pairs: {tmp_path / 'change'}, workload stub_wl, pair 1/10: "
                               "the run reported \"correct\": false (1 of 3 calls failed)")
    assert not (tmp_path / "BENCH_stub.json").exists()


def test_every_run_records_the_load_average(tmp_path, monkeypatch, capsys):
    # a stub benchmark whose runs pass in both checkouts: the record holds one
    # load value per run, read before it, and the script prints their range
    spec = {"command": [sys.executable, "stub.py"], "run_seconds": 1,
            "workloads": [{"name": "stub_wl"}], "end_to_end": METRICS}
    record = {"correct": True, "metrics": {m["name"]: {"value": 1.0} for m in METRICS}}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
        (tmp_path / side / "stub.py").write_text(f"print({json.dumps(json.dumps(record))})\n")
    readings = iter(range(100))
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (float(next(readings)), 0.0, 0.0))
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--label", "stub"]) == 0
    loads = json.loads((tmp_path / "BENCH_stub.json").read_text())["load_1min"]
    # pair 1 runs the parent first, pair 2 the change
    assert loads == {"stub_wl": {"parent": [0.0, 3.0], "change": [1.0, 2.0]}}
    assert "stub_wl        load_1min    0.00-3.00 over 4 runs" in capsys.readouterr().out
