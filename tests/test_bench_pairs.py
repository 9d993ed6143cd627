"""The parent/change pairs script: its summary on fixed numbers."""

import importlib.util
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


def test_paths_of_different_lengths_are_refused(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    assert bench_pairs.same_length_paths(str(a), str(b)) == (a.resolve(), b.resolve())
    with pytest.raises(ValueError, match="differ in length"):
        bench_pairs.same_length_paths(str(a), str(tmp_path / "changed"))
