#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository's benchmark.

    python3 tools/bench_pairs.py PARENT CHANGE --label NAME [--seed S] [--workloads W ...]

PARENT and CHANGE are two checkouts (fresh copies, not worktrees) whose
absolute paths have the same length: the heap layout, and with it
`peak_rss_mb`, shifts with the length of the path the interpreter is started
from, so paths of different lengths are refused.  For each workload of
BENCHMARK.json and each of ten pairs, the script runs the benchmark command
(`python3 bench/run.py --workload W --seed S --seconds T`, T the benchmark's
run_seconds) once in each checkout, alternating which goes first, and reads
the last JSON line of each run's stdout.  A run that exits non-zero or
whose last line reports "correct": false stops the script with an error
that names the checkout, the workload and the pair; otherwise it writes
BENCH_<label>.json at the root of the repository it lives in: per workload
and end-to-end metric, both medians, the parent's interquartile range, the
pairs the change won (a tie counts for neither) and two verdicts, next to
every run's values.  `gain` holds when the change won at least 9 of 10
pairs and its median beats the parent's by more than the parent's IQR;
`regressed` holds when its median is worse than the parent's by more than
the metric's bound times the parent's median.  Before every run the script
reads the host's 1-minute load average (os.getloadavg()): the record keeps
one value per run under `load_1min`, and the script prints each workload's
range, so medians taken on a loaded host can be told apart.  The script only
runs the benchmark command; it reads and writes nothing under bench/ itself.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
GAIN_SHARE = 0.9  # of the pairs the change must win to claim a gain


def same_length_paths(parent: str, change: str) -> tuple[Path, Path]:
    """Both checkouts as absolute paths; ValueError when their lengths differ."""
    a, b = Path(parent).resolve(), Path(change).resolve()
    if len(str(a)) != len(str(b)):
        raise ValueError(f"checkout paths differ in length ({len(str(a))} and "
                         f"{len(str(b))} characters): {a} {b}")
    return a, b


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """The metrics of one benchmark run: {name: value} from its last JSON line.
    RuntimeError when the run exits non-zero or reports "correct": false, so
    no failed run's timings reach the medians."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    record = json.loads(lines[-1])
    if record.get("correct") is False:
        raise RuntimeError(f"the run reported \"correct\": false ({record.get('failed')} of "
                           f"{record.get('attempted')} calls failed)")
    return {k: v["value"] for k, v in record["metrics"].items()}


def iqr(values: list[float]) -> float:
    """Distance between the quartiles (inclusive method, numpy's default)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per metric of `metrics` (BENCHMARK.json's end_to_end entries): both
    medians, the parent's IQR, the pairs the change won, run i of parent
    paired with run i of change, and the verdicts `gain` and `regressed`
    (None when the metric has no bound)."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        pv = [r[name] for r in parent]
        cv = [r[name] for r in change]
        pm, cm, spread = statistics.median(pv), statistics.median(cv), iqr(pv)
        won = sum(sign * (p - c) > 0 for p, c in zip(pv, cv))
        bound = m.get("bound")
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": bound,
                     "parent_median": pm, "change_median": cm,
                     "parent_iqr": spread, "pairs": len(pv), "won": won,
                     "gain": won >= GAIN_SHARE * len(pv) and sign * (pm - cm) > spread,
                     "regressed": None if bound is None else sign * (cm - pm) > bound * pm,
                     "parent": pv, "change": cv}
    return out


def summary_line(workload: str, name: str, s: dict) -> str:
    """One metric's summary as the script prints it."""
    return (f"{workload:14s} {name:12s} {s['parent_median']:.4g} -> {s['change_median']:.4g} "
            f"{s['unit']} (parent IQR {s['parent_iqr']:.3g}, won {s['won']}/{s['pairs']}) "
            f"gain={s['gain']} regressed={s['regressed']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads", nargs="+", help="default: every workload")
    args = ap.parse_args(argv)
    try:
        parent, change = same_length_paths(args.parent, args.change)
    except ValueError as exc:
        ap.error(str(exc))
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    result = {"label": args.label, "command": spec["command"], "seed": args.seed,
              "seconds": seconds, "pairs": PAIRS, "parent": parent.name,
              "change": change.name,
              "environment": {"python": platform.python_version(),
                              "nproc": len(os.sched_getaffinity(0)),
                              "machine": platform.machine()},
              "workloads": {}, "load_1min": {}}
    for wl in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        loads: dict[str, list[float]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = parent if side == "parent" else change
                loads[side].append(os.getloadavg()[0])
                try:
                    runs[side].append(run_once(checkout, spec["command"], wl, args.seed, seconds))
                except RuntimeError as exc:
                    sys.exit(f"bench_pairs: {checkout}, workload {wl}, pair {i + 1}/{PAIRS}: {exc}")
            print(f"{wl} pair {i + 1}/{PAIRS} done", file=sys.stderr)
        summary = summarize(runs["parent"], runs["change"], spec["end_to_end"])
        result["workloads"][wl] = summary
        result["load_1min"][wl] = loads
        for name, s in summary.items():
            print(summary_line(wl, name, s))
        every = loads["parent"] + loads["change"]
        print(f"{wl:14s} load_1min    {min(every):.2f}-{max(every):.2f} over {len(every)} runs")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
