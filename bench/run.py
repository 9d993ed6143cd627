#!/usr/bin/env python3
"""ecdensity benchmark: drives the public library API from one process.

    python3 bench/run.py --workload dual_1e5 --seed 0 --seconds 15 --trace 0

Run from the repository root; the library is imported from the
checkout's src/ and nowhere else.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of bench/spans.py.  Every metric is printed
by name with its unit, a full record goes to bench/out/BENCH_*.json, and the
last line of stdout is one JSON object.  bench/README.md explains the
workloads, the metrics and the output check.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the benchmark measures one single-threaded
# process (FamilySpec.threads = 1), and one BLAS thread keeps a shared
# 2-core host from adding its own contention to the timings.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from spans import UNITS as LAYER_UNITS, Tracer, arg_getter  # noqa: E402

ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

CANONICAL_SEED = 0
JITTER = 0.01           # other seeds scale X by exp(U(-JITTER, JITTER))
SETUP_REPS = 3          # cold set-ups timed per run; setup_s is their median
SETUP_TIMEOUT = 150.0
REL_TOL = 1e-8          # stored-output tolerance, see bench/README.md
LEAK_TOL = 1e-9         # |Im P1| allowed, relative to |P1|
RANK_BOUND = Fraction(27, 14)


@dataclass(frozen=True)
class Workload:
    x: float
    cached: bool        # cache_dir set, filled during set-up
    report: bool        # density_report; else W, P2 and the conductor average


WORKLOADS = {
    "dual_1e5": Workload(1e5, cached=False, report=True),
    "direct_1e4": Workload(1e4, cached=False, report=True),
    "cached_1e4": Workload(1e4, cached=True, report=True),
    "conductor_1e7": Workload(1e7, cached=False, report=False),
}


def workload_x(wl: Workload, seed: int) -> float:
    if seed == CANONICAL_SEED:
        return wl.x
    return float(round(wl.x * math.exp(random.Random(seed).uniform(-JITTER, JITTER))))


def load_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ecdensity
    except ImportError as exc:
        sys.exit(f"bench: cannot import ecdensity from {src}: {exc}")
    if Path(ecdensity.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: ecdensity was imported from {ecdensity.__file__}, not {src}")
    return ecdensity


def fill_cache(E, f) -> None:
    """Write through get_table every table the call reads (p < X^nu)."""
    Path(f.cache_dir).mkdir(parents=True, exist_ok=True)
    for p in E.arith.sieve_primes(int(f.x ** float(f.nu))):
        if p >= 5:
            E.frobenius.get_table(p, f.cache_dir)


def set_up(E, wl: Workload, x: float, cache_dir: str | None) -> None:
    """The one-time work before the first timed call: one warm-up family()
    and, when the workload reads the disk cache, filling it."""
    f = E.density.family(x, threads=1, cache_dir=cache_dir)
    if wl.cached:
        fill_cache(E, f)


# ---------------------------------------------------------------------------
# one top-level call and its output check


@dataclass
class Output:
    values: dict        # stored/compared figures
    row: str            # byte-compared across calls of a run
    method: str | None
    imag_leak: float | None


@contextmanager
def p1_stats_tap(E):
    """Keep the stats dict that density_report hands to p1_direct/p1_poisson;
    the report drops it, and it carries the imaginary leak."""
    d = E.density
    seen: list[dict] = []
    saved = {name: getattr(d, name) for name in ("p1_direct", "p1_poisson")}

    def tap(fn):
        stats_of = arg_getter(fn, "stats")

        @functools.wraps(fn)
        def p1(*args, **kwargs):
            out = fn(*args, **kwargs)
            stats = stats_of(args, kwargs)
            if stats is not None:
                seen.append(stats)
            return out
        return p1
    try:
        for name, fn in saved.items():
            setattr(d, name, tap(fn))
        yield seen
    finally:
        for name, fn in saved.items():
            setattr(d, name, fn)


def top_level_call(E, wl: Workload, x: float, cache_dir: str | None, seen: list) -> Output:
    d = E.density
    f = d.family(x, threads=1, cache_dir=cache_dir)
    if not wl.report:
        w = d.w_total(f)
        p2 = d.p2_direct(f)
        c, c_lo, c_hi = d.conductor_term(f)
        values = {"W": w, "P2": p2, "C_lo": c_lo, "C": c, "C_hi": c_hi}
        return Output(values, ",".join(repr(v) for v in values.values()), None, None)
    seen.clear()
    rep = d.density_report(f)
    values = {"W": rep.w, "P1": rep.p1, "P2": rep.p2, "C_lo": rep.c_lo, "C": rep.c,
              "C_hi": rep.c_hi, "assembled": rep.assembled,
              "rank_bound": str(rep.rank_bound),
              "p1_terms": rep.term_counts.get("p1_terms")}
    leak = seen[-1].get("imag_leak") if seen else None
    return Output(values, d.sweep_csv([rep]).splitlines()[1], rep.method, leak)


def check(out: Output, first_row: str, expected: dict | None) -> list[str]:
    """Problems with one call's output; empty when it passes."""
    v = out.values
    bad = []
    if out.row != first_row:
        bad.append("sweep row differs from the first call's")
    floats = {k: x for k, x in v.items() if isinstance(x, float)}
    bad += [f"{k} = {x!r} is not finite" for k, x in floats.items() if not math.isfinite(x)]
    if not v["C_lo"] <= v["C"] <= v["C_hi"]:
        bad.append(f"conductor band out of order: {v['C_lo']!r} {v['C']!r} {v['C_hi']!r}")
    if "rank_bound" in v and Fraction(v["rank_bound"]) != RANK_BOUND:
        bad.append(f"rank bound {v['rank_bound']} != {RANK_BOUND}")
    if out.method == "poisson" and not (out.imag_leak is not None
                                        and out.imag_leak <= LEAK_TOL * abs(v["P1"])):
        bad.append(f"imaginary leak {out.imag_leak!r} not small next to |P1| = {abs(v['P1'])!r}")
    if expected is not None:
        for k, ref in expected.items():
            got = v.get(k)
            if isinstance(ref, float):
                if got is None or not abs(got - ref) <= REL_TOL * abs(ref):
                    bad.append(f"{k} = {got!r}, stored {ref!r}")
            elif got != ref:
                bad.append(f"{k} = {got!r}, stored {ref!r}")
    return bad


# ---------------------------------------------------------------------------
# set-up timing in child processes


def child_setup(wl_name: str, seed: int, cache_dir: str | None) -> float:
    """Wall seconds from starting a fresh `run.py --setup-only` until it
    reports ready: interpreter start, import, set_up()."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", wl_name,
           "--seed", str(seed)]
    if cache_dir is not None:
        cmd += ["--cache-dir", cache_dir]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode}): {line!r}")
    return elapsed


# ---------------------------------------------------------------------------
# environment record


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it exports one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            so = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "openblas_num_threads": BLAS_THREADS,
            "openblas_threads_in_effect": blas_threads_in_effect(),
            "machine": platform.machine(), "family_threads": 1}


# ---------------------------------------------------------------------------
# main


E2E_UNITS = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_frac": "frac"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cache-dir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    x = workload_x(wl, args.seed)
    E = load_library()
    if args.setup_only:
        set_up(E, wl, x, args.cache_dir)
        print("ready", flush=True)
        return 0

    canonical = args.seed == CANONICAL_SEED
    expected = json.loads(EXPECTED.read_text())[args.workload] if canonical else None
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        setups: list[float] = []
        if tracer is not None:
            cache_dir = str(scratch / "cache") if wl.cached else None
            with tracer.installed(E):
                set_up(E, wl, x, cache_dir)
        else:
            # the timed calls read the cache the last child filled
            cache_dir = None
            for i in range(SETUP_REPS):
                cache_dir = str(scratch / f"cache{i}") if wl.cached else None
                setups.append(child_setup(args.workload, args.seed, cache_dir))
            E.density.family(x, threads=1, cache_dir=cache_dir)

        plain: list[float] = []
        traced: list[float] = []
        failures: list[list[str]] = []
        first: Output | None = None
        with p1_stats_tap(E) as seen:
            def timed(samples, label):
                nonlocal first
                t0 = time.perf_counter()
                out = top_level_call(E, wl, x, cache_dir, seen)
                samples.append(time.perf_counter() - t0)
                if first is None:
                    first = out
                failures.append(check(out, first.row, expected))
                if failures[-1]:
                    print(f"call {label}: FAILED {'; '.join(failures[-1])}", file=sys.stderr)

            if tracer is not None:
                # The first call in a process is slower (see bench/README.md);
                # keep it out of the traced-vs-untraced comparison.
                timed([], len(failures))
            start = time.perf_counter()
            while True:
                timed(plain, len(failures))
                if tracer is not None:
                    tracer.call = len(failures)
                    with tracer.installed(E):
                        timed(traced, len(failures))
                if time.perf_counter() - start >= args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    report_s = statistics.median(plain)
    if tracer is None:
        metrics = {"report_s": report_s, "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb, "pass_frac": (attempted - failed) / attempted}
        units = E2E_UNITS
    else:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = statistics.median(traced) / report_s - 1.0
        metrics = {k: metrics[k] for k in LAYER_UNITS}
        units = LAYER_UNITS

    label = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "canonical": canonical, "x": x,
        "seconds": args.seconds, "trace": args.trace, "closed_loop_clients": 1,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {"report_s": plain, "traced_report_s": traced, "setup_s": setups},
        "outputs": first.values, "method": first.method, "p1_imag_leak": first.imag_leak,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [f for f in failures if f],
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (OUT / f"{label}_spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  X {x:g}  calls {attempted}  "
          f"failed {failed}")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:>16.6g} {units[k]}")
    print(f"record {OUT / (label + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
