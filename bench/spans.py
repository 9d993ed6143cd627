"""Outside-in span tracer for the ecdensity benchmark.

Tracer wraps public functions of the ecdensity modules from outside: each
function is replaced on its defining module and on every ecdensity module
that bound the same object by name at import (density imports get_table,
conductor_log_batch and sieve_primes that way).  Each wrapped call records a
span (name, start, end, parent, call id, attributes); spans stay in memory
until the benchmark writes them out.  layer_metrics() turns the spans of one
top-level call into the per-layer metrics listed in bench/README.md.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

SETUP = "setup"

# every per-layer metric with its unit, in report order
UNITS = {
    "analysis.family_s": "s",
    "analysis.axis_transform_s": "s",
    "analysis.axis_transform_calls": "count",
    "analysis.axis_transform_points": "count",
    "analysis.axis_transform_points_per_s": "1/s",
    "density.w_total_s": "s",
    "density.p1_s": "s",
    "density.p1_self_s": "s",
    "density.p1_primes": "count",
    "density.p1_terms": "count",
    "density.p1_terms_per_s": "1/s",
    "density.p1_imag_leak": "abs",
    "density.p2_s": "s",
    "density.p2_primes": "count",
    "density.conductor_s": "s",
    "frobenius.lambda_table_s": "s",
    "frobenius.lambda_table_calls": "count",
    "frobenius.table_entries": "count",
    "frobenius.load_table_s": "s",
    "frobenius.load_bytes": "B",
    "frobenius.load_mb_per_s": "MB/s",
    "frobenius.save_table_s": "s",
    "frobenius.save_bytes": "B",
    "frobenius.cache_hit": "count",
    "frobenius.cache_miss": "count",
    "frobenius.cache_corrupt": "count",
    "frobenius.cache_hit_ratio": "frac",
    "curves.conductor_log_batch_s": "s",
    "curves.curves": "count",
    "curves.curves_per_s": "1/s",
    "arith.sieve_primes_s": "s",
    "trace.overhead_frac": "frac",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "attrs", "error")

    def __init__(self, name, parent, call):
        self.name = name
        self.parent = parent
        self.call = call
        self.start = self.end = 0.0
        self.attrs = {}
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "call": self.call, "attrs": self.attrs,
                "error": self.error}


def arg_getter(fn, name):
    """Extractor for one named argument of fn, however the caller passed it."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments.get(name)
    return get


def _file_size(path) -> int:
    return os.stat(path).st_size


def _targets(E):
    """(owner, attribute, span name, attrs(args, kwargs, result) or None)."""
    d, fr = E.density, E.frobenius
    p1_stats = {fn: arg_getter(getattr(d, fn), "stats") for fn in ("p1_direct", "p1_poisson")}
    u_arg = arg_getter(E.analysis.SmoothWeight.axis_transform, "u")
    load_path = arg_getter(fr.load_table, "path")
    save_path = arg_getter(fr.save_table, "path")

    def p1_attrs(fn):
        def attrs(a, k, out):
            stats = p1_stats[fn](a, k) or {}
            return {"route": fn, **stats}
        return attrs

    return [
        # family() builds the test pair and the SmoothWeight of the analysis layer
        (d, "family", "analysis.family", None),
        (E.analysis.SmoothWeight, "axis_transform", "analysis.axis_transform",
         lambda a, k, out: {"points": int(np.size(u_arg(a, k)))}),
        (d, "w_total", "density.w_total", None),
        (d, "p1_direct", "density.p1", p1_attrs("p1_direct")),
        (d, "p1_poisson", "density.p1", p1_attrs("p1_poisson")),
        (d, "p2_direct", "density.p2", None),
        (d, "conductor_term", "density.conductor", None),
        (fr, "get_table", "frobenius.get_table", None),
        (fr, "lambda_table", "frobenius.lambda_table",
         lambda a, k, out: {"entries": int(out.table.size)}),
        (fr, "load_table", "frobenius.load_table",
         lambda a, k, out: {"bytes": _file_size(load_path(a, k))}),
        (fr, "save_table", "frobenius.save_table",
         lambda a, k, out: {"bytes": _file_size(save_path(a, k))}),
        (E.curves, "conductor_log_batch", "curves.conductor_log_batch",
         lambda a, k, out: {"curves": int(out[0].size)}),
        (E.arith, "sieve_primes", "arith.sieve_primes", None),
    ]


class Tracer:
    """Collects spans; `call` labels the spans of the current top-level call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = SETUP
        self._stack: list[int] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.call)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self, E):
        """Patch every target for the duration of the block, then restore."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "ecdensity" or n.startswith("ecdensity.")]
        undo = []
        try:
            for owner, attr, name, attrs in _targets(E):
                orig = owner.__dict__[attr]
                traced = self._wrap(name, orig, attrs)
                holders = [owner] + [m for m in mods
                                     if m is not owner and m.__dict__.get(attr) is orig]
                for h in holders:
                    setattr(h, attr, traced)
                    undo.append((h, attr, orig))
            yield self
        finally:
            for h, attr, orig in reversed(undo):
                setattr(h, attr, orig)

    def dump(self) -> list[dict]:
        return [s.as_dict(i) for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: the median over traced calls of each call's
        figure, except save_table_* which total the traced set-up (the cache
        fill is the only place tables are written)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        by_call: dict[object, list[tuple[int, Span]]] = {}
        for i, s in enumerate(self.spans):
            by_call.setdefault(s.call, []).append((i, s))
        calls = [c for c in by_call if c != SETUP]
        per_call = [_call_metrics(by_call[c], children) for c in calls]
        out = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]} if per_call else {}
        setup = [s for _, s in by_call.get(SETUP, []) if s.name == "frobenius.save_table"]
        out["frobenius.save_table_s"] = sum(s.duration for s in setup)
        out["frobenius.save_bytes"] = sum(s.attrs.get("bytes", 0) for s in setup)
        return out


def _rate(n: float, secs: float) -> float:
    return n / secs if secs > 0 else 0.0


def _call_metrics(indexed: list[tuple[int, Span]], children) -> dict[str, float]:
    def spans(name):
        return [(i, s) for i, s in indexed if s.name == name]

    def secs(name):
        return sum(s.duration for _, s in spans(name))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for _, s in spans(name))

    def self_time(i, s):
        return s.duration - sum(c.duration for c in children.get(i, []))

    hit = miss = corrupt = 0
    for i, _ in spans("frobenius.get_table"):
        kids = children.get(i, [])
        loads = [c for c in kids if c.name == "frobenius.load_table"]
        built = any(c.name == "frobenius.lambda_table" for c in kids)
        if not built:
            hit += 1
        elif any(c.error for c in loads):
            corrupt += 1
        else:
            miss += 1
    lookups = hit + miss + corrupt

    at_s, at_pts = secs("analysis.axis_transform"), attr("analysis.axis_transform", "points")
    p1_s, p1_terms = secs("density.p1"), attr("density.p1", "terms")
    load_s, load_b = secs("frobenius.load_table"), attr("frobenius.load_table", "bytes")
    cb_s, n_curves = secs("curves.conductor_log_batch"), attr("curves.conductor_log_batch", "curves")
    return {
        "analysis.family_s": secs("analysis.family"),
        "analysis.axis_transform_s": at_s,
        "analysis.axis_transform_calls": len(spans("analysis.axis_transform")),
        "analysis.axis_transform_points": at_pts,
        "analysis.axis_transform_points_per_s": _rate(at_pts, at_s),
        "density.w_total_s": secs("density.w_total"),
        "density.p1_s": p1_s,
        "density.p1_self_s": sum(self_time(i, s) for i, s in spans("density.p1")),
        "density.p1_primes": attr("density.p1", "primes"),
        "density.p1_terms": p1_terms,
        "density.p1_terms_per_s": _rate(p1_terms, p1_s),
        "density.p1_imag_leak": attr("density.p1", "imag_leak"),
        "density.p2_s": secs("density.p2"),
        "density.p2_primes": sum(1 for i, _ in spans("density.p2") for c in children.get(i, [])
                                 if c.name == "frobenius.get_table"),
        "density.conductor_s": secs("density.conductor"),
        "frobenius.lambda_table_s": secs("frobenius.lambda_table"),
        "frobenius.lambda_table_calls": len(spans("frobenius.lambda_table")),
        "frobenius.table_entries": attr("frobenius.lambda_table", "entries"),
        "frobenius.load_table_s": load_s,
        "frobenius.load_bytes": load_b,
        "frobenius.load_mb_per_s": _rate(load_b / 1e6, load_s),
        "frobenius.cache_hit": hit,
        "frobenius.cache_miss": miss,
        "frobenius.cache_corrupt": corrupt,
        "frobenius.cache_hit_ratio": hit / lookups if lookups else 0.0,
        "curves.conductor_log_batch_s": cb_s,
        "curves.curves": n_curves,
        "curves.curves_per_s": _rate(n_curves, cb_s),
        "arith.sieve_primes_s": secs("arith.sieve_primes"),
    }
