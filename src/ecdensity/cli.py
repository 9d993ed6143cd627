"""Command-line front end: density sweeps, verification suites, and the
single-curve zero-list crosscheck.

Data goes to files (or stdout when no --out prefix is given); diagnostics go
to stderr.  Exit codes: 0 success, 1 contract or test failure, 2 argument or
config or file-format errors, 3 zero list truncated below the required
height.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .analysis import DEFAULT_BOX, SmoothWeight, fejer_pair
from .checks import IDENTITY_CHECKS
from .curves import conductor
from .density import (
    DEFAULT_TAIL_TOL,
    ZeroFileError,
    ZeroListTooShort,
    _dual_radii,
    check_lattice,
    density_report,
    explicit_formula_crosscheck,
    family,
    p1_poisson,
    parse_zero_file,
    report_json,
    sweep_csv,
)
from .harness import (
    DEFAULT_SEED,
    dirichlet_meanvalue_suite,
    expsum_ratio,
    gallagher_integral_suite,
    gallagher_spacing_suite,
    harness_csv,
    heathbrown_suite,
    large_sieve_suite,
    lemma_f_growth,
    weyl_ratio,
)


class ConfigError(ValueError):
    def __init__(self, message: str, line_no: int = 0):
        where = f"line {line_no}: " if line_no else ""
        super().__init__(where + message)
        self.line_no = line_no


@dataclass(frozen=True)
class RunConfig:
    x: tuple[float, ...] = (1e4,)
    nu: Fraction = Fraction(7, 10)
    box: tuple[float, float, float, float] = DEFAULT_BOX
    method: str = "auto"
    seed: int = DEFAULT_SEED
    out: str | None = None
    threads: int = 1
    tail_tol: float = DEFAULT_TAIL_TOL


_METHODS = ("auto", "direct", "poisson", "both")


def validate_config(cfg: RunConfig) -> RunConfig:
    if not cfg.x:
        raise ConfigError("empty X sweep")
    if not all(math.isfinite(v) for v in cfg.x):
        raise ConfigError("every X must be finite")
    if any(v <= 1.0 for v in cfg.x):
        raise ConfigError("every X must exceed 1")
    if list(cfg.x) != sorted(cfg.x):
        raise ConfigError("X sweep must be ascending")
    try:  # the range of nu and the box's order and finiteness each have one check
        fejer_pair(cfg.nu)
        SmoothWeight(cfg.box)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if cfg.method not in _METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if not (0 < cfg.tail_tol < 1):
        raise ConfigError("tail_tol must be in (0, 1)")
    return cfg


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.replace(",", " ").split())


def _box(text: str) -> tuple[float, ...]:
    parts = _numbers(text)
    if len(parts) != 4:
        raise ValueError("need 4 numbers")
    return parts


# Every RunConfig field: the text parser that both the config file and the
# flag use, and the flag's argparse keywords (a flag's words are joined by
# spaces before parsing).
_SETTINGS = {
    "x": (_numbers, {"nargs": "+", "metavar": "X", "help": "family size sweep"}),
    "nu": (Fraction, {"help": "support parameter, fraction or decimal"}),
    "box": (_box, {"nargs": 4, "metavar": ("X0", "X1", "Y0", "Y1")}),
    "method": (str, {"help": " | ".join(_METHODS)}),
    "seed": (int, {}),
    "threads": (int, {}),
    "tail_tol": (float, {}),
    "out": (str, {"metavar": "PREFIX", "help": "output file prefix"}),
}

# The settings each subcommand reads, as flags and config keys; the rest keep their defaults.
_COMMAND_KEYS = {
    "density": ("x", "nu", "box", "method", "threads", "tail_tol", "out"),
    "verify": ("seed", "out"),
    "crosscheck": ("x", "nu"),
}


def _parse_setting(key: str, text: str, line_no: int = 0):
    try:
        return _SETTINGS[key][0](text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}", line_no)


def _read_config(text: str, command: str | None) -> dict:
    """The unvalidated settings of key = value lines; '#' comments; unknown
    keys rejected, and so are the keys command does not read (None reads all)."""
    keys = _SETTINGS if command is None else _COMMAND_KEYS[command]
    fields: dict = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", no)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"unknown key {key!r}", no)
        if key not in keys:
            raise ConfigError(f"{command} does not read key {key!r}", no)
        fields[key] = _parse_setting(key, val, no)
    return fields


def parse_config(text: str) -> RunConfig:
    """The validated RunConfig of a config file's text (see _read_config)."""
    return validate_config(RunConfig(**_read_config(text, None)))


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _config_from_args(args) -> RunConfig:
    """The config file, overridden by the flags, validated once as merged."""
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
    fields = _read_config(text, args.command)
    for key in _COMMAND_KEYS[args.command]:
        val = getattr(args, key)
        if val is not None:
            text = " ".join(val) if isinstance(val, list) else val
            fields[key] = _parse_setting(key, text)
    if getattr(args, "suite", None) == "identities" and fields:
        raise ConfigError(f"verify identities does not read {', '.join(map(repr, fields))}")
    return validate_config(RunConfig(**fields))


def _spec_for(cfg: RunConfig, x: float):
    return family(x, cfg.nu, cfg.box, tail_tol=cfg.tail_tol, threads=cfg.threads)


def _check_lattices(cfg: RunConfig) -> None:
    """Reject, before any work, a box that is empty on an axis or holds a
    singular curve at some X of the sweep, or a tail_tol no radius certifies."""
    for x in cfg.x:
        f = _spec_for(cfg, x)
        try:
            check_lattice(f)
            _dual_radii(f)
        except ValueError as exc:
            raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# density


def _timing_summary(rep) -> str:
    """Every stage's seconds, then every term count, of one report, in the
    report's order, for the stderr summary.  On the direct route P1 and P2
    share one pass over the blocks, so p2 is the seconds of the P2
    contractions alone and p1 includes the block builds of the P2 primes
    (under the process pool, p2 adds up the workers' seconds and p1 is the
    wall time of the pass)."""
    return " ".join([f"{k}={v:.3f}s" for k, v in rep.timings.items()]
                    + [f"{k}={v}" for k, v in rep.term_counts.items()])


def cmd_density(cfg: RunConfig) -> int:
    reports = []
    for x in cfg.x:
        f = _spec_for(cfg, x)
        if cfg.method == "both":
            rep = density_report(f, "direct")
            p1p = p1_poisson(f)
            gate = 1e-6 * (1.0 + abs(rep.p1)) + 10.0 * f.tail_tol * (
                f.a_scale * f.b_scale / f.log_x)
            dual_gap = abs(rep.p1 - p1p)
            _diag(f"X={x:g} dual-path gap {dual_gap:.3e} (gate {gate:.3e})")
            if dual_gap > gate:
                _diag(f"FAIL X={x:g}: direct and Poisson paths disagree")
                return 1
        else:
            rep = density_report(f, cfg.method)
        for w in rep.warnings:
            _diag(f"warning: {w}")
        _diag(f"X={x:g} method={rep.method} assembled={rep.assembled:.6f} "
              f"predicted={rep.predicted:.6f} gap={rep.gap:.2e}")
        _diag(f"X={x:g} " + _timing_summary(rep))
        reports.append(rep)
    csv_text = sweep_csv(reports)
    if cfg.out:
        Path(f"{cfg.out}.csv").write_text(csv_text)
        body = ",\n".join(report_json(r) for r in reports)
        Path(f"{cfg.out}.json").write_text("[\n" + body + "\n]\n")
        _diag(f"wrote {cfg.out}.csv and {cfg.out}.json")
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------------------
# verify


def _lemma_suite(cfg: RunConfig) -> int:
    failed = 0
    reports = [large_sieve_suite(seed=cfg.seed),
               gallagher_spacing_suite(seed=cfg.seed),
               heathbrown_suite(seed=cfg.seed),
               gallagher_integral_suite(seed=cfg.seed),
               dirichlet_meanvalue_suite(seed=cfg.seed),
               expsum_ratio(32, 64, 1, 1, seed=cfg.seed),
               weyl_ratio(16, 128, 3, seed=cfg.seed)]
    for rep in reports:
        _diag(f"{'ok  ' if rep.passed else 'FAIL'} {rep.lemma}: "
              f"{rep.instances} instances, {rep.failures} failures, "
              f"max {rep.max_ratio:.4f} (p50 {rep.p50:.4f}, p90 {rep.p90:.4f})")
        failed += not rep.passed
    for fit in lemma_f_growth(10**5):
        _diag(f"{'ok  ' if fit.ok else 'FAIL'} growth[{fit.name}]: slope {fit.slope:.3f} "
              f"<= {fit.stated_exponent} + 0.1")
        failed += not fit.ok
    text = harness_csv(reports)
    if cfg.out:
        Path(f"{cfg.out}_ratios.csv").write_text(text)
        _diag(f"wrote {cfg.out}_ratios.csv")
    else:
        sys.stdout.write(text)
    return failed


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    failed = 0
    if suite in ("identities", "all"):
        for name, check in IDENTITY_CHECKS.items():
            t0 = time.perf_counter()
            ok, detail = check()
            dt = time.perf_counter() - t0
            _diag(f"{'ok  ' if ok else 'FAIL'} {name}: {detail} [{dt:.1f}s]")
            failed += not ok
    if suite in ("lemmas", "all"):
        failed += _lemma_suite(cfg)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# crosscheck


def cmd_crosscheck(cfg: RunConfig, zero_file: str, a: int, b: int) -> int:
    try:
        zl = parse_zero_file(zero_file)
    except OSError as exc:
        _diag(f"cannot read zero file: {exc}")
        return 2
    except ZeroFileError as exc:
        _diag(f"malformed zero file: {exc}")
        return 2
    try:
        conductor(a, b)
    except ValueError as exc:
        _diag(f"bad curve: {exc}")
        return 2
    failed = False
    for x in cfg.x:
        try:
            rep = explicit_formula_crosscheck(zl, a, b, family(x, cfg.nu))
        except ZeroListTooShort as exc:
            _diag(f"X={x:g}: zero list truncated below required height: {exc}")
            return 3
        n = rep.conductor_info
        _diag(f"X={x:g} curve=({a},{b}) N={n.n} band=[{n.n_lo},{n.n_hi}] exact={n.exact}")
        print(f"X={x!r} lhs={rep.lhs!r} rhs_lo={rep.rhs_lo!r} rhs={rep.rhs!r} "
              f"rhs_hi={rep.rhs_hi!r} gap={rep.gap!r} band_gap={rep.gap_band!r} "
              f"budget={rep.budget!r} tail={rep.tail_bound!r}")
        failed |= not rep.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecdensity",
        description="One-level density of low-lying zeros over the family "
                    "y^2 = x^3 + ax + b, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("density", help="run the density pipeline over an X sweep")
    pv = sub.add_parser("verify", help="run identity and lemma suites")
    pv.add_argument("suite", nargs="?", default="all",
                    choices=("identities", "lemmas", "all"))
    px = sub.add_parser("crosscheck",
                        help="explicit-formula check of one curve against a zero list")
    px.add_argument("zero_file")
    px.add_argument("a", type=int)
    px.add_argument("b", type=int)
    for command, sp in sub.choices.items():
        sp.add_argument("--config", metavar="PATH", help="key=value config file")
        for key in _COMMAND_KEYS[command]:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, **_SETTINGS[key][1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "density":
            _check_lattices(cfg)
    except ConfigError as exc:
        _diag(f"config error: {exc}")
        return 2
    if args.command == "density":
        return cmd_density(cfg)
    if args.command == "verify":
        return cmd_verify(cfg, args.suite)
    return cmd_crosscheck(cfg, args.zero_file, args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
