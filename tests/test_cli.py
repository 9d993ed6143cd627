"""Config file handling, subcommand exit codes, output artifacts."""

import dataclasses
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from ecdensity import cli
from ecdensity.analysis import SmoothWeight
from ecdensity.checks import IDENTITY_CHECKS
from ecdensity.harness import large_sieve_suite
from ecdensity.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    validate_config,
)

DATA = Path(__file__).parent / "data" / "curve_m16_16_zeros.txt"
README = Path(__file__).parents[1] / "README.md"


# -- config files ----------------------------------------------------------

def test_parse_config_comments_and_layout():
    cfg = parse_config(
        "# sweep setup\n"
        "x = 1e3 1e4 1e5\n"
        "nu = 7/10\n"
        "\n"
        "method = direct\n"
    )
    assert cfg.x == (1e3, 1e4, 1e5)
    assert cfg.nu == Fraction(7, 10)
    assert cfg.method == "direct"


def test_parse_config_comma_separated_x():
    assert parse_config("x = 1e2, 1e3\n").x == (100.0, 1000.0)


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as e:
        parse_config("x = 1e3\nbogus_key = 1\n")
    assert e.value.line_no == 2
    with pytest.raises(ConfigError) as e:
        parse_config("x = 1e3\n\nnot a pair\n")
    assert e.value.line_no == 3
    with pytest.raises(ConfigError):
        parse_config("nu = zero\n")


def test_validate_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        validate_config(RunConfig(x=(1e4, 1e3)))        # not ascending
    with pytest.raises(ConfigError):
        validate_config(RunConfig(nu=Fraction(3, 2)))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(box=(1.0, 0.5, 0.5, 1.0)))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(method="fastest"))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(threads=0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(tail_tol=2.0))


# -- density ---------------------------------------------------------------

def test_density_stdout_csv(capsys):
    rc = main(["density", "--x", "250"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("X,nu,")
    assert len(lines) == 2
    assert lines[1].startswith("250.0,7/10,")


def test_density_writes_files(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["density", "--x", "250", "500", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.count("\n") == 3
    blob = json.loads((tmp_path / "run.json").read_text())
    assert [r["X"] for r in blob] == [250.0, 500.0]


def test_density_stderr_explains_timing(capsys):
    rc = main(["density", "--x", "250", "--method", "poisson"])
    captured = capsys.readouterr()
    assert rc == 0
    summary, timing = captured.err.strip().splitlines()
    assert summary.startswith("X=250 method=poisson assembled=")
    assert timing.startswith("X=250 w_total=")
    keys = [part.split("=")[0] for part in timing.split()[1:]]
    assert keys == ["w_total", "p1", "p2", "p1_transform", "p1_contract", "conductor",
                    "p1_terms", "p1_primes", "p1_cells", "p1_points",
                    "conductor_primes", "conductor_hits"]
    # the CSV on stdout is the one sweep_csv writes
    assert captured.out == cli.sweep_csv([cli.density_report(cli.family(250), "poisson")])
    main(["density", "--x", "250", "--method", "direct"])
    timing = capsys.readouterr().err.strip().splitlines()[1]
    assert "p1_transform" not in timing and "p1_cells=" in timing
    assert "p1_row_stacks=" in timing


def test_density_both_methods_cross_validate(capsys):
    rc = main(["density", "--x", "250", "--method", "both"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "dual-path gap" in captured.err


def test_density_accepts_nu_1(capsys):
    # fejer_pair's range (0, 1] is the one check on nu, so nu = 1 runs, with
    # the warning that the density limit is unproven past 7/10
    assert main(["density", "--x", "250", "--nu", "1"]) == 0
    assert "warning: nu = 1 exceeds 7/10" in capsys.readouterr().err


def test_density_bad_flags_exit_2(capsys):
    assert main(["density", "--x", "250", "--nu", "5/3"]) == 2
    assert main(["density", "--x", "250", "--nu", "0"]) == 2
    assert "config error: nu must lie in (0, 1], got 0" in capsys.readouterr().err
    assert main(["density", "--x", "250", "--box", "1", "0.5", "0.5", "1"]) == 2
    assert main(["density", "--x", "0.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key, words", [
    ("nu", ["1/0"]),
    ("threads", ["x"]),
    ("x", ["inf"]),
    ("x", ["nan"]),
    ("box", ["0.5", "inf", "0.5", "1"]),
    ("seed", ["-1"]),
    ("tail_tol", ["1e-23"]),  # below the floor of the weight's transform envelope
    ("box", ["1", "0.5", "0.5", "1"]),
])
def test_bad_values_exit_2_from_file_and_flag(tmp_path, capsys, key, words):
    # the config file and the flag read the same parser and checks, on the
    # first subcommand that reads the key
    command = next(c for c, keys in cli._COMMAND_KEYS.items() if key in keys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {' '.join(words)}\n")
    flag = "--" + key.replace("_", "-")
    for argv in ([command, "--config", str(cfg)], [command, flag, *words]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        if key == "tail_tol":
            # the line names the setting and the least value the box certifies,
            # each axis's envelope floor times the other axis's mass
            w = SmoothWeight()
            least = max(w._env[i][1][-1] * w.axis_mass(1 - i) for i in (0, 1))
            assert err[0] == (f"config error: tail_tol 1e-23 must exceed {least:.3g}, "
                              "below which the weight box certifies no radius")


def test_flags_accept_config_file_values(capsys):
    # commas separate numbers on a flag as in the file
    assert main(["density", "--x", "200,250"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [r.split(",")[0] for r in rows] == ["200.0", "250.0"]


def test_density_singular_box_exit_2(capsys):
    # the box holds (-12, 16) = (-3t^2, 2t^3) at t = 2; rejected before P1 runs
    assert main(["density", "--x", "1000", "--box", "-2", "1", "0.5", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "singular curve (a, b) = (-12, 16)" in err[0]


def test_density_box_without_lattice_points_exit_2(capsys):
    # b in (0.5, 0.51) * 10 holds no integer
    assert main(["density", "--x", "100", "--box", "0.5", "1", "0.5", "0.51"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "axis 1 contains no lattice points" in err[0]


def test_density_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x = 1e9\nmethod = direct\n")
    rc = main(["density", "--config", str(cfg), "--x", "250"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().split("\n")[1].startswith("250.0,")


def test_config_file_is_validated_after_the_flags(tmp_path, capsys):
    # the flag replaces the file's descending sweep, so the merged run is valid
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x = 1e4 1e3\n")
    assert main(["density", "--config", str(cfg), "--x", "250"]) == 0
    capsys.readouterr()
    assert main(["density", "--config", str(cfg)]) == 2
    assert "X sweep must be ascending" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        parse_config(cfg.read_text())


def test_density_missing_config_exit_2(capsys):
    assert main(["density", "--config", "/nonexistent/path.cfg"]) == 2
    capsys.readouterr()


# -- the settings each subcommand reads --------------------------------------

VALUES = {"x": ["250"], "nu": ["2/3"], "box": ["0.25", "0.75", "0.5", "2.0"],
          "method": ["direct"], "seed": ["5"], "threads": ["2"],
          "tail_tol": ["1e-8"], "out": ["run"]}


@pytest.mark.parametrize("head, reads", [
    (["density"], {"x", "nu", "box", "method", "threads", "tail_tol", "out"}),
    (["verify", "lemmas"], {"seed", "out"}),
    (["crosscheck", str(DATA), "-16", "16"], {"x", "nu"}),
    (["verify", "identities"], set()),
], ids=["density", "verify", "crosscheck", "identities"])
def test_each_subcommand_takes_only_the_settings_it_reads(head, reads, tmp_path, capsys):
    # a setting the subcommand reads comes from its flag or its config key;
    # any other is rejected with exit 2 by argparse as a flag, and with one
    # config error line as a file key.  The identity suite reads neither of
    # verify's settings: its flag parses, and from either source the setting
    # exits 2 with one line naming the suite and the setting
    cfg = tmp_path / "run.cfg"
    for key, words in VALUES.items():
        flag = "--" + key.replace("_", "-")
        cfg.write_text(f"{key} = {' '.join(words)}\n")
        want = getattr(parse_config(cfg.read_text()), key)
        if key in reads:
            for argv in (head + [flag, *words], head + ["--config", str(cfg)]):
                args = cli.build_parser().parse_args(argv)
                assert getattr(cli._config_from_args(args), key) == want
            continue
        if key in cli._COMMAND_KEYS[head[0]]:
            for argv in (head + [flag, *words], head + ["--config", str(cfg)]):
                assert main(argv) == 2
                assert capsys.readouterr().err.splitlines() == [
                    f"config error: verify identities does not read {key!r}"]
            continue
        with pytest.raises(SystemExit) as e:
            main(head + [flag, *words])
        assert e.value.code == 2
        capsys.readouterr()
        assert main(head + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: line 1: {head[0]} does not read key {key!r}"]


def test_readme_command_lines_parse():
    # every command line the README shows, in a code block or inline, is one
    # the parser takes: a documented flag a subcommand dropped fails here
    text = README.read_text()
    lines = [line.split("#")[0] for line in text.splitlines() if line.startswith("ecdensity ")]
    lines += re.findall(r"`(ecdensity [^`]*)`", text)
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line!r}")


# -- no disk cache on the command line --------------------------------------

@pytest.mark.parametrize("argv", [
    ["cache", "stat"],
    ["density", "--x", "250", "--cache-dir", "tables"],
])
def test_cache_subcommand_and_flag_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    capsys.readouterr()


def test_cache_dir_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = 250\ncache_dir = {tmp_path}\n")
    assert main(["density", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: line 2: unknown key 'cache_dir'"]


# -- crosscheck ------------------------------------------------------------

def test_crosscheck_passes_frozen_curve(capsys):
    rc = main(["crosscheck", str(DATA), "-16", "16", "--x", "10000"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "band_gap=" in captured.out
    assert "N=9472" in captured.err


def test_crosscheck_runs_every_x_of_the_sweep(capsys):
    rc = main(["crosscheck", str(DATA), "-16", "16", "--x", "1e4", "1e5"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert [line.split()[0] for line in lines] == ["X=10000.0", "X=100000.0"]


def test_crosscheck_sweep_exit_codes(tmp_path, capsys, monkeypatch):
    # the first X whose list is too short stops the sweep with exit 3; a
    # failed X gives exit 1 once the rest of the sweep has run
    short = tmp_path / "short.txt"
    short.write_text("# curve=37.a1(-16,16) T=3\n0.0\n")
    assert main(["crosscheck", str(short), "-16", "16", "--x", "1e4", "1e5"]) == 3
    assert capsys.readouterr().out == ""
    real = cli.explicit_formula_crosscheck
    monkeypatch.setattr(cli, "explicit_formula_crosscheck", lambda zl, a, b, f: (
        dataclasses.replace(real(zl, a, b, f), passed=f.x > 1e4)))
    assert main(["crosscheck", str(DATA), "-16", "16", "--x", "1e4", "1e5"]) == 1
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_crosscheck_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "z.txt"
    bad.write_text("no header\n1.0\n")
    assert main(["crosscheck", str(bad), "-16", "16"]) == 2
    assert main(["crosscheck", str(tmp_path / "missing.txt"), "-16", "16"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("a, b", [(0, 0), (-3, 2)])
def test_crosscheck_singular_curve_exit_2(a, b, capsys):
    assert main(["crosscheck", str(DATA), str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"bad curve: singular curve (a, b) = ({a}, {b})"]


@pytest.mark.parametrize("height", ["inf", "nan", "-5"])
def test_crosscheck_unusable_height_exit_2(height, tmp_path, capsys):
    # the frozen list under a header whose height is not finite and >= 0
    lines = DATA.read_text().splitlines()
    assert lines[0].endswith(" T=22")
    bad = tmp_path / "z.txt"
    bad.write_text("\n".join([lines[0].replace("T=22", f"T={height}"), *lines[1:]]) + "\n")
    assert main(["crosscheck", str(bad), "-16", "16", "--x", "10000"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("malformed zero file: line 1:"), err


def test_crosscheck_short_list_exit_3(tmp_path, capsys):
    short = tmp_path / "short.txt"
    short.write_text("# curve=37.a1(-16,16) T=3\n0.0\n")
    assert main(["crosscheck", str(short), "-16", "16", "--x", "10000"]) == 3
    capsys.readouterr()


def test_crosscheck_height_zero_list_exit_3(tmp_path, capsys):
    # no zeros listed at all: the zero-tail bound must reject the list
    empty = tmp_path / "empty.txt"
    empty.write_text("# curve=37a1 T=0\n")
    assert main(["crosscheck", str(empty), "-16", "16", "--x", "10000"]) == 3
    assert "truncated below required height" in capsys.readouterr().err


# -- verify ------------------------------------------------------------------

def test_identity_registry_names():
    assert list(IDENTITY_CHECKS) == [
        "second_moment", "twisted_sums", "dual_routes", "gauss_sums",
        "cubic_structure", "char_expansion",
    ]


def test_verify_identities_runs_registry_in_order(monkeypatch, capsys):
    # the real entries are the acceptance gates 01-06; fakes test the loop
    checks = {"passes": lambda: (True, "fine"), "fails": lambda: (False, "broken")}
    for names, want_rc in ((["passes"], 0), (["passes", "fails"], 1)):
        monkeypatch.setattr(cli, "IDENTITY_CHECKS", {n: checks[n] for n in names})
        rc = main(["verify", "identities"])
        lines = capsys.readouterr().err.splitlines()
        assert rc == want_rc
        assert [line.rsplit(" [", 1)[0] for line in lines] == [
            "ok   passes: fine", "FAIL fails: broken"][: len(names)]


def test_verify_lemmas_holds_constant_one_suites_to_gate_07(monkeypatch, capsys):
    # five clean large-sieve instances fall short of gate 07's 100
    monkeypatch.setattr(cli, "large_sieve_suite",
                        lambda seed: large_sieve_suite(trials=5, seed=seed))
    monkeypatch.setattr(cli, "lemma_f_growth", lambda dmax: ())
    assert main(["verify", "lemmas"]) == 1
    err = capsys.readouterr().err
    assert "FAIL large_sieve: 5 instances, 0 failures" in err
    assert "ok   gallagher_spacing: 120 instances" in err


def test_verify_lemmas_reports_growth_excess(tmp_path, capsys):
    # the divisor-kernel sums carry polylog factors, so four of the six
    # fitted slopes exceed stated + 0.1 at the 1e5 range the suite uses;
    # the command reports those FAIL lines and exits 1 while every
    # randomized-instance family still comes out clean
    out = tmp_path / "lemmas"
    rc = main(["verify", "lemmas", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    ratios = Path(f"{out}_ratios.csv").read_text()
    assert ratios.startswith("lemma,params,seed,ratio")
    for name in ("large_sieve", "heathbrown", "gallagher_spacing",
                 "gallagher_integral", "dirichlet_meanvalue", "expsum", "weyl"):
        assert name in ratios
    assert "ok   large_sieve" in err or "ok  large_sieve" in err
    assert "FAIL" in err and "growth[" in err
    assert "FAIL large_sieve" not in err
    assert "FAIL gallagher_spacing" not in err
