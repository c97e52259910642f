"""Command-line front end: exit codes, JSON output, reproducibility."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import mmap
import os
import pathlib
import re
import subprocess
import sys
import time
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cubecount import cli
from cubecount import clusters, asymptotics

import cli_contract


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_small_dimension(capsys):
    code, out, err = run_cli(capsys, "oracle", "--d", "2")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["counts"] == ["1", "4", "2"]
    assert obj["total"] == "7"


def test_oracle_with_fugacity(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--d", "3", "--lam", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["Z"] == "35"
    assert obj["lam"] == "1"
    assert "ln_Z" in obj and "mean_size" in obj


@pytest.mark.parametrize("d,lam", [(1, Fraction(1, 10 ** 42)), (2, Fraction(3, 10 ** 25)),
                                   (3, Fraction(1, 20)), (1, Fraction(1, 3)),
                                   (2, Fraction(2, 9))])
def test_oracle_ln_z_keeps_its_digits_near_one(capsys, d, lam):
    # ln Z printed "0.0" at lam = 10^-42, where ln Z = ln(1 + 2 lam)
    code, out, _ = run_cli(capsys, "oracle", "--d", str(d), "--lam", str(lam))
    assert code == 0
    obj = json.loads(out)
    x = Fraction(obj["Z"]) - 1
    assert x < 1
    with mpmath.workdps(60):
        expect = mpmath.log1p(mpmath.mpf(x.numerator) / x.denominator)
        assert obj["ln_Z"] == mpmath.nstr(expect, 20)


def test_oracle_d6_validates_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, err = run_cli(capsys, "oracle", "--d", "6", "--lam", "1")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["total"] == obj["Z"] == "19768832143"
    jsonschema.validate(obj, json.loads((SCHEMA_DIR / "oracle.json").read_text()))


# the series layer computes R_j exactly for j <= J
J = asymptotics.MAX_EXACT_J

# each exits 1 with a one-line error
USAGE_ERRORS = [
    ["oracle", "--d", "0"],
    ["oracle"],
    ["pj", "--t", "1"],
    ["zeta", "--lam", "-1", "--d", "4", "--t", "2"],
    ["zeta", "--lam", "1", "--d", "6", "--t", "2", "--digits", "0"],
    ["count", "--beta", "1/2", "--d", "6", "--t", "2", "--digits", "0"],
    ["count-structured", "--beta", "1/4", "--d", "8", "--digits", "-1"],
    ["oracle", "--d", "2", "--bogus-flag"],
    ["validate", "--only", "99"],
    ["no-such-command"],
    # the first orders past the exact R_1..R_J, on commands with no --budget
    ["pj", "--t", str(J + 2)],
    ["bj", "--r", str(J + 1)],
    ["lambda-beta", "--beta", "1/2", "--d", "10", "--t", str(2 * J + 3)],
    ["zeta", "--lam", "1", "--d", "10", "--t", str(J + 2)],
    ["count", "--beta", "1/2", "--d", "10", "--t", str(J + 2)],
    ["count-structured", "--beta", "1/2", "--d", "10", "--t", str(J + 2)],
    # found by the fuzz below: each printed JSON its schema rejects
    ["rj", "--j", "0"],
    ["clusters", "--d", "1", "--k", "1"],
    # each exited 0: snapshots at negative steps; d above MAX_DIM
    ["sample", "--d", "3", "--lam", "1", "--burn-in", "-5",
     "--samples", "2", "--thin", "1"],
    ["clusters", "--d", "25", "--k", "1"],
    # exited 0 with an empty polynomial; count-structured refuses the key
    ["clusters", "--d", "5", "--k", "2", "--observable", "type:s9c0g0"],
    # the chain's step tables would need gigabytes past d = 16
    ["sample", "--d", "17", "--lam", "1", "--samples", "2"],
    # no command takes a worker-process count
    ["rj", "--j", "2", "--threads", "2"],
    ["polymers", "--max-size", "3", "--mode", "symbolic",
     "--threads", "2"],
    ["sample", "--d", "3", "--lam", "1", "--chains", "2",
     "--threads", "2"],
    # a negative budget exited 2 (exhausted) or was ignored
    ["polymers", "--d", "5", "--max-size", "3", "--budget", "-1"],
    ["clusters", "--d", "5", "--k", "2", "--budget", "-1"],
    ["rj", "--j", "2", "--budget", "-1"],
    ["count-structured", "--beta", "1/2", "--d", "10",
     "--fixed", "s1c0g0=1", "--budget", "-3"],
    # --digits past asymptotics.MAX_DIGITS ran without end
    ["count", "--beta", "1/2", "--d", "10", "--t", "2",
     "--digits", "100000000"],
    ["count-structured", "--beta", "1/2", "--d", "10",
     "--digits", str(asymptotics.MAX_DIGITS + 1)],
    # more size-1 defects than half of the 2,048 vertices on a
    # side; the first built 2000000! and ran for minutes
    ["count-structured", "--beta", "1/2", "--d", "12", "--t", "4",
     "--fixed", "s1c0g0=2000000"],
    ["count-structured", "--beta", "1/2", "--d", "12",
     "--fixed", "s1c0g0=1025"],
    ["zeta", "--lam", "1", "--d", "10", "--t", "2",
     "--digits", "100000000"],
    # each exited 0 and ignored --power
    ["clusters", "--d", "5", "--k", "2", "--observable",
     "size_nbhd", "--power", "2"],
    ["clusters", "--d", "5", "--k", "2", "--observable", "one",
     "--power", "3"],
    # each exited 0, the first with a complex ln_Z
    ["oracle", "--d", "2", "--lam=-1"],
    ["oracle", "--d", "2", "--lam", "0"],
    # the first printed a ZeroDivisionError traceback, the others exited 0
    # with values for a fugacity the model does not have
    ["clusters", "--d", "4", "--k", "2", "--lam=-1"],
    ["clusters", "--d", "4", "--k", "2", "--lam=-2"],
    ["clusters", "--d", "4", "--k", "2", "--lam", "0"],
    # the exact oracle ends at d = 6 and has no --allow-slow
    ["oracle", "--d", "7"],
    ["oracle", "--d", "6", "--allow-slow"],
    # each started a census that no budget bounded (96 s at d = 7)
    ["sample", "--d", "7", "--lam", "1", "--census-size", "6"],
    ["sample", "--d", "6", "--lam", "1", "--census-size", "7"],
    # --samples alone sets the run length
    ["sample", "--d", "3", "--lam", "1", "--steps", "10"],
    # each exited 0: the symbolic census reads neither d nor a budget
    ["polymers", "--max-size", "3", "--mode", "symbolic", "--d", "99",
     "--budget", "0"],
    ["polymers", "--max-size", "3", "--mode", "symbolic", "--budget", "0"],
    # each exited 0: the first ran no criterion, the others ignored --out
    ["validate", "--only", ","],
    ["validate", "--only", "1", "--out", "F"],
    ["report", "--inputs", "x.json", "--out", "F"],
]


def test_usage_errors_exit_one_with_single_line(capsys):
    for argv in USAGE_ERRORS:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.startswith("error:"), argv
        assert captured.err.strip().count("\n") == 0, argv
        assert "budget exhausted" not in captured.err, argv
    # these named max_size, a parameter sample has no option for
    for size in ("0", "-2"):
        code = cli.main(["sample", "--d", "4", "--lam", "1", "--census-size",
                         size])
        assert (code, capsys.readouterr().err) == (
            1, "error: --census-size must be >= 1\n"), size


def run_for_bytes(capsys, argv):
    """(exit code, stdout, stderr) of `cubecount argv`, --help included."""
    return (cli.main(list(argv)), *capsys.readouterr())


@pytest.mark.parametrize("argv", [[name, "--help"] for name in cli._COMMANDS]
                         + USAGE_ERRORS)
def test_one_command_parser_prints_the_full_parsers_bytes(capsys, monkeypatch, argv):
    # a command reads its own declarations alone: with only that command in
    # the table, main prints the same bytes
    full = run_for_bytes(capsys, argv)
    if argv[0] in cli._COMMANDS:
        monkeypatch.setattr(cli, "_COMMANDS", {argv[0]: cli._COMMANDS[argv[0]]})
    assert run_for_bytes(capsys, argv) == full


class ReferenceParser(argparse.ArgumentParser):
    """argparse reading the CLI's own declarations, as the reference for
    what each valid command line means."""

    def error(self, message):
        raise ValueError(message)


def parsed(argv, parser):
    """vars() of `argv`'s options parsed by `parser`, or None if refused."""
    name, *options = argv
    p = parser(f"cubecount {name}", "")
    cli._declare(p, name)
    try:
        return vars(p.parse_args(options))
    except (cli._UsageError, ValueError):
        return None


CI_YML = (pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows"
          / "tier1.yml").read_text()
# each whole `cubecount COMMAND ...` line of CI, and each run of its sample loop
CI_COMMANDS = [argv for argv in (line.split() for line in re.findall(
    r"cubecount(?:\.cli)? ([a-z-]+ [^$>\n]*)(?=[>\n])", CI_YML))
    if argv[0] in cli._COMMANDS]
CI_COMMANDS += [["sample", *run.split(), *re.search(
    r"cubecount sample \$run ([^>]*) >", CI_YML).group(1).split()]
    for run in re.findall(r'"(--d [^"]*)"', CI_YML)]
VALID_COMMANDS = [
    row.argv.format(tmp="TMP").split() for row in cli_contract.ROWS
    if row.argv is not None and "--help" not in row.argv
] + CI_COMMANDS + [
    # a repeated option keeps its last value; an appended one keeps all
    ["oracle", "--d", "3", "--d", "4", "--lam=1/2", "--lam", "2"],
    ["count-structured", "--beta", "1/2", "--d", "12", "--fixed", "s1c0g0=1",
     "--fixed=s2c2g1=1", "--diverging", "s3c4g3=2,1"],
    ["report", "--inputs", "a.json", "b.json", "--out-dir=x"],
    ["report", "--out-dir", "x", "--inputs=a.json"],
    ["sample", "--debug", "--d", "3", "--lam", "1", "--csv", "-"],
    ["polymers", "--mode=list", "--d", "-1", "--max-size", "3"],
    # two outputs written with --out and a report of them: no row of the
    # table passes --out
    ["count", "--beta", "1/2", "--d", "5", "--t", "3", "--out", "count5.json"],
    ["oracle", "--d", "5", "--lam", "1", "--out", "oracle5.json"],
    ["report", "--inputs", "count5.json", "oracle5.json", "--out-dir", "report"],
    # one criterion, as a row of the table also passes it (pytest names the
    # pair _0 and _1), and five criteria in one comma list
    ["validate", "--only", "10"],
    ["validate", "--only", "2,4,5,6,11"],
]


@pytest.mark.parametrize("argv", VALID_COMMANDS, ids=" ".join)
def test_valid_command_lines_parse_as_argparse_reads_them(argv):
    ours = parsed(argv, cli._Parser)
    assert ours is not None
    assert ours == parsed(argv, ReferenceParser)


@pytest.mark.parametrize("argv", [
    ["oracle", "--d", "3", "4"],
    ["oracle", "--d"],
    ["oracle", "--d", "--lam", "1"],
    ["oracle", "--d", "x"],
    ["oracle", "--lam", "1"],
    ["report", "--inputs", "--out-dir", "x"],
    ["sample", "--d", "3", "--lam", "1", "--debug=1"],
    ["polymers", "--max-size", "3", "--mode", "all"],
], ids=" ".join)
def test_argparse_refuses_what_the_parser_refuses(argv):
    assert parsed(argv, cli._Parser) is None
    assert parsed(argv, ReferenceParser) is None


def test_the_reference_lines_reach_every_command_and_the_ci_lines():
    # bj --r 4 under python -O and the seven sample runs; CI's other command
    # lines are rows of the contract table
    assert len(CI_COMMANDS) >= 8
    assert {argv[0] for argv in VALID_COMMANDS} == set(cli._COMMANDS)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_command_help_lists_every_option_on_stdout(capsys, name):
    code, out, err = run_for_bytes(capsys, [name, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: cubecount {name} [-h]")
    p = ReferenceParser()
    cli._declare(p, name)
    listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", out, re.M)
    assert listed == [a.option_strings[-1] for a in p._actions]


def test_a_value_may_start_with_one_dash(capsys):
    # argparse read `--lam -1/3` as --lam without its value
    assert run_for_bytes(capsys, ["oracle", "--d", "2", "--lam", "-1/3"]) == (
        1, "", "error: --lam must be positive\n")


@pytest.mark.parametrize("argv", [["--help"], ["no-such-command"]])
def test_help_and_an_unknown_command_list_every_command(capsys, argv):
    _, out, err = run_for_bytes(capsys, argv)
    listed = re.search(r"\{([a-z,-]+)\}|choose from (.*)\)", out + err)
    names = (listed.group(1) or listed.group(2)).replace("'", "").replace(" ", "")
    assert names.split(",") == list(cli._COMMANDS)


@pytest.mark.parametrize("option,item,form", [
    ("--fixed", "s1c0g0=x", "KEY=COUNT"),
    ("--diverging", "s1c0g0=1/2,1", "KEY=MEAN,SHIFT"),
])
def test_count_structured_names_the_bad_item(capsys, option, item, form):
    # both printed "invalid literal for int() with base 10", which named
    # neither the option nor the item
    code, out, err = run_cli(capsys, "count-structured", "--beta", "1/2",
                             "--d", "10", option, item)
    assert (code, out, err) == (1, "", f"error: expected {form} in {item!r}\n")


@pytest.mark.parametrize("profile,error", [
    # each exited 0: a Poisson and a Gaussian factor for one type; the
    # second --fixed silently replaced the first; a value for -3 defects
    (["--fixed", "s1c0g0=1", "--diverging", "s1c0g0=2,1"],
     "type s1c0g0 is both fixed and diverging"),
    (["--fixed", "s1c0g0=1", "--fixed", "s1c0g0=2"],
     "type s1c0g0 given twice to --fixed"),
    (["--diverging", "s1c0g0=2,-5"],
     "negative count -3 = 2 + (-5) for type s1c0g0"),
])
def test_count_structured_refuses_an_inconsistent_profile(capsys, profile, error):
    code, out, err = run_cli(capsys, "count-structured", "--beta", "1/2",
                             "--d", "12", *profile)
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_sample_names_samples_when_it_is_below_two(capsys):
    # 0, -3 and 1 blamed --steps, burn_in and the statistics in turn
    for n in ("0", "-3", "1"):
        code, out, err = run_cli(capsys, "sample", "--d", "4", "--lam", "1",
                                 "--samples", n)
        assert (code, out, err) == (1, "", "error: --samples must be >= 2\n"), n


def test_sample_counts_snapshots_over_all_chains(capsys):
    # two snapshots in each of two chains are four samples
    code, out, err = run_cli(capsys, "sample", "--d", "4", "--lam", "1", "--samples",
                             "2", "--burn-in", "1000", "--thin", "1000",
                             "--chains", "2")
    assert code == 0, err
    assert json.loads(out)["samples"] == 4


def test_sample_ignores_thread_environment_variable(capsys, monkeypatch):
    # no command reads a process or thread count from the environment
    monkeypatch.setenv("CUBECOUNT_THREADS", "abc")
    code, out, err = run_cli(capsys, "sample", "--d", "3", "--lam", "1", "--samples",
                             "38", "--burn-in", "100", "--thin", "50")
    assert code == 0, err


def test_unwritable_out_path_is_a_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "oracle", "--d", "3", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write")
    assert err.strip().count("\n") == 0
    assert not target.exists()


def test_unwritable_csv_path_is_a_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "sample", "--d", "3", "--lam", "1",
                             "--samples", "5", "--csv", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write")
    assert err.strip().count("\n") == 0
    assert not target.exists()


def test_budget_exhaustion_exits_two(capsys):
    for argv in (["polymers", "--d", "9", "--max-size", "3", "--budget", "5"],
                 # the kernel tries no candidate at size 1, so this listed
                 # all 32,768 polymers (3.3 MB) and exited 0; each root now
                 # spends one unit
                 ["polymers", "--d", "16", "--max-size", "1", "--mode", "list",
                  "--budget", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: budget exhausted"), argv
        assert err.count("\n") == 1, argv


@pytest.mark.parametrize("argv,budget", [
    (["polymers", "--d", "9", "--max-size", "4"], 3951),
    (["polymers", "--d", "6", "--max-size", "4", "--mode", "list"], 19672),
    (["clusters", "--d", "7", "--k", "3"], 347),
    (["clusters", "--d", "7", "--k", "4"], 19440),
])
def test_smallest_sufficient_budget_is_pinned(capsys, argv, budget):
    # --budget counts the nodes of the one polymer growth kernel, so these
    # thresholds hold while the kernel grows the same sets
    clusters.clear_caches()  # a cached stratum table spends no budget
    code, out, err = run_cli(capsys, *argv, "--budget", str(budget - 1))
    assert code == 2 and out == "" and err.startswith("error: budget exhausted")
    code, out, err = run_cli(capsys, *argv, "--budget", str(budget))
    assert code == 0 and err == "" and json.loads(out)


def test_untypeable_polymer_sizes_fail_before_enumerating(capsys):
    # each ran 60-100 s before classify met its first size-8 support
    for argv in (["polymers", "--d", "9", "--max-size", "8"],
                 ["polymers", "--d", "5", "--max-size", "8", "--mode", "list"],
                 ["sample", "--d", "6", "--lam", "1", "--samples", "200",
                  "--thin", "2048", "--census-size", "8"]):
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - start < 5, argv
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and err.strip().count("\n") == 0, argv
    # at d = 4 no polymer exceeds 2^(d-2) = 4, so a bound of 8 is fine
    code, out, _ = run_cli(capsys, "polymers", "--d", "4", "--max-size", "8")
    assert code == 0 and [e["size"] for e in json.loads(out)["entries"]] == [1, 2, 3, 4]


def test_symbolic_census_of_size_one(capsys):
    # exited 1 with "grid must have at least 3 points" when it interpolated
    jsonschema = pytest.importorskip("jsonschema")
    code, out, err = run_cli(capsys, "polymers", "--max-size", "1",
                             "--mode", "symbolic")
    assert code == 0 and err == ""
    obj = json.loads(out)
    jsonschema.validate(obj, json.loads((SCHEMA_DIR / "polymers.json").read_text()))
    assert [(e["key"], e["text"]) for e in obj["entries"]] == [("s1c0g0", "1")]


def test_count_structured_bad_type_keys_are_one_line_errors(capsys):
    # size 9 would start census(12, 9), which no budget bounded
    for argv in (["--fixed", "s9c0g0=1"],
                 ["--diverging", "s8c0g0=3,1"],
                 ["--fixed", "s1c5g0=1"]):  # a size-1 type has deficiency 0
        code, out, err = run_cli(capsys, "count-structured", "--beta", "1/4",
                                 "--d", "12", *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and err.strip().count("\n") == 0, argv


def test_count_structured_budget_exhaustion_exits_two(capsys):
    code, out, err = run_cli(capsys, "count-structured", "--beta", "1/4",
                             "--d", "12", "--fixed", "s5c0g0=1", "--budget", "1000")
    assert code == 2 and out == ""
    assert err.startswith("error: budget exhausted")
    assert err.strip().count("\n") == 0


def test_rational_arguments_accept_fractions(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--d", "2", "--lam", "3/7")
    assert code == 0
    assert json.loads(out)["lam"] == "3/7"


@pytest.mark.parametrize("argv", [
    # Z's denominator has 4,480 digits
    ["oracle", "--d", "6", "--lam", "1e-140"],
    ["oracle", "--d", "5", "--lam", "1e-999"],
    ["clusters", "--d", "4", "--k", "2", "--lam", "1e-999"],
    # the longest accepted inputs
    ["zeta", "--lam", "1e-999", "--d", "4", "--t", "2"],
    ["sample", "--d", "3", "--lam", "1e-999", "--samples", "5"],
    ["lambda-beta", "--beta", "0." + "3" * 998, "--d", "12", "--t", "2"],
])
def test_exact_outputs_print_past_the_int_string_limit(capsys, argv):
    # the first three exited 1 on Python's 4,300-digit limit for int-to-str
    # conversion
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    obj = json.loads(out)
    if "lam" in obj:
        assert Fraction(obj["lam"]) == Fraction(argv[argv.index("--lam") + 1])
    if argv[0] == "oracle":
        assert len(obj["Z"].partition("/")[2]) > 4300
    # the limit is lifted for the command alone
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("value", [
    "1e-1001", "1e1000", "1E-0001001",
    pytest.param("0." + "3" * 1000, id="0.3...3"),
    pytest.param("1/" + "7" * 1000, id="1/7...7"),
    # Fraction alone took 9 s to parse this one
    "1e-10000000", "1e-" + "9" * 30,
])
def test_rationals_past_max_rational_digits_are_refused_at_once(capsys, value):
    start = time.perf_counter()
    for argv in (["oracle", "--d", "6", "--lam", value],
                 ["zeta", "--lam", value, "--d", "4", "--t", "2"],
                 ["count", "--beta", value, "--d", "12", "--t", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: '" + value[:37]), err
        assert err.endswith(f"has more than {cli.MAX_RATIONAL_DIGITS} digits\n"), err
    assert time.perf_counter() - start < 1


def test_rational_digits_count_an_exponent_at_its_value():
    # only decimal digits count: no point, slash, sign or exponent marker
    assert cli._rational_digits("1/" + "7" * 998) == 999
    assert cli._rational_digits("1e-999") == 1000
    assert cli._rational_digits("25e+0") == 2
    assert cli._rational_digits("1e-" + "9" * 30) > cli.MAX_RATIONAL_DIGITS


@pytest.mark.parametrize("value, digits", [
    pytest.param("0." + "7" * 998 + "3", 1000, id="0.7...73"),
    pytest.param("1" * 999 + "/3", 1000, id="1...1/3"),
    pytest.param("0." + "7" * 999 + "3", 1001, id="0.7...73+"),
    pytest.param("1" * 1000 + "/3", 1001, id="1...1/3+"),
])
def test_the_digit_bound_counts_digits_only(capsys, value, digits):
    # 1,000 digits pass with every character beside them; 1,001 are refused
    assert cli._rational_digits(value) == digits
    code, out, err = run_cli(capsys, "zeta", "--lam", value, "--d", "4", "--t", "2")
    if digits <= cli.MAX_RATIONAL_DIGITS:
        assert (code, err) == (0, ""), err
        assert json.loads(out)["lam"] == str(Fraction(value))
    else:
        assert (code, out) == (1, "")
        assert err.endswith(f"has more than {cli.MAX_RATIONAL_DIGITS} digits\n"), err


def test_rj_output_is_reproducible(capsys):
    outs = []
    for _ in range(2):
        clusters.clear_caches()
        asymptotics.clear_caches()
        code, out, _ = run_cli(capsys, "rj", "--j", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    obj = json.loads(outs[0])
    assert obj["kind"] == "R" and obj["jmax"] == 2
    assert len(obj["entries"]) == 2


def test_bj_and_pj_emit_series(capsys):
    code, out, _ = run_cli(capsys, "bj", "--r", "1")
    assert code == 0
    assert json.loads(out)["entries"][0]["j"] == 1
    code, out, _ = run_cli(capsys, "pj", "--t", "3")
    assert code == 0
    js = [e["j"] for e in json.loads(out)["entries"]]
    assert js == [1, 2]


def test_lambda_beta_regime_warning_on_stderr(capsys):
    code, out, err = run_cli(capsys, "lambda-beta", "--beta", "1/10",
                             "--d", "8", "--t", "2")
    assert code == 0
    assert err.startswith("warning:")
    obj = json.loads(out)
    assert obj["beta"] == "1/10" and "value" in obj


def test_count_emits_log_values(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "1/2", "--d", "10",
                           "--t", "2")
    assert code == 0
    obj = json.loads(out)
    assert {"ln_value", "log10_value", "beta", "d", "t"} <= set(obj)


def test_clusters_stratum_with_value(capsys):
    code, out, _ = run_cli(capsys, "clusters", "--d", "4", "--k", "1",
                           "--lam", "1/20")
    assert code == 0
    obj = json.loads(out)
    assert obj["stratum_value"] == "64000/194481"


def test_sample_run_is_byte_reproducible(tmp_path, capsys):
    args = ["sample", "--d", "3", "--lam", "1", "--samples", "380",
            "--burn-in", "1000", "--thin", "50", "--seed", "99"]
    paths = []
    for tag in ("a", "b"):
        jout = tmp_path / f"{tag}.json"
        csvout = tmp_path / f"{tag}.csv"
        code = cli.main(args + ["--out", str(jout), "--csv", str(csvout)])
        capsys.readouterr()
        assert code == 0
        paths.append((jout.read_bytes(), csvout.read_bytes()))
    assert paths[0] == paths[1]
    obj = json.loads(paths[0][0])
    assert obj["d"] == 3 and "per_type" in obj
    assert paths[0][1].decode().splitlines()[0] == "step,size,odd,even,defects"


def test_validate_single_fast_criterion(capsys):
    code, out, _ = run_cli(capsys, "validate", "--only", "2")
    assert code == 0
    assert "PASS" in out


def test_report_pipeline(tmp_path, capsys):
    oracle_path = tmp_path / "oracle5.json"
    zeta_path = tmp_path / "zeta5.json"
    # a count-structured output holds ln_value and beta as a count output
    # does, but its ln_value is no ln i_m: it is skipped, where it was
    # printed as a t=3 row of ln i_m
    structured_path = tmp_path / "structured5.json"
    for argv, path in ((["oracle", "--d", "5"], oracle_path),
                       (["zeta", "--lam", "1", "--d", "5", "--t", "2"], zeta_path),
                       (["count-structured", "--beta", "1/2", "--d", "5", "--t", "3",
                         "--fixed", "s1c0g0=1"], structured_path)):
        assert cli.main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
    code, out, _ = run_cli(capsys, "report", "--inputs", str(oracle_path),
                           str(zeta_path), str(structured_path),
                           "--out-dir", str(tmp_path))
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "ln Z, d=5, lam=1" in report
    assert "exact:" in report
    assert [line.split(":")[0] for line in report.splitlines()
            if line.startswith("  t=")] == ["  t=2"]
    dat = (tmp_path / "truncation_error.dat").read_text()
    assert len([line for line in dat.splitlines()
                if line and not line.startswith("#")]) == 1
    assert out.strip() != ""


def test_report_renders_a_sample_input(tmp_path, capsys):
    sample = tmp_path / "sample.json"
    assert cli.main(["sample", "--d", "6", "--lam", "1", "--samples", "200", "--thin",
                     "16", "--seed", "3", "--out", str(sample)]) == 0
    code, _, err = run_cli(capsys, "report", "--inputs", str(sample),
                           "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    per_type = json.loads(sample.read_text())["per_type"]
    report = (tmp_path / "report.txt").read_text().splitlines()
    start = report.index(f"sampler summary: d=6, lam=1, 200 samples ({sample})")
    # one line for each type, in key order
    assert [line.split(":")[0].strip() for line in report[start + 1:]] == \
        sorted(per_type)
    # one `index p` row for each type with a goodness-of-fit test
    p = [per_type[key]["poisson_gof"]["p"] for key in sorted(per_type)
         if per_type[key].get("poisson_gof")]
    header, *rows = (tmp_path / "gof.dat").read_text().splitlines()
    assert header.startswith(f"# {sample}:")
    assert rows == [f"{i} {x:.6f}" for i, x in enumerate(p)]
    assert len(rows) == 4


def test_report_out_dir_that_is_a_file_is_a_one_line_error(tmp_path, capsys):
    zeta_path = tmp_path / "zeta.json"
    assert cli.main(["zeta", "--lam", "1", "--d", "5", "--t", "2",
                     "--out", str(zeta_path)]) == 0
    capsys.readouterr()
    blocker = tmp_path / "F"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "report", "--inputs", str(zeta_path),
                             "--out-dir", str(blocker))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot create")
    assert err.strip().count("\n") == 0


def test_report_malformed_inputs_are_one_line_errors(tmp_path, capsys):
    # each printed a TypeError or KeyError traceback; a string t beside an
    # integer t failed in sorting the rows, so one wrongly typed field is
    # refused on its own.  Values report computes with are checked too, each
    # beside the oracle it would be compared with, and the error names the
    # bad file, which is listed first.
    oracle3 = '{"d": 3, "counts": ["1", "8", "16", "8", "2"]}'
    count5 = '{"d": 5, "beta": "1/2", "t": 2, "ln_value": "1"}'
    out_dir = tmp_path / "out"
    for name, text, *others in (
            ("int.json", "5"),
            ("count.json", '{"ln_value": "1", "beta": "1/2"}'),
            ("sample.json", '{"per_type": {}}'),
            ("list_d.json", '{"d": [5], "lam": "1", "t": 2, "ln_value": "1"}'),
            ("string_t.json", '{"d": 5, "lam": "1", "t": "2", "ln_value": "1"}'),
            ("bool_d.json", '{"d": true, "beta": "1/2", "t": 2, "ln_value": "1"}'),
            ("mean.json", '{"d": 5, "lam": "1", "samples": 2, '
                          '"per_type": {"s1c0g0": {"mean": [1]}}}'),
            ("gof.json", '{"d": 5, "lam": "1", "samples": 2, '
                         '"per_type": {"s1c0g0": {"mean": 1, '
                         '"poisson_gof": {"p": "x"}}}}'),
            ("counts.json", '{"d": 3, "counts": [[1]]}'),
            ("ln_abc.json", '{"d": 5, "beta": "1/2", "t": 2, "ln_value": "abc"}'),
            ("ln_nan.json", '{"d": 3, "lam": "1", "t": 2, "ln_value": "nan"}', oracle3),
            ("lam_x.json", '{"d": 3, "lam": "x", "t": 2, "ln_value": "1"}', oracle3),
            ("lam_div0.json", '{"d": 3, "lam": "1/0", "t": 2, "ln_value": "1"}', oracle3),
            ("lam_neg.json", '{"d": 3, "lam": "-1", "t": 2, "ln_value": "1"}', oracle3),
            ("beta_div0.json", '{"d": 3, "beta": "1/0", "t": 2, "ln_value": "1"}', oracle3),
            ("beta_3.json", '{"d": 3, "beta": "3", "t": 2, "ln_value": "1"}', oracle3),
            ("beta_neg.json", '{"d": 3, "beta": "-1", "t": 2, "ln_value": "1"}', oracle3),
            ("beta_1.json", '{"d": 3, "beta": "1", "t": 2, "ln_value": "1"}', oracle3),
            ("short_oracle.json", '{"d": 5, "counts": ["1", "2", "3"]}', count5),
            ("d0_oracle.json", '{"d": 0, "counts": ["1"]}', count5),
            ("huge_d_oracle.json", '{"d": 1000000000, "counts": ["1"]}', count5),
            ("word_oracle.json", '{"d": 1, "counts": ["1", "two"]}', count5),
            ("minus_oracle.json", '{"d": 1, "counts": ["1", "-2"]}', count5),
            # int() refused it past 4,300 digits with a line naming no file
            ("long_oracle.json", '{"d": 5, "counts": ["1", "%s"%s]}'
                                 % ("9" * 5000, ', "0"' * 15), count5),
            # Fraction built 10^999999999 and report ran on past 20 s
            ("lam_huge.json", '{"d": 3, "lam": "1e-999999999", "t": 2, '
                              '"ln_value": "1"}', oracle3),
            ("beta_huge.json", '{"d": 3, "beta": "1e-999999999", "t": 2, '
                               '"ln_value": "1"}', oracle3),
            # |v - exact| in the default decimal context raised Overflow
            ("ln_huge.json", '{"d": 3, "lam": "1", "t": 2, '
                             '"ln_value": "1e999999999"}', oracle3)):
        paths = [tmp_path / name] + [tmp_path / f"other{i}_{name}"
                                     for i in range(len(others))]
        for path, body in zip(paths, [text] + others):
            path.write_text(body)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "report", "--inputs", *map(str, paths),
                                 "--out-dir", str(out_dir))
        assert time.perf_counter() - start < 1, name
        assert code == 1 and out == "", name
        assert err.startswith(f"error: {paths[0]}:"), (name, err)
        assert err.strip().count("\n") == 0, name
        assert not out_dir.exists()


def test_report_refuses_an_oracle_count_longer_than_2_to_the_2_to_the_d(tmp_path, capsys):
    # Q_6 has at most 2^64 independent sets, 20 digits
    count = tmp_path / "count.json"
    count.write_text('{"d": 6, "beta": "1/2", "t": 2, "ln_value": "1"}')
    oracle = tmp_path / "oracle.json"
    for digits, code in ((20, 0), (21, 1)):
        counts = ["1", "9" * digits] + ["0"] * 31
        oracle.write_text(json.dumps({"d": 6, "counts": counts}))
        got, _, err = run_cli(capsys, "report", "--inputs", str(oracle), str(count),
                              "--out-dir", str(tmp_path / "out"))
        assert got == code, digits
        if code:
            assert err == (f"error: {oracle}: oracle output has a count of more "
                           "than 20 digits, past 2^64\n")


def test_report_prints_an_exact_ln_z_below_its_working_digits(tmp_path, capsys):
    # Z was divided out to exactly 1 at 30 digits, and exact: printed 0.0
    inputs = []
    for name, argv in (("zeta", "zeta --lam 1e-400 --d 5 --t 2"),
                       ("oracle", "oracle --d 5")):
        inputs.append(str(tmp_path / f"{name}.json"))
        assert cli.main(argv.split() + ["--out", inputs[-1]]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "report", "--inputs", *inputs,
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines()[1:3] == ["  exact: 3.2e-399",
                                     "  t=2: 0.69314718056  |error| = 0.693147"]


# SHA-256 of the files report writes from the contract row's inputs, each
# named NAME.json in the working directory, as printed before the exact
# references came from the number kit
REPORT_FILES = {
    "report.txt": "938717a2b8f0b0e25d59d1518ce43f95385514a398c5a519297d23938abc38e7",
    "truncation_error.dat":
        "17574cc8497f4e0437659212215dfe76c8bff40d469dbc323d7f9a4a129bb4c1",
    "gof.dat": "a70adc90aadd248ef46bf877d9a17c0e505a342022c7269dc8b93ebd07032024",
}


def test_report_writes_the_pinned_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, argv in cli_contract.REPORT_INPUTS.items():
        assert cli.main(argv.split() + ["--out", f"{name}.json"]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "report", "--inputs",
                             *(f"{name}.json" for name in cli_contract.REPORT_INPUTS),
                             "--out-dir", "out")
    assert (code, err) == (0, "")
    texts = {name: (tmp_path / "out" / name).read_text() for name in REPORT_FILES}
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items()} == REPORT_FILES
    assert out == texts["report.txt"] + \
        "wrote out/report.txt, out/truncation_error.dat, out/gof.dat\n"


def test_report_unreadable_inputs_are_one_line_errors(tmp_path, capsys):
    # the nested array printed a RecursionError traceback
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    for name in ("missing.json", "bad.json", "deep.json"):
        path = tmp_path / name
        code, out, err = run_cli(capsys, "report", "--inputs", str(path),
                                 "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, ""), name
        assert err.startswith(f"error: cannot read {path}: "), name
        assert err.strip().count("\n") == 0, name


def test_report_with_nothing_to_report_is_a_usage_error(tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text('{"a": 1}')
    oracle = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--d", "3", "--out", str(oracle)]) == 0
    out_dir = tmp_path / "out"
    for inputs in ([other], [oracle], [oracle, other]):
        code, out, err = run_cli(capsys, "report", "--inputs", *map(str, inputs),
                                 "--out-dir", str(out_dir))
        assert code == 1 and out == "", inputs
        assert err.startswith("error:") and err.strip().count("\n") == 0, inputs
        assert not out_dir.exists()


# -- the process contract: one fresh interpreter for each row of the table ----


@pytest.mark.parametrize("row", cli_contract.ROWS,
                         ids=[row.name for row in cli_contract.ROWS])
def test_process_contract(tmp_path, row):
    assert cli_contract.check(row, str(tmp_path)) == []


# stdout SHA-256 of each pinned command line of the table
PINNED = {row.argv: row.sha256 for row in cli_contract.ROWS if row.sha256}
# pinned commands whose digits, recorded from mpmath, print from intervals
INTERVAL_DIGITS = ("count --beta 1/2 --d 23 --t 4", "count --beta 1/3 --d 23 --t 3",
                   "zeta --lam 1 --d 24 --t 3", "oracle --d 5 --lam 1")


@pytest.mark.parametrize("command", INTERVAL_DIGITS)
def test_mpmath_digits_print_with_mpmath_unimportable(capsys, monkeypatch, command):
    # sys.modules["mpmath"] = None makes every `import mpmath` raise, also in
    # this process, where the tests have imported it
    monkeypatch.setitem(sys.modules, "mpmath", None)
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]


@pytest.mark.parametrize("command", INTERVAL_DIGITS)
def test_undecided_fields_print_the_pinned_bytes(capsys, monkeypatch, command):
    # working digits far below the printed ones leave every field undecided
    # at first, so each one prints the pinned bytes once the working digits
    # double
    from cubecount import certified
    monkeypatch.setattr(certified, "_GUARD_DIGITS", -15)
    working = []

    class Recorded(certified.DecimalNumbers):
        def __init__(self, digits):
            working.append(digits)
            super().__init__(digits)

    monkeypatch.setattr(certified, "DecimalNumbers", Recorded)
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert len(working) >= 2
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cubecount.cli",
                           "oracle", "--d", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == "7"


def test_main_leaves_the_callers_collector_alone(capsys):
    # a freeze in main would keep every in-process caller's cyclic garbage
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(capsys, "rj", "--j", "2")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# -- the process exit: no teardown collection, and nothing left for one ---------

# registered before the CLI module runs, so it runs after the gc.freeze that
# the module registers: atexit runs its handlers last in, first out.  Python
# 3.12 starts with a few hundred frozen objects, hence the count n.
FREEZE_PROBE = ("import atexit, gc, runpy, sys; n = gc.get_freeze_count(); "
                "atexit.register(lambda: print('frozen' if gc.get_freeze_count() > n "
                "else 'not frozen', file=sys.stderr))\n")


@pytest.mark.parametrize("argv, code", [(("rj", "--j", "3"), 0)])
def test_the_process_exit_is_frozen(capsys, argv, code):
    # the table's probe calls cli.main; this runs the module's __main__
    # block, as `python -m cubecount.cli` does, and prints what main prints
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE +
                           f"sys.argv = ['cubecount', *{list(argv)!r}]\n"
                           "runpy.run_module('cubecount.cli', run_name='__main__')"],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    *lines, probe = proc.stderr.splitlines()
    assert probe == "frozen"
    assert len(lines) == (code != 0)
    assert all(line.startswith("error:") for line in lines)
    assert proc.stdout == run_cli(capsys, *argv)[1]


# After main in a caller that keeps the collector off, the cyclic garbage it
# would have to collect: none of it may be a file, a mapping, a generator or a
# cubecount function.  The table checks the same in fresh interpreters; here
# the layers and their caches are already loaded.  `forks` is whether the
# command may fork; none of these does.
@pytest.mark.parametrize("command, forks", [(c, False) for c in (
    "rj --j 3", "count --beta 1/2 --d 23 --t 4", "count --beta 1/3 --d 23 --t 3",
    "zeta --lam 1 --d 24 --t 3", "oracle --d 5 --lam 1")])
def test_no_command_leaves_garbage_the_exit_would_have_collected(capsys, monkeypatch,
                                                                 command, forks):
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        code = cli.main(command.split())
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        held = sorted({type(o).__name__ for o in gc.garbage
                       if isinstance(o, (io.IOBase, mmap.mmap, types.GeneratorType))}
                      | {o.__module__ + "." + o.__qualname__ for o in gc.garbage
                         if isinstance(o, types.FunctionType)
                         and (o.__module__ or "").startswith("cubecount")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    _, err = capsys.readouterr()
    assert (code, err, held) == (0, "", [])
    assert bool(forked) == forks


# -- fuzz: the exit-code and output contract over small random invocations ------

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
SCHEMA_OF = {"oracle": "oracle", "polymers": "polymers", "clusters": "cluster_sum",
             "rj": "series_table", "bj": "series_table", "pj": "series_table",
             "lambda-beta": "lambda_beta", "count": "log_count",
             "count-structured": "log_count", "zeta": "log_count",
             "sample": "sampler_summary"}
RATIONALS = st.sampled_from(["1", "1/2", "1/4", "1/20", "2", "0", "-1", "-1/3",
                             "x", "1e-999", "1e-1001"])
KEYS = st.sampled_from(["s1c0g0", "s2c2g1", "s3c4g3", "s2c0g0", "s9c0g0", "bad"])
# past MAX_DIGITS the CLI must refuse at once, never start the evaluation
DIGITS = st.integers(-1, 30) | st.integers(asymptotics.MAX_DIGITS + 1, 10 ** 9)


# each value is joined to its flag, so that argparse reads a negative one such
# as -1/3 as the value, not as a missing argument followed by an option
def opt(flag, values):
    """Either nothing or [flag=value]."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def invocation(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


def fixed(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


def polymers_args():
    # a small budget whenever d and max-size allow a long enumeration: one
    # node at size 7 can cost a 5040-permutation certificate search
    return st.tuples(st.integers(-1, 6), st.integers(-1, 9),
                     st.sampled_from(["census", "list"]),
                     st.sampled_from([1, 50])).map(
        lambda a: ["polymers", "--d", str(a[0]), "--max-size", str(a[1]),
                   "--mode", a[2]]
        + (["--budget", str(a[3])] if a[0] >= 5 and a[1] >= 5 else []))


CLI_ARGS = st.one_of(
    # d = 6 takes a second, so the fuzz skips it; d = 7 must be refused
    invocation("oracle", fixed("--d", st.integers(-1, 5) | st.just(7)), opt("--lam", RATIONALS)),
    polymers_args(),
    invocation("polymers", st.just(["--mode", "symbolic"]),
               fixed("--max-size", st.sampled_from([-1, 0, 1, 2, 3, 4, 5]))),
    invocation("clusters", fixed("--d", st.integers(0, 6)), fixed("--k", st.integers(-1, 3)),
               fixed("--observable", st.sampled_from(
                   ["one", "size", "nbhd", "size_nbhd", "type:s1c0g0", "type:x", "y"])),
               opt("--power", st.integers(0, 3)), opt("--lam", RATIONALS),
               opt("--budget", st.sampled_from([0, 10, 10000]))),
    invocation("rj", fixed("--j", st.integers(-1, 4)), opt("--budget", st.sampled_from([1, 100]))),
    invocation("bj", fixed("--r", st.integers(-1, 4))),
    invocation("pj", fixed("--t", st.integers(-1, 5))),
    invocation("lambda-beta", fixed("--beta", RATIONALS), fixed("--d", st.integers(0, 12)),
               fixed("--t", st.integers(0, 9))),
    invocation("count", fixed("--beta", RATIONALS), fixed("--d", st.integers(0, 12)),
               fixed("--t", st.integers(0, 5)), opt("--digits", DIGITS)),
    invocation("zeta", fixed("--lam", RATIONALS), fixed("--d", st.integers(0, 12)),
               fixed("--t", st.integers(0, 5)), opt("--digits", DIGITS)),
    invocation("count-structured", fixed("--beta", RATIONALS), fixed("--d", st.integers(0, 10)),
               opt("--t", st.integers(0, 4)), opt("--fixed", KEYS.map(lambda k: f"{k}=1")),
               opt("--diverging", KEYS.map(lambda k: f"{k}=2,1")),
               opt("--budget", st.sampled_from([1, 10 ** 6])), opt("--digits", DIGITS)),
    invocation("sample", fixed("--d", st.integers(0, 4)), fixed("--lam", RATIONALS),
               opt("--samples", st.integers(-1, 40)), opt("--burn-in", st.integers(-1, 500)),
               opt("--thin", st.integers(-1, 50)), opt("--census-size", st.integers(-1, 8)),
               opt("--seed", st.integers(0, 3))),
)


@settings(max_examples=40, deadline=None)
@given(CLI_ARGS)
def test_cli_fuzz_honours_the_exit_code_contract(argv):
    jsonschema = pytest.importorskip("jsonschema")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error:"), argv
        assert err.getvalue().count("\n") == 1, argv
    else:
        schema = json.loads((SCHEMA_DIR / f"{SCHEMA_OF[argv[0]]}.json").read_text())
        jsonschema.validate(json.loads(out.getvalue()), schema)


@settings(max_examples=60, deadline=None)
@given(CLI_ARGS)
def test_fuzz_command_lines_parse_as_argparse_reads_them(argv):
    assert parsed(argv, cli._Parser) == parsed(argv, ReferenceParser)
