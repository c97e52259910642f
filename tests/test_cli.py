"""Command-line front end: exit codes, JSON output, reproducibility."""

import contextlib
import gc
import hashlib
import io
import json
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cubecount import cli
from cubecount import clusters, asymptotics


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
    # --digits past MAX_DIGITS ran without end
    ["count", "--beta", "1/2", "--d", "10", "--t", "2",
     "--digits", "100000000"],
    ["count-structured", "--beta", "1/2", "--d", "10",
     "--digits", str(cli.MAX_DIGITS + 1)],
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
    # the exact oracle ends at d = 6 and has no --allow-slow
    ["oracle", "--d", "7"],
    ["oracle", "--d", "6", "--allow-slow"],
    # each started a census that no budget bounded (96 s at d = 7)
    ["sample", "--d", "7", "--lam", "1", "--census-size", "6"],
    ["sample", "--d", "6", "--lam", "1", "--census-size", "7"],
    # --samples alone sets the run length
    ["sample", "--d", "3", "--lam", "1", "--steps", "10"],
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
    try:
        code = cli.main(list(argv))
    except SystemExit as e:  # argparse's --help
        code = e.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [[name, "--help"] for name in cli._COMMANDS]
                         + USAGE_ERRORS)
def test_one_command_parser_prints_the_full_parsers_bytes(capsys, monkeypatch, argv):
    # a known command builds its own sub-parser alone
    build, built = cli._build_parser, []
    monkeypatch.setattr(cli, "_build_parser",
                        lambda only=None: built.append(only) or build(only))
    alone = run_for_bytes(capsys, argv)
    assert built == [argv[0] if argv[0] in cli._COMMANDS else None]
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: build())
    assert run_for_bytes(capsys, argv) == alone


@pytest.mark.parametrize("argv", [["--help"], ["no-such-command"]])
def test_help_and_an_unknown_command_list_every_command(capsys, argv):
    _, out, err = run_for_bytes(capsys, argv)
    listed = re.search(r"\{([a-z,-]+)\}|choose from (.*)\)", out + err)
    names = (listed.group(1) or listed.group(2)).replace("'", "").replace(" ", "")
    assert names.split(",") == list(cli._COMMANDS)


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
    code, _, err = run_cli(capsys, "polymers", "--d", "9", "--max-size", "3",
                           "--budget", "5")
    assert code == 2
    assert err.startswith("error: budget exhausted")


@pytest.mark.parametrize("argv,budget", [
    (["polymers", "--d", "9", "--max-size", "4"], 3951),
    (["polymers", "--d", "6", "--max-size", "4", "--mode", "list"], 19640),
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
    pytest.param("0." + "3" * 999, id="0.3...3"),
    pytest.param("1/" + "7" * 999, id="1/7...7"),
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
    assert cli._rational_digits("1/" + "7" * 998) == cli.MAX_RATIONAL_DIGITS
    assert cli._rational_digits("1e-999") == 1000
    assert cli._rational_digits("25e+0") == 5
    assert cli._rational_digits("1e-" + "9" * 30) > cli.MAX_RATIONAL_DIGITS


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


# SHA-256 of stdout for the exact symbolic outputs, recorded before the
# symbolic kernel moved from Fraction coefficients to integer numerators over
# one denominator; the printed forms must not depend on the representation.
PINNED_STDOUT_SHA256 = {
    "rj --j 3": "154b4f1c0df8f7908666770392741cb257b4e5ece74f2386f22626f2e03a0a3f",
    "bj --r 3": "55a17e79b644d6239d769b390fcd5fb04c2c47bf79e342b8c07c2c9023f9cea6",
    "pj --t 2": "91d9aae966747890b825eb0a3d0041f7a0e332865e002a906d42e55510493791",
    "pj --t 3": "b380bfc1baa5bbaf46e26c8b82d3118dee0fb0c2e7cb5a1753023ba10d925fa0",
    "pj --t 4": "203ab1d56171ef16eb74a0e8476272831b9a81b31cbae30cdff255ff03360fb6",
    "lambda-beta --beta 1/3 --d 20 --t 8":
        "68d429ac6cc05c9e61027adbf801e6d9b1cb061ceca6757a7548396a45e74950",
    "polymers --max-size 4 --mode symbolic":
        "05976534fa40a7580371315f52c63990631bbd4ca51c13a10be67ef21dba3264",
    "clusters --d 10 --k 3": "9e78f9dc37a214519427c6e5fe80320ad9c944f938c1acc7f38a5f71b7c21521",
    "count-structured --beta 1/2 --d 12 --fixed s1c0g0=1":
        "76581b3cbddcef7b536a69ebb1261b3580c7a9e2dcd82c21644e674f0183799c",
    # recorded from mpmath before these printed from decimal intervals
    "count --beta 1/2 --d 23 --t 4":
        "cffd9ff0b6fb4e20945cc0e6b1ef367d0c903a6c894ad10410976e9d05d830bf",
    "count --beta 1/3 --d 23 --t 3":
        "b49a411e8fab8516ad13e4806b960dd2b31c51558c5b17d54c67e2bbd7e840a2",
    "zeta --lam 1 --d 24 --t 3":
        "a9444b395080337949148b8a52a41aa94a43a3a200c3c75a78330ef8f47b1bf5",
    "oracle --d 5 --lam 1":
        "d097827f4e1d35109f66352734158a46ba8a9e49778e83b8506ec210caefe3d8",
}
# the pinned commands whose digits, recorded from mpmath, print from intervals
INTERVAL_DIGITS = ("count --beta 1/2 --d 23 --t 4", "count --beta 1/3 --d 23 --t 3",
                   "zeta --lam 1 --d 24 --t 3", "oracle --d 5 --lam 1")


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT_SHA256))
def test_exact_outputs_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[command]


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
    for argv, path in ((["oracle", "--d", "5"], oracle_path),
                       (["zeta", "--lam", "1", "--d", "5", "--t", "2"], zeta_path)):
        assert cli.main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
    code, out, _ = run_cli(capsys, "report", "--inputs", str(oracle_path),
                           str(zeta_path), "--out-dir", str(tmp_path))
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "ln Z, d=5, lam=1" in report
    assert "exact:" in report
    dat = (tmp_path / "truncation_error.dat").read_text()
    assert any(line and not line.startswith("#") for line in dat.splitlines())
    assert out.strip() != ""


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
            ("minus_oracle.json", '{"d": 1, "counts": ["1", "-2"]}', count5)):
        paths = [tmp_path / name] + [tmp_path / f"other{i}_{name}"
                                     for i in range(len(others))]
        for path, body in zip(paths, [text] + others):
            path.write_text(body)
        code, out, err = run_cli(capsys, "report", "--inputs", *map(str, paths),
                                 "--out-dir", str(out_dir))
        assert code == 1 and out == "", name
        assert err.startswith(f"error: {paths[0]}:"), (name, err)
        assert err.strip().count("\n") == 0, name
        assert not out_dir.exists()


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


def modules_loaded_by(code):
    """The names in sys.modules after a fresh interpreter runs `code`."""
    script = (f"import contextlib, io, json, sys\n{code}\n"
              "print(json.dumps(sorted(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def cli_run(*argv):
    return ("from cubecount import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0")


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy.stats was most of the CLI's start-up; now no module imports
    # scipy, which is a test dependency only, nor numpy.  Each command
    # imports the layers it runs, so importing the package or the CLI loads
    # no layer and no mpmath.
    heavy = {"mpmath", "numpy", "scipy"} | {
        f"cubecount.{m}" for m in ("asymptotics", "bigint", "chisq", "clusters",
                                   "exact", "polymers", "sampler", "symbolic",
                                   "validation")}
    for code in ("import cubecount", "import cubecount.cli"):
        assert modules_loaded_by(code) & heavy == set(), code
    loaded = modules_loaded_by(cli_run("polymers", "--d", "9", "--max-size", "4"))
    assert "cubecount.polymers" in loaded
    assert loaded & {"mpmath", "cubecount.asymptotics", "cubecount.clusters",
                     "cubecount.exact", "cubecount.sampler",
                     "cubecount.validation"} == set()
    loaded = modules_loaded_by(cli_run("oracle", "--d", "3", "--lam", "1"))
    assert {"cubecount.exact", "cubecount.certified"} <= loaded
    assert loaded & {"cubecount.asymptotics", "cubecount.bigint", "cubecount.clusters",
                     "cubecount.sampler"} == set()
    # the decimal intervals live in certified, which needs the exact
    # binomials of bigint only past its Stirling term cap
    count, oracle = tmp_path / "count.json", tmp_path / "oracle.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["count", "--beta", "1/2", "--d", "5", "--t", "3",
                         "--out", str(count)]) == 0
        assert cli.main(["oracle", "--d", "5", "--lam", "1", "--out", str(oracle)]) == 0
    loaded = modules_loaded_by(cli_run("report", "--inputs", str(count), str(oracle),
                                       "--out-dir", str(tmp_path / "report")))
    assert {"cubecount.exact", "cubecount.certified"} <= loaded
    assert loaded & {"cubecount.asymptotics", "cubecount.bigint"} == set()


@pytest.mark.parametrize("argv", [("rj", "--j", "2"), ("bj", "--r", "1"),
                                  ("pj", "--t", "3"),
                                  ("lambda-beta", "--beta", "1/3", "--d", "10",
                                   "--t", "3"),
                                  *(tuple(c.split()) for c in INTERVAL_DIGITS)])
def test_series_tables_never_load_mpmath(argv):
    # no module of the package imports mpmath; clusters imports exact only
    # inside log_xi_series, so the series commands never load it
    loaded = modules_loaded_by(cli_run(*argv))
    if argv[0] == "oracle":
        assert "cubecount.exact" in loaded
    else:
        assert "cubecount.asymptotics" in loaded
        assert "cubecount.exact" not in loaded
    assert "mpmath" not in loaded


@pytest.mark.parametrize("command", INTERVAL_DIGITS)
def test_mpmath_digits_print_with_mpmath_unimportable(command):
    # sys.modules["mpmath"] = None makes every `import mpmath` raise
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; sys.modules['mpmath'] = None; "
                           "from cubecount import cli; "
                           f"sys.exit(cli.main({command.split()!r}))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        PINNED_STDOUT_SHA256[command]


@pytest.mark.parametrize("command", INTERVAL_DIGITS)
def test_mpmath_digits_fall_back_to_the_same_bytes(capsys, monkeypatch, command):
    # working digits far below the printed ones leave every field undecided
    # at first, so each one prints only after the working digits double
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
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[command]


def test_no_command_imports_mpmath(tmp_path):
    # mpmath is a test dependency only; each command that prints a number
    # computes it from decimal intervals or Decimal, at any --digits
    count, zeta, oracle = (tmp_path / f"{name}.json" for name in ("count", "zeta", "oracle"))
    for digits in ("1", "30", "80"):
        commands = [
            ["count", "--beta", "1/3", "--d", "5", "--t", "3", "--digits", digits,
             "--out", str(count)],
            ["zeta", "--lam", "1/3", "--d", "5", "--t", "3", "--digits", digits,
             "--out", str(zeta)],
            ["count-structured", "--beta", "1/2", "--d", "12", "--t", "3",
             "--fixed", "s1c0g0=3", "--diverging", "s1c0g0=40,2", "--digits", digits],
            ["oracle", "--d", "5", "--lam", "1/3", "--out", str(oracle)],
            ["validate", "--only", "10"],
            ["report", "--inputs", str(count), str(zeta), str(oracle),
             "--out-dir", str(tmp_path / "report")]]
        code = "\n".join(cli_run(*argv) for argv in commands)
        assert "mpmath" not in modules_loaded_by(code), digits


@pytest.mark.parametrize("argv", [("rj", "--j", "2"),
                                  ("count", "--beta", "1/2", "--d", "12", "--t", "3"),
                                  ("zeta", "--lam", "1", "--d", "12", "--t", "2"),
                                  ("polymers", "--d", "5", "--max-size", "3"),
                                  ("polymers", "--max-size", "3", "--mode", "symbolic"),
                                  ("sample", "--d", "4", "--lam", "1", "--samples", "20",
                                   "--thin", "16", "--seed", "1"),
                                  ("oracle", "--d", "3", "--lam", "1")])
def test_commands_never_load_dataclasses(argv):
    # dataclasses brings inspect, ast, dis and tokenize (about 10 ms) and
    # execs each class's methods (about 1 ms a class); the records are
    # NamedTuples and __slots__ classes instead
    loaded = modules_loaded_by(cli_run(*argv))
    assert loaded & {"dataclasses", "inspect"} == set()


def test_sample_never_loads_scipy():
    # the chi-square tail is the pure-Python port in cubecount.chisq;
    # scipy.special alone cost 0.2 s of import and 14 MB.  The draws are
    # replayed from random.Random itself, so numpy is not loaded either.
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from cubecount import cli; "
                           "code = cli.main(['sample', '--d', '4', '--lam', '1', "
                           "'--samples', '20', '--thin', '16', '--seed', '1']); "
                           "print(code, [m for m in sys.modules "
                           "if m.split('.')[0] in ('numpy', 'scipy')], "
                           "file=sys.stderr)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    gof = [e["poisson_gof"] for e in json.loads(proc.stdout)["per_type"].values()
           if e.get("poisson_gof")]
    assert gof, "no goodness-of-fit test ran"
    assert proc.stderr.split() == ["0", "[]"]
    # criterion 9 runs the sampler and both chi-square p-values
    loaded = modules_loaded_by(cli_run("validate", "--only", "9"))
    assert "cubecount.sampler" in loaded
    assert {m for m in loaded if m.split(".")[0] in ("numpy", "scipy")} == set()


# stdout SHA-256 of small sample runs, recorded before the chi-square tail
# was ported; between them the p-values take every igamc branch:
# 1 - igam_series (df = 1), the continued fraction (df = 1, 2) and
# igamc_series (df = 1)
SAMPLE_DIGESTS = {
    "--d 5 --lam 1/2 --samples 20 --thin 4 --seed 0":
        "ee086510ef02c6788cc3cc18a1d6fb3425038ca6636bbc702942c6ef77d2a36b",
    "--d 3 --lam 1 --samples 20 --thin 16 --seed 1":
        "8b4e4ae649df667ce611fd4c4c15c54338cae31ffda522151d136cf584d92b25",
    "--d 6 --lam 1 --samples 200 --thin 16 --seed 3":
        "8c1ad07f8b47e0b0981d33d1c315b2e10426892a813c6aa7eb6371d1920e528d",
}


@pytest.mark.parametrize("argv", sorted(SAMPLE_DIGESTS))
def test_sample_stdout_digest_is_pinned(capsys, argv):
    code, out, err = run_cli(capsys, "sample", *argv.split())
    assert code == 0 and err == ""
    assert json.loads(out)["per_type"]
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[argv]


def test_sample_runs_with_numpy_unimportable():
    # sys.modules["numpy"] = None makes every `import numpy` raise
    argv = "--d 6 --lam 1 --samples 200 --thin 16 --seed 3"
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; sys.modules['numpy'] = None; "
                           "from cubecount import cli; "
                           f"sys.exit(cli.main({['sample', *argv.split()]!r}))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        SAMPLE_DIGESTS[argv]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cubecount.cli",
                           "oracle", "--d", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == "7"


# -- the process exit: no teardown collection, and nothing left for one ---------

# registered before `cubecount.cli` is imported, so it runs after the
# gc.freeze that cli registers: atexit runs its handlers last in, first out.
# Python 3.12 starts with a few hundred frozen objects, hence the count n.
FREEZE_PROBE = ("import atexit, gc, sys; n = gc.get_freeze_count(); "
                "atexit.register(lambda: print('frozen' if gc.get_freeze_count() > n "
                "else 'not frozen', file=sys.stderr))\n")


@pytest.mark.parametrize("argv, code", [
    (("rj", "--j", "3"), 0),
    (("oracle", "--d", "0"), 1),
    (("clusters", "--d", "8", "--k", "6", "--budget", "100000"), 2)])
def test_the_process_exit_is_frozen(capsys, argv, code):
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE +
                           "from cubecount import cli\n"
                           f"sys.exit(cli.main({list(argv)!r}))"],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    *lines, probe = proc.stderr.splitlines()
    assert probe == "frozen"
    assert len(lines) == (code != 0)
    assert all(line.startswith("error:") for line in lines)
    assert proc.stdout == run_cli(capsys, *argv)[1]


def test_main_leaves_the_callers_collector_alone(capsys):
    # a freeze in main would keep every in-process caller's cyclic garbage
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(capsys, "rj", "--j", "2")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# the nine commands of the benchmark's workloads (perfbench/run.py)
BENCHMARK_COMMANDS = (
    "rj --j 3", "count --beta 1/2 --d 23 --t 4", "count --beta 1/2 --d 24 --t 3",
    "count --beta 1/3 --d 23 --t 3", "zeta --lam 1 --d 24 --t 3",
    "polymers --d 9 --max-size 4", "polymers --max-size 3 --mode symbolic",
    "sample --d 10 --lam 1 --samples 1000 --thin 4096 --seed 7 --csv {tmp}/run.csv",
    "oracle --d 5 --lam 1")

# After main, the cyclic garbage that the exit no longer collects: none of it
# may be a file, a mapping or a generator, whose finalizer would do work.
# With split, the sampler is shown two usable CPUs, and os.fork is counted.
GARBAGE_PROBE = """\
import gc, io, json, mmap, os, sys, types
from cubecount import cli
forks = []
if {split}:
    os.sched_getaffinity = lambda pid: {{0, 1}}
    fork = os.fork
    os.fork = lambda: forks.append(1) or fork()
code = cli.main({argv!r})
gc.set_debug(gc.DEBUG_SAVEALL)
gc.collect()
held = [type(o).__name__ for o in gc.garbage
        if isinstance(o, (io.IOBase, mmap.mmap, types.GeneratorType))]
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps([code, held, len(forks), left]), file=sys.stderr)
"""


@pytest.mark.parametrize("command, split", [(c, False) for c in BENCHMARK_COMMANDS] + [
    ("sample --d 10 --lam 1 --samples 400 --thin 4096 --seed 3 --csv {tmp}/split.csv",
     True),
    ("report --inputs {tmp}/count.json {tmp}/oracle.json --out-dir {tmp}/report",
     False)])
def test_no_command_leaves_garbage_the_exit_would_have_collected(tmp_path, command,
                                                                 split):
    if command.startswith("report"):
        for argv in (["count", "--beta", "1/2", "--d", "5", "--t", "3"],
                     ["oracle", "--d", "5", "--lam", "1"]):
            assert cli.main(argv + ["--out", str(tmp_path / f"{argv[0]}.json")]) == 0
    argv = command.format(tmp=tmp_path).split()
    proc = subprocess.run([sys.executable, "-c",
                           GARBAGE_PROBE.format(argv=argv, split=split)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    code, held, forks, left = json.loads(proc.stderr.splitlines()[-1])
    assert (code, held, left) == (0, [], False)
    assert forks == (1 if split else 0)  # the split ran where it was forced


# -- fuzz: the exit-code and output contract over small random invocations ------

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
SCHEMA_OF = {"oracle": "oracle", "polymers": "polymers", "clusters": "cluster_sum",
             "rj": "series_table", "bj": "series_table", "pj": "series_table",
             "lambda-beta": "lambda_beta", "count": "log_count",
             "count-structured": "log_count", "zeta": "log_count",
             "sample": "sampler_summary"}
RATIONALS = st.sampled_from(["1", "1/2", "1/4", "1/20", "2", "0", "-1/3", "x",
                             "1e-999", "1e-1001"])
KEYS = st.sampled_from(["s1c0g0", "s2c2g1", "s3c4g3", "s2c0g0", "s9c0g0", "bad"])
# past MAX_DIGITS the CLI must refuse at once, never start the evaluation
DIGITS = st.integers(-1, 30) | st.integers(cli.MAX_DIGITS + 1, 10 ** 9)


def opt(flag, values):
    """Either nothing or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def invocation(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


def fixed(flag, values):
    return values.map(lambda v: [flag, str(v)])


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
