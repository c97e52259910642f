"""Command-line front end: exit codes, JSON output, reproducibility."""

import contextlib
import io
import json
import pathlib
import subprocess
import sys
import time

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


def test_usage_errors_exit_one_with_single_line(capsys):
    for argv in (["oracle", "--d", "0"],
                 ["oracle"],
                 ["pj", "--t", "1"],
                 ["zeta", "--lam", "-1", "--d", "4", "--t", "2"],
                 ["zeta", "--lam", "1", "--d", "6", "--t", "2", "--digits", "0"],
                 ["count", "--beta", "1/2", "--d", "6", "--t", "2", "--digits", "0"],
                 ["count-structured", "--beta", "1/4", "--d", "8", "--digits", "-1"],
                 ["oracle", "--d", "2", "--bogus-flag"],
                 ["validate", "--only", "99"],
                 ["no-such-command"],
                 # orders beyond the exact R_1..R_3, on commands with no --budget
                 ["pj", "--t", "9"],
                 ["bj", "--r", "4"],
                 ["lambda-beta", "--beta", "1/2", "--d", "10", "--t", "9"],
                 ["zeta", "--lam", "1", "--d", "10", "--t", "5"],
                 ["count", "--beta", "1/2", "--d", "10", "--t", "5"],
                 ["count-structured", "--beta", "1/2", "--d", "10", "--t", "5"],
                 # found by the fuzz below: each printed JSON its schema rejects
                 ["rj", "--j", "0"],
                 ["clusters", "--d", "1", "--k", "1"],
                 # only sample --chains runs worker processes
                 ["rj", "--j", "2", "--threads", "2"],
                 ["polymers", "--max-size", "3", "--mode", "symbolic",
                  "--threads", "2"]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.startswith("error:"), argv
        assert captured.err.strip().count("\n") == 0, argv
        assert "budget" not in captured.err, argv


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
    args = ["sample", "--d", "3", "--lam", "1", "--steps", "20000",
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats was most of the CLI's start-up; only the sampler and the
    # acceptance suite need numpy or scipy, and they import them late
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, cubecount.cli; "
                           "print('scipy' in sys.modules, 'numpy' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_sample_never_loads_scipy_stats():
    # the chi-square tail comes from scipy.special; scipy.stats costs
    # a second of import and twice the memory
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from cubecount import cli; "
                           "code = cli.main(['sample', '--d', '4', '--lam', '1', "
                           "'--samples', '20', '--thin', '16', '--seed', '1']); "
                           "print(code, 'scipy.special' in sys.modules, "
                           "'scipy.stats' in sys.modules, file=sys.stderr)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    gof = [e["poisson_gof"] for e in json.loads(proc.stdout)["per_type"].values()
           if e.get("poisson_gof")]
    assert gof, "no goodness-of-fit test ran"
    assert proc.stderr.split() == ["0", "True", "False"]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cubecount.cli",
                           "oracle", "--d", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == "7"


# -- fuzz: the exit-code and output contract over small random invocations ------

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
SCHEMA_OF = {"oracle": "oracle", "polymers": "polymers", "clusters": "cluster_sum",
             "rj": "series_table", "bj": "series_table", "pj": "series_table",
             "lambda-beta": "lambda_beta", "count": "log_count",
             "count-structured": "log_count", "zeta": "log_count",
             "sample": "sampler_summary"}
RATIONALS = st.sampled_from(["1", "1/2", "1/4", "1/20", "2", "0", "-1/3", "x"])
KEYS = st.sampled_from(["s1c0g0", "s2c2g1", "s3c4g3", "s2c0g0", "s9c0g0", "bad"])


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
    invocation("oracle", fixed("--d", st.integers(-1, 5)), opt("--lam", RATIONALS),
               st.sampled_from([[], ["--exhaustive"]])),
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
               fixed("--t", st.integers(0, 5)), opt("--digits", st.integers(-1, 30))),
    invocation("zeta", fixed("--lam", RATIONALS), fixed("--d", st.integers(0, 12)),
               fixed("--t", st.integers(0, 5)), opt("--digits", st.integers(-1, 30))),
    invocation("count-structured", fixed("--beta", RATIONALS), fixed("--d", st.integers(0, 10)),
               opt("--t", st.integers(0, 4)), opt("--fixed", KEYS.map(lambda k: f"{k}=1")),
               opt("--diverging", KEYS.map(lambda k: f"{k}=2,1")),
               opt("--budget", st.sampled_from([1, 10 ** 6]))),
    invocation("sample", fixed("--d", st.integers(0, 4)), fixed("--lam", RATIONALS),
               opt("--steps", st.integers(0, 2000)), opt("--burn-in", st.integers(-1, 500)),
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
