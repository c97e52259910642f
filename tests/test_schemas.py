"""Shipped JSON schemas stay in sync with actual CLI output."""

import contextlib
import io
import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")

from cubecount import cli

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"

CASES = [
    ("oracle", ("oracle", "--d", "3", "--lam", "1")),
    ("oracle", ("oracle", "--d", "2")),
    ("polymers", ("polymers", "--d", "4", "--max-size", "2")),
    ("polymers", ("polymers", "--d", "4", "--max-size", "2", "--mode", "list")),
    ("polymers", ("polymers", "--max-size", "2", "--mode", "symbolic")),
    ("cluster_sum", ("clusters", "--d", "4", "--k", "2", "--lam", "1/20")),
    ("cluster_sum", ("clusters", "--d", "4", "--k", "1",
                     "--observable", "size", "--power", "2")),
    ("series_table", ("rj", "--j", "2")),
    ("series_table", ("bj", "--r", "1")),
    ("series_table", ("pj", "--t", "3")),
    ("lambda_beta", ("lambda-beta", "--beta", "1/4", "--d", "12", "--t", "4")),
    ("log_count", ("count", "--beta", "1/2", "--d", "10", "--t", "2")),
    ("log_count", ("zeta", "--lam", "1", "--d", "10", "--t", "2")),
    ("log_count", ("count-structured", "--beta", "1/4", "--d", "10", "--t", "2",
                   "--fixed", "s1c0g0=0", "--diverging", "s2c2g1=3,1")),
    ("sampler_summary", ("sample", "--d", "3", "--lam", "1", "--samples", "90",
                         "--burn-in", "500", "--thin", "50", "--seed", "1")),
]


def capture_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert code == 0, argv
    return json.loads(buf.getvalue())


@pytest.mark.parametrize("schema_name,argv", CASES,
                         ids=[" ".join(c[1][:3]) for c in CASES])
def test_output_validates(schema_name, argv):
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.json").read_text())
    jsonschema.validate(capture_json(argv), schema)


def test_schema_files_are_valid_schemas():
    validator = jsonschema.Draft202012Validator
    for path in sorted(SCHEMA_DIR.glob("*.json")):
        validator.check_schema(json.loads(path.read_text()))
