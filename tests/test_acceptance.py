"""Acceptance suite: one test per registered criterion.

The definitions live in cubecount.validation so that `cubecount validate`
and this file exercise exactly the same checks.
"""

import pytest

from cubecount import validation


def _run(number: int):
    criterion = next(c for c in validation.CRITERIA if c.number == number)
    result = validation.run_criterion(criterion)
    assert result.passed, "\n".join(result.failures)


def test_registry_is_complete():
    assert [c.number for c in validation.CRITERIA] == list(range(1, 12))


def test_criterion_01_symbolic_closed_forms():
    _run(1)


def test_criterion_02_ursell_equivalence():
    _run(2)


def test_criterion_03_exact_oracle_cross_validation():
    _run(3)


def test_criterion_04_polymer_partition_exactness():
    _run(4)


def test_criterion_05_truncation_convergence():
    _run(5)


def test_criterion_06_abstract_universe_identity():
    _run(6)


def test_criterion_07_asymptotic_desk_check():
    _run(7)


def test_criterion_08_targeting_trend():
    _run(8)


@pytest.mark.slow
def test_criterion_09_sampler_statistics():
    _run(9)


def test_criterion_10_hardcore_lclt():
    _run(10)


def test_criterion_11_reproducibility():
    _run(11)


def test_criterion_11_names_a_failed_sample_run(monkeypatch):
    # the criterion read the JSON that a failed run never wrote, so it
    # reported FileNotFoundError and lost the exit code
    from cubecount import cli
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    criterion = next(c for c in validation.CRITERIA if c.number == 11)
    failures = validation.run_criterion(criterion).failures
    assert failures and all(f == "sample run exited 1" for f in failures)
