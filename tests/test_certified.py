"""Decimal intervals that print mpmath's digits, checked against mpmath itself."""

import random
import warnings
from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cubecount import asymptotics as asym
from cubecount import certified, cli
from cubecount.certified import DecimalNumbers, MpNumbers, Undecided
from cubecount.errors import RegimeWarning


def dyadic(man: int, exp: int) -> tuple[Decimal, object]:
    """man * 2^exp as an exact Decimal and an exact mpf."""
    dec = Context(prec=400).multiply(man, Context(prec=400).power(2, exp))
    with mpmath.workprec(max(man.bit_length(), 1) + 8):
        return dec, mpmath.ldexp(mpmath.mpf(man), exp)


def test_dps_to_prec_is_mpmaths():
    for dps in range(0, 2000):
        assert certified.dps_to_prec(dps) == mpmath.libmp.dps_to_prec(dps)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 14, 15, 16, 20, 30, 35])
def test_nstr_of_an_exact_value_is_mpmaths(n):
    # ties at the (n+1)-th digit round half up; the fixed notation runs from
    # exponent min(-(n//3), -5) + 1 to n - 1, which 2^e crosses at both ends
    values = [(0, 0), (1, 0), (-1, 0), (5, -1), (1, -3), (3, -3), (25, -1),
              (-25, -1), (12345, -1), (999, -1), (19, -1), (-19, -1)]
    values += [(m, e) for e in range(-140, 140, 1) for m in (1, 3, 2 ** 53 - 1)]
    values += [(10 ** k * 15, -1) for k in range(0, 40)]  # 1.5 * 10^k, a tie
    values += [(10 ** k - 1, 0) for k in range(1, 40)]  # all nines
    for man, exp in values:
        dec, mpf = dyadic(man, exp)
        assert certified.nstr(dec, n) == mpmath.nstr(mpf, n), (man, exp, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2 ** 80), 2 ** 80), st.integers(-200, 200), st.integers(1, 40))
def test_nstr_of_random_dyadics_is_mpmaths(man, exp, n):
    dec, mpf = dyadic(man, exp)
    assert certified.nstr(dec, n) == mpmath.nstr(mpf, n)


def as_fraction(x) -> Fraction:
    if isinstance(x, Decimal):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


POSITIVE = st.fractions(min_value=Fraction(1, 10 ** 12), max_value=10 ** 12)


@settings(max_examples=200, deadline=None)
@given(POSITIVE, st.fractions(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(-10 ** 9, 10 ** 9).filter(bool), st.integers(1, 200))
def test_intervals_hold_mpmaths_result(a, b, k, dps):
    def formula(num):
        x = num.log(num.rational(a)) * k + num.rational(b) / num.log(3)
        y = 2 * num.pi * k - num.rational(b) * num.rational(a)
        return [x, y, x - y / 7, num.fsum([x, y, num.log(2), num.rational(b)]),
                num.log_binomial(5000 + abs(k) % 3000, 1200)]

    with mpmath.workdps(dps):
        mp = [as_fraction(v) for v in formula(MpNumbers())]
    try:
        dec = formula(DecimalNumbers(dps, 30))
    except Undecided:  # a few digits leave no interval clear of zero
        assert dps < 10
        return
    for got, iv in zip(mp, dec):
        assert as_fraction(iv.lo) <= got <= as_fraction(iv.hi)


def cases(seed: int, count: int):
    """(kind, parameter, d, t, digits) over beta or lam, d = 2..24, t <= 4."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(2, 12)
        kind = rng.choice(["count", "zeta"])
        param = (Fraction(rng.randint(1, q - 1), q) if kind == "count"
                 else Fraction(rng.randint(1, 30), rng.randint(1, 12)))
        yield kind, param, rng.randint(2, 24), rng.randint(1, 4), rng.randint(31, 400)


def log_count(kind, param, d, t, digits):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        if kind == "count":
            return asym.log_count_asymptotic(param, d, t, digits)
        return asym.log_Z_asymptotic(param, d, t, digits)


def json_by_mpmath(lc):
    with mpmath.workdps(lc.precision):
        return lc.json_in(MpNumbers())


def test_decided_json_equals_mpmaths():
    decided = 0
    for case in cases(22, 80):
        try:
            lc = log_count(*case)
        except ValueError:  # floor(beta N) at 0 or N, or a nonpositive fugacity
            continue
        digits = case[-1]
        try:
            got = lc.json_in(DecimalNumbers(digits, min(digits, 30)))
        except Undecided:
            continue
        decided += 1
        assert got == json_by_mpmath(lc), case
    assert decided >= 40


@pytest.mark.parametrize("digits", [1, 10, 30])
@pytest.mark.parametrize("case", [("count", Fraction(1, 2), 24, 3),
                                  ("count", Fraction(1, 3), 23, 3),
                                  ("zeta", Fraction(1), 24, 3),
                                  ("zeta", Fraction(1, 3), 10, 4)])
def test_thirty_digits_or_fewer_fall_back_to_mpmath(case, digits):
    # mpmath's own rounding reaches the printed digits there
    lc = log_count(*case, digits)
    with pytest.raises(Undecided):
        lc.json_in(DecimalNumbers(digits, min(digits, 30)))
    assert lc.to_json() == json_by_mpmath(lc)


def test_mpf_values_are_built_only_when_read(monkeypatch):
    lc = log_count("count", Fraction(1, 2), 24, 3, 80)
    monkeypatch.setattr(certified, "MpNumbers", None)  # any use would raise
    assert lc.to_json()["ln_value"].startswith("5814532.")


def test_oracle_ln_z_is_decided_and_equals_mpmaths(capsys, monkeypatch):
    # ln Z near Z = 1 is taken at as many more digits as Z - 1 is small
    lams = ["1", "2", "1/2", "7/3", "100", "1/1000", "1/100000000", "1/10000000000000"]
    printed = {}
    for d in range(1, 6):
        for lam in lams:
            assert cli.main(["oracle", "--d", str(d), "--lam", lam]) == 0
            printed[d, lam] = capsys.readouterr().out
    monkeypatch.setattr(certified, "_STEP_BITS", 4096)
    for (d, lam), out in printed.items():
        assert cli.main(["oracle", "--d", str(d), "--lam", lam]) == 0
        assert capsys.readouterr().out == out, (d, lam)
    # and the decimal path decided every one of them
    monkeypatch.undo()
    monkeypatch.setattr(certified, "MpNumbers", None)
    for (d, lam), out in printed.items():
        assert cli.main(["oracle", "--d", str(d), "--lam", lam]) == 0
        assert capsys.readouterr().out == out, (d, lam)


def test_exact_zero_prints_as_mpmath_prints_it():
    num = DecimalNumbers(80, 30)
    assert num.render(num.rational(Fraction(0)), 30) == mpmath.nstr(mpmath.mpf(0), 30)
    # a nonzero interval around zero decides no sign
    with pytest.raises(Undecided):
        num.render(num.rational(Fraction(1, 3)) - num.rational(Fraction(1, 3)), 30)


def test_render_leaves_a_value_near_a_rounding_boundary_undecided():
    # mpmath floors to n + 3 digits before it rounds, so within 10^-(n+3)
    # of a boundary the interval does not say which side it prints
    num = DecimalNumbers(80, 30)
    near = Decimal("1.2345000001")
    with pytest.raises(Undecided):
        num.render(certified.Interval(near, near, num), 4)
    clear = Decimal("1.234501")
    assert num.render(certified.Interval(clear, clear, num), 4) == "1.235"
