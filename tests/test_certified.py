"""Decimal intervals that print correctly rounded digits, checked against
mpmath at twice the working precision."""

import itertools
import json
import math
import random
import re
import warnings
from decimal import Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from cubecount import asymptotics as asym
from cubecount import certified, cli, exact
from cubecount.certified import DecimalNumbers, Undecided
from cubecount.errors import BudgetExceededError, RegimeWarning
from cubecount.polymers import DefectType


def dyadic(man: int, exp: int) -> tuple[Decimal, object]:
    """man * 2^exp as an exact Decimal and an exact mpf."""
    dec = Context(prec=400).multiply(man, Context(prec=400).power(2, exp))
    with mpmath.workprec(max(man.bit_length(), 1) + 8):
        return dec, mpmath.ldexp(mpmath.mpf(man), exp)


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


def as_decimal(x) -> Decimal:
    """An mpf as the Decimal of the same value, exactly."""
    sign, man, exp, _ = x._mpf_
    if exp >= 0:
        return Decimal((sign, tuple(map(int, str(man << exp))), 0))
    return Decimal((sign, tuple(map(int, str(man * 5 ** -exp))), exp))


class MpNumbers:
    """The number kit in mpmath's mpf, at mpmath's working precision: the
    reference the intervals are checked against.  `render` returns the mpf,
    so a LogCount's `json_in` gives the value behind each printed field."""

    def __init__(self):
        self.pi = mpmath.pi
        self.log, self.fsum = mpmath.log, mpmath.fsum

    @staticmethod
    def rational(x: Fraction):
        return mpmath.mpf(x.numerator) / x.denominator

    def log1p(self, x: Fraction):
        return mpmath.log1p(self.rational(x))

    @staticmethod
    def log_binomial(n: int, k: int):
        return mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)

    @staticmethod
    def log_factorial(k: int):
        return mpmath.loggamma(k + 1)

    @staticmethod
    def render(x, n: int):
        return x


def fields(out: dict) -> list:
    """The printed fields of a LogCount's JSON, in a fixed order."""
    values = [out[k] for k in ("log10_value", "ln_value", "alt_ln_value") if k in out]
    return values + [t["ln"] for t in out["terms"]]


REFERENCE_DPS = 2 * (30 + certified._GUARD_DIGITS)  # twice the most working digits


def reference_digits(lc) -> list[Decimal]:
    """The value behind each printed field of lc, from mpmath at
    `REFERENCE_DPS` digits, as exact Decimals."""
    with mpmath.workdps(REFERENCE_DPS):
        out = lc.json_in(MpNumbers())
    return [as_decimal(x) for x in fields(out)]


def clear_of_a_boundary(x: Decimal, n: int, dps: int) -> bool:
    """Whether x, good to about 10^-(dps - 5) relative, lies clear of every
    rounding boundary at n digits (the half-way points), so that it decides
    the n digits of the value it approximates."""
    tail = "".join(map(str, x.as_tuple().digits))[n:dps - 5]
    return not (re.fullmatch("50*", tail) or re.fullmatch("49*", tail))


def check_correctly_rounded(lc, digits: int, reference=None) -> int:
    """Assert that every field of lc at `digits` digits is the mpmath value,
    at twice the most working digits, rounded; return the fields compared."""
    shown = min(digits, 30)
    printed = fields(asym.LogCount(digits, lc._formula).to_json())
    compared = 0
    for got, x in zip(printed, reference or reference_digits(lc)):
        if clear_of_a_boundary(x, shown, REFERENCE_DPS):
            assert got == certified.nstr(x, shown), (got, x, shown)
            compared += 1
    return compared


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return fn(*args, **kwargs)


SINGLETON = DefectType.from_key("s1c0g0")
PROFILES = ({"fixed_types": {SINGLETON: 1}},
            {"fixed_types": {SINGLETON: 3},
             "diverging_types": {DefectType.from_key("s2c2g1"): (40, 2)}})


def grid():
    """The (kind, parameter, d, t) cases of the correct-rounding grid."""
    params = [("count", Fraction(*b)) for b in
              ((1, 2), (5, 8), (3, 4), (1, 3), (7, 8), (2, 5))]
    params += [("zeta", Fraction(*lam)) for lam in ((1, 1), (2, 1), (1, 2), (3, 1), (5, 4))]
    params += [("count-structured", i) for i in range(len(PROFILES))]
    for (kind, param), d, t in itertools.product(params, range(5, 25), range(2, 5)):
        yield kind, param, d, t


def log_count(kind, param, d, t, digits=80):
    if kind == "count":
        return quiet(asym.log_count_asymptotic, param, d, t, digits)
    if kind == "zeta":
        return quiet(asym.log_Z_asymptotic, param, d, t, digits)
    return quiet(asym.structured_count, Fraction(1, 2), d, t=t, digits=digits,
                 **PROFILES[param])


def check_grid(cases, digit_range) -> int:
    compared = 0
    for case in cases:
        lc = log_count(*case)
        reference = reference_digits(lc)
        for digits in digit_range:
            compared += check_correctly_rounded(lc, digits, reference)
    return compared


def test_a_seeded_sample_of_the_grid_is_correctly_rounded():
    cases = random.Random(26).sample(list(grid()), 24)
    assert check_grid(cases, range(1, 31)) > 24 * 30 * 3


@pytest.mark.slow
def test_the_whole_grid_is_correctly_rounded():
    # count, zeta and count-structured at d = 5..24, t = 2..4 and every
    # --digits from 1 to 30
    assert check_grid(list(grid()), range(1, 31)) > 50_000


@pytest.mark.parametrize("argv,field,expect", [
    ("count --beta 5/8 --d 5 --t 3 --digits 8", "ln_value", "9.9290126"),
    ("count --beta 1/3 --d 20 --t 2 --digits 12", "ln_value", "333789.056286"),
])
def test_fields_once_misrounded_print_correctly_rounded(capsys, argv, field, expect):
    # the values are 9.929012647... and 333789.0562864..., where a value
    # computed at --digits digits printed a last digit one too high
    assert cli.main(argv.split()) == 0
    assert json.loads(capsys.readouterr().out)[field] == expect


POSITIVE = st.fractions(min_value=Fraction(1, 10 ** 12), max_value=10 ** 12)


@settings(max_examples=200, deadline=None)
@given(POSITIVE, st.fractions(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(-10 ** 9, 10 ** 9).filter(bool), st.integers(1, 200))
def test_intervals_hold_the_exact_value(a, b, k, digits):
    def formula(num):
        x = num.log(num.rational(a)) * k + num.rational(b) / num.log(3)
        y = 2 * num.pi * k - num.rational(b) * num.rational(a)
        return [x, y, x - y / 7, num.fsum([x, y, num.log(2), num.rational(b)]),
                -num.log_binomial(5000 + abs(k) % 3000, 1200),
                num.log_factorial(abs(k) % 5000), num.log1p(a / 10 ** 30)]

    try:
        dec = formula(DecimalNumbers(digits))
    except Undecided:  # a few digits leave no interval clear of zero
        assert digits < 10
        return
    dps = digits + 40
    with mpmath.workdps(dps):
        exact = [as_decimal(v) for v in formula(MpNumbers())]
    for x, iv in zip(map(Fraction, exact), dec):
        slack = abs(x) / 10 ** (dps - 5)  # the reference's own rounding
        assert Fraction(iv.lo) - slack <= x <= Fraction(iv.hi) + slack


def test_tangent_numbers_give_the_bernoulli_numbers():
    tangent = certified._tangent_numbers(60)
    for i in range(1, 61):
        b = Fraction((-1) ** (i - 1) * 2 * i * tangent[i], 4 ** i * (4 ** i - 1))
        assert b == Fraction(*mpmath.bernfrac(2 * i)), i


@pytest.mark.parametrize("digits", [1, 5, 28, 50, 300, 2000])
def test_pi_bounds_hold_pi(digits):
    lo, hi = certified.pi_bounds(digits)
    assert hi - lo < Fraction(1, 10 ** digits)
    with mpmath.workdps(digits + 40):
        pi = mpmath.pi()
        assert mpmath.mpf(str(lo)) < pi < mpmath.mpf(str(hi))


def mp_log_fraction(f, digits):
    """f(), evaluated by mpmath at digits + 20 digits, as an exact Fraction."""
    with mpmath.workdps(digits + 20):
        sign, man, exp, _ = f()._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp if man else Fraction(0)


def assert_holds(iv, ln, digits, magnitude):
    """iv holds ln, up to the reference's own rounding, and is at most about
    `digits` digits wide relative to `magnitude`, the largest log summed."""
    lo, hi = Fraction(iv.lo), Fraction(iv.hi)
    slack = Fraction(1 + abs(ln), 10 ** (digits + 15))
    assert lo - slack <= ln <= hi + slack
    assert hi - lo < (1 + magnitude) * Fraction(10) ** (3 - digits)


def ln_factorial_magnitude(x: int) -> int:
    return x * x.bit_length()  # above ln x! < x ln x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(1, 210))
@example((2 ** 16, 2 ** 15), 30)
@example((2 ** 16, 2 ** 14), 30)
def test_log_binomial_holds_the_log(nk, digits):
    n, k = nk
    ln = mp_log_fraction(lambda: mpmath.log(math.comb(n, k)), digits)
    assert_holds(DecimalNumbers(digits).log_binomial(n, k), ln, digits,
                 ln_factorial_magnitude(n))


@pytest.mark.parametrize("x", [0, 1, 5, 1023, 1024, 5000, 2 ** 22])
@pytest.mark.parametrize("digits", [3, 60, 600])
def test_log_factorial_holds_the_log(x, digits):
    ln = mp_log_fraction(lambda: mpmath.loggamma(x + 1), digits + len(str(x)))
    assert_holds(DecimalNumbers(digits).log_factorial(x), ln, digits,
                 ln_factorial_magnitude(x))


@pytest.mark.parametrize("terms", [0, 1, 2, 3])
def test_the_first_omitted_term_bounds_the_remainder(monkeypatch, terms):
    # cut short, the series leaves a remainder far above the working digits,
    # which only the widening by the first omitted term holds
    monkeypatch.setattr(certified, "_stirling_terms", lambda x, digits: terms)
    for x in (1024, 1500, 5000):
        iv = DecimalNumbers(60).log_factorial(x)
        ln = mp_log_fraction(lambda: mpmath.loggamma(x + 1), 70)
        assert Fraction(iv.lo) <= ln <= Fraction(iv.hi), (x, terms)


def test_past_the_term_cap_the_exact_integer_serves():
    # at x = 2048 Stirling's series reaches about 550 digits in 128 terms, so
    # at 1,200 digits ln n! and ln (n - k)! are the logs of the exact
    # factorials, and ln C(n, k) is ln n! - ln k! - ln (n - k)!
    n, k, digits = 2048, 700, 1200
    assert certified._stirling_terms(n, digits) is None
    num = DecimalNumbers(digits)
    for iv, exact in ((num.log_binomial(n, k), math.comb(n, k)),
                      (num.log_factorial(n), math.factorial(n))):
        ln = mp_log_fraction(lambda: mpmath.log(exact), digits)
        assert_holds(iv, ln, digits, ln_factorial_magnitude(n))


@pytest.fixture
def working(monkeypatch):
    """The working digits of each kit `evaluate` makes, in order."""
    digits_seen = []

    class Recorded(DecimalNumbers):
        def __init__(self, digits):
            digits_seen.append(digits)
            super().__init__(digits)

    monkeypatch.setattr(certified, "DecimalNumbers", Recorded)
    return digits_seen


@pytest.mark.parametrize("argv", ["count --beta 1/2 --d 24 --t 3",
                                  "count --beta 1/3 --d 23 --t 3",
                                  "zeta --lam 1 --d 24 --t 3",
                                  "count --beta 1/2 --d 23 --t 4"])
def test_commands_print_from_one_kit(capsys, working, argv):
    # the enclosures are tight enough that the first working digits decide
    # every field: no doubling
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert working == [30 + certified._GUARD_DIGITS]


def cases(seed: int, count: int):
    """(kind, parameter, d, t, digits) over beta or lam, d = 2..24, t <= 4."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(2, 12)
        kind = rng.choice(["count", "zeta"])
        param = (Fraction(rng.randint(1, q - 1), q) if kind == "count"
                 else Fraction(rng.randint(1, 30), rng.randint(1, 12)))
        yield kind, param, rng.randint(2, 24), rng.randint(1, 4), rng.randint(31, 400)


def test_decided_json_equals_mpmaths():
    # whatever working digits decide a field, it is the correctly rounded one
    decided = 0
    for case in cases(22, 80):
        try:
            lc = log_count(*case)
        except ValueError:  # floor(beta N) at 0 or N, or a nonpositive fugacity
            continue
        want = lc.to_json()
        for working in (32, 40, 80):
            try:
                got = lc.json_in(DecimalNumbers(working))
            except Undecided:
                continue
            decided += 1
            assert got == want, case
        check_correctly_rounded(lc, case[-1])
    assert decided >= 100


@pytest.mark.parametrize("digits", [1, 10, 30])
@pytest.mark.parametrize("case", [("count", Fraction(1, 2), 24, 3),
                                  ("count", Fraction(1, 3), 23, 3),
                                  ("zeta", Fraction(1), 24, 3),
                                  ("zeta", Fraction(1, 3), 10, 4)])
def test_thirty_digits_or_fewer_are_correctly_rounded(case, digits):
    # a value computed at only --digits digits cannot be trusted to its last
    # printed digit, so these need the guard digits most
    lc = log_count(*case, digits)
    assert check_correctly_rounded(lc, digits) >= 4


def test_oracle_ln_z_is_decided_and_equals_mpmaths(capsys, working):
    # ln(1 + x), x = Z - 1, is read from x itself when x is below the
    # working precision, so no lam needs more than one doubling
    lams = ["1", "2", "1/2", "7/3", "100", "1/1000", "1/100000000",
            "1/10000000000000", "1e-40", "1e-998"]
    for d, lam in [*itertools.product(range(1, 6), lams), (6, "1e-998")]:
        working.clear()
        assert cli.main(["oracle", "--d", str(d), "--lam", lam]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert working[0] == 20 + certified._GUARD_DIGITS and len(working) <= 2
        x = exact.size_profile(d).partition_value(Fraction(lam)) - 1
        dps = 2 * working[-1] + 10
        with mpmath.workdps(dps):
            ln_z = mpmath.log1p(mpmath.mpf(x.numerator) / x.denominator)
        assert clear_of_a_boundary(as_decimal(ln_z), 20, dps)
        assert obj["ln_Z"] == certified.nstr(as_decimal(ln_z), 20), (d, lam)
    assert obj["ln_Z"] == "6.4e-997"


def test_exact_zero_prints_as_mpmath_prints_it():
    num = DecimalNumbers(50)
    assert num.render(num.rational(Fraction(0)), 30) == mpmath.nstr(mpmath.mpf(0), 30)
    # a nonzero interval around zero decides no sign
    with pytest.raises(Undecided):
        num.render(num.rational(Fraction(1, 3)) - num.rational(Fraction(1, 3)), 30)


def test_render_leaves_a_value_near_a_rounding_boundary_undecided():
    num = DecimalNumbers(50)
    straddle = certified.Interval(Decimal("1.23449999"), Decimal("1.23450001"), num)
    with pytest.raises(Undecided):
        num.render(straddle, 4)
    # a point on the boundary is an exact tie, which rounds half up
    tie = num.rational(Fraction(12345, 10000))
    assert tie.lo == tie.hi
    assert num.render(tie, 4) == "1.235"
    assert num.render(-tie, 4) == "-1.235"
    near = certified.Interval(Decimal("1.2345000001"), Decimal("1.2345000002"), num)
    assert num.render(near, 4) == "1.235"


def test_an_exact_tie_ends_the_doubling():
    # 1/8 = 0.125 sits on the boundary between 0.12 and 0.13
    assert certified.evaluate(lambda num: num.render(num.rational(Fraction(1, 8)), 2), 2) \
        == "0.13"


def test_an_exact_tie_with_a_long_operand_ends_the_doubling(working):
    # 25 / 10^2001 = 2.5e-2000 sits on the boundary between 2e-2000 and
    # 3e-2000; its denominator, 2^2001 5^1999, has 6,645 bits, far past the
    # 4 * 21 bits the first kit divides whole, and dividing out 2^s 5^t
    # keeps the value a point
    x = Fraction(25, 10 ** 2001)
    assert certified.evaluate(lambda num: num.render(num.rational(x), 1), 1) == "3.0e-2000"
    assert certified.evaluate(lambda num: num.render(num.rational(-x), 1), 1) == "-3.0e-2000"
    assert working == [1 + certified._GUARD_DIGITS] * 2


LONG = st.integers(0, 30_000).flatmap(lambda bits: st.integers(-(2 ** bits), 2 ** bits))


@settings(max_examples=200, deadline=None)
@given(LONG, LONG.filter(bool), st.integers(1, 120))
@example(1, 3 ** 20_000, 30)
@example(-(3 ** 20_000), 7, 5)
@example(-(2 ** 29_999 + 1), 2 ** 30_000 - 1, 1)
@example(7, 2 ** 20_000 * 5 ** 3, 40)
@example(3 ** 100, 10 ** 9_000, 50)
def test_rational_encloses_long_operands_within_a_few_units(a, b, digits):
    # past 4 `digits` bits an operand is taken from its leading bits, and the
    # quotient is scaled by a power of 2 raised in the kit
    x = Fraction(a, b)
    iv = DecimalNumbers(digits).rational(x)
    lo, hi = Fraction(iv.lo), Fraction(iv.hi)
    assert lo <= x <= hi
    # three roundings each end, a relative 10^(1 - digits) each: below 8
    # units from three digits on, whatever the operands
    if digits >= 3:
        assert hi - lo <= 8 * abs(x) * Fraction(10) ** (1 - digits)


@pytest.mark.parametrize("digits", [1, 12, 60])
def test_interval_powers_enclose_the_exact_power(digits):
    num = DecimalNumbers(digits)
    for base in (Fraction(3, 2), Fraction(-7, 5), Fraction(1, 3), Fraction(-2, 3),
                 Fraction(2), Fraction(10 ** 40 + 1, 10 ** 40)):
        iv = num.rational(base)
        for k in range(-200, 201):
            power = iv ** k
            exact_power = base ** k
            lo, hi = Fraction(power.lo), Fraction(power.hi)
            assert lo <= exact_power <= hi, (base, k, digits)
            # the base's own width, |k| times over, and a few units more,
            # while that is still small
            if digits > 10:
                assert hi - lo <= (2 * abs(k) + 8) * abs(exact_power) \
                    * Fraction(10) ** (1 - digits)
    straddle = num.rational(Fraction(-1, 3)).lo, num.rational(Fraction(1, 2)).hi
    for k in range(0, 201):
        power = certified.Interval(*straddle, num) ** k
        for x in (*straddle, 0):
            assert Fraction(power.lo) <= Fraction(x) ** k <= Fraction(power.hi), k
    with pytest.raises(Undecided):
        certified.Interval(*straddle, num) ** -1
    assert (num.coerce(2) ** 3).lo == (num.coerce(2) ** 3).hi == 8


def test_evaluate_works_only_where_stirling_covers_every_large_x():
    # past the digits that `_MAX_TERMS` terms cover at x = `_EXACT_BELOW`,
    # log_factorial would build the exact x! of a large x
    tried = []

    def undecided(num):
        tried.append(num.digits)
        raise Undecided

    for shown in range(1, 31):
        tried.clear()
        with pytest.raises(BudgetExceededError):
            certified.evaluate(undecided, shown)
        assert tried[0] == shown + certified._GUARD_DIGITS
        for digits in tried:
            assert certified._stirling_terms(certified._EXACT_BELOW, digits) \
                is not None, (shown, digits)


def test_a_field_no_precision_decides_exhausts_the_budget(monkeypatch):
    # ln 2 - ln 2 is exactly zero, but its interval never shrinks to a point
    monkeypatch.setattr(certified, "_MAX_WORKING_DIGITS", 400)
    with pytest.raises(BudgetExceededError):
        certified.evaluate(lambda num: num.render(num.log(2) - num.log(2), 5), 5)
