"""Fast binomial coefficients: exact, and enclosures of their logs."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cubecount import bigint


def test_matches_math_comb_exhaustively():
    for n in range(0, 60):
        for k in range(0, n + 1):
            assert bigint.binomial(n, k) == math.comb(n, k)


def test_edge_cases():
    assert bigint.binomial(10, 11) == 0
    assert bigint.binomial(0, 0) == 1
    with pytest.raises(ValueError):
        bigint.binomial(-1, 0)
    with pytest.raises(ValueError):
        bigint.binomial(5, -2)


def test_prime_factorization_path_matches_math_comb(monkeypatch):
    # force the large-n path even for small inputs
    monkeypatch.setattr(bigint, "_SMALL_CUTOFF", 0)
    for n in (1, 2, 37, 96, 255):
        for k in (0, 1, n // 3, n // 2, n):
            assert bigint.binomial(n, k) == math.comb(n, k)


def test_large_argument_spot_checks():
    assert bigint.binomial(10 ** 5, 2) == math.comb(10 ** 5, 2)
    n, k = 120_000, 31_337
    assert bigint.binomial(n, k) == math.comb(n, k)


def test_primes_upto_matches_trial_division():
    for n in range(0, 200):
        expected = [p for p in range(2, n + 1)
                    if all(p % q for q in range(2, math.isqrt(p) + 1))]
        assert bigint._primes_upto(n) == expected, n


def test_prime_power_factors_multiply_to_the_binomial():
    for n in range(0, 120):
        for k in range(0, n + 1):
            factors = bigint._prime_power_factors(n, k)
            assert math.prod(factors) == math.comb(n, k), (n, k)
            assert all(1 < f <= n for f in factors)  # Kummer: p^e <= n


def test_tangent_numbers_give_the_bernoulli_numbers():
    from fractions import Fraction

    from mpmath import bernfrac
    tangent = bigint._tangent_numbers(60)
    for i in range(1, 61):
        b = Fraction((-1) ** (i - 1) * 2 * i * tangent[i], 4 ** i * (4 ** i - 1))
        assert b == Fraction(*bernfrac(2 * i)), i


@pytest.mark.parametrize("digits", [1, 5, 28, 50, 300, 2000])
def test_pi_bounds_hold_pi(digits):
    import mpmath
    from fractions import Fraction
    lo, hi = bigint.pi_bounds(digits)
    assert hi - lo < Fraction(1, 10 ** digits)
    with mpmath.workdps(digits + 40):
        pi = mpmath.pi()
        assert mpmath.mpf(str(lo)) < pi < mpmath.mpf(str(hi))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(2, 700))
def test_ln_binomial_bounds_hold_the_log(nk, wp):
    import mpmath
    from fractions import Fraction
    n, k = nk
    lo, hi = map(Fraction, bigint.ln_binomial_bounds(n, k, wp))
    ln = mp_log_fraction(lambda: mpmath.log(math.comb(n, k)), wp)
    slack = Fraction(1, 2 ** (wp + 40)) * (1 + abs(ln))  # the reference's own rounding
    assert lo - slack <= ln <= hi + slack
    # about wp bits wide, relative to ln n!
    assert hi - lo < Fraction(2) ** (n.bit_length() + 16 - wp) + Fraction(1, 2 ** wp)


def mp_log_fraction(f, wp):
    """f(), evaluated by mpmath at wp + 64 bits, as an exact Fraction."""
    import mpmath
    from fractions import Fraction
    with mpmath.workprec(wp + 64):
        sign, man, exp, _ = f()._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp if man else Fraction(0)


@pytest.mark.parametrize("x", [0, 1, 5, 1023, 1024, 5000, 2 ** 22])
@pytest.mark.parametrize("wp", [8, 200, 2000])
def test_ln_factorial_bounds_hold_the_log(x, wp):
    import mpmath
    from fractions import Fraction
    lo, hi = map(Fraction, bigint.ln_factorial_bounds(x, wp))
    ln = mp_log_fraction(lambda: mpmath.loggamma(x + 1), wp + x.bit_length())
    slack = Fraction(1, 2 ** (wp + 40)) * (1 + abs(ln))
    assert lo - slack <= ln <= hi + slack
    assert hi - lo < Fraction(2) ** (x.bit_length() + 16 - wp) + Fraction(1, 2 ** wp)


def test_past_the_term_cap_the_exact_integer_serves():
    # at x = 2048 Stirling's series reaches about 2,300 bits in 128 terms, so
    # 4,000 bits take the log of the exact C(n, k) and of x! instead
    import mpmath
    from fractions import Fraction
    n, k, wp = 2048, 700, 4000
    assert bigint._stirling_terms(n, wp) is None
    lo, hi = map(Fraction, bigint.ln_binomial_bounds(n, k, wp))
    for (lo, hi), exact in ((bigint.ln_binomial_bounds(n, k, wp), math.comb(n, k)),
                            (bigint.ln_factorial_bounds(n, wp), math.factorial(n))):
        lo, hi = Fraction(lo), Fraction(hi)
        ln = mp_log_fraction(lambda: mpmath.log(exact), wp)
        slack = Fraction(1, 2 ** (wp + 40)) * (1 + abs(ln))
        assert lo - slack <= ln <= hi + slack
        assert hi - lo < Fraction(1, 2 ** (wp - 16))
