"""Fast binomial coefficients: exact, and rounded to a precision."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_int

from cubecount import bigint


def rounded_reference(n, k, prec):
    return from_int(math.comb(n, k), prec, "n")[1:3]


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


def test_rounded_matches_from_int_exhaustively():
    for n in range(0, 60):
        for k in range(0, n + 2):
            for prec in (2, 3, 8, 53):
                assert bigint.binomial_rounded(n, k, prec) == \
                    rounded_reference(n, k, prec), (n, k, prec)


@given(st.integers(0, 200_000).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, n)))
       # n, k and n - k all at least _EXACT_BELOW: all three take the series
       | st.integers(2048, 200_000).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1024, n - 1024))),
       st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_rounded_matches_from_int(nk, prec):
    n, k = nk
    assert bigint.binomial_rounded(n, k, prec) == rounded_reference(n, k, prec)


def _count_exact_fallbacks(monkeypatch):
    calls = []
    exact = bigint.binomial

    def counted(n, k):
        calls.append((n, k))
        return exact(n, k)

    monkeypatch.setattr(bigint, "binomial", counted)
    return calls


def test_rounded_falls_back_to_the_exact_product(monkeypatch):
    calls = _count_exact_fallbacks(monkeypatch)
    # 3 * 2^20 lies halfway between 2^21 and 2^22, so no enclosure of it can
    # decide the rounding at one bit; the exact product rounds half to even
    assert bigint.binomial_rounded(3 << 20, 1, 1) == (1, 22)
    assert len(calls) == 1
    # With no guard bits the enclosure is about as wide as the rounding step,
    # so it often straddles a rounding boundary; the exact fallback decides.
    monkeypatch.setattr(bigint, "_GUARD_BITS", 0)
    for n in range(3000, 6000, 71):  # n, k and n - k above _EXACT_BELOW
        for prec in (2, 3, 8):
            assert bigint.binomial_rounded(n, n // 3, prec) == \
                rounded_reference(n, n // 3, prec)
    assert len(calls) > 1


def test_rounded_past_the_term_cap_takes_the_exact_product(monkeypatch):
    calls = _count_exact_fallbacks(monkeypatch)
    n, k = 5000, 2000
    prec = 20_000  # x = 2000 cannot reach 2^-prec within _MAX_TERMS terms
    assert bigint._stirling_terms(k, prec) is None
    assert bigint.binomial_rounded(n, k, prec) == rounded_reference(n, k, prec)
    assert calls


def test_rounded_large_argument_matches_exact():
    n, k = 1 << 17, 43_690
    for prec in (53, 270):
        assert bigint.binomial_rounded(n, k, prec) == \
            from_int(bigint.binomial(n, k), prec, "n")[1:3]


@pytest.mark.slow
def test_rounded_count_binomials_match_exact():
    # the C(N, m) of `count` at d = 24 (beta = 1/2) and d = 23 (beta = 1/3, 1/2)
    for n, k in ((1 << 23, 1 << 22), (1 << 22, 1_398_101), (1 << 22, 1 << 21)):
        assert bigint.binomial_rounded(n, k, 269) == \
            from_int(bigint.binomial(n, k), 269, "n")[1:3], (n, k)


def test_rounded_edge_cases():
    assert bigint.binomial_rounded(10, 11, 53) == (0, 0)
    assert bigint.binomial_rounded(0, 0, 53) == (1, 0)
    with pytest.raises(ValueError):
        bigint.binomial_rounded(-1, 0, 53)
    with pytest.raises(ValueError):
        bigint.binomial_rounded(5, 2, 0)


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
    bounds = bigint.ln_binomial_bounds(n, k, wp)
    if bounds is None:  # past the term cap
        assert max(bigint._stirling_terms(x, wp) or 10 ** 9
                   for x in (n, k, n - k) if x >= bigint._EXACT_BELOW) > 10 ** 8
        return
    lo, hi = map(Fraction, bounds)
    with mpmath.workprec(wp + 64):
        ln = mpmath.log(math.comb(n, k))
        sign, man, exp, _ = ln._mpf_
    ln = (-1) ** sign * Fraction(man) * Fraction(2) ** exp if man else Fraction(0)
    slack = Fraction(1, 2 ** (wp + 40)) * (1 + abs(ln))  # the reference's own rounding
    assert lo - slack <= ln <= hi + slack
    # about wp bits wide, relative to ln n!
    assert hi - lo < Fraction(2) ** (n.bit_length() + 16 - wp) + Fraction(1, 2 ** wp)
