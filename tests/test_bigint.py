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


@given(st.integers(0, 5000).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_rounded_matches_from_int(nk, prec):
    n, k = nk
    assert bigint.binomial_rounded(n, k, prec) == rounded_reference(n, k, prec)


def test_rounded_falls_back_to_the_exact_product(monkeypatch):
    # With no guard bits the bracket is as wide as the rounding step, so it
    # often straddles a rounding boundary; the exact fallback must then decide.
    monkeypatch.setattr(bigint, "_GUARD_BITS", 0)
    calls = []
    exact_tree = bigint._product_tree

    def counted(factors):
        calls.append(len(factors))
        return exact_tree(factors)

    monkeypatch.setattr(bigint, "_product_tree", counted)
    for n in range(100, 400, 7):
        for prec in (2, 3, 8):
            assert bigint.binomial_rounded(n, n // 3, prec) == \
                rounded_reference(n, n // 3, prec)
    assert calls


def test_rounded_large_argument_matches_exact():
    n, k = 1 << 17, 43_690
    for prec in (53, 270):
        assert bigint.binomial_rounded(n, k, prec) == \
            from_int(bigint.binomial(n, k), prec, "n")[1:3]


def test_rounded_edge_cases():
    assert bigint.binomial_rounded(10, 11, 53) == (0, 0)
    assert bigint.binomial_rounded(0, 0, 53) == (1, 0)
    with pytest.raises(ValueError):
        bigint.binomial_rounded(-1, 0, 53)
    with pytest.raises(ValueError):
        bigint.binomial_rounded(5, 2, 0)
