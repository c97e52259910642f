"""Fast exact binomial coefficients."""

import math

import pytest

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
