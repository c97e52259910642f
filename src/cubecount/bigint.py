"""Exact binomial coefficients for very large arguments.

`binomial(n, k)` factors C(n, k) by Legendre's formula into prime powers
p^e (`_prime_power_factors`; by Kummer's theorem each p^e is at most n).
math.comb is quadratic-ish once the operands reach hundreds of thousands of
bits, and counting formulas here need binomial(N, beta*N) with N up to 2^23;
multiplying the prime powers back with a balanced product tree keeps every
intermediate small until the end, which is orders of magnitude faster at
this scale.  The enclosures of ln C(n, k) that `count` prints are in
cubecount.certified, which takes this exact binomial only at very high
precision.
"""

from __future__ import annotations

import bisect
import itertools
import math

_SMALL_CUTOFF = 10_000


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, from a sieve over the odd numbers only."""
    if n < 2:
        return []
    size = (n + 1) // 2  # sieve[i] stands for 2i + 1
    sieve = bytearray([1]) * size
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes((size - 1 - start) // p + 1)
    return [2, *itertools.compress(range(1, n + 1, 2), sieve)]


def _prime_power_factors(n: int, k: int) -> list[int]:
    """The prime powers p^e (e >= 1) whose product is C(n, k), for 0 <= k <= n."""
    k = min(k, n - k)
    m = n - k
    primes = _primes_upto(n)
    root = math.isqrt(n)
    small = bisect.bisect_right(primes, root)
    big = bisect.bisect_right(primes, m)
    factors = []
    for p in primes[:small]:
        e = 0
        q = p
        while q <= n:
            e += n // q - k // q - m // q
            q *= p
        if e:
            factors.append(p ** e)
    # above sqrt(n) the exponent is n//p - k//p - m//p, 0 or 1: it is 1 exactly
    # when adding k and m in base p carries, i.e. when n mod p < k mod p ...
    factors.extend(p for p in primes[small:big] if n % p < k % p)
    # ... which holds for every prime in (m, n], since k <= m < p <= n there
    factors.extend(primes[big:])
    return factors


def _product_tree(factors: list[int]) -> int:
    if not factors:
        return 1
    while len(factors) > 1:
        nxt = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        if len(factors) & 1:
            nxt.append(factors[-1])
        factors = nxt
    return factors[0]


def binomial(n: int, k: int) -> int:
    """Exact binomial(n, k); equal to math.comb but fast for huge n."""
    if n < 0 or k < 0:
        raise ValueError("binomial needs nonnegative arguments")
    if k > n:
        return 0
    if n <= _SMALL_CUTOFF:
        return math.comb(n, k)
    return _product_tree(_prime_power_factors(n, k))
