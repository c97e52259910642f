"""Binomial coefficients for very large arguments: exact, or rounded to a precision.

Both entry points factor C(n, k) by Legendre's formula into prime powers
p^e (`_prime_power_factors`); by Kummer's theorem each p^e is at most n.

`binomial(n, k)` is exact.  math.comb is quadratic-ish once the operands reach
hundreds of thousands of bits, and counting formulas here need
binomial(N, beta*N) with N up to 2^23; multiplying the prime powers back with
a balanced product tree keeps every intermediate small until the end, which is
orders of magnitude faster at this scale.

`binomial_rounded(n, k, prec)` is C(n, k) rounded to nearest at `prec` bits,
as mpmath's `from_int(binomial(n, k), prec, 'n')` gives it, without building
the integer (C(2^23, 2^22) has 8,388,597 bits).  It multiplies the prime
powers into two mantissas of about prec + 64 bits that share one exponent;
whenever they outgrow that width, the lower one is shifted down rounding
toward zero and the upper one rounding away from it, so
lo * 2^e <= C(n, k) <= hi * 2^e holds at every step.  Rounding to nearest is
monotone, so if lo and hi round to the same prec-bit value, C(n, k) rounds to
it too.  If they do not (C(n, k) lies within the bracket's width of a rounding
boundary), the exact product is built and rounded instead.  Either way the
result is the exact integer's rounding; the guard bits only decide how rarely
the exact fallback runs.
"""

from __future__ import annotations

import bisect
import itertools
import math

from mpmath.libmp import from_int, from_man_exp

_SMALL_CUTOFF = 10_000
_GUARD_BITS = 64  # bracket width beyond `prec`; any width is exact, see the docstring


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


def _check_args(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("binomial needs nonnegative arguments")


def binomial(n: int, k: int) -> int:
    """Exact binomial(n, k); equal to math.comb but fast for huge n."""
    _check_args(n, k)
    if k > n:
        return 0
    if n <= _SMALL_CUTOFF:
        return math.comb(n, k)
    return _product_tree(_prime_power_factors(n, k))


def binomial_rounded(n: int, k: int, prec: int) -> tuple[int, int]:
    """binomial(n, k) rounded to nearest at `prec` bits, as an mpmath (man, exp) pair.

    Equal to `from_int(binomial(n, k), prec, 'n')[1:3]`, so
    `mpmath.mpf(binomial_rounded(n, k, mpmath.mp.prec))` is
    `mpmath.mpf(binomial(n, k))`; the exact integer is built only when the
    bracket of the module docstring cannot decide the rounding.
    """
    _check_args(n, k)
    if prec < 1:
        raise ValueError("precision must be at least one bit")
    if k > n:
        return 0, 0
    factors = _prime_power_factors(n, k)
    width = prec + _GUARD_BITS
    # a batch of this many factors, each <= n, has fewer than `width` bits
    batch = max(1, width // max(1, n.bit_length()))
    lo = hi = 1
    exp = 0
    for i in range(0, len(factors), batch):
        c = math.prod(factors[i:i + batch])
        lo *= c
        hi *= c
        shift = hi.bit_length() - width
        if shift > 0:
            lo >>= shift
            hi = -(-hi >> shift)
            exp += shift
    low = from_man_exp(lo, exp, prec, "n")
    if low == from_man_exp(hi, exp, prec, "n"):
        return low[1], low[2]
    exact = from_int(_product_tree(factors), prec, "n")
    return exact[1], exact[2]
