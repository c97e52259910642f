"""Binomial coefficients for very large arguments: exact, or rounded to a precision.

`binomial(n, k)` is exact.  It factors C(n, k) by Legendre's formula into
prime powers p^e (`_prime_power_factors`; by Kummer's theorem each p^e is at
most n).  math.comb is quadratic-ish once the operands reach hundreds of
thousands of bits, and counting formulas here need binomial(N, beta*N) with N
up to 2^23; multiplying the prime powers back with a balanced product tree
keeps every intermediate small until the end, which is orders of magnitude
faster at this scale.

`binomial_rounded(n, k, prec)` is C(n, k) rounded to nearest at `prec` bits,
as mpmath's `from_int(binomial(n, k), prec, 'n')` gives it, without building
the integer (C(2^23, 2^22) has 8,388,597 bits).  It encloses
ln C(n, k) = L(n) - L(k) - L(n - k), L(x) = ln x!, in an `mpmath.iv` interval:
below x = 2^10, L(x) is the log of the exact x!; above, it is Stirling's series

    (x + 1/2) ln x - x + (1/2) ln 2 pi + sum_{i <= K} B_2i / (2i (2i-1) x^(2i-1)),

widened by the first omitted term, which bounds the remainder for x > 0.
Exponentiating gives an interval [lo, hi] that holds C(n, k).  Rounding to
nearest is monotone, so if lo and hi round to the same prec-bit value, C(n, k)
rounds to it too.  If they do not (C(n, k) lies within the interval's width of
a rounding boundary), if the series would need more than `_MAX_TERMS` terms
(a very high precision), or if n < 2^10 (C(n, k) then has fewer bits than
its enclosure costs), the exact `binomial(n, k)` is built and rounded
instead.  Either way the result is the exact integer's rounding, provided
`mpmath.iv` rounds its log, exp and pi outward as it documents; the guard
bits only decide how rarely the exact fallback runs.  mpmath is imported
only there, so the exact `binomial` never loads it.
"""

from __future__ import annotations

import bisect
import itertools
import math

_SMALL_CUTOFF = 10_000
_GUARD_BITS = 64  # enclosure width beyond `prec`; any width is exact, see the docstring
_EXACT_BELOW = 1 << 10  # L(x) from the exact x!, and C(n, k) exact for n, below it
_MAX_TERMS = 128  # Stirling terms beyond which the exact product runs instead


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


def _stirling_terms(x: int, wp: int) -> int | None:
    """Fewest Stirling terms K for L(x) whose first omitted term is below 2^-wp.

    Sizes the series from |B_2i| < 4 (2i)! / (2 pi)^(2i), so term i is below
    4 (2i-2)! / ((2 pi)^(2i) x^(2i-1)).  None when K would exceed `_MAX_TERMS`.
    """
    log2_x = math.log2(x)
    log2_2pi = math.log2(2 * math.pi)
    for i in range(1, _MAX_TERMS + 2):
        bound = 2 + math.lgamma(2 * i - 1) / math.log(2) \
            - 2 * i * log2_2pi - (2 * i - 1) * log2_x
        if bound < -wp:
            return i - 1
    return None


def _ln_factorial(x: int, terms: int, bernoulli: list[tuple[int, int]]):
    """An `iv` interval holding ln x!, at the current `iv.prec`.

    `bernoulli[i]` is B_2i as a fraction; above `_EXACT_BELOW`, `terms` is the
    K of `_stirling_terms`.
    """
    from mpmath import iv

    if x < _EXACT_BELOW:
        return iv.log(math.factorial(x))
    xi = iv.mpf(x)
    total = (xi + 0.5) * iv.log(xi) - xi + iv.log(2 * iv.pi) / 2
    inv_square = 1 / (xi * xi)
    power = 1 / xi  # x^-(2i-1)
    for i in range(1, terms + 2):
        p, q = bernoulli[i]
        term = power * p / (q * 2 * i * (2 * i - 1))
        if i > terms:  # the first omitted term bounds the remainder
            bound = abs(term).b
            term = iv.mpf([-bound, bound])
        total += term
        power *= inv_square
    return total


def binomial_rounded(n: int, k: int, prec: int) -> tuple[int, int]:
    """binomial(n, k) rounded to nearest at `prec` bits, as an mpmath (man, exp) pair.

    Equal to `from_int(binomial(n, k), prec, 'n')[1:3]`, so
    `mpmath.mpf(binomial_rounded(n, k, mpmath.mp.prec))` is
    `mpmath.mpf(binomial(n, k))`.  It rounds the enclosure of ln C(n, k) of the
    module docstring, and builds the exact integer only when that enclosure
    cannot decide the rounding or would need too many Stirling terms.
    """
    from mpmath import bernfrac, iv
    from mpmath.libmp import from_int, mpf_pos

    _check_args(n, k)
    if prec < 1:
        raise ValueError("precision must be at least one bit")
    if k > n:
        return 0, 0
    # L(n) < n ln n, so its roundings at wp bits are about
    # 2^(n.bit_length() + log2 ln n - wp); the 8 extra bits cover log2 ln n
    # and the number of steps, leaving ln C(n, k) about 2^-(prec + guard) wide
    wp = prec + _GUARD_BITS + n.bit_length() + 8
    args = (n, k, n - k)
    terms = [_stirling_terms(x, wp) if x >= _EXACT_BELOW else 0 for x in args]
    if n >= _EXACT_BELOW and None not in terms:
        bernoulli = [bernfrac(2 * i) for i in range(max(terms) + 2)]
        saved = iv.prec
        iv.prec = wp
        try:
            ln_n, ln_k, ln_m = (_ln_factorial(x, t, bernoulli)
                                for x, t in zip(args, terms))
            lo, hi = iv.exp(ln_n - ln_k - ln_m)._mpi_
        finally:
            iv.prec = saved
        low = mpf_pos(lo, prec, "n")
        if low == mpf_pos(hi, prec, "n"):
            return low[1], low[2]
    exact = from_int(binomial(n, k), prec, "n")
    return exact[1], exact[2]
