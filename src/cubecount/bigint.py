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
the integer (C(2^23, 2^22) has 8,388,597 bits).  `ln_binomial_bounds`
encloses ln C(n, k) = L(n) - L(k) - L(n - k), L(x) = ln x!, between two
Decimals: below x = 2^10, L(x) is the log of the exact x!; above, it is
Stirling's series

    (x + 1/2) ln x - x + (1/2) ln 2 pi + sum_{i <= K} B_2i / (2i (2i-1) x^(2i-1)),

widened by the first omitted term, which bounds the remainder for x > 0.
The Bernoulli numbers come from integer tangent numbers, only as far as K.
Every step rounds outward (ROUND_FLOOR for the lower end, ROUND_CEILING for
the upper), and ln, exp and pi are widened by one unit in the last place
around decimal's ln and exp and Machin's series for pi, so the two ends hold
ln C(n, k) at any precision, provided decimal's ln and exp round correctly,
as it documents.

`binomial_rounded` scales C(n, k) into [2^(prec-1), 2^prec) by a power of
two, exponentiates the scaled lower end, bounds the upper one from it, and
rounds both.  Rounding to nearest is monotone, so if they round to the
same prec-bit value, C(n, k) rounds to it too; trailing zero bits are
stripped, as `from_int` strips them.  If they do not (C(n, k) lies within
the enclosure's width of a rounding boundary), if the series would need more
than `_MAX_TERMS` terms (a very high precision), or if n < 2^10 (C(n, k)
then has fewer bits than its enclosure costs), the exact `binomial(n, k)` is
built and rounded by mpmath instead, so the exact `binomial` never loads
mpmath.  The guard bits only decide how rarely the exact fallback runs.

`count` also reads ln C(n, k) from this enclosure when it prints from
decimal intervals (cubecount.certified): mpmath's log of
mpf(binomial_rounded(n, k, prec)) is ln C(n, k) + ln(1 + delta) with
|delta| <= 2^-prec, rounded once more.  That path assumes each mpmath
rounding step errs by at most 2^(8 - prec) relative; mpmath rounds its
arithmetic correctly and its log and pi to within a few units of 2^-prec.
"""

from __future__ import annotations

import bisect
import itertools
import math
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR,
                     ROUND_HALF_EVEN, Context, Decimal)
from fractions import Fraction
from functools import lru_cache

_SMALL_CUTOFF = 10_000
_GUARD_BITS = 64  # enclosure width beyond `prec`; any width is exact, see the docstring
_EXACT_BELOW = 1 << 10  # L(x) from the exact x!, and C(n, k) exact for n, below it
_MAX_TERMS = 128  # Stirling terms beyond which the exact product runs instead
_HALF = Decimal("0.5")


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




def decimal_contexts(digits: int) -> tuple[Context, Context, Context]:
    """Contexts that round down, up and to nearest at `digits` digits.

    Their exponent range is the widest decimal allows, so no bound
    overflows or underflows where a default context would stop at 10^999999.
    """
    return tuple(Context(prec=digits, rounding=r, Emax=MAX_EMAX, Emin=MIN_EMIN)
                 for r in (ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN))


def _digits(wp: int) -> int:
    """Decimal digits that carry `wp` bits."""
    return math.ceil(wp * math.log10(2)) + 1


def ln_bounds(x: Decimal, near: Context) -> tuple[Decimal, Decimal]:
    """Decimals below and above ln x: decimal's ln is correctly rounded, so
    one unit in the last place either side of it holds the true value.
    ln 1 = 0 is exact, and its neighbours would be 10^MIN_EMIN."""
    v = near.ln(x)
    if not v:
        return v, v
    return near.next_minus(v), near.next_plus(v)


@lru_cache(maxsize=8)
def pi_bounds(digits: int) -> tuple[Decimal, Decimal]:
    """Exact Decimals lo < pi < hi with hi - lo < 10^-digits.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239), each arctangent
    summed in integers scaled by 10^(digits + guard).  Its k-th term
    floor(floor(scale / q^(2k+1)) / (2k+1)) is below the exact term by less
    than 2, and the series stops at the first term below one unit, so an
    arctangent of K terms is off by at most 2K + 1 units.
    """
    guard = len(str(digits)) + 3
    scale = 10 ** (digits + guard)
    value = slack = 0
    for weight, q in ((16, 5), (-4, 239)):
        total, power, k = 0, scale // q, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k & 1 else term
            power //= q * q
            k += 1
        value += weight * total
        slack += abs(weight) * (2 * k + 1)
    exact = Context(prec=digits + guard + 2)
    return tuple(exact.scaleb(Decimal(v), -(digits + guard))
                 for v in (value - slack, value + slack))


@lru_cache(maxsize=4)
def _tangent_numbers(count: int) -> tuple[int, ...]:
    """The tangent numbers T_1 .. T_count (index 0 unused), in integers.

    Brent and Harvey's recurrence takes O(count^2) small multiplications;
    B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)).
    """
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


@lru_cache(maxsize=8)
def _ln_constants(digits: int):
    """Bounds on ln 2 and on (1/2) ln 2 pi at `digits` digits, as two pairs.

    With a = 2 pi_lo rounded down, ln 2 pi <= ln(2 pi_hi) <= ln a +
    (2 pi_hi - a) / a, so one ln serves both ends.
    """
    down, up, near = decimal_contexts(digits)
    pi_lo, pi_hi = pi_bounds(digits)
    a = down.multiply(2, pi_lo)
    ln_a_lo, ln_a_hi = ln_bounds(a, near)
    excess = up.divide(up.subtract(up.multiply(2, pi_hi), a), a)
    return (ln_bounds(Decimal(2), near),
            (down.multiply(ln_a_lo, _HALF), up.multiply(up.add(ln_a_hi, excess), _HALF)))


def _ln_factorial_bounds(x: int, terms: int, contexts, tangent):
    """Decimals below and above ln x!, rounded outward in `contexts`.

    Above `_EXACT_BELOW`, `terms` is the K of `_stirling_terms` and
    `tangent` holds T_1 .. T_(K+1) at least.  The i-th Stirling term is
    B_2i / (2i (2i-1) x^(2i-1)) = (-1)^(i-1) T_i / (4^i (4^i-1) (2i-1) x^(2i-1)).
    """
    down, up, near = contexts
    if x < _EXACT_BELOW:
        return ln_bounds(Decimal(math.factorial(x)), near)
    ln2, half_ln_2pi = _ln_constants(near.prec)
    xd = Decimal(x)
    if x & (x - 1):
        ln_lo, ln_hi = ln_bounds(xd, near)
    else:  # N = 2^(d-1), and N/2 at beta = 1/2: ln 2^e = e ln 2
        e = x.bit_length() - 1
        ln_lo, ln_hi = down.multiply(e, ln2[0]), up.multiply(e, ln2[1])
    lo = down.add(down.subtract(down.multiply(down.add(xd, _HALF), ln_lo), xd),
                  half_ln_2pi[0])
    hi = up.add(up.subtract(up.multiply(up.add(xd, _HALF), ln_hi), xd),
                half_ln_2pi[1])
    power, square = x, x * x  # x^(2i-1)
    for i in range(1, terms + 2):
        # decimal's divide rounds correctly, so one ulp either side bounds it
        t = near.divide(tangent[i], 4 ** i * (4 ** i - 1) * (2 * i - 1) * power)
        t_lo, t_hi = near.next_minus(t), near.next_plus(t)
        if i > terms:  # the first omitted term bounds the remainder
            lo, hi = down.subtract(lo, t_hi), up.add(hi, t_hi)
        elif i & 1:
            lo, hi = down.add(lo, t_lo), up.add(hi, t_hi)
        else:
            lo, hi = down.subtract(lo, t_hi), up.subtract(hi, t_lo)
        power *= square
    return lo, hi


def ln_binomial_bounds(n: int, k: int, wp: int) -> tuple[Decimal, Decimal] | None:
    """Decimals lo <= ln C(n, k) <= hi, for 0 <= k <= n, at `wp` bits.

    The enclosure of the module docstring: each L(x) is rounded outward at
    about wp significant bits, and its series is cut where the first omitted
    term falls below 2^-wp.  None when a series would need more than
    `_MAX_TERMS` terms.
    """
    args = (n, k, n - k)
    terms = [_stirling_terms(x, wp) if x >= _EXACT_BELOW else 0 for x in args]
    if None in terms:
        return None
    contexts = down, up, _ = decimal_contexts(_digits(wp))
    tangent = _tangent_numbers(max(terms) + 1)
    ln_fact = {}
    for x, t in zip(args, terms):
        if x not in ln_fact:  # k = n - k at beta = 1/2
            ln_fact[x] = _ln_factorial_bounds(x, t, contexts, tangent)
    (n_lo, n_hi), (k_lo, k_hi), (m_lo, m_hi) = (ln_fact[x] for x in args)
    return (down.subtract(down.subtract(n_lo, k_hi), m_hi),
            up.subtract(up.subtract(n_hi, k_lo), m_lo))


def _round_exp(lo: Decimal, hi: Decimal, prec: int, contexts) -> tuple[int, int] | None:
    """exp(L) rounded to nearest at `prec` bits, as a (man, exp) pair with
    man odd, when every L in [lo, hi] gives the same one; else None.

    With 2^e <= exp(L) < 2^(e+1) and s = e + 1 - prec, exp(L) / 2^s =
    exp(L - s ln 2) lies in [2^(prec-1), 2^prec); it rounds to the integer m
    when it lies strictly within 1/2 of m.
    """
    down, up, near = contexts
    if lo <= 0:
        return None
    (ln2_lo, ln2_hi), _ = _ln_constants(near.prec)
    e = math.floor(down.divide(lo, ln2_hi))
    if up.divide(hi, ln2_lo) >= e + 1:  # the binade is not decided
        return None
    s = e + 1 - prec
    # shift_lo <= s ln 2 <= shift_hi
    shift_lo = down.multiply(s, ln2_lo if s >= 0 else ln2_hi)
    shift_hi = up.multiply(s, ln2_hi if s >= 0 else ln2_lo)
    x_lo = down.subtract(lo, shift_hi)
    width = up.subtract(up.subtract(hi, shift_lo), x_lo)
    if width > 1:
        return None
    # exp(x_lo + width) <= exp(x_lo) (1 + 2 width) for 0 <= width <= 1
    v = near.exp(x_lo)
    q_lo = Fraction(near.next_minus(v))
    q_hi = Fraction(up.multiply(near.next_plus(v), up.add(1, up.multiply(2, width))))
    m = round(q_lo)
    if not m - Fraction(1, 2) < q_lo <= q_hi < m + Fraction(1, 2):
        return None
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, s + zeros


def binomial_rounded(n: int, k: int, prec: int) -> tuple[int, int]:
    """binomial(n, k) rounded to nearest at `prec` bits, as an mpmath (man, exp) pair.

    Equal to `from_int(binomial(n, k), prec, 'n')[1:3]`, so
    `mpmath.mpf(binomial_rounded(n, k, mpmath.mp.prec))` is
    `mpmath.mpf(binomial(n, k))`.  It rounds the enclosure of ln C(n, k) of the
    module docstring, and builds the exact integer only when that enclosure
    cannot decide the rounding or would need too many Stirling terms.
    """
    _check_args(n, k)
    if prec < 1:
        raise ValueError("precision must be at least one bit")
    if k > n:
        return 0, 0
    if n >= _EXACT_BELOW:
        # L(n) < n ln n, so its roundings at wp bits are about
        # 2^(n.bit_length() + log2 ln n - wp); the 8 extra bits cover log2 ln n
        # and the number of steps, leaving ln C(n, k) about 2^-(prec + guard) wide
        wp = prec + _GUARD_BITS + n.bit_length() + 8
        bounds = ln_binomial_bounds(n, k, wp)
        if bounds is not None:
            rounded = _round_exp(*bounds, prec, decimal_contexts(_digits(wp)))
            if rounded is not None:
                return rounded
    from mpmath.libmp import from_int

    exact = from_int(binomial(n, k), prec, "n")
    return exact[1], exact[2]
