"""Binomial coefficients for very large arguments: exact, or as enclosed logs.

`binomial(n, k)` is exact.  It factors C(n, k) by Legendre's formula into
prime powers p^e (`_prime_power_factors`; by Kummer's theorem each p^e is at
most n).  math.comb is quadratic-ish once the operands reach hundreds of
thousands of bits, and counting formulas here need binomial(N, beta*N) with N
up to 2^23; multiplying the prime powers back with a balanced product tree
keeps every intermediate small until the end, which is orders of magnitude
faster at this scale.

`ln_binomial_bounds` encloses ln C(n, k) = L(n) - L(k) - L(n - k),
L(x) = ln x!, between two Decimals, without building C(n, k) (C(2^23, 2^22)
has 8,388,597 bits); `ln_factorial_bounds` encloses one L(x).  Below
x = 2^10, L(x) is the log of the exact x!; above, it is Stirling's series

    (x + 1/2) ln x - x + (1/2) ln 2 pi + sum_{i <= K} B_2i / (2i (2i-1) x^(2i-1)),

widened by the first omitted term, which bounds the remainder for x > 0.
The Bernoulli numbers come from integer tangent numbers, only as far as K.
Every step rounds outward (ROUND_FLOOR for the lower end, ROUND_CEILING for
the upper), and ln and pi are widened by one unit in the last place around
decimal's ln and Machin's series for pi, so the two ends hold the log at
any precision, provided decimal's ln rounds correctly, as it documents.
If the series would need more than `_MAX_TERMS` terms (a very high
precision), the log of the exact integer is enclosed instead.  `count`
prints ln C(N, m) from this enclosure (cubecount.certified).
"""

from __future__ import annotations

import bisect
import itertools
import math
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR,
                     ROUND_HALF_EVEN, Context, Decimal)
from functools import lru_cache

_SMALL_CUTOFF = 10_000
_EXACT_BELOW = 1 << 10  # L(x) from the exact x! below it
_MAX_TERMS = 128  # Stirling terms beyond which the exact integer serves instead
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


def _ln_int_bounds(c: int, contexts) -> tuple[Decimal, Decimal]:
    """Decimals below and above ln c, for an int c >= 1.

    With a the leading bits of c, c lies in [a 2^s, (a + 1) 2^s), so only a
    is converted to Decimal, a conversion quadratic in its length, and
    ln(a + 1) <= ln a + 1/a.
    """
    down, up, near = contexts
    s = max(c.bit_length() - 4 * near.prec, 0)
    a = c >> s
    lo, hi = ln_bounds(Decimal(a), near)
    if s:
        ln2, _ = _ln_constants(near.prec)
        lo = down.add(lo, down.multiply(s, ln2[0]))
        hi = up.add(up.add(hi, up.divide(1, a)), up.multiply(s, ln2[1]))
    return lo, hi


def ln_factorial_bounds(x: int, wp: int) -> tuple[Decimal, Decimal]:
    """Decimals lo <= ln x! <= hi, for x >= 0, at `wp` bits.

    The enclosure of the module docstring, cut where the first omitted term
    falls below 2^-wp; the exact x! serves past `_MAX_TERMS` terms.
    """
    contexts = decimal_contexts(_digits(wp))
    terms = _stirling_terms(x, wp) if x >= _EXACT_BELOW else 0
    if terms is None:
        return _ln_int_bounds(math.factorial(x), contexts)
    return _ln_factorial_bounds(x, terms, contexts, _tangent_numbers(terms + 1))


def ln_binomial_bounds(n: int, k: int, wp: int) -> tuple[Decimal, Decimal]:
    """Decimals lo <= ln C(n, k) <= hi, for 0 <= k <= n, at `wp` bits.

    The enclosure of the module docstring: each L(x) is rounded outward at
    about wp significant bits, and its series is cut where the first omitted
    term falls below 2^-wp.  The exact C(n, k) serves when a series would
    need more than `_MAX_TERMS` terms.
    """
    args = (n, k, n - k)
    terms = [_stirling_terms(x, wp) if x >= _EXACT_BELOW else 0 for x in args]
    contexts = down, up, _ = decimal_contexts(_digits(wp))
    if None in terms:
        return _ln_int_bounds(binomial(n, k), contexts)
    tangent = _tangent_numbers(max(terms) + 1)
    ln_fact = {}
    for x, t in zip(args, terms):
        if x not in ln_fact:  # k = n - k at beta = 1/2
            ln_fact[x] = _ln_factorial_bounds(x, t, contexts, tangent)
    (n_lo, n_hi), (k_lo, k_hi), (m_lo, m_hi) = (ln_fact[x] for x in args)
    return (down.subtract(down.subtract(n_lo, k_hi), m_hi),
            up.subtract(up.subtract(n_hi, k_lo), m_lo))
