"""Correctly rounded digits of the printed formulas, from decimal intervals.

`count`, `zeta`, `count-structured` and `oracle --lam` print values of
formulas written once over a number kit `num` that supplies `log`, `log1p`,
`pi`, `fsum`, `rational` (an exact Fraction), `log_binomial`,
`log_factorial` and `render` (the printed field); Python's operators do
the rest.  The kit, `DecimalNumbers`, works on intervals of Decimals: each
step rounds its lower end down and its upper end up at the working
precision, so every interval holds the exact value of the formula.
A field prints only when both ends round to the same digits, which are then
the digits of the exact value; otherwise `Undecided` is raised.  Decimal's
ln rounds correctly, as it documents, so one unit in the last place either
side of it bounds the log; `pi_bounds` sums Machin's series in integers
with a bounded error.  The one unit of precision is the kit's `digits`.

`log_binomial` encloses ln C(n, k) = L(n) - L(k) - L(n - k), L(x) = ln x!,
without building C(n, k) (C(2^23, 2^22) has 8,388,597 bits).  Below
x = 2^10, L(x) is the log of the exact x!; above, it is Stirling's series

    (x + 1/2) ln x - x + (1/2) ln 2 pi + sum_{i <= K} B_2i / (2i (2i-1) x^(2i-1)),

widened by the first omitted term, which bounds the remainder for x > 0,
and cut where that term falls below 10^-digits.  ln 2^e is e ln 2, and the
Bernoulli numbers come from integer tangent numbers, only as far as K.  If
the series would need more than `_MAX_TERMS` terms (a very high
precision), the log of the exact x! is enclosed instead.  `evaluate` never
works at such a precision for x >= 2^10: it stops at the most digits that
`_MAX_TERMS` terms cover at x = 2^10 (472), and fewer terms cover a larger x.

Converting an int to Decimal takes time quadratic in its length, so no
long int reaches the contexts.  `rational` divides a numerator and a
denominator of at most 4 `digits` bits as they are.  A longer one is
taken, as `log` takes a long int, from its leading 4 `digits` bits:
n = a 2^s + c with 0 <= c < 2^s lies in [a, a + 1] 2^s, the point a 2^s
when c = 0.  The quotient of the two enclosures times a power of 2, each
step rounded outward, is a few units in the last place wide.  A
denominator 2^s 5^t is divided out as 2^(t - s) 10^-t, so a terminating
decimal with a short numerator stays exact.  `Interval ** k`, for an int
k, squares in contexts len(str(k)) + 1 digits wider than the kit's, so the
relative error, which each squaring doubles, stays below a unit in the
last place of the kit's digits; the ends are then rounded outward to
those.  The formulas raise (1 + lam)^(-jd) this way: as a Fraction its
length grows with jd.

`evaluate` is Ziv's strategy (Ziv, ACM TOMS 17(3), 1991; as in MPFR): it
starts `_GUARD_DIGITS` beyond the printed digits and doubles the working
digits, up to `_MAX_WORKING_DIGITS`, while a field is undecided.  A
rational with a terminating decimal expansion becomes a point interval
once the working digits hold it (an integer longer than 4 `digits` bits
aside), so an exact tie ends the loop and prints rounded half up.  Decimal
and fractions (which loads decimal) cost no import here.
"""

from __future__ import annotations

import math
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR,
                     ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal)
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import BudgetExceededError

_GUARD_DIGITS = 20  # first working digits beyond the printed ones
_EXACT_BELOW = 1 << 10  # L(x) from the exact x! below it
_MAX_TERMS = 128  # Stirling terms beyond which the exact x! serves instead


class Undecided(Exception):
    """A decimal interval cannot decide a printed digit, or its sign."""


def nstr(x: Decimal, n: int) -> str:
    """x rounded half up at n significant digits, written as mpmath's nstr.

    mpmath's `to_str`: fixed notation iff min(-(n//3), -5) < exponent < n,
    trailing zeros stripped, and otherwise an exponent written e+N or e-N.
    """
    if not x:
        return "0.0"
    sign = "-" if x.is_signed() else ""
    r = _half_up(n).plus(x.copy_abs())
    digits = "".join(map(str, r.as_tuple().digits)).ljust(n, "0")
    exponent = r.adjusted()
    if min(-(n // 3), -5) < exponent < n:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
        exponent = 0
    else:
        split = 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if exponent == 0:
        return sign + text
    return f"{sign}{text}e{exponent:+d}"


def _half_up(n: int) -> Context:
    return Context(prec=n, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)


def decimal_contexts(digits: int) -> tuple[Context, Context, Context]:
    """Contexts that round down, up and to nearest at `digits` digits.

    Their exponent range is the widest decimal allows, so no bound
    overflows or underflows where a default context would stop at 10^999999.
    """
    return tuple(Context(prec=digits, rounding=r, Emax=MAX_EMAX, Emin=MIN_EMIN)
                 for r in (ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN))


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


def _log10_term_bound(x: int, i: int) -> float:
    """log10 of a bound on the i-th Stirling term of L(x).

    |B_2i| < 4 (2i)! / (2 pi)^(2i), so term i is below
    4 (2i-2)! / ((2 pi)^(2i) x^(2i-1)).
    """
    return math.log10(4) + math.lgamma(2 * i - 1) / math.log(10) \
        - 2 * i * math.log10(2 * math.pi) - (2 * i - 1) * math.log10(x)


def _stirling_terms(x: int, digits: int) -> int | None:
    """Fewest Stirling terms K for L(x) whose first omitted term is below
    10^-digits; None when K would exceed `_MAX_TERMS`."""
    for i in range(1, _MAX_TERMS + 2):
        if _log10_term_bound(x, i) < -digits:
            return i - 1
    return None


# evaluate gives up past this many: the most that `_MAX_TERMS` Stirling terms
# cover at x = `_EXACT_BELOW` (472), so no field it prints builds x! there;
# the bound falls with i while i < pi x, so the first omitted term decides
_MAX_WORKING_DIGITS = math.ceil(-_log10_term_bound(_EXACT_BELOW, _MAX_TERMS + 1)) - 1


class Interval:
    """A closed interval [lo, hi] of Decimals in the kit `num`.

    Arithmetic with another Interval or an int rounds outward.
    """

    __slots__ = ("lo", "hi", "num")

    def __init__(self, lo: Decimal, hi: Decimal, num: DecimalNumbers):
        self.lo, self.hi, self.num = lo, hi, num

    def _ends(self, other):
        other = self.num.coerce(other)
        return [(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)]

    def __neg__(self):
        return Interval(self.hi.copy_negate(), self.lo.copy_negate(), self.num)

    def __add__(self, other):
        other, num = self.num.coerce(other), self.num
        return Interval(num.down.add(self.lo, other.lo), num.up.add(self.hi, other.hi), num)

    __radd__ = __add__

    def __sub__(self, other):
        other, num = self.num.coerce(other), self.num
        return Interval(num.down.subtract(self.lo, other.hi),
                        num.up.subtract(self.hi, other.lo), num)

    def __rsub__(self, other):
        return self.num.coerce(other) - self

    def __mul__(self, other):
        ends, num = self._ends(other), self.num
        return Interval(min(num.down.multiply(a, b) for a, b in ends),
                        max(num.up.multiply(a, b) for a, b in ends), num)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.num.coerce(other)
        if other.lo <= 0 <= other.hi:
            raise Undecided
        ends, num = self._ends(other), self.num
        return Interval(min(num.down.divide(a, b) for a, b in ends),
                        max(num.up.divide(a, b) for a, b in ends), num)

    def __rtruediv__(self, other):
        return self.num.coerce(other) / self

    def __pow__(self, k: int):
        """self^k for an int k, by squaring, rounded outward (see the
        module docstring)."""
        if k < 0:
            return 1 / self ** -k
        down, up, _ = decimal_contexts(self.num.digits + len(str(k)) + 1)

        def power(a, ctx):  # |a|^k, each product rounded by ctx
            a, p = a.copy_abs(), Decimal(1)
            for bit in bin(k)[2:]:
                p = ctx.multiply(p, p)
                if bit == "1":
                    p = ctx.multiply(p, a)
            return p

        lo, hi = self.lo, self.hi
        if k & 1:  # x^k rises with x and keeps its sign
            lo = power(lo, up).copy_negate() if lo < 0 else power(lo, down)
            hi = power(hi, down).copy_negate() if hi < 0 else power(hi, up)
        else:  # x^k = |x|^k
            small, large = sorted((lo.copy_abs(), hi.copy_abs()))
            lo = power(Decimal(0) if lo < 0 < hi else small, down)
            hi = power(large, up)
        num = self.num
        return Interval(num.down.plus(lo), num.up.plus(hi), num)


class DecimalNumbers:
    """The number kit of decimal intervals, rounded outward at `digits` digits.

    It keeps the logs of ints it has taken (ln 2 serves several terms), pi
    and (1/2) ln 2 pi for its own lifetime, one evaluation of a formula;
    pi is built only when a formula reads it.
    """

    def __init__(self, digits: int):
        self.digits = digits
        self.down, self.up, self.near = decimal_contexts(digits)
        self._int_logs: dict[int, Interval] = {}

    def coerce(self, x) -> Interval:
        """x itself, or the int x as a point."""
        if isinstance(x, Interval):
            return x
        return Interval(Decimal(x), Decimal(x), self)

    def _leading(self, n: int) -> tuple[Interval, int]:
        """(I, s) with n in I 2^s, I from the leading 4 `digits` bits of the
        int n: [a, a + 1] for a = n >> s, or the point a when no cut bit is
        set.  Only a is converted to Decimal, a conversion quadratic in its
        length."""
        s = max(n.bit_length() - 4 * self.digits, 0)
        a = n >> s
        return Interval(Decimal(a), Decimal(a + (a << s != n)), self), s

    def rational(self, x: Fraction) -> Interval:
        """The Fraction x, exactly when the working digits hold it (see the
        module docstring)."""
        a, b = x.numerator, x.denominator
        if max(a.bit_length(), b.bit_length()) <= 4 * self.digits:
            return Interval(self.down.divide(a, b), self.up.divide(a, b), self)
        # b = 2^s 5^t r, with t = 0 unless r = 1: a / b = a 2^(t - s) / r 10^-t
        s = (b & -b).bit_length() - 1
        r = b >> s
        t = int(r.bit_length() / math.log2(5))  # the one 5^t as long as r
        if pow(5, t, 1 << 64) == r & ((1 << 64) - 1) and 5 ** t == r:
            r = 1
        else:
            t = 0
        (p, sa), (q, sr) = self._leading(a), self._leading(r)
        y = p / q * self.coerce(2) ** (sa - sr + t - s)
        if t:
            y = Interval(self.down.scaleb(y.lo, -t), self.up.scaleb(y.hi, -t), self)
        return y

    def log(self, x) -> Interval:
        """ln x, for an Interval or an int x.

        An int's log is kept.  A long int x lies in I 2^s, I from its
        leading bits (`_leading`), so ln x is ln I + s ln 2.
        """
        if not isinstance(x, int):
            return self._log(x)
        if x not in self._int_logs:
            lead, s = self._leading(x)
            ln = self._log(lead)
            self._int_logs[x] = ln + s * self.log(2) if s else ln
        return self._int_logs[x]

    def _log(self, x: Interval) -> Interval:
        # decimal's ln rounds correctly, so one unit in the last place either
        # side of it holds ln x.lo; ln 1 = 0 is exact, and its neighbours
        # would be 10^MIN_EMIN
        if x.lo <= 0:
            raise Undecided
        near = self.near
        v = near.ln(x.lo)
        lo, hi = (near.next_minus(v), near.next_plus(v)) if v else (v, v)
        if x.hi != x.lo:  # ln x.hi <= ln x.lo + (x.hi - x.lo) / x.lo
            up = self.up
            hi = up.add(hi, up.divide(up.subtract(x.hi, x.lo), x.lo))
        return Interval(lo, hi, self)

    @cached_property
    def pi(self) -> Interval:
        return Interval(*pi_bounds(self.digits), self)

    @cached_property
    def _half_log_2pi(self) -> Interval:
        return self.log(2 * self.pi) / 2

    def log1p(self, x: Fraction) -> Interval:
        """ln(1 + x) for a rational x > 0.

        Below 10^-digits, x - x^2/2 < ln(1 + x) < x already holds ln(1 + x)
        to the working digits, where rounding 1 + x would lose them.
        """
        if x.numerator * 10 ** self.digits < x.denominator:
            x = self.rational(x)
            half_square = self.up.divide(self.up.multiply(x.hi, x.hi), 2)
            return Interval(self.down.subtract(x.lo, half_square), x.hi, self)
        return self.log(self.rational(1 + x))

    def fsum(self, xs) -> Interval:
        lo = hi = Decimal(0)
        for x in map(self.coerce, xs):
            lo, hi = self.down.add(lo, x.lo), self.up.add(hi, x.hi)
        return Interval(lo, hi, self)

    def log_factorial(self, x: int) -> Interval:
        """ln x!, for an int x >= 0 (see the module docstring).

        The i-th Stirling term is B_2i / (2i (2i-1) x^(2i-1))
        = (-1)^(i-1) T_i / (4^i (4^i-1) (2i-1) x^(2i-1)).
        """
        terms = _stirling_terms(x, self.digits) if x >= _EXACT_BELOW else None
        if terms is None:  # below `_EXACT_BELOW` or past `_MAX_TERMS`
            return self.log(math.factorial(x))
        if x & (x - 1):
            ln_x = self.log(x)
        else:  # N = 2^(d-1), and N/2 at beta = 1/2
            ln_x = (x.bit_length() - 1) * self.log(2)
        total = (2 * x + 1) * ln_x / 2 - x + self._half_log_2pi
        tangent = _tangent_numbers(terms + 1)
        for i in range(1, terms + 2):
            term = self.rational(Fraction(
                tangent[i], 4 ** i * (4 ** i - 1) * (2 * i - 1) * x ** (2 * i - 1)))
            if i > terms:  # the first omitted term bounds the remainder
                total += Interval(-term.hi, term.hi, self)
            elif i & 1:
                total += term
            else:
                total -= term
        return total

    def log_binomial(self, n: int, k: int) -> Interval:
        """ln C(n, k), for ints 0 <= k <= n (see the module docstring)."""
        ln_fact = {x: self.log_factorial(x) for x in {n, k, n - k}}
        return ln_fact[n] - ln_fact[k] - ln_fact[n - k]

    def render(self, x: Interval, n: int) -> str:
        """The printed field: `nstr` of the value in x rounded half up at n
        significant digits, when both ends of x round to it."""
        ctx = _half_up(n)
        lo, hi = ctx.plus(x.lo), ctx.plus(x.hi)
        if lo != hi:
            raise Undecided
        return nstr(lo, n)


def evaluate(formula, shown: int):
    """formula(num) in decimal intervals, at as many working digits as it
    takes to decide every field `shown` digits long.

    The working digits start at shown + `_GUARD_DIGITS` and double, the last
    doubling cut to `_MAX_WORKING_DIGITS`, while a field is undecided; a
    field still undecided there raises BudgetExceededError.
    """
    digits = shown + _GUARD_DIGITS
    while True:
        try:
            return formula(DecimalNumbers(digits))
        except Undecided:
            if digits >= _MAX_WORKING_DIGITS:
                raise BudgetExceededError(
                    f"{digits} working digits leave a printed digit undecided")
            digits = min(2 * digits, _MAX_WORKING_DIGITS)
