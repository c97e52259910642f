"""Correctly rounded digits of the printed formulas, from decimal intervals.

`count`, `zeta`, `count-structured` and `oracle --lam` print values of
formulas written once over a number kit `num` that supplies `log`, `log1p`,
`pi`, `fsum`, `rational` (an exact Fraction), `log_binomial`,
`log_factorial`, `rounded` and `render` (the printed field); Python's
operators do the rest.  The kit, `DecimalNumbers`, works on intervals of
Decimals: each step rounds its lower end down and its upper end up at the
working precision, so every interval holds the exact value of the formula.
A field prints only when both ends round to the same digits, which are then
the digits of the exact value; otherwise `Undecided` is raised.

`evaluate` is Ziv's strategy (Ziv, ACM TOMS 17(3), 1991; as in MPFR): it
starts `_GUARD_DIGITS` beyond the printed digits and doubles the working
digits while a field is undecided.  A rational with a terminating decimal
expansion becomes a point interval once the working digits hold it, so an
exact tie ends the loop and prints rounded half up.  Decimal and fractions
(which loads decimal) cost no import here.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from . import bigint
from .errors import BudgetExceededError

_GUARD_DIGITS = 20  # first working digits beyond the printed ones
_MAX_WORKING_DIGITS = 1 << 12  # evaluate gives up past this many


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


class DecimalNumbers:
    """The number kit of decimal intervals, rounded outward at `digits` digits."""

    def __init__(self, digits: int):
        self.digits = digits
        self.down, self.up, self.near = bigint.decimal_contexts(digits)
        self.pi = Interval(*bigint.pi_bounds(digits), self)

    def coerce(self, x) -> Interval:
        """x itself, or the int x as a point."""
        if isinstance(x, Interval):
            return x
        return Interval(Decimal(x), Decimal(x), self)

    def rational(self, x: Fraction) -> Interval:
        a, b = x.numerator, x.denominator
        return Interval(self.down.divide(a, b), self.up.divide(a, b), self)

    def log(self, x) -> Interval:
        x = self.coerce(x)
        if x.lo <= 0:
            raise Undecided
        lo, hi = bigint.ln_bounds(x.lo, self.near)
        if x.hi != x.lo:  # ln x.hi <= ln x.lo + (x.hi - x.lo) / x.lo
            up = self.up
            hi = up.add(hi, up.divide(up.subtract(x.hi, x.lo), x.lo))
        return Interval(lo, hi, self)

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

    def _bits(self, x: int) -> int:
        # ln x! < x ln x, so the working digits, relative, plus the bits of
        # x leave the series' absolute error below the working precision
        return round(self.digits * 3.3219280948873626) + x.bit_length() + 8

    def log_binomial(self, n: int, k: int) -> Interval:
        return Interval(*bigint.ln_binomial_bounds(n, k, self._bits(n)), self)

    def log_factorial(self, k: int) -> Interval:
        return Interval(*bigint.ln_factorial_bounds(k, self._bits(k)), self)

    def rounded(self, x: Interval, n: int) -> Decimal:
        """The value in x rounded half up at n significant digits."""
        ctx = _half_up(n)
        lo, hi = ctx.plus(x.lo), ctx.plus(x.hi)
        if lo != hi:
            raise Undecided
        return lo

    def render(self, x: Interval, n: int) -> str:
        """The printed field: `nstr` of the value in x at n digits."""
        return nstr(self.rounded(x, n), n)


def evaluate(formula, shown: int):
    """formula(num) in decimal intervals, at as many working digits as it
    takes to decide every field `shown` digits long.

    The working digits start at shown + `_GUARD_DIGITS` and double while a
    field is undecided; past `_MAX_WORKING_DIGITS` that raises
    BudgetExceededError.
    """
    digits = shown + _GUARD_DIGITS
    while True:
        try:
            return formula(DecimalNumbers(digits))
        except Undecided:
            if digits >= _MAX_WORKING_DIGITS:
                raise BudgetExceededError(
                    f"{digits} working digits leave a printed digit undecided")
            digits *= 2
