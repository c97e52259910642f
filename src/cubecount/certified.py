"""Printing mpmath's digits from decimal intervals, without loading mpmath.

`count`, `zeta` and `oracle --lam` print mpmath's `nstr` of values that
mpmath computes at `dps` digits.  The formulas behind them are written once
over a number kit `num` that supplies `log`, `pi`, `fsum`, `rational` (an
exact Fraction rounded at the working precision), `log_binomial` and
`render` (the printed field); Python's operators do the rest.  Two kits
exist:

- `MpNumbers`, mpmath's mpf at its working precision: the values that
  define the output;
- `DecimalNumbers`, intervals of Decimals.  Each step rounds its ends
  outward, then widens the result by one mpmath rounding step, 2^(8 - prec)
  relative (prec = mpmath's bits for `dps` digits), so the interval holds
  both the exact value of the formula and whatever mpmath's prec-bit steps
  give.  The int operands of + - * / and of log, pi, fsum and each rounding
  of `rational` (numerator, denominator, quotient) count as steps.  A field
  prints only when every value in its interval gives the same `nstr` string;
  otherwise `Undecided` is raised and the caller evaluates with `MpNumbers`.

So the bytes printed are mpmath's by construction, provided each mpmath
rounding step errs by at most 2^(8 - prec) relative: mpmath rounds its
arithmetic correctly and its log and pi to within a few units of 2^-prec.
Decimal and fractions (which loads decimal) cost no import here; mpmath is
about a third of a `count` run's wall time, and `MpNumbers` imports it only
when it is built.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from . import bigint

_STEP_BITS = 8  # an mpmath rounding step errs by at most 2^(_STEP_BITS - prec)
_GUARD_DIGITS = 20  # decimal working digits beyond the printed ones


class Undecided(Exception):
    """A decimal interval cannot decide a printed digit, or its sign."""


def dps_to_prec(dps: int) -> int:
    """mpmath's bits for `dps` decimal digits (`libmpf.dps_to_prec`)."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def nstr(x: Decimal, n: int) -> str:
    """mpmath.nstr(v, n) for an mpf v equal to the Decimal x.

    mpmath's `to_str`: |x| rounded half up at n significant digits, in fixed
    notation iff min(-(n//3), -5) < exponent < n, trailing zeros stripped,
    and otherwise an exponent written e+N or e-N.
    """
    if not x:
        return "0.0"
    sign = "-" if x.is_signed() else ""
    r = Context(prec=n, rounding=ROUND_HALF_UP, Emax=MAX_EMAX,
                Emin=MIN_EMIN).plus(x.copy_abs())
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


class Interval:
    """A closed interval [lo, hi] of Decimals in the kit `num`.

    Arithmetic with another Interval or an int rounds outward and widens by
    one mpmath rounding step.
    """

    __slots__ = ("lo", "hi", "num")

    def __init__(self, lo: Decimal, hi: Decimal, num: DecimalNumbers):
        self.lo, self.hi, self.num = lo, hi, num

    def _ends(self, other):
        other = self.num.coerce(other)
        return [(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)]

    def __add__(self, other):
        other = self.num.coerce(other)
        num = self.num
        return num.widen(num.down.add(self.lo, other.lo), num.up.add(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.num.coerce(other)
        num = self.num
        return num.widen(num.down.subtract(self.lo, other.hi),
                         num.up.subtract(self.hi, other.lo))

    def __rsub__(self, other):
        return self.num.coerce(other) - self

    def __mul__(self, other):
        ends, num = self._ends(other), self.num
        return num.widen(min(num.down.multiply(a, b) for a, b in ends),
                         max(num.up.multiply(a, b) for a, b in ends))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.num.coerce(other)
        if other.lo <= 0 <= other.hi:
            raise Undecided
        ends, num = self._ends(other), self.num
        return num.widen(min(num.down.divide(a, b) for a, b in ends),
                         max(num.up.divide(a, b) for a, b in ends))

    def __rtruediv__(self, other):
        return self.num.coerce(other) / self


class DecimalNumbers:
    """The number kit of decimal intervals for mpmath at `dps` digits.

    Ends are computed at `shown + extra + _GUARD_DIGITS` digits: `shown` is
    the number of digits printed, `extra` the digits a cancellation costs.
    """

    def __init__(self, dps: int, shown: int, extra: int = 0):
        self.prec = dps_to_prec(dps)
        self.down, self.up, self.near = bigint.decimal_contexts(
            shown + extra + _GUARD_DIGITS)
        # relative error of one mpmath step, and |ln(1 + delta)| for a
        # rounding delta at prec bits
        self.step = self.up.divide(1 << _STEP_BITS, 1 << self.prec)
        self.log_rounding = self.up.divide(2, 1 << self.prec)
        self.pi = self.widen(*bigint.pi_bounds(self.near.prec))

    def widen(self, lo: Decimal, hi: Decimal, steps: int = 1) -> Interval:
        """[lo, hi] widened by `steps` mpmath rounding steps."""
        down, up = self.down, self.up
        for _ in range(steps):
            lo = down.subtract(lo, up.multiply(lo.copy_abs(), self.step))
            hi = up.add(hi, up.multiply(hi.copy_abs(), self.step))
        return Interval(lo, hi, self)

    def coerce(self, x) -> Interval:
        """x itself, or the int x as mpmath converts it: one step."""
        if isinstance(x, Interval):
            return x
        return self.widen(Decimal(x), Decimal(x))

    def rational(self, x: Fraction) -> Interval:
        a, b = x.numerator, x.denominator
        return self.widen(self.down.divide(a, b), self.up.divide(a, b), steps=3)

    def log(self, x) -> Interval:
        x = self.coerce(x)
        if x.lo <= 0:
            raise Undecided
        return self.widen(bigint.ln_bounds(x.lo, self.near)[0],
                          bigint.ln_bounds(x.hi, self.near)[1])

    def fsum(self, xs) -> Interval:
        lo = hi = Decimal(0)
        for x in map(self.coerce, xs):
            lo, hi = self.down.add(lo, x.lo), self.up.add(hi, x.hi)
        return self.widen(lo, hi)

    def log_binomial(self, n: int, k: int) -> Interval:
        """mpmath's log(mpf(binomial_rounded(n, k, prec)))."""
        wp = round(self.near.prec * 3.3219280948873626) + n.bit_length() + 8
        bounds = bigint.ln_binomial_bounds(n, k, wp)
        if bounds is None:
            raise Undecided
        return self.widen(self.down.subtract(bounds[0], self.log_rounding),
                          self.up.add(bounds[1], self.log_rounding))

    def render(self, x: Interval, n: int) -> str:
        """The `nstr(v, n)` every v in x gives.

        mpmath's `to_digits_exp` floors at n + 3 digits before `to_str`
        rounds, so the ends are first widened by 10^-(n+3) relative.
        """
        wide = Decimal(f"1e-{n + 3}")
        lo = self.down.subtract(x.lo, self.up.multiply(x.lo.copy_abs(), wide))
        hi = self.up.add(x.hi, self.up.multiply(x.hi.copy_abs(), wide))
        text = nstr(lo, n)
        if text != nstr(hi, n):
            raise Undecided
        return text


def mpf_of(x: Fraction):
    """x rounded at mpmath's working precision.

    mpmath strips the trailing zero bits of an integer in a loop that is
    quadratic in its pure-Python backend (mpf(2^999993) takes seconds), so
    each part is converted without them and scaled back by ldexp, which is
    exact: the value is the same bit for bit.  A zero part has no bits to
    shift.
    """
    import mpmath

    num, den = (mpmath.ldexp(mpmath.mpf(n >> tz), tz)
                for n in (x.numerator, x.denominator)
                for tz in [max((n & -n).bit_length() - 1, 0)])
    return num / den


class MpNumbers:
    """The number kit of mpmath's mpf, at mpmath's working precision."""

    rational = staticmethod(mpf_of)

    def __init__(self):
        import mpmath

        self.mp = mpmath
        self.log, self.fsum, self.pi = mpmath.log, mpmath.fsum, mpmath.pi

    def log_binomial(self, n: int, k: int):
        mp = self.mp
        return mp.log(mp.mpf(bigint.binomial_rounded(n, k, mp.mp.prec)))

    def render(self, x, n: int) -> str:
        return self.mp.nstr(x, n)


def evaluate(formula, dps: int, shown: int, extra: int = 0):
    """formula(num) with decimal intervals, or with mpmath at `dps` digits
    when an interval leaves a printed digit undecided."""
    try:
        return formula(DecimalNumbers(dps, shown, extra))
    except Undecided:
        pass
    import mpmath

    with mpmath.workdps(dps):
        return formula(MpNumbers())
