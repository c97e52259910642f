"""Exact symbolic kernel used by the series machinery.

Three layers, all exact:

``RatPoly``
    Sparse multivariate polynomial with rational coefficients.  Variables are
    identified by name; the usual names here are ``lam`` (fugacity), ``beta``
    (target density), ``d`` (dimension) and ``X`` (the fugacity-correction
    sum), but any names work (tests use ad-hoc weight variables).

    A polynomial is stored as integer numerators over one common denominator:
    ``nums`` maps exponent tuples (aligned with the sorted tuple ``vars``) to
    nonzero ints, and ``den`` is a positive int with gcd(den, nums) = 1, so
    every polynomial has exactly one representation (the zero polynomial has
    no terms and den = 1).  Arithmetic works on the integers and takes one
    gcd per result instead of one per coefficient.  The public constructor
    ``RatPoly(vars, terms)`` validates its input; every arithmetic result is
    built by the trusted ``_poly``/``_reduced`` constructors, which skip that
    validation.  ``text`` and ``to_json`` print each coefficient as a reduced
    Fraction, and every operation keeps the variable tuple of the Fraction
    kernel it replaced (tests/fraction_kernel.py, the differential
    reference), so printed forms do not depend on the representation.

``RatFunc``
    A polynomial divided by ``beta^a * (1-beta)^b`` with a, b >= 0.  This is
    exactly the shape of every closed form the series pipeline produces; the
    representation is kept normalized (numerator not divisible by ``beta`` or
    ``1-beta`` whenever the corresponding exponent is positive), so equality
    is literal field comparison.

``TruncSeries``
    A truncated power series ``sum_j c_j * Y^j + O(Y^order)`` in the formal
    symbol ``Y`` standing for ``(1-beta)^d``, with ``RatFunc`` coefficients.
    ``Y`` is treated as transcendental over the coefficient field: residual
    integer powers of ``(1-beta)`` stay inside the coefficients and only
    exact multiples of ``d`` in the exponent move into powers of ``Y``.
    Arithmetic discards all content of order ``>= order``.

All operations are exact; nothing here touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import InterpolationError

Scalar = Union[int, Fraction]


def _as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _coprime_fraction(num: int, den: int) -> Fraction:
    """num/den for coprime num and den > 0, without Fraction's gcd."""
    make = getattr(Fraction, "_from_coprime_ints", None)  # Python >= 3.12
    if make is not None:
        return make(num, den)
    return Fraction(num, den, _normalize=False)


def _poly(vars: tuple, nums: dict, den: int) -> "RatPoly":
    """Trusted constructor: no validation, no reduction.

    The caller guarantees sorted distinct ``vars``, exponent tuples aligned
    with them, nonzero int numerators, den > 0 and gcd(den, nums) = 1.  The
    new polynomial owns ``nums``.
    """
    p = object.__new__(RatPoly)
    p.vars = vars
    p.nums = nums
    p.den = den
    return p


def _reduced(vars: tuple, nums: dict, den: int) -> "RatPoly":
    """Trusted constructor that divides out gcd(den, nums), the one gcd an
    operation needs (for no terms that is den itself, leaving den = 1); as
    _poly otherwise."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    return _poly(vars, nums, den)


class RatPoly:
    """Sparse multivariate polynomial over the rationals.

    Immutable by convention.  ``vars`` is a sorted tuple of names; ``nums``
    maps exponent tuples (aligned with ``vars``) to nonzero integer
    numerators over the common denominator ``den`` (see the module
    docstring).  The zero polynomial has no terms.
    """

    __slots__ = ("vars", "nums", "den")

    def __init__(self, vars: Sequence[str] = (), terms: Mapping[tuple, Scalar] | None = None):
        vs = tuple(vars)
        if list(vs) != sorted(set(vs)):
            raise ValueError("variable names must be sorted and distinct")
        cleaned: dict[tuple, Fraction] = {}
        for exps, c in (terms or {}).items():
            c = _as_frac(c)
            if len(exps) != len(vs):
                raise ValueError("exponent tuple does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial")
            if c:
                cleaned[tuple(exps)] = cleaned.get(tuple(exps), Fraction(0)) + c
        cleaned = {e: c for e, c in cleaned.items() if c}
        # the lcm of reduced denominators leaves gcd(den, nums) = 1
        den = math.lcm(*(c.denominator for c in cleaned.values()))
        self.vars = vs
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in cleaned.items()}
        self.den = den

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """{exponent tuple: nonzero Fraction coefficient}, built on access."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "RatPoly":
        c = _as_frac(c)
        return _poly((), {(): c.numerator} if c else {}, c.denominator)

    @staticmethod
    def var(name: str) -> "RatPoly":
        return _poly((name,), {(1,): 1}, 1)

    # -- alignment ----------------------------------------------------------

    def _promote(self, vars: tuple[str, ...]) -> "RatPoly":
        """Re-express over a superset of variables."""
        if vars == self.vars:
            return self
        idx = {v: i for i, v in enumerate(vars)}
        pos = [idx[v] for v in self.vars]
        nums = {}
        for exps, c in self.nums.items():
            new = [0] * len(vars)
            for p, e in zip(pos, exps):
                new[p] = e
            nums[tuple(new)] = c
        return _poly(vars, nums, self.den)

    @staticmethod
    def _aligned(a: "RatPoly", b: "RatPoly"):
        if a.vars == b.vars:
            return a, b, a.vars
        vs = tuple(sorted(set(a.vars) | set(b.vars)))
        return a._promote(vs), b._promote(vs), vs

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        other = _coerce_poly(other)
        a, b, vs = RatPoly._aligned(self, other)
        if not b.nums:
            return a
        if not a.nums:
            return b
        if len(a.nums) < len(b.nums):
            a, b = b, a
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        den = a.den * fa
        nums = {e: c * fa for e, c in a.nums.items()}
        for e, c in b.nums.items():
            total = nums.get(e, 0) + c * fb
            if total:
                nums[e] = total
            else:
                del nums[e]
        return _reduced(vs, nums, den)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return _poly(self.vars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other) -> "RatPoly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other) -> "RatPoly":
        return _coerce_poly(other) - self

    def __mul__(self, other) -> "RatPoly":
        other = _coerce_poly(other)
        a, b, vs = RatPoly._aligned(self, other)
        if not a.nums or not b.nums:
            return _poly(vs, {}, 1)
        if len(a.nums) < len(b.nums):
            a, b = b, a
        den = a.den * b.den
        nums = {}
        get = nums.get
        a_items = a.nums.items()
        for e2, c2 in b.nums.items():
            for e1, c1 in a_items:
                e = tuple(map(add, e1, e2))
                nums[e] = get(e, 0) + c1 * c2
        if 0 in nums.values():
            nums = {e: c for e, c in nums.items() if c}
        return _reduced(vs, nums, den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if n == 0:
            return RatPoly.const(1)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.den != other.den:
            return False
        a, b, _ = RatPoly._aligned(self, other)
        return a.nums == b.nums

    def __hash__(self):
        used = [i for i, v in enumerate(self.vars)
                if any(e[i] for e in self.nums)]
        vs = tuple(self.vars[i] for i in used)
        return hash((vs, self.den, frozenset(
            (tuple(e[i] for i in used), c) for e, c in self.nums.items())))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree; zero polynomial -> -1."""
        if not self.nums:
            return -1
        if var is None:
            return max(sum(e) for e in self.nums)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.nums)

    def as_univariate(self, var: str) -> dict[int, "RatPoly"]:
        """Split into {exponent of var: polynomial in the other variables}."""
        if var not in self.vars:
            return {0: self} if self.nums else {}
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        out: dict[int, dict[tuple, int]] = {}
        for e, c in self.nums.items():
            k = e[i]
            sub = out.get(k)
            if sub is None:
                sub = out[k] = {}
            sub[e[:i] + e[i + 1:]] = c
        den = self.den
        return {k: _reduced(rest, t, den) for k, t in sorted(out.items())}

    def derivative(self, var: str) -> "RatPoly":
        if var not in self.vars:
            return RatPoly.const(0)
        i = self.vars.index(var)
        nums = {}
        for e, c in self.nums.items():
            k = e[i]
            if k:
                nums[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _reduced(self.vars, nums, self.den)

    def eval(self, mapping: Mapping[str, Scalar]) -> Fraction:
        """The exact value at rational values of the variables that occur.

        One common denominator: with x_v = p_v/q_v and K_v the top exponent
        of v, the value is sum_e c_e * prod_v p_v^(e_v) q_v^(K_v - e_v) over
        D = den * prod_v q_v^(K_v), so every term is an int product.  Every
        prime of D divides den or some q_v, so gcds of the total with den
        and with each q_v (and with what is left of D, so that no more is
        divided out than D holds) reduce the value without the gcd of the
        total and D, two numbers as long as the value.
        """
        names = self.vars
        used = [i for i in range(len(names)) if any(e[i] for e in self.nums)]
        missing = [names[i] for i in used if names[i] not in mapping]
        if missing:
            raise ValueError(f"missing values for variables {missing}")
        weights = []  # (index, [p^k q^(K-k) for k = 0..K])
        den = self.den
        factors = [den]  # every prime of den * prod q^K divides one of them
        for i in used:
            x = _as_frac(mapping[names[i]])
            p, q = x.numerator, x.denominator
            top = max(e[i] for e in self.nums)
            p_pows = [1]
            q_pows = [1]
            for _ in range(top):
                p_pows.append(p_pows[-1] * p)
                q_pows.append(q_pows[-1] * q)
            weights.append((i, [a * b for a, b in zip(p_pows, reversed(q_pows))]))
            den *= q_pows[-1]
            factors.append(q)
        total = 0
        for e, c in self.nums.items():
            for i, w in weights:
                c *= w[e[i]]
            total += c
        for f in factors:
            while (g := math.gcd(f, den, total)) > 1:
                total //= g
                den //= g
        return _coprime_fraction(total, den)

    def truncate_total_degree(self, bound: int) -> "RatPoly":
        return _reduced(self.vars, {e: c for e, c in self.nums.items() if sum(e) <= bound},
                        self.den)

    # -- formatting ---------------------------------------------------------

    def text(self) -> str:
        """Deterministic human-readable form, terms sorted by exponent tuple."""
        if not self.nums:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = [str(c)]
            for v, exp in zip(self.vars, e):
                if exp == 1:
                    factors.append(v)
                elif exp > 1:
                    factors.append(f"{v}^{exp}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"RatPoly({self.text()})"

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [[list(e), str(c)] for e, c in sorted(self.terms.items())],
        }


def _coerce_poly(x) -> RatPoly:
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly.const(x)
    raise TypeError(f"cannot mix RatPoly with {type(x).__name__}")


BETA = "beta"
_BETA = RatPoly.var(BETA)
_ONE_MINUS_BETA = 1 - _BETA


def divide_out_one_minus_beta(p: RatPoly) -> RatPoly | None:
    """Exact quotient p / (1-beta), or None when not divisible.

    p is divisible iff p(beta = 1) vanishes, which is tested first.  The
    quotient is then synthetic division at the root beta = 1, run over the
    beta-powers of each monomial in the other variables: q_k is the sum of
    the coefficients of beta^0 .. beta^k.  1-beta is primitive, so the
    quotient has the same content and den as p (Gauss's lemma).  It keeps
    beta among its variables only when p has beta-degree >= 2.
    """
    if not p.nums:
        return RatPoly.const(0)
    if BETA not in p.vars:
        return None
    i = p.vars.index(BETA)
    rows: dict[tuple, dict[int, int]] = {}
    for e, c in p.nums.items():
        rows.setdefault(e[:i] + e[i + 1:], {})[e[i]] = c
    if any(sum(row.values()) for row in rows.values()):
        return None
    nums = {}
    for rest, row in rows.items():
        acc = 0
        for k in range(max(row)):
            acc += row.get(k, 0)
            if acc:
                nums[rest[:i] + (k,) + rest[i:]] = acc
    if max(e[i] for e in p.nums) >= 2:
        return _poly(p.vars, nums, p.den)
    return _poly(p.vars[:i] + p.vars[i + 1:],
                 {e[:i] + e[i + 1:]: c for e, c in nums.items()}, p.den)


def divide_out_beta(p: RatPoly) -> RatPoly | None:
    """Exact quotient p / beta, or None when not divisible.

    The quotient keeps beta among its variables only when p has a term of
    beta-degree >= 2.
    """
    if not p.nums:
        return RatPoly.const(0)
    if BETA not in p.vars:
        return None
    i = p.vars.index(BETA)
    if any(not e[i] for e in p.nums):
        return None
    if any(e[i] >= 2 for e in p.nums):
        nums = {e[:i] + (e[i] - 1,) + e[i + 1:]: c for e, c in p.nums.items()}
        return _poly(p.vars, nums, p.den)
    return _poly(p.vars[:i] + p.vars[i + 1:],
                 {e[:i] + e[i + 1:]: c for e, c in p.nums.items()}, p.den)


def _lift(num: RatPoly, i: int, j: int) -> RatPoly:
    """num * beta^i * (1-beta)^j, multiplying only by nontrivial factors."""
    if i:
        num = num * _BETA ** i
    if j:
        num = num * _ONE_MINUS_BETA ** j
    return num


class RatFunc:
    """num / (beta^bpow * (1-beta)^opow), kept normalized."""

    __slots__ = ("num", "bpow", "opow")

    def __init__(self, num: RatPoly | Scalar, bpow: int = 0, opow: int = 0):
        num = _coerce_poly(num)
        if bpow < 0 or opow < 0:
            raise ValueError("denominator exponents must be nonnegative")
        while bpow > 0:
            q = divide_out_beta(num)
            if q is None:
                break
            num, bpow = q, bpow - 1
        while opow > 0:
            q = divide_out_one_minus_beta(num)
            if q is None:
                break
            num, opow = q, opow - 1
        if num.is_zero():
            bpow = opow = 0
        self.num = num
        self.bpow = bpow
        self.opow = opow

    @staticmethod
    def const(c: Scalar) -> "RatFunc":
        return RatFunc(RatPoly.const(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _common(self, other: "RatFunc"):
        b = max(self.bpow, other.bpow)
        o = max(self.opow, other.opow)
        n1 = _lift(self.num, b - self.bpow, o - self.opow)
        n2 = _lift(other.num, b - other.bpow, o - other.opow)
        return n1, n2, b, o

    def __add__(self, other) -> "RatFunc":
        other = _coerce_func(other)
        n1, n2, b, o = self._common(other)
        return RatFunc(n1 + n2, b, o)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.bpow, self.opow)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_coerce_func(other))

    def __rsub__(self, other) -> "RatFunc":
        return _coerce_func(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = _coerce_func(other)
        return RatFunc(self.num * other.num, self.bpow + other.bpow, self.opow + other.opow)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, RatPoly)):
            other = RatFunc(_coerce_poly(other))
        if not isinstance(other, RatFunc):
            return NotImplemented
        # normalized on construction, but guard against unequal residual forms
        n1, n2, _, _ = self._common(other)
        return n1 == n2

    def __hash__(self):
        return hash((self.num, self.bpow, self.opow))

    def eval(self, mapping: Mapping[str, Scalar]) -> Fraction:
        beta = _as_frac(mapping[BETA]) if BETA in mapping else None
        num = self.num.eval(mapping)
        den = Fraction(1)
        if self.bpow or self.opow:
            if beta is None:
                raise ValueError("beta value required to evaluate denominator")
            den = beta ** self.bpow * (1 - beta) ** self.opow
            if den == 0:
                raise ZeroDivisionError("denominator vanishes at this beta")
        return num / den

    def text(self) -> str:
        num = self.num.text()
        if not (self.bpow or self.opow):
            return num
        den_parts = []
        if self.bpow:
            den_parts.append(f"beta^{self.bpow}" if self.bpow > 1 else "beta")
        if self.opow:
            den_parts.append(f"(1-beta)^{self.opow}" if self.opow > 1 else "(1-beta)")
        return f"({num}) / ({' * '.join(den_parts)})"

    def __repr__(self):
        return f"RatFunc({self.text()})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "bpow": self.bpow, "opow": self.opow}


def _coerce_func(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, RatPoly)):
        return RatFunc(_coerce_poly(x))
    raise TypeError(f"cannot mix RatFunc with {type(x).__name__}")


class TruncSeries:
    """sum_{j < order} coeffs[j] * Y^j + O(Y^order); Y stands for (1-beta)^d."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[RatFunc, ...]):
        if order < 1:
            raise ValueError("series order must be >= 1")
        if len(coeffs) != order:
            raise ValueError("coefficient list must have length `order`")
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries(order, tuple(RatFunc.const(0) for _ in range(order)))

    @staticmethod
    def from_coeffs(coeffs: Iterable, order: int) -> "TruncSeries":
        cs = [_coerce_func(c) for c in coeffs][:order]
        cs += [RatFunc.const(0)] * (order - len(cs))
        return TruncSeries(order, tuple(cs))

    @staticmethod
    def constant(c, order: int) -> "TruncSeries":
        return TruncSeries.from_coeffs([_coerce_func(c)], order)

    def coefficient(self, j: int) -> RatFunc:
        if j < 0 or j >= self.order:
            raise IndexError(f"coefficient index {j} outside truncation order {self.order}")
        return self.coeffs[j]

    def _check_order(self, other: "TruncSeries"):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(self.order,
                           tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            f = _coerce_func(other)
            return TruncSeries(self.order, tuple(c * f for c in self.coeffs))
        self._check_order(other)
        out = [RatFunc.const(0)] * self.order
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs[:self.order - i]):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries(self.order, tuple(out))

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by Y^k."""
        if k < 0:
            raise ValueError("cannot shift by a negative power of Y")
        cs = [RatFunc.const(0)] * self.order
        for i, c in enumerate(self.coeffs[:max(self.order - k, 0)]):
            if not c.is_zero():
                cs[i + k] = c
        return TruncSeries(self.order, tuple(cs))


def poly_on_series(p: RatPoly, var: str, series: TruncSeries) -> TruncSeries:
    """Evaluate polynomial p at `var` = series; other variables stay symbolic
    inside the coefficients (they must be beta/d only).

    When the series has no constant term, series^k is O(Y^k), so it is zero
    for k >= series.order and the powers of `var` from there on are skipped.
    """
    parts = p.as_univariate(var)
    out = TruncSeries.zero(series.order)
    power = TruncSeries.constant(1, series.order)
    top = max(parts) if parts else 0
    if series.coefficient(0).is_zero():
        top = min(top, series.order - 1)
    for k in range(0, top + 1):
        if k in parts:
            out = out + power * RatFunc(parts[k])
        if k < top:
            power = power * series
    return out


def binom_poly(k_expr: RatPoly, i: int) -> RatPoly:
    """Generalized binomial coefficient C(-k, i) as a polynomial in k's variables.

    C(-k, i) = prod_{m=0..i-1} (-k - m) / i!.
    """
    out = RatPoly.const(1)
    for m in range(i):
        out = out * (-k_expr - RatPoly.const(m))
    return out * Fraction(1, math.factorial(i))


def neg_binomial_expand(k_expr: RatPoly, x: TruncSeries, r: int) -> TruncSeries:
    """(1 + x)^(-k_expr) expanded to x-degree r: sum_{i=0}^{r} C(-k, i) x^i.

    The expansion is only a valid series representation when x has no constant
    term (its Y^0 coefficient is zero), which is checked.
    """
    if not x.coefficient(0).is_zero():
        raise ValueError("expansion variable must have no constant term")
    out = TruncSeries.zero(x.order)
    power = TruncSeries.constant(1, x.order)
    for i in range(0, r + 1):
        out = out + power * RatFunc(binom_poly(k_expr, i))
        if i < r:
            power = power * x
    return out


def log_ratio_expand(x: TruncSeries, t: int) -> TruncSeries:
    """log(1 + x) - beta*log(1 + x/beta) through x-degree t-1.

    The i-th coefficient is ((-1)^(1+i)/i) * (1 - beta^(1-i)); the i = 1 term
    vanishes and for i >= 2 the coefficient carries a beta^(i-1) denominator.
    """
    if not x.coefficient(0).is_zero():
        raise ValueError("expansion variable must have no constant term")
    out = TruncSeries.zero(x.order)
    power = x
    for i in range(1, t):
        sign = Fraction((-1) ** (1 + i), i)
        if i == 1:
            coeff = RatFunc.const(0)
        else:
            # (1 - beta^(1-i)) = -(1 - beta^(i-1)) / beta^(i-1)
            body = RatPoly.const(1) - RatPoly.var(BETA) ** (i - 1)
            coeff = RatFunc(-body * sign, bpow=i - 1)
        if not coeff.is_zero():
            out = out + power * coeff
        if i < t - 1:
            power = power * x
    return out


def interpolate_poly(points: Sequence[tuple[int, object]], degree_bound: int,
                     var: str = "d") -> RatPoly:
    """Exact Lagrange interpolation with a consistency check.

    ``points`` maps integer grid values of ``var`` to either Fractions/ints
    or RatPoly values (interpolated coefficient-wise).  Requires at least
    degree_bound + 2 points; the fit uses the first degree_bound + 1 and every
    remaining point must match exactly, else InterpolationError.

    The fit runs in integers: each basis polynomial is an int coefficient
    list over an int denominator w_i, each value's numerators are scaled to
    one common denominator W, the lcm of the den_i * w_i, and the one gcd
    is taken by _reduced at the end.  Each spare point is checked by
    Horner's rule on the unreduced int rows.  The result's variables are
    those of the fitted values, plus ``var`` when degree_bound >= 1; none
    is dropped for having no term.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if len(points) < degree_bound + 2:
        raise ValueError(
            f"need at least {degree_bound + 2} sample points "
            f"(degree bound {degree_bound} plus one check point), got {len(points)}")
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("sample points must be distinct")

    values = []
    for _, v in points:
        if isinstance(v, (int, Fraction)):
            values.append(RatPoly.const(v))
        elif isinstance(v, RatPoly):
            values.append(v)
        else:
            raise TypeError("sample values must be rationals or RatPoly")

    fit = values[: degree_bound + 1]
    for v in fit:
        if var in v.vars and v.degree(var) > 0:
            raise ValueError(f"sample values may not involve the interpolation variable {var!r}")
    names = set().union(*(v.vars for v in fit))
    if degree_bound >= 1:
        names.add(var)
    vs = tuple(sorted(names))
    fit_x = xs[: degree_bound + 1]
    # (numerator, w_i) of each basis polynomial: prod_{j != i} (t - x_j) as
    # an int list, lowest power first, and w_i = prod_{j != i} (x_i - x_j)
    basis = []
    for i, xi in enumerate(fit_x):
        coeffs, w = [1], 1
        for j, xj in enumerate(fit_x):
            if j != i:
                coeffs = [a - xj * b for a, b in zip([0] + coeffs, coeffs + [0])]
                w *= xi - xj
        basis.append((coeffs, w))
    scales = [v.den * w for v, (_, w) in zip(fit, basis)]
    den = math.lcm(*scales)
    # rows[e]: the coefficients of var^0 .. var^degree_bound of the monomial
    # e (var's exponent 0) in the other variables, in units of 1/den
    rows: dict[tuple, list[int]] = {}
    for v, (coeffs, _), scale in zip(fit, basis, scales):
        f = den // scale
        for e, c in v._promote(vs).nums.items():
            row = rows.get(e)
            if row is None:
                row = rows[e] = [0] * (degree_bound + 1)
            c *= f
            for k, b in enumerate(coeffs):
                row[k] += c * b
    if var in vs:
        at = vs.index(var)
        nums = {e[:at] + (k,) + e[at + 1:]: c
                for e, row in rows.items() for k, c in enumerate(row) if c}
    else:
        nums = {e: row[0] for e, row in rows.items() if row[0]}
    result = _reduced(vs, nums, den)

    for xk, vk in zip(xs[degree_bound + 1:], values[degree_bound + 1:]):
        at_xk = {}
        for e, row in rows.items():
            acc = 0
            for c in reversed(row):
                acc = acc * xk + c
            if acc:
                at_xk[e] = acc
        predicted = _reduced(vs, at_xk, den)
        if predicted != vk:
            raise InterpolationError(
                f"degree-{degree_bound} fit fails at {var}={xk}: "
                f"predicted {predicted.text()}, observed {vk.text()}")
    return result
