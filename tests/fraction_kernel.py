"""The Fraction-based symbolic kernel, kept as a differential reference.

This is the kernel ``cubecount.symbolic`` used before it moved to integer
numerators over one common denominator per polynomial: every coefficient is
a ``fractions.Fraction``, and every result re-validates and re-normalizes
through the public ``RatPoly`` constructor.  It is slow and simple on
purpose.  Nothing under ``src/`` imports it; ``tests/test_symbolic.py``
checks the production kernel against it, operation by operation, including
the variable tuple each result carries, and
``tests/test_asymptotics.py`` re-solves the B_j and P_j tables with it.
``interpolate_poly`` is the Lagrange fit over ``RatPoly`` products that the
production kernel replaced with an integer fit over one common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from cubecount.errors import InterpolationError

Scalar = Union[int, Fraction]


def _as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class RatPoly:
    """Sparse multivariate polynomial over Fraction.

    Immutable by convention.  ``vars`` is a sorted tuple of names and
    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero
    Fractions.  The zero polynomial has no terms.
    """

    __slots__ = ("vars", "terms")

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
        self.vars = vs
        self.terms = {e: c for e, c in cleaned.items() if c}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "RatPoly":
        c = _as_frac(c)
        return RatPoly((), {(): c} if c else {})

    @staticmethod
    def var(name: str) -> "RatPoly":
        return RatPoly((name,), {(1,): Fraction(1)})

    # -- alignment ----------------------------------------------------------

    def _promote(self, vars: tuple[str, ...]) -> "RatPoly":
        """Re-express over a superset of variables."""
        if vars == self.vars:
            return self
        idx = {v: i for i, v in enumerate(vars)}
        pos = [idx[v] for v in self.vars]
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(vars)
            for p, e in zip(pos, exps):
                new[p] = e
            terms[tuple(new)] = c
        return RatPoly(vars, terms)

    @staticmethod
    def _aligned(a: "RatPoly", b: "RatPoly"):
        vs = tuple(sorted(set(a.vars) | set(b.vars)))
        return a._promote(vs), b._promote(vs), vs

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        other = _coerce_poly(other)
        a, b, vs = RatPoly._aligned(self, other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return RatPoly(vs, terms)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "RatPoly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other) -> "RatPoly":
        return _coerce_poly(other) - self

    def __mul__(self, other) -> "RatPoly":
        other = _coerce_poly(other)
        a, b, vs = RatPoly._aligned(self, other)
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return RatPoly(vs, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = RatPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b, _ = RatPoly._aligned(self, other)
        return a.terms == b.terms

    def __hash__(self):
        a = self._strip()
        return hash((a.vars, tuple(sorted(a.terms.items()))))

    def _strip(self) -> "RatPoly":
        """Drop variables that do not actually occur."""
        used = [i for i, v in enumerate(self.vars)
                if any(e[i] for e in self.terms)]
        if len(used) == len(self.vars):
            return self
        vs = tuple(self.vars[i] for i in used)
        return RatPoly(vs, {tuple(e[i] for i in used): c for e, c in self.terms.items()})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree; zero polynomial -> -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def constant(self) -> Fraction:
        zero = (0,) * len(self.vars)
        return self.terms.get(zero, Fraction(0))

    def as_univariate(self, var: str) -> dict[int, "RatPoly"]:
        """Split into {exponent of var: polynomial in the other variables}."""
        if var not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        out: dict[int, dict[tuple, Fraction]] = {}
        for e, c in self.terms.items():
            k = e[i]
            re = tuple(x for j, x in enumerate(e) if j != i)
            out.setdefault(k, {})[re] = out.get(k, {}).get(re, Fraction(0)) + c
        return {k: RatPoly(rest, t) for k, t in sorted(out.items())}

    def derivative(self, var: str) -> "RatPoly":
        if var not in self.vars:
            return RatPoly.const(0)
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = terms.get(tuple(ne), Fraction(0)) + c * e[i]
        return RatPoly(self.vars, terms)

    def subs(self, mapping: Mapping[str, object]) -> "RatPoly":
        """Substitute polynomials/rationals for variables (partial allowed)."""
        out = RatPoly.const(0)
        for e, c in self.terms.items():
            term = RatPoly.const(c)
            for v, exp in zip(self.vars, e):
                if not exp:
                    continue
                if v in mapping:
                    rep = mapping[v]
                    rep = rep if isinstance(rep, RatPoly) else RatPoly.const(_as_frac(rep))
                    term = term * rep ** exp
                else:
                    term = term * RatPoly.var(v) ** exp
            out = out + term
        return out

    def eval(self, mapping: Mapping[str, Scalar]) -> Fraction:
        missing = [v for v in self.vars
                   if v not in mapping and any(e[self.vars.index(v)] for e in self.terms)]
        if missing:
            raise ValueError(f"missing values for variables {missing}")
        total = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, exp in zip(self.vars, e):
                if exp:
                    t *= _as_frac(mapping[v]) ** exp
            total += t
        return total

    def truncate_total_degree(self, bound: int) -> "RatPoly":
        return RatPoly(self.vars, {e: c for e, c in self.terms.items() if sum(e) <= bound})

    # -- formatting ---------------------------------------------------------

    def text(self) -> str:
        """Deterministic human-readable form, terms sorted by exponent tuple."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
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

    @staticmethod
    def from_json(obj: dict) -> "RatPoly":
        return RatPoly(tuple(obj["vars"]),
                       {tuple(e): Fraction(c) for e, c in obj["terms"]})


def _coerce_poly(x) -> RatPoly:
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly.const(x)
    raise TypeError(f"cannot mix RatPoly with {type(x).__name__}")


BETA = "beta"


def divide_out_one_minus_beta(p: RatPoly) -> RatPoly | None:
    """Exact quotient p / (1-beta), or None when not divisible.

    Synthetic division at the root beta = 1, done coefficient-wise in beta.
    """
    by_beta = p.as_univariate(BETA)
    if not by_beta:
        return RatPoly.const(0)
    top = max(by_beta)
    # quotient coefficients q_k = c_k + q_{k-1}; divisible iff q_top vanishes
    q: dict[int, RatPoly] = {}
    prev = RatPoly.const(0)
    for k in range(0, top + 1):
        prev = by_beta.get(k, RatPoly.const(0)) + prev
        q[k] = prev
    if not q[top].is_zero():
        return None
    beta = RatPoly.var(BETA)
    out = RatPoly.const(0)
    for k in range(0, top):
        out = out + q[k] * beta ** k
    return out


def divide_out_beta(p: RatPoly) -> RatPoly | None:
    """Exact quotient p / beta, or None when not divisible."""
    by_beta = p.as_univariate(BETA)
    if not by_beta:
        return RatPoly.const(0)
    if 0 in by_beta and not by_beta[0].is_zero():
        return None
    beta = RatPoly.var(BETA)
    out = RatPoly.const(0)
    for k, c in by_beta.items():
        if k:
            out = out + c * beta ** (k - 1)
    return out


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
        beta = RatPoly.var(BETA)
        omb = RatPoly.const(1) - beta
        n1 = self.num * beta ** (b - self.bpow) * omb ** (o - self.opow)
        n2 = other.num * beta ** (b - other.bpow) * omb ** (o - other.opow)
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

    @staticmethod
    def from_json(obj: dict) -> "RatFunc":
        return RatFunc(RatPoly.from_json(obj["num"]), obj["bpow"], obj["opow"])


def _coerce_func(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, RatPoly)):
        return RatFunc(_coerce_poly(x))
    raise TypeError(f"cannot mix RatFunc with {type(x).__name__}")


@dataclass(frozen=True)
class TruncSeries:
    """sum_{j < order} coeffs[j] * Y^j + O(Y^order); Y stands for (1-beta)^d."""

    order: int
    coeffs: tuple[RatFunc, ...]
    dropped: bool = False  # nonzero O(Y^order) content was discarded

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("series order must be >= 1")
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient list must have length `order`")

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries(order, tuple(RatFunc.const(0) for _ in range(order)))

    @staticmethod
    def from_coeffs(coeffs: Iterable, order: int, dropped: bool = False) -> "TruncSeries":
        cs = [_coerce_func(c) for c in coeffs]
        drop = dropped
        if len(cs) > order:
            drop = drop or any(not c.is_zero() for c in cs[order:])
            cs = cs[:order]
        cs += [RatFunc.const(0)] * (order - len(cs))
        return TruncSeries(order, tuple(cs), drop)

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

    def __add__(self, other) -> "TruncSeries":
        other = _coerce_series(other, self.order)
        self._check_order(other)
        return TruncSeries(self.order,
                           tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                           self.dropped or other.dropped)

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, tuple(-c for c in self.coeffs), self.dropped)

    def __sub__(self, other) -> "TruncSeries":
        return self + (-_coerce_series(other, self.order))

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction, RatPoly, RatFunc)):
            f = _coerce_func(other)
            return TruncSeries(self.order, tuple(c * f for c in self.coeffs), self.dropped)
        other = _coerce_series(other, self.order)
        self._check_order(other)
        out = [RatFunc.const(0)] * self.order
        drop = self.dropped or other.dropped
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                if i + j < self.order:
                    out[i + j] = out[i + j] + a * b
                else:
                    drop = True
        return TruncSeries(self.order, tuple(out), drop)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers must be nonnegative integers")
        out = TruncSeries.constant(1, self.order)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by Y^k."""
        if k < 0:
            raise ValueError("cannot shift by a negative power of Y")
        cs = [RatFunc.const(0)] * self.order
        drop = self.dropped
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i + k < self.order:
                cs[i + k] = c
            else:
                drop = True
        return TruncSeries(self.order, tuple(cs), drop)

    def eval(self, mapping: Mapping[str, Scalar]) -> Fraction:
        """Evaluate with Y = (1-beta)^d; requires beta and d in the mapping."""
        beta = _as_frac(mapping[BETA])
        d = mapping["d"]
        if not isinstance(d, int):
            raise TypeError("d must be an integer to evaluate a Y-series")
        y = (1 - beta) ** d
        total = Fraction(0)
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                total += c.eval(mapping) * y ** j
        return total

    def text(self) -> str:
        lines = [f"Y^{j}: {c.text()}" for j, c in enumerate(self.coeffs)]
        tail = f"  [+ O(Y^{self.order}){', content dropped' if self.dropped else ''}]"
        return "\n".join(lines) + "\n" + tail

    def __repr__(self):
        return f"TruncSeries(order={self.order}, dropped={self.dropped})"


def _coerce_series(x, order: int) -> TruncSeries:
    if isinstance(x, TruncSeries):
        return x
    if isinstance(x, (int, Fraction, RatPoly, RatFunc)):
        return TruncSeries.constant(_coerce_func(x), order)
    raise TypeError(f"cannot mix TruncSeries with {type(x).__name__}")


def poly_on_series(p: RatPoly, var: str, series: TruncSeries) -> TruncSeries:
    """Evaluate polynomial p at `var` = series; other variables stay symbolic
    inside the coefficients (they must be beta/d only)."""
    parts = p.as_univariate(var)
    out = TruncSeries.zero(series.order)
    power = TruncSeries.constant(1, series.order)
    top = max(parts) if parts else 0
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

    ``points`` maps grid values of ``var`` to either Fractions/ints or
    RatPoly values (interpolated coefficient-wise).  Requires at least
    degree_bound + 2 points; the fit uses the first degree_bound + 1 and every
    remaining point must match exactly, else InterpolationError.
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

    fit_x = xs[: degree_bound + 1]
    fit_v = values[: degree_bound + 1]
    t = RatPoly.var(var)
    result = RatPoly.const(0)
    for i, (xi, vi) in enumerate(zip(fit_x, fit_v)):
        if var in vi.vars and vi.degree(var) > 0:
            raise ValueError(f"sample values may not involve the interpolation variable {var!r}")
        basis = RatPoly.const(1)
        denom = Fraction(1)
        for j, xj in enumerate(fit_x):
            if j == i:
                continue
            basis = basis * (t - RatPoly.const(xj))
            denom *= Fraction(xi - xj)
        result = result + vi * basis * (1 / denom)

    for xk, vk in zip(xs[degree_bound + 1:], values[degree_bound + 1:]):
        predicted = result.subs({var: Fraction(xk)})
        if predicted != vk:
            raise InterpolationError(
                f"degree-{degree_bound} fit fails at {var}={xk}: "
                f"predicted {predicted.text()}, observed {vk.text()}")
    return result
