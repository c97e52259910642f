"""Series formulas for counting independent sets at large dimension.

The cluster expansion organizes log of the defect partition function as
N * sum_j R_j(lam, d) * (1+lam)^(-j*d); this module assembles the R_j
exactly (interpolating stratum sums over a d-grid), derives the fugacity
correction B_j and the count-correction coefficients P_j as rational
functions of (beta, d), and evaluates the resulting high-precision
estimates for log Z and log i_m.

Truncation convention: an order-t formula carries the correction terms
j = 1 .. t-1 and has error of the order of the first omitted term.  The
fugacity series uses r = ceil(t/2) - 1 correction orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import mpmath

from . import hypercube as hc
from .bigint import binomial, binomial_rounded
from .clusters import cluster_sum
from .errors import RegimeWarning
from .polymers import DefectType, census
from .symbolic import (BETA, RatFunc, RatPoly, TruncSeries, interpolate_poly,
                       log_ratio_expand, neg_binomial_expand, poly_on_series)

LAM = "lam"
DIM = "d"


# -- stratum polynomials R_j -----------------------------------------------------

_r_cache: dict[int, RatPoly] = {}

# Largest j for which R_poly needs no budget, so also the largest stratum the
# series formulas below can use without one.
MAX_EXACT_J = 3


def R_poly(j: int, budget: int | None = None) -> RatPoly:
    """The j-th log-partition coefficient as an exact polynomial in (lam, d).

    Stratum sums are exact at each d on a grid wide enough for the degree
    bound deg_d <= 2j plus one spare point that cross-checks the fit; the
    grid starts at d = 2j+1 so every size-j shape already embeds.  Each grid
    point is cluster_sum(d, j), which enumerates clusters once at the base
    dimension min(d, free_dim(j)) and rescales them to d by their active
    coordinates (C(d, a) counting), so the grid costs one enumeration per
    base dimension.  Above free_dim(j) the spare point therefore checks the
    rescaling and the fit, not an independent enumeration; the independent
    check, against clusters enumerated at d itself, is the differential test
    in tests/test_clusters.py.  j <= 3 is computed without a budget; beyond
    that an explicit budget, which limits the base-dimension enumeration of
    each grid point, is required and exhaustion raises BudgetExceededError.
    Grid points that share a base dimension share its enumeration, which is
    cached once complete, so the budget is spent once per base dimension.
    """
    if j < 1:
        raise ValueError("stratum index must be >= 1")
    if budget is None and j in _r_cache:
        return _r_cache[j]
    if budget is None and j > MAX_EXACT_J:
        raise ValueError(
            f"strata beyond j = {MAX_EXACT_J} are best-effort: pass an "
            "explicit budget")
    grid = list(range(2 * j + 1, 4 * j + 3))
    polys = [cluster_sum(d, j, budget=budget).poly for d in grid]
    base = interpolate_poly(list(zip(grid, polys)), 2 * j, var=DIM)
    out = base * RatPoly.var(LAM) ** j
    assert out.degree(DIM) <= 2 * j
    assert out.degree(LAM) <= 3 * j * j
    if budget is None:
        _r_cache[j] = out
    return out


@dataclass
class SeriesTable:
    """Indexed family of exact series coefficients (R_j, B_j, or P_j)."""

    kind: str  # "R" | "B" | "P"
    entries: dict[int, object]  # j -> RatPoly (R) or RatFunc (B, P)

    def __getitem__(self, j: int):
        return self.entries[j]

    def __contains__(self, j: int) -> bool:
        return j in self.entries

    def to_json(self) -> list[dict]:
        out = []
        for j in sorted(self.entries):
            v = self.entries[j]
            out.append({"j": j, "kind": self.kind, "text": v.text(),
                        "poly": v.to_json()})
        return out


def R_table(jmax: int, budget: int | None = None) -> SeriesTable:
    return SeriesTable("R", {j: R_poly(j, budget) for j in range(1, jmax + 1)})


# -- expected-size coefficients and their (beta, X) forms --------------------------


@lru_cache(maxsize=None)
def F_poly(j: int) -> RatPoly:
    """Coefficient of (1+lam)^(-jd-1) in the expected-size expansion.

    Differentiating lam * d/dlam through the stratum series gives
    F_j = lam * ((1+lam) * R_j' - j*d*R_j), a polynomial in (lam, d).
    """
    r = R_poly(j)
    lam = RatPoly.var(LAM)
    return lam * ((lam + 1) * r.derivative(LAM) - RatPoly.var(DIM) * j * r)


def _beta_x_form(p: RatPoly, exponent: int) -> RatPoly:
    """Substitute lam = (beta+X)/(1-beta) and clear (1-beta)^exponent."""
    bx = RatPoly.var(BETA) + RatPoly.var("X")
    omb = RatPoly.const(1) - RatPoly.var(BETA)
    out = RatPoly.const(0)
    for i, coef in p.as_univariate(LAM).items():
        if i > exponent:
            raise ValueError("exponent below the lam-degree")
        out = out + coef * bx ** i * omb ** (exponent - i)
    return out


@lru_cache(maxsize=None)
def g_exponent(j: int) -> int:
    """lam-degree of F_j; the power of (1-beta) cleared when forming G_j."""
    return F_poly(j).degree(LAM)


@lru_cache(maxsize=None)
def G_poly(j: int) -> RatPoly:
    """F_j rewritten as a polynomial in (beta, d, X): (1-beta)^{c_j} F_j."""
    return _beta_x_form(F_poly(j), g_exponent(j))


@lru_cache(maxsize=None)
def s_exponent(j: int) -> int:
    return R_poly(j).degree(LAM)


@lru_cache(maxsize=None)
def S_poly(j: int) -> RatPoly:
    """R_j rewritten as a polynomial in (beta, d, X): (1-beta)^{deg} R_j."""
    return _beta_x_form(R_poly(j), s_exponent(j))


# -- the fugacity-correction recursion ---------------------------------------------


def _x_series(b: Mapping[int, RatFunc], order: int) -> TruncSeries:
    """X = sum_j B_j (1-beta) Y^j as a truncated series in Y = (1-beta)^d."""
    omb = RatFunc(RatPoly.const(1) - RatPoly.var(BETA))
    cs = [RatFunc.const(0)] * order
    for j, bj in b.items():
        if 1 <= j < order:
            cs[j] = bj * omb
    return TruncSeries.from_coeffs(cs, order)


def Q_func(j: int, b: Mapping[int, RatFunc] | None = None) -> RatFunc:
    """The Y^j coefficient of the density fixed-point equation.

    Built from beta*(1+X) = beta + X + sum_i G_i (1-beta)^(1-c_i) Y^i (1+X)^(-id),
    normalized so the unknown B_j appears linearly with coefficient (1-beta)^2.
    When b lacks an entry for j, B_j is left as the symbolic variable "Bj";
    entries for i < j must be present.
    """
    if j < 1:
        raise ValueError("order must be >= 1")
    b = dict(b or {})
    for i in range(1, j):
        if i not in b:
            raise ValueError(f"Q at order {j} needs solved B_{i}")
    if j not in b:
        b[j] = RatFunc(RatPoly.var(f"B{j}"))
    order = j + 1
    x = _x_series(b, order)
    q = x
    dvar = RatPoly.var(DIM)
    for i in range(1, j + 1):
        gi = poly_on_series(G_poly(i), "X", x)
        tail = neg_binomial_expand(dvar * i, x, j - i)
        q = q + (gi * tail).shift(i) * RatFunc(1, 0, g_exponent(i))
    return q.coefficient(j) * RatFunc(RatPoly.const(1) - RatPoly.var(BETA))


def _factor_monomial(p: RatPoly) -> tuple[Fraction, int, int]:
    """Write p as c * beta^a * (1-beta)^e, or raise with diagnostics."""
    from .symbolic import divide_out_beta, divide_out_one_minus_beta
    a = e = 0
    while True:
        q = divide_out_one_minus_beta(p)
        if q is None:
            break
        p, e = q, e + 1
    while True:
        q = divide_out_beta(p)
        if q is None:
            break
        p, a = q, a + 1
    if p.degree() != 0:
        raise ArithmeticError(
            f"linear coefficient is not monomial in beta: {p.text()}")
    return p.constant(), a, e


def compute_B(r: int) -> SeriesTable:
    """Solve Q_1 = ... = Q_r = 0 for the fugacity corrections B_j(beta, d).

    Each Q_j is linear in B_j; after solving, the table is substituted back
    and every residual is checked to be the identically-zero function.
    """
    if r < 0:
        raise ValueError("order must be >= 0")
    solved: dict[int, RatFunc] = {}
    for j in range(1, r + 1):
        q = Q_func(j, solved)
        var = f"B{j}"
        parts = q.num.as_univariate(var)
        if sorted(parts) != [0, 1]:
            raise ArithmeticError(f"Q_{j} is not linear in {var}")
        c, a, e = _factor_monomial(parts[1])
        if c == 0:
            raise ArithmeticError(f"zero linear coefficient solving Q_{j}")
        solved[j] = RatFunc(-parts[0] * (1 / c), a, e)
        residual = Q_func(j, solved)
        if not residual.is_zero():
            raise ArithmeticError(
                f"nonzero residual after solving Q_{j}: {residual.text()}")
    return SeriesTable("B", solved)


@dataclass(frozen=True)
class LambdaBeta:
    """Fugacity tuned so the expected size hits the target density."""

    beta: Fraction
    d: int
    t: int
    r: int
    value: Fraction  # exact
    terms: tuple[tuple[int, Fraction], ...]  # (j, B_j * (1-beta)^{jd})
    table: SeriesTable

    def to_json(self) -> dict:
        return {
            "beta": str(self.beta), "d": self.d, "t": self.t, "r": self.r,
            "value": str(self.value),
            "value_float": float(self.value),
            "terms": [{"j": j, "value": str(v)} for j, v in self.terms],
            "series": self.table.to_json(),
        }


def _warn_beta_regime(beta: Fraction, t: int) -> None:
    # regime boundary beta = 1 - 2^(-1/t), compared exactly
    if 2 * (1 - beta) ** t >= 1:
        warnings.warn(RegimeWarning(
            f"beta = {beta} is at or below 1 - 2^(-1/{t}); order-{t} "
            "guarantees do not apply, values remain evaluable"))


def lambda_beta(beta: Fraction, d: int, t: int) -> LambdaBeta:
    """beta/(1-beta) plus the first r = ceil(t/2)-1 corrections, exactly."""
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError("beta must lie strictly between 0 and 1")
    hc.check_dim(d)
    if t < 1:
        raise ValueError("order must be >= 1")
    _warn_beta_regime(beta, t)
    r = math.ceil(t / 2) - 1
    table = compute_B(r)
    value = beta / (1 - beta)
    terms = []
    for j in range(1, r + 1):
        term = table[j].eval({BETA: beta, DIM: d}) * (1 - beta) ** (j * d)
        terms.append((j, term))
        value += term
    if value <= 0:
        raise ValueError(
            f"corrected fugacity is nonpositive at beta={beta}, d={d}: "
            "outside the applicable regime")
    return LambdaBeta(beta, d, t, r, value, tuple(terms), table)


# -- count-correction coefficients P_j ---------------------------------------------


def compute_P(jmax: int) -> SeriesTable:
    """Coefficients P_j of the fixed-size count expansion, j = 1 .. jmax.

    Expands log((1+lam)/(1+lam0)) - beta*log(lam/lam0) at lam equal to the
    corrected fugacity, plus the stratum series evaluated there, in powers of
    Y = (1-beta)^d, and reads off coefficients.
    """
    if jmax < 0:
        raise ValueError("order must be >= 0")
    r = math.ceil((jmax + 1) / 2) - 1
    b = compute_B(r)
    order = jmax + 1
    x = _x_series(b.entries, order)
    p = log_ratio_expand(x, order)
    dvar = RatPoly.var(DIM)
    for j in range(1, jmax + 1):
        sj = poly_on_series(S_poly(j), "X", x)
        tail = neg_binomial_expand(dvar * j, x, jmax - j)
        p = p + (sj * tail).shift(j) * RatFunc(1, 0, s_exponent(j))
    return SeriesTable("P", {j: p.coefficient(j) for j in range(1, jmax + 1)})


# -- high-precision evaluation ------------------------------------------------------


@dataclass(frozen=True)
class LogCount:
    """Natural log of a count or partition function, with a term breakdown."""

    value: object  # mpmath.mpf
    precision: int  # decimal digits used
    terms: tuple[tuple[str, object], ...]
    alt: object | None = None  # secondary evaluation path, when exposed

    def log10(self):
        with mpmath.workdps(self.precision):
            return self.value / mpmath.log(10)

    def to_json(self) -> dict:
        def s(x):
            return mpmath.nstr(x, min(self.precision, 30))
        with mpmath.workdps(self.precision):
            out = {
                "log10_value": s(self.value / mpmath.log(10)),
                "ln_value": s(self.value),
                "precision": self.precision,
                "terms": [{"label": k, "ln": s(v)} for k, v in self.terms],
            }
            if self.alt is not None:
                out["alt_ln_value"] = s(self.alt)
            return out


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def log_Z_asymptotic(lam: Fraction, d: int, t: int, digits: int = 80) -> LogCount:
    """log of the independence partition function via the stratum series.

    log 2 + N log(1+lam) + N sum_{j<=t-1} R_j(lam,d) (1+lam)^(-jd); each
    stratum contribution is evaluated as an exact rational before rounding.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("fugacity must be positive")
    hc.check_dim(d)
    if t < 1:
        raise ValueError("order must be >= 1")
    if (1 + lam) ** t <= 2:
        warnings.warn(RegimeWarning(
            f"lam = {lam} is at or below 2^(1/{t}) - 1; order-{t} guarantees "
            "do not apply, values remain evaluable"))
    n = hc.n_side(d)
    with mpmath.workdps(digits):
        terms = [("log_2", mpmath.log(2)),
                 ("free_sides", n * mpmath.log(_mpf(1 + lam)))]
        for j in range(1, t):
            exact = n * R_poly(j).eval({LAM: lam, DIM: d}) * (1 + lam) ** (-j * d)
            terms.append((f"stratum_{j}", _mpf(exact)))
        value = mpmath.fsum(v for _, v in terms)
    return LogCount(value, digits, tuple(terms))


def stirling_binom(n: int, m: int, digits: int = 80):
    """Stirling-formula approximation of binomial(n, m), high precision."""
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    beta = Fraction(m, n)
    lam0 = beta / (1 - beta)
    with mpmath.workdps(digits):
        log_v = (n * mpmath.log(_mpf(1 + lam0)) - m * mpmath.log(_mpf(lam0))
                 - mpmath.log(2 * mpmath.pi * n * _mpf(beta * (1 - beta))) / 2)
        return mpmath.exp(log_v)


def binomial_lclt(n: int, p: Fraction, k: int) -> tuple[Fraction, object]:
    """Exact Bin(n, p) pmf at k next to the flat local-CLT density.

    Returns (exact pmf as a Fraction, 1/sqrt(2 pi n p (1-p))); the density is
    the k-independent Gaussian peak value, so the pair only matches closely
    when k - np = o(sqrt(n)).
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    exact = binomial(n, k) * p ** k * (1 - p) ** (n - k)
    with mpmath.workdps(30):
        approx = 1 / mpmath.sqrt(2 * mpmath.pi * n * _mpf(p * (1 - p)))
    return exact, approx


def log_count_asymptotic(beta: Fraction, d: int, t: int,
                         digits: int = 80) -> LogCount:
    """log of the number of independent sets of size floor(beta*N).

    Two evaluation paths: (a) log-binomial plus N sum P_j Y^j (the returned
    value), with C(N, m) rounded correctly at the working precision by
    `binomial_rounded` rather than built exactly; (b) Stirling form at the
    corrected fugacity (exposed as .alt).
    Path (b) = log 2 + N log(1+lam_b) - m log lam_b + strata at
    lam_b - (1/2) log(2 pi N beta (1-beta)).  Both use beta = m/N exactly.
    """
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError("beta must lie strictly between 0 and 1")
    hc.check_dim(d)
    if t < 1:
        raise ValueError("order must be >= 1")
    n = hc.n_side(d)
    m = math.floor(beta * n)
    if not 0 < m < n:
        raise ValueError(f"target size floor(beta*N) = {m} must be inside (0, N)")
    beta = Fraction(m, n)  # align both paths on the integer target
    _warn_beta_regime(beta, t)
    ptable = compute_P(t - 1)
    y = (1 - beta) ** d
    with mpmath.workdps(digits):
        terms = [("log_2", mpmath.log(2)),
                 ("log_binomial", mpmath.log(mpmath.mpf(
                     binomial_rounded(n, m, mpmath.mp.prec))))]
        for j in range(1, t):
            exact = n * ptable[j].eval({BETA: beta, DIM: d}) * y ** j
            terms.append((f"P_{j}", _mpf(exact)))
        value = mpmath.fsum(v for _, v in terms)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            lb = lambda_beta(beta, d, t).value
        alt = (mpmath.log(2) + n * mpmath.log(_mpf(1 + lb))
               - m * mpmath.log(_mpf(lb))
               - mpmath.log(2 * mpmath.pi * n * _mpf(beta * (1 - beta))) / 2)
        for j in range(1, t):
            exact = n * R_poly(j).eval({LAM: lb, DIM: d}) * (1 + lb) ** (-j * d)
            alt += _mpf(exact)
    return LogCount(value, digits, tuple(terms), alt=alt)


def structured_count(beta: Fraction, d: int,
                     fixed_types: Mapping[DefectType, int] | None = None,
                     diverging_types: Mapping[DefectType, tuple] | None = None,
                     t: int = 2, digits: int = 80,
                     budget: int | None = None) -> LogCount:
    """Count of size-floor(beta*N) independent sets with a given defect profile.

    Multiplies the fixed-size estimate (Stirling path) by a Poisson factor
    rho^k e^(-rho)/k! for each type held at a fixed count k (rho = n_T w_T at
    the corrected fugacity) and a Gaussian factor e^(-s^2/2m)/sqrt(2 pi m)
    for each type whose count diverges with offset s from its mean m.
    `budget` bounds the polymer census of Q_d that the fixed types are looked
    up in; a fixed type absent from that census is a ValueError.
    """
    beta = Fraction(beta)
    fixed_types = dict(fixed_types or {})
    diverging_types = dict(diverging_types or {})
    base = log_count_asymptotic(beta, d, t, digits)
    n = hc.n_side(d)
    m = math.floor(beta * n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        lb = lambda_beta(Fraction(m, n), d, t).value
    terms = list(base.terms) + [("fixed_size_stirling", base.alt)]
    with mpmath.workdps(digits):
        value = base.alt
        if fixed_types:
            cen = census(d, max(T.size for T in fixed_types), budget)
            present = cen.by_key()
            for T, k in sorted(fixed_types.items(), key=lambda kv: kv[0].key):
                if k < 0:
                    raise ValueError(f"negative count for type {T.key}")
                if T.key not in present:
                    raise ValueError(f"type {T.key} does not occur in Q_{d}")
                rho = cen.expected_type_count(T.key, lb)
                contrib = (k * mpmath.log(_mpf(rho)) - _mpf(rho)
                           - mpmath.log(math.factorial(k)))
                terms.append((f"poisson[{T.key}]@{k}", contrib))
                value += contrib
        for T, (m_t, s_t) in sorted(diverging_types.items(),
                                    key=lambda kv: kv[0].key):
            m_t = Fraction(m_t)
            if m_t <= 0:
                raise ValueError(f"nonpositive spread for type {T.key}")
            s_t = Fraction(s_t)
            contrib = (-_mpf(s_t ** 2 / (2 * m_t))
                       - mpmath.log(2 * mpmath.pi * _mpf(m_t)) / 2)
            terms.append((f"gaussian[{T.key}]", contrib))
            value += contrib
    return LogCount(value, digits, tuple(terms))


def clear_caches() -> None:
    _r_cache.clear()
    F_poly.cache_clear()
    G_poly.cache_clear()
    S_poly.cache_clear()
    g_exponent.cache_clear()
    s_exponent.cache_clear()
