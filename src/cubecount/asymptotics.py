"""Series formulas for counting independent sets at large dimension.

The cluster expansion organizes log of the defect partition function as
N * sum_j R_j(lam, d) * (1+lam)^(-j*d); this module assembles the R_j
exactly (interpolating stratum sums over a d-grid), derives the fugacity
correction B_j and the count-correction coefficients P_j as rational
functions of (beta, d), and evaluates the resulting high-precision
estimates for log Z and log i_m.

Each series entry calls the one below it: compute_B solves the B_j,
lambda_beta reads them into the tuned fugacity, log_count_asymptotic takes
lambda_beta's value, and structured_count shares log_count_asymptotic's
setup (_count_setup).

Truncation convention: an order-t formula carries the correction terms
j = 1 .. t-1 and has error of the order of the first omitted term.  The
fugacity series uses r = ceil(t/2) - 1 correction orders.

`log_Z_asymptotic`, `log_count_asymptotic` and `structured_count` return a
LogCount that holds the formula and its exact rationals; each formula is
written once over the number kit of decimal intervals (cubecount.certified),
which prints every digit correctly rounded.  Each of the three refuses
`digits` outside [1, MAX_DIGITS] before any other work.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache, partial
from typing import Mapping, NamedTuple

from . import hypercube as hc
from .certified import evaluate
from .clusters import cluster_sum
from .errors import RegimeWarning
from .polymers import DefectType, census
from .symbolic import (BETA, RatFunc, RatPoly, TruncSeries, interpolate_poly,
                       log_ratio_expand, neg_binomial_expand, poly_on_series)

# binomial stays importable here: perfbench/traced_child.py patches it
binomial = math.comb

LAM = "lam"
DIM = "d"


# -- stratum polynomials R_j -----------------------------------------------------

_r_cache: dict[int, RatPoly] = {}

# Largest j for which R_poly needs no budget, so also the largest stratum the
# series formulas below can use: they take no budget, and each public entry
# refuses a larger order through _check_order.
MAX_EXACT_J = 3


# Largest `digits` a LogCount accepts.  Its fields print at min(digits, 30)
# digits, so a larger value changes only the "precision" field; the bound
# is input validation.
MAX_DIGITS = 10_000


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must lie in [1, {MAX_DIGITS}], got {digits}")


def _check_order(name: str, value: int, smallest: int, largest: int) -> None:
    """Refuse an order below `smallest`, or past `largest`, the last one
    whose formula reads no R_j beyond MAX_EXACT_J; each entry checks it
    before any warning or work."""
    if value < smallest:
        raise ValueError(f"order must be >= {smallest}")
    if value > largest:
        raise ValueError(
            f"{name} = {value} is past {largest}: higher orders need R_j for "
            f"j > {MAX_EXACT_J}")


def R_poly(j: int, budget: int | None = None) -> RatPoly:
    """The j-th log-partition coefficient as an exact polynomial in (lam, d).

    Stratum sums are exact at each d on a grid wide enough for the degree
    bound deg_d <= 2j plus one spare point that cross-checks the fit; the
    grid starts at d = 2j+1 so every size-j shape already embeds.  Each grid
    point is cluster_sum(d, j): the stratum's (e, a) table, built and cached
    once per base dimension min(d, free_dim(j)), evaluated at d.  The table
    alone gives R_j in closed form; the grid stays only because
    perfbench/traced_child.py refits R_j from these cluster_sum calls.
    Above free_dim(j) the spare point checks the rescaling and the fit, not
    an independent enumeration; that check, against clusters enumerated at
    d itself, is the differential test in tests/test_clusters.py.  j <= 3
    needs no budget; beyond that an explicit budget, spent once per base
    dimension, is required and exhaustion raises BudgetExceededError.
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


def series_rows(kind: str, table: Mapping[int, RatPoly | RatFunc]) -> list[dict]:
    """The printed rows of a coefficient table {j: coefficient}, in order of
    j; kind names the family: "R" (RatPoly), "B" or "P" (RatFunc)."""
    return [{"j": j, "kind": kind, "text": v.text(), "poly": v.to_json()}
            for j, v in sorted(table.items())]


# -- expected-size coefficients and their (beta, X) forms --------------------------


@lru_cache(maxsize=2 * MAX_EXACT_J)  # j = 1..MAX_EXACT_J, each with and without size
def _beta_x_coefficient(j: int, size: bool) -> tuple[RatPoly, int]:
    """(1-beta)^c * F_j (size) or (1-beta)^c * R_j, in (beta, d, X), and c,
    without the powers X^k, k > MAX_EXACT_J - j, that no kept order reads.

    F_j is the coefficient of (1+lam)^(-jd-1) in the expected-size
    expansion; differentiating lam * d/dlam through the stratum series gives
    F_j = lam * ((1+lam) * R_j' - j*d*R_j), a polynomial in (lam, d).  The
    form substitutes lam = (beta+X)/(1-beta) and clears c, the lam-degree.

    The X bound: _strata_series multiplies this form by Y^j, and X = O(Y)
    there, so X^k reaches only Y^(j+k) and beyond.  Every series it builds
    has order top + 1 with top <= MAX_EXACT_J (asserted there), so it keeps
    Y^0 .. Y^MAX_EXACT_J and X^k with j + k > MAX_EXACT_J never reaches a
    kept coefficient.  So (beta+X)^i is expanded only through X^K,
    K = MAX_EXACT_J - j, from its binomial row, and the powers of (1-beta)
    are built once as a running product.
    """
    p = R_poly(j)
    if size:
        lam = RatPoly.var(LAM)
        p = lam * ((lam + 1) * p.derivative(LAM) - RatPoly.var(DIM) * j * p)
    c = p.degree(LAM)
    top = MAX_EXACT_J - j
    omb = RatPoly.const(1) - RatPoly.var(BETA)
    omb_powers = [RatPoly.const(1)]
    for _ in range(c):
        omb_powers.append(omb_powers[-1] * omb)
    out = RatPoly.const(0)
    for i, coef in p.as_univariate(LAM).items():
        # (beta+X)^i through X^top; "X" sorts before "beta"
        bx = RatPoly(("X", BETA), {(k, i - k): math.comb(i, k)
                                   for k in range(min(i, top) + 1)})
        out = out + coef * (bx * omb_powers[c - i])
    return out, c


# -- the fugacity-correction recursion ---------------------------------------------


def _x_series(b: Mapping[int, RatFunc], order: int) -> TruncSeries:
    """X = sum_j B_j (1-beta) Y^j as a truncated series in Y = (1-beta)^d."""
    omb = RatFunc(RatPoly.const(1) - RatPoly.var(BETA))
    cs = [RatFunc.const(0)] * order
    for j, bj in b.items():
        if 1 <= j < order:
            cs[j] = bj * omb
    return TruncSeries.from_coeffs(cs, order)


def _strata_series(x: TruncSeries, size: bool) -> TruncSeries:
    """sum_i Y^i C_i(X = x) (1+x)^(-id) (1-beta)^(-c_i), i = 1 .. x.order - 1,
    with (C_i, c_i) = _beta_x_coefficient(i, size): the sum over i of R_i
    (or F_i) times (1+lam)^(-id) at lam = (beta+x)/(1-beta)."""
    top = x.order - 1
    assert top <= MAX_EXACT_J  # _beta_x_coefficient drops X^k past this order
    dvar = RatPoly.var(DIM)
    out = TruncSeries.from_coeffs((), x.order)
    for i in range(1, top + 1):
        ci, c = _beta_x_coefficient(i, size)
        tail = neg_binomial_expand(dvar * i, x, top - i)
        out = out + (poly_on_series(ci, "X", x) * tail).shift(i) * RatFunc(1, opow=c)
    return out


@lru_cache(maxsize=MAX_EXACT_J + 1)  # r = 0..MAX_EXACT_J
def compute_B(r: int) -> dict[int, RatFunc]:
    """Solve Q_1 = ... = Q_r = 0 for the fugacity corrections B_j(beta, d).

    Q_j is the Y^j coefficient of the density fixed-point equation
    beta*(1+X) = beta + X + sum_i G_i (1-beta)^(1-c_i) Y^i (1+X)^(-id), with
    G_i = (1-beta)^(c_i) F_i from _beta_x_coefficient(i, True), multiplied by
    (1-beta).  B_j enters only through the Y^j coefficient B_j (1-beta) of
    X, so Q_j is Q_j|_{B_j=0} + (1-beta)^2 B_j and B_j is
    -Q_j|_{B_j=0} / (1-beta)^2.  Build k, of order min(k, r) + 1, reads
    Q_k|_{B_k=0} and the residuals Q_j, j < k, of the B_j already solved;
    each residual must be the identically-zero function, which is what
    proves that coefficient at run time.  Build r + 1 checks B_r, so B_1 ..
    B_r take r + 1 builds (none for r = 0).
    Returns {j: B_j}, j = 1 .. r.  Cached: log_count_asymptotic reaches
    the same table through compute_P and lambda_beta.  Callers must not
    mutate the returned table.
    """
    _check_order("r", r, 0, MAX_EXACT_J)
    omb = RatFunc(RatPoly.const(1) - RatPoly.var(BETA))
    solved: dict[int, RatFunc] = {}
    for k in range(1, r + 2) if r else ():
        x = _x_series(solved, min(k, r) + 1)
        q = x + _strata_series(x, True)
        for j in solved:
            residual = q.coefficient(j) * omb
            if not residual.is_zero():
                raise ArithmeticError(
                    f"nonzero residual after solving Q_{j}: {residual.text()}")
        if k <= r:
            qk = q.coefficient(k) * omb
            solved[k] = RatFunc(-qk.num, opow=qk.opow + 2)
    return solved


class LambdaBeta(NamedTuple):
    """Fugacity tuned so the expected size hits the target density."""

    beta: Fraction
    d: int
    t: int
    r: int
    value: Fraction  # exact
    terms: tuple[tuple[int, Fraction], ...]  # (j, B_j * (1-beta)^{jd})
    table: dict[int, RatFunc]  # compute_B(r)

    def to_json(self) -> dict:
        return {
            "beta": str(self.beta), "d": self.d, "t": self.t, "r": self.r,
            "value": str(self.value),
            "value_float": float(self.value),
            "terms": [{"j": j, "value": str(v)} for j, v in self.terms],
            "series": series_rows("B", self.table),
        }


def _fugacity_order(t: int) -> int:
    """r = ceil(t/2) - 1: order t reads the corrections B_j for j <= r."""
    return math.ceil(t / 2) - 1


def lambda_beta(beta: Fraction, d: int, t: int) -> LambdaBeta:
    """beta/(1-beta) plus the first r = ceil(t/2)-1 corrections, exactly."""
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError("beta must lie strictly between 0 and 1")
    hc.check_dim(d)
    _check_order("t", t, 1, 2 * (MAX_EXACT_J + 1))
    # regime boundary beta = 1 - 2^(-1/t), compared exactly
    if 2 * (1 - beta) ** t >= 1:
        warnings.warn(RegimeWarning(
            f"beta = {beta} is at or below 1 - 2^(-1/{t}); order-{t} "
            "guarantees do not apply, values remain evaluable"))
    r = _fugacity_order(t)
    table = compute_B(r)
    value = beta / (1 - beta)
    terms = []
    for j, bj in table.items():
        term = bj.eval({BETA: beta, DIM: d}) * (1 - beta) ** (j * d)
        terms.append((j, term))
        value += term
    if value <= 0:
        raise ValueError(
            f"corrected fugacity is nonpositive at beta={beta}, d={d}: "
            "outside the applicable regime")
    return LambdaBeta(beta, d, t, r, value, tuple(terms), table)


# -- count-correction coefficients P_j ---------------------------------------------


def compute_P(jmax: int) -> dict[int, RatFunc]:
    """Coefficients {j: P_j} of the fixed-size count expansion, j = 1 .. jmax.

    Expands log((1+lam)/(1+lam0)) - beta*log(lam/lam0) at lam equal to the
    corrected fugacity, plus the stratum series evaluated there, in powers of
    Y = (1-beta)^d, and reads off coefficients.  log_ratio_expand divides X
    by beta, which is exact: each term of Q_j holds a factor beta or X, and
    X's lower coefficients are multiples of beta, so beta divides every B_j.
    """
    _check_order("jmax = t - 1", jmax, 0, MAX_EXACT_J)
    order = jmax + 1
    x = _x_series(compute_B(_fugacity_order(order)), order)
    p = log_ratio_expand(x, order) + _strata_series(x, False)
    return {j: p.coefficient(j) for j in range(1, order)}


# -- high-precision evaluation ------------------------------------------------------


class LogCount:
    """Natural log of a count or partition function, with a term breakdown.

    Holds the formula with its exact rationals: `formula(num)` returns
    (value, terms, alt) as intervals in the number kit `num` (see
    cubecount.certified).  Its printed fields are the only evaluation:
    `to_json` prints each correctly rounded at min(precision, 30) digits.
    """

    __slots__ = ("precision", "_formula")

    def __init__(self, precision: int, formula):
        self.precision = precision  # digits requested
        self._formula = formula

    def json_in(self, num) -> dict:
        """The JSON fields printed in the number kit num; Undecided when an
        interval cannot decide a printed digit."""
        value, terms, alt = self._formula(num)
        shown = min(self.precision, 30)
        out = {
            "log10_value": num.render(value / num.log(10), shown),
            "ln_value": num.render(value, shown),
            "precision": self.precision,
            "terms": [{"label": k, "ln": num.render(v, shown)} for k, v in terms],
        }
        if alt is not None:
            out["alt_ln_value"] = num.render(alt, shown)
        return out

    def to_json(self) -> dict:
        return evaluate(self.json_in, min(self.precision, 30))


def _strata(lam: Fraction, d: int, t: int) -> tuple[tuple[int, Fraction], ...]:
    """(j, N R_j(lam, d) (1 + lam)^(-jd)) for j = 1 .. t-1, each an exact
    Fraction.  The number kit takes a short one exactly and a long one from
    its leading bits, so a stratum that ties at a printed digit decides."""
    n = hc.n_side(d)
    return tuple((j, n * R_poly(j).eval({LAM: lam, DIM: d}) / (1 + lam) ** (j * d))
                 for j in range(1, t))


def _log_z(num, n: int, lam: Fraction, strata):
    """log_Z_asymptotic's (value, terms, alt) in the number kit num; its
    value is also _log_count's ln Z at the corrected fugacity."""
    terms = [("log_2", num.log(2)),
             ("free_sides", n * num.log1p(lam))]
    terms += [(f"stratum_{j}", num.rational(x)) for j, x in strata]
    return num.fsum(v for _, v in terms), tuple(terms), None


def log_Z_asymptotic(lam: Fraction, d: int, t: int, digits: int = 80) -> LogCount:
    """log of the independence partition function via the stratum series.

    log 2 + N log(1+lam) + N sum_{j<=t-1} R_j(lam,d) (1+lam)^(-jd), each
    stratum an exact rational.
    """
    _check_digits(digits)
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("fugacity must be positive")
    hc.check_dim(d)
    _check_order("t", t, 1, MAX_EXACT_J + 1)
    if (1 + lam) ** t <= 2:
        warnings.warn(RegimeWarning(
            f"lam = {lam} is at or below 2^(1/{t}) - 1; order-{t} guarantees "
            "do not apply, values remain evaluable"))
    return LogCount(digits, partial(_log_z, n=hc.n_side(d), lam=lam,
                                    strata=_strata(lam, d, t)))


def _log_count(num, n: int, m: int, lb: Fraction, corrections, strata):
    """log_count_asymptotic's (value, terms, alt) in the number kit num:
    alt is ln Z(lam_b) - m ln lam_b - (1/2) ln(2 pi N beta (1-beta)), with
    ln Z(lam_b) from _log_z over the strata at lam_b."""
    terms = [("log_2", num.log(2)), ("log_binomial", num.log_binomial(n, m))]
    terms += [(f"P_{j}", num.rational(x)) for j, x in corrections]
    beta = Fraction(m, n)
    alt = (_log_z(num, n, lb, strata)[0]
           - m * num.log(num.rational(lb))
           - num.log(2 * num.pi * n * num.rational(beta * (1 - beta))) / 2)
    return num.fsum(v for _, v in terms), tuple(terms), alt


def _count_setup(beta: Fraction, d: int, t: int) -> dict:
    """The checks and exact inputs of log_count_asymptotic, shared with
    structured_count: _log_count's keywords, with beta aligned to m/N."""
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError("beta must lie strictly between 0 and 1")
    hc.check_dim(d)
    _check_order("t", t, 1, MAX_EXACT_J + 1)
    n = hc.n_side(d)
    m = math.floor(beta * n)
    if not 0 < m < n:
        raise ValueError(f"target size floor(beta*N) = {m} must be inside (0, N)")
    beta = Fraction(m, n)  # align both paths on the integer target
    lb = lambda_beta(beta, d, t).value
    ptable = compute_P(t - 1)
    y = (1 - beta) ** d
    corrections = tuple((j, n * ptable[j].eval({BETA: beta, DIM: d}) * y ** j)
                        for j in range(1, t))
    return {"n": n, "m": m, "lb": lb, "corrections": corrections,
            "strata": _strata(lb, d, t)}


def log_count_asymptotic(beta: Fraction, d: int, t: int,
                         digits: int = 80) -> LogCount:
    """log of the number of independent sets of size floor(beta*N).

    Two evaluation paths: (a) log-binomial plus N sum P_j Y^j (the returned
    value), with ln C(N, m) enclosed by Stirling's series (the number kit's
    `log_binomial`), so C(N, m) itself is not built.
    (b) Stirling form at the corrected fugacity lambda_beta (printed as
    alt_ln_value).
    Path (b) = log Z(lam_b) - m log lam_b - (1/2) log(2 pi N beta (1-beta)),
    with log Z as log_Z_asymptotic writes it.  Both use beta = m/N exactly.
    """
    _check_digits(digits)
    return LogCount(digits, partial(_log_count, **_count_setup(beta, d, t)))


def _structured(num, base, poisson, gaussian):
    """structured_count's (value, terms, alt) in the number kit num: the
    Stirling path of `base` times a Poisson factor rho^k e^(-rho) / k! per
    (key, k, rho) in `poisson` and a Gaussian factor
    e^(-s^2/2m) / sqrt(2 pi m) per (key, m, s) in `gaussian`."""
    _, base_terms, alt = base(num)
    terms = list(base_terms) + [("fixed_size_stirling", alt)]
    for key, k, rho in poisson:
        r = num.rational(rho)
        terms.append((f"poisson[{key}]@{k}", k * num.log(r) - r - num.log_factorial(k)))
    for key, m_t, s_t in gaussian:
        terms.append((f"gaussian[{key}]",
                      -num.rational(s_t ** 2 / (2 * m_t))
                      - num.log(2 * num.pi * num.rational(m_t)) / 2))
    return num.fsum(v for _, v in terms[len(base_terms):]), tuple(terms), None


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
    up in; a fixed type absent from that census is a ValueError.  So is k
    defects of size |T| with k|T| > n/2 (n = n_side): defects lie on the
    minority side, and |N(S)| >= |S| caps its occupied part at n/2.  A type
    may be fixed or diverging, not both, and a diverging count m + s must
    not be negative.
    """
    fixed_types = dict(fixed_types or {})
    diverging_types = dict(diverging_types or {})
    _check_digits(digits)
    base = _count_setup(beta, d, t)
    n, lb = base["n"], base["lb"]
    both = sorted(fixed_types.keys() & diverging_types.keys())
    if both:
        raise ValueError(f"type {both[0].key} is both fixed and diverging")
    poisson = []
    if fixed_types:
        cen = census(d, max(T.size for T in fixed_types), budget)
        present = cen.by_key()
        for T, k in sorted(fixed_types.items(), key=lambda kv: kv[0].key):
            if k < 0:
                raise ValueError(f"negative count for type {T.key}")
            if 2 * k * T.size > n:
                raise ValueError(
                    f"{k} defects of type {T.key} cover {k * T.size} "
                    f"vertices, more than half of the {n} on a side")
            if T.key not in present:
                raise ValueError(f"type {T.key} does not occur in Q_{d}")
            poisson.append((T.key, k, cen.expected_type_count(T.key, lb)))
    gaussian = []
    for T, (m_t, s_t) in sorted(diverging_types.items(), key=lambda kv: kv[0].key):
        m_t, s_t = Fraction(m_t), Fraction(s_t)
        if m_t <= 0:
            raise ValueError(f"nonpositive spread for type {T.key}")
        if m_t + s_t < 0:
            raise ValueError(f"negative count {m_t + s_t} = {m_t} + ({s_t}) "
                             f"for type {T.key}")
        gaussian.append((T.key, m_t, s_t))
    return LogCount(digits, partial(_structured, base=partial(_log_count, **base),
                                    poisson=tuple(poisson), gaussian=tuple(gaussian)))


def clear_caches() -> None:
    _r_cache.clear()
    compute_B.cache_clear()
    _beta_x_coefficient.cache_clear()
