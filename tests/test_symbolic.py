"""Exact polynomial / rational-function / truncated-series kernel."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_kernel as ref
from cubecount.errors import InterpolationError
from cubecount.symbolic import (
    BETA,
    RatFunc,
    RatPoly,
    TruncSeries,
    binom_poly,
    divide_out,
    interpolate_poly,
    log_ratio_expand,
    neg_binomial_expand,
    poly_on_series,
)

beta = RatPoly.var(BETA)
d_var = RatPoly.var("d")


def poly_to_json_str(p: RatPoly) -> str:
    return json.dumps(p.to_json(), sort_keys=True)


# -- random polynomial strategy ----------------------------------------------

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polys(draw):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[e] = terms.get(e, 0) + draw(fracs)
    return RatPoly(("beta", "d"), terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + RatPoly.const(0) == p
    assert p * RatPoly.const(1) == p
    assert p - p == RatPoly.const(0)


@given(polys(), polys(), fracs, fracs)
@settings(max_examples=60, deadline=None)
def test_eval_is_a_homomorphism(p, q, x, y):
    pt = {"beta": x, "d": y}
    assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)
    assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)


@given(polys())
@settings(max_examples=60, deadline=None)
def test_poly_json_round_trip(p):
    # the reference kernel reads the JSON back as the same polynomial
    q = ref.RatPoly.from_json(p.to_json())
    assert poly_to_json_str(p) == json.dumps(q.to_json(), sort_keys=True)
    point = {"beta": Fraction(1, 3), "d": Fraction(-2, 5)}
    assert q.eval(point) == p.eval(point)


def test_binomial_square():
    assert (1 + beta) ** 2 == 1 + 2 * beta + beta * beta


def test_divide_out_one_minus_beta_exact_and_refusal():
    q = 2 + beta + 3 * beta ** 2
    assert divide_out((1 - beta) * q, 1) == q
    assert divide_out(1 + beta, 1) is None
    assert divide_out(d_var, 1) is None


def test_divide_out_beta_exact_and_refusal():
    q = 5 - beta ** 3
    assert divide_out(beta * q, 0) == q
    assert divide_out(1 + beta, 0) is None
    # beta stays among the variables only at beta-degree >= 2
    assert divide_out(beta * d_var, 0).vars == ("d",)
    assert divide_out(beta ** 2 * d_var, 0).vars == ("beta", "d")


def test_ratfunc_normalizes_common_factors():
    f = RatFunc((1 - beta) ** 2 * 7, opow=3)
    assert (f.num, f.opow) == (RatPoly.const(7), 1)
    assert f == RatFunc(7, opow=1)
    g = RatFunc(beta * (1 - beta), opow=1)
    assert (g.num, g.opow) == (beta, 0)
    assert RatFunc(0, opow=2).opow == 0
    # equal functions in the normal form have equal fields
    assert RatFunc(beta, opow=1) != RatFunc(beta * (1 - beta), opow=1)
    assert RatFunc(beta * (1 - beta), opow=2) == RatFunc(beta, opow=1)


def test_ratfunc_arithmetic_at_a_point():
    f = RatFunc(beta, opow=1)  # beta/(1-beta)
    g = RatFunc((1 - beta) ** 2, opow=0)  # (1-beta)^2
    b = Fraction(1, 3)
    prod = f * g
    assert prod == RatFunc(beta * (1 - beta))
    assert (f * RatFunc(1 - beta)) == RatFunc(beta)
    s = f + g
    assert s.opow == 1
    assert s.eval({BETA: b}) == b / (1 - b) + (1 - b) ** 2
    with pytest.raises(ZeroDivisionError):
        f.eval({BETA: 1})
    with pytest.raises(ValueError, match="beta value required"):
        RatFunc(d_var, opow=1).eval({"d": 3})


def test_ratfunc_json_round_trip():
    # the reference kernel reads the JSON back as the same function; the
    # layout keeps "bpow", always 0
    f = RatFunc(beta ** 2 * d_var - 1, opow=3)
    assert f.to_json()["bpow"] == 0
    g = ref.RatFunc.from_json(f.to_json())
    assert g.to_json() == f.to_json()
    point = {BETA: Fraction(1, 3), "d": Fraction(5)}
    assert g.eval(point) == f.eval(point)


def test_series_multiplication_truncates():
    # (1 + Y)(1 + Y) at order 2 drops the Y^2 term
    one_plus = TruncSeries.from_coeffs([1, 1], order=2)
    sq = one_plus * one_plus
    assert sq.coeffs == (RatFunc.const(1), RatFunc.const(2))
    # at order 3 nothing is lost
    full = TruncSeries.from_coeffs([1, 1], order=3) * TruncSeries.from_coeffs([1, 1], order=3)
    assert full.coeffs == (RatFunc.const(1), RatFunc.const(2), RatFunc.const(1))
    # a shift past the order leaves nothing
    assert one_plus.shift(1).coeffs == (RatFunc.const(0), RatFunc.const(1))
    assert one_plus.shift(3).coeffs == (RatFunc.const(0), RatFunc.const(0))


def test_series_validates_and_is_not_a_sequence():
    with pytest.raises(ValueError, match="order must be >= 1"):
        TruncSeries(0, ())
    with pytest.raises(ValueError, match="length `order`"):
        TruncSeries(2, (RatFunc.const(1),))
    s = TruncSeries.from_coeffs([1, 2], order=2)
    for op in (iter, len, lambda s: 2 * s):  # 2 * s is no tuple repetition
        with pytest.raises(TypeError):
            op(s)
    assert (s * 2).coeffs == (RatFunc.const(2), RatFunc.const(4))


def test_poly_on_series_substitutes_the_variable():
    p = RatPoly.var("Y") ** 2 + 2 * RatPoly.var("Y") + 1
    y = TruncSeries.from_coeffs([0, 1], order=3)
    out = poly_on_series(p, "Y", y)
    assert out.coefficient(0) == RatFunc.const(1)
    assert out.coefficient(1) == RatFunc.const(2)
    assert out.coefficient(2) == RatFunc.const(1)


def test_binom_poly_matches_falling_product():
    k = RatPoly.var("k")
    # C(-k, 2) = k(k+1)/2
    assert binom_poly(k, 2) == (k * k + k) * Fraction(1, 2)
    assert binom_poly(k, 0) == RatPoly.const(1)


def test_neg_binomial_expand_integer_exponent():
    # (1 + Y)^(-2) = 1 - 2Y + 3Y^2 - 4Y^3 + ...
    y = TruncSeries.from_coeffs([0, 1], order=4)
    out = neg_binomial_expand(RatPoly.const(2), y, r=3)
    for j, c in enumerate([1, -2, 3, -4]):
        assert out.coefficient(j) == RatFunc.const(c)


def test_neg_binomial_expand_rejects_constant_term():
    y = TruncSeries.from_coeffs([1, 1], order=3)
    with pytest.raises(ValueError):
        neg_binomial_expand(RatPoly.const(1), y, r=2)


def test_log_ratio_expand_leading_coefficients():
    # log(1+x) - beta log(1+x/beta) at x = beta*Y: the linear term cancels,
    # and the quadratic coefficient is -(1 - 1/beta)/2 * beta^2
    x = TruncSeries.from_coeffs([0, beta], order=3)
    out = log_ratio_expand(x, t=3)
    assert out.coefficient(0).is_zero()
    assert out.coefficient(1).is_zero()
    assert out.coefficient(2) == RatFunc(beta * (1 - beta) * Fraction(1, 2))
    b = Fraction(1, 3)
    assert out.coefficient(2).eval({BETA: b}) == -(1 - 1 / b) / 2 * b ** 2


def test_log_ratio_expand_refuses_an_x_that_beta_does_not_divide():
    # u = x/beta must be a series with polynomial numerators
    for coeffs in ([0, 1], [0, beta, d_var], [0, RatFunc(beta + 1, opow=2)]):
        x = TruncSeries.from_coeffs(coeffs, order=3)
        with pytest.raises(ValueError, match="divisible by beta"):
            log_ratio_expand(x, t=3)


def test_interpolation_recovers_polynomial():
    target = d_var ** 2 * 3 - d_var * Fraction(1, 2) + 7
    pts = [(x, target.eval({"d": Fraction(x)})) for x in (2, 3, 4, 5, 6)]
    assert interpolate_poly(pts, degree_bound=2) == target


def test_interpolation_rejects_inconsistent_points():
    pts = [(1, 1), (2, 4), (3, 9), (4, 99)]
    with pytest.raises(InterpolationError):
        interpolate_poly(pts, degree_bound=2)


def test_interpolation_needs_a_check_point():
    with pytest.raises(ValueError):
        interpolate_poly([(1, 1), (2, 4), (3, 9)], degree_bound=2)


# -- differential check against the Fraction kernel ----------------------------

DIFF_VARS = ("B1", "X", "beta", "d")


@st.composite
def poly_pairs(draw):
    """The same random polynomial in both kernels, over a random subset of
    DIFF_VARS, so that variable bookkeeping is exercised too."""
    vs = tuple(v for v in DIFF_VARS if draw(st.booleans()))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.integers(0, 3)) for _ in vs)
        terms[e] = terms.get(e, 0) + draw(fracs)
    return RatPoly(vs, terms), ref.RatPoly(vs, terms)


def canonical(p: RatPoly) -> bool:
    """Nonzero integer numerators over a positive denominator sharing no
    factor with them; the zero polynomial over 1."""
    return (p.den > 0 and all(isinstance(c, int) and c for c in p.nums.values())
            and math.gcd(p.den, *p.nums.values()) == 1)


def same(new, old) -> bool:
    """Equal JSON, which includes the variable tuple and every coefficient,
    from a canonical representation."""
    return (canonical(new.num if isinstance(new, RatFunc) else new)
            and new.to_json() == old.to_json())


@given(poly_pairs(), poly_pairs(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_the_fraction_kernel(p, q, n):
    (p1, p0), (q1, q0) = p, q
    assert same(p1, p0) and p1.text() == p0.text()
    assert same(p1 + q1, p0 + q0)
    assert same(p1 - q1, p0 - q0)
    assert same(p1 * q1, p0 * q0)
    assert same(p1 ** n, p0 ** n)
    assert same(-p1, -p0)
    assert same(3 - p1, 3 - p0)
    assert same(p1 * Fraction(-2, 3), p0 * Fraction(-2, 3))
    assert (p1 == q1) == (p0 == q0)
    assert p1.degree() == p0.degree()
    assert same(p1.truncate_total_degree(2), p0.truncate_total_degree(2))


@given(poly_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_queries_and_substitution_match_the_fraction_kernel(p, data):
    p1, p0 = p
    for v in DIFF_VARS + ("Y",):
        assert same(p1.derivative(v), p0.derivative(v))
        u1, u0 = p1.as_univariate(v), p0.as_univariate(v)
        assert list(u1) == list(u0)
        assert all(same(u1[k], u0[k]) for k in u1)
        assert p1.degree(v) == p0.degree(v)
    point = {v: data.draw(fracs) for v in DIFF_VARS}
    assert p1.eval(point) == p0.eval(point)


@given(poly_pairs(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_divisions_match_the_fraction_kernel(p, i, j):
    p1, p0 = p
    b1, b0 = RatPoly.var(BETA), ref.RatPoly.var(BETA)
    # divisible by construction when i or j is positive
    m1 = p1 * b1 ** i * (1 - b1) ** j
    m0 = p0 * b0 ** i * (1 - b0) ** j
    for x1, x0 in ((p1, p0), (m1, m0)):
        for new, old in ((divide_out(x1, 0), ref.divide_out_beta(x0)),
                         (divide_out(x1, 1), ref.divide_out_one_minus_beta(x0))):
            assert (new is None) == (old is None)
            assert new is None or same(new, old)


@given(poly_pairs(), poly_pairs(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_ratfunc_arithmetic_matches_the_fraction_kernel(p, q, b, f):
    (p1, p0), (q1, q0) = p, q
    f1, f0 = RatFunc(p1, b), ref.RatFunc(p0, 0, b)
    g1, g0 = RatFunc(q1, f), ref.RatFunc(q0, 0, f)
    assert same(f1, f0) and f1.text() == f0.text()
    assert same(f1 + g1, f0 + g0)
    assert same(f1 - g1, f0 - g0)
    assert same(f1 * g1, f0 * g0)
    assert (f1 == g1) == (f0 == g0)


wide_fracs = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9)


@given(poly_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_matches_the_fraction_kernel(p, data):
    """One common denominator gives the Fraction kernel's value, for int and
    Fraction values, zero among them; a missing variable raises in both."""
    p1, p0 = p
    point = {v: data.draw(st.one_of(st.integers(-5, 5), wide_fracs)) for v in DIFF_VARS}
    assert p1.eval(point) == p0.eval(point)
    b = data.draw(wide_fracs.filter(lambda x: x not in (0, 1)))
    point[BETA] = b
    c = data.draw(st.integers(0, 3))
    assert RatFunc(p1, c).eval(point) == ref.RatFunc(p0, 0, c).eval(point)
    gone = data.draw(st.sampled_from(DIFF_VARS))
    del point[gone]
    if p0.degree(gone) > 0:
        for q in (p1, p0):
            with pytest.raises(ValueError, match="missing values"):
                q.eval(point)
    else:
        assert p1.eval(point) == p0.eval(point)


def test_eval_reduces_factors_shared_with_den_and_the_value_denominators():
    """eval divides the value's gcd out by gcds with den and each q_v alone;
    numerators built from the primes of den and of the q_v make that gcd
    large, and the result must still be the reduced Fraction."""
    rng = random.Random(11)
    primes = (2, 3, 5, 7)

    def smooth(top):
        return math.prod(rng.choice(primes) for _ in range(rng.randint(0, top)))

    for _ in range(400):
        den = smooth(6)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            terms[e] = Fraction(rng.choice((-1, 1)) * smooth(8) * rng.randint(1, 3), den)
        p = RatPoly(("beta", "d"), terms)
        point = {v: Fraction(rng.randint(-40, 40) * smooth(3), smooth(5) * rng.randint(1, 4))
                 for v in ("beta", "d")}
        got = p.eval(point)
        want = sum((c * point["beta"] ** e[0] * point["d"] ** e[1]
                    for e, c in terms.items()), Fraction(0))
        assert got == want
        assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0


INTERP_VARS = ("X", "beta")


@st.composite
def interpolation_cases(draw):
    """Sample points of a random polynomial of d-degree <= degree_bound in
    0-2 further variables, on distinct integer grid points with a negative
    one among them, as (new points, reference points, degree_bound).  Each
    value is given over the same variables, sometimes with an unused extra
    one, and a constant over no variables sometimes as a plain Fraction."""
    degree_bound = draw(st.integers(0, 4))
    vs = tuple(v for v in INTERP_VARS if draw(st.booleans()))
    target = {}
    for _ in range(draw(st.integers(0, 5))):
        e = tuple(draw(st.integers(0, 2)) for _ in vs)
        k = draw(st.integers(0, degree_bound))
        target[e, k] = target.get((e, k), 0) + draw(fracs)
    xs = draw(st.lists(st.integers(-6, 12), min_size=degree_bound + 2,
                       max_size=degree_bound + 4, unique=True))
    if min(xs) >= 0:
        xs[draw(st.integers(0, len(xs) - 1))] = -7
    extra = draw(st.booleans())
    new, old = [], []
    for x in xs:
        terms = {}
        for (e, k), c in target.items():
            terms[e] = terms.get(e, 0) + c * x ** k
        if not vs and not extra and draw(st.booleans()):
            value = terms.get((), Fraction(0))
            new.append((x, value))
            old.append((x, value))
            continue
        pvs, pterms = vs, terms
        if extra:
            pvs = tuple(sorted(vs + ("B1",)))
            at = pvs.index("B1")
            pterms = {e[:at] + (0,) + e[at:]: c for e, c in terms.items()}
        new.append((x, RatPoly(pvs, pterms)))
        old.append((x, ref.RatPoly(pvs, pterms)))
    return new, old, degree_bound


@given(interpolation_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_interpolation_matches_the_fraction_kernel(case, data):
    """The integer fit prints the reference fit's JSON, variables included;
    an inconsistent spare point raises InterpolationError in both."""
    new, old, bound = case
    got = interpolate_poly(new, bound)
    want = ref.interpolate_poly(old, bound)
    assert canonical(got) and got.to_json() == want.to_json()
    spare = data.draw(st.integers(bound + 1, len(new) - 1))
    bump = data.draw(fracs.filter(bool))
    x, v = new[spare]
    new[spare] = (x, v + bump)
    x, v = old[spare]
    old[spare] = (x, v + bump)
    with pytest.raises(InterpolationError) as err_new:
        interpolate_poly(new, bound)
    with pytest.raises(InterpolationError) as err_old:
        ref.interpolate_poly(old, bound)
    assert str(err_new.value) == str(err_old.value)


def test_interpolation_refuses_values_in_the_interpolation_variable():
    pts = [(1, d_var + 1), (2, RatPoly.const(3)), (3, RatPoly.const(4))]
    with pytest.raises(ValueError, match="interpolation variable"):
        interpolate_poly(pts, degree_bound=1)
    with pytest.raises(TypeError):
        interpolate_poly([(1, 1.0), (2, 2), (3, 3)], degree_bound=1)
    with pytest.raises(ValueError, match="distinct"):
        interpolate_poly([(1, 1), (1, 2), (3, 3)], degree_bound=1)


SERIES_VARS = ("beta", "d")


@st.composite
def series_pairs(draw, constant_term: bool):
    """The same random series in both kernels, order 1-4, each coefficient a
    random polynomial in a subset of SERIES_VARS over (1-beta)^b (the
    reference's beta^a at a = 0); its Y^0 coefficient is zero unless
    constant_term."""
    order = draw(st.integers(1, 4))
    new, old = [], []
    for j in range(order):
        vs = tuple(v for v in SERIES_VARS if draw(st.booleans()))
        terms = {}
        if j or constant_term:
            for _ in range(draw(st.integers(0, 3))):
                e = tuple(draw(st.integers(0, 2)) for _ in vs)
                terms[e] = terms.get(e, 0) + draw(fracs)
        b = draw(st.integers(0, 2))
        new.append(RatFunc(RatPoly(vs, terms), b))
        old.append(ref.RatFunc(ref.RatPoly(vs, terms), 0, b))
    return (TruncSeries.from_coeffs(new, order),
            ref.TruncSeries.from_coeffs(old, order))


def same_series(new: TruncSeries, old) -> bool:
    """Equal coefficient by coefficient, each from a canonical numerator:
    the new kernel skips the powers x^k, k >= order, of a series x with no
    constant term, so only the values, not the variable tuples, must agree
    with the reference, which adds their zero terms too."""
    return new.order == old.order and all(
        canonical(c.num) and ref.RatFunc.from_json(c.to_json()) == c0
        for c, c0 in zip(new.coeffs, old.coeffs))


@given(poly_pairs(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_expansions_match_the_fraction_kernel(p, constant_term, data):
    """poly_on_series, neg_binomial_expand and log_ratio_expand against the
    reference, whose loops have no truncation rule: a series with a
    constant term keeps every power of x, and degrees r and t - 1 at or past
    the series order reach the powers that are skipped.  log_ratio_expand
    reads beta * x, which beta divides."""
    (p1, p0), var = p, data.draw(st.sampled_from(("X", "B1")))
    x1, x0 = data.draw(series_pairs(constant_term))
    bx1, bx0 = x1 * beta, x0 * ref.RatPoly.var(BETA)
    assert same_series(poly_on_series(p1, var, x1), ref.poly_on_series(p0, var, x0))
    k1, k0 = data.draw(poly_pairs())
    r = data.draw(st.integers(0, x1.order + 2))
    t = data.draw(st.integers(1, x1.order + 2))
    if constant_term and not x1.coefficient(0).is_zero():
        for new, old in ((lambda: neg_binomial_expand(k1, x1, r),
                          lambda: ref.neg_binomial_expand(k0, x0, r)),
                         (lambda: log_ratio_expand(bx1, t),
                          lambda: ref.log_ratio_expand(bx0, t))):
            for expand in (new, old):
                with pytest.raises(ValueError, match="no constant term"):
                    expand()
        return
    assert same_series(neg_binomial_expand(k1, x1, r),
                       ref.neg_binomial_expand(k0, x0, r))
    assert same_series(log_ratio_expand(bx1, t), ref.log_ratio_expand(bx0, t))
