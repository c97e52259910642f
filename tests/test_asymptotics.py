"""Series coefficients and high-precision counting formulas."""

import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import fraction_kernel as ref
import mpmath
import pytest

from cubecount import asymptotics as asym
from cubecount import certified
from cubecount import exact as ex
from cubecount.errors import BudgetExceededError, RegimeWarning
from cubecount.polymers import DefectType, census
from cubecount.symbolic import RatFunc, RatPoly

lam = RatPoly.var("lam")
dim = RatPoly.var("d")
beta = RatPoly.var("beta")


def test_r1_is_the_bare_fugacity():
    assert asym.R_poly(1) == lam


def test_r2_closed_form():
    expect = ((2 * lam ** 3 + lam ** 4) * dim * (dim - 1) - 2 * lam ** 2) * Fraction(1, 4)
    assert asym.R_poly(2) == expect


def test_r_table_contents_and_json():
    table = asym.R_table(2)
    assert table.kind == "R"
    assert table[1] == asym.R_poly(1)
    assert table[2] == asym.R_poly(2)
    entries = table.to_json()
    assert [e["j"] for e in entries] == [1, 2]
    assert all(e["kind"] == "R" and "text" in e for e in entries)
    assert entries[1]["poly"] == asym.R_poly(2).to_json()


def test_r_polynomials_match_stratum_sums_numerically():
    # R_j evaluated at (lam, d) must reproduce the per-site stratum sum
    from cubecount import clusters as cl
    from cubecount import hypercube as hc

    d, x = 5, Fraction(1, 9)
    for j in (1, 2, 3):
        per_site = cl.stratum_value(d, j, x) / hc.n_side(d)
        # strata carry (1+lam)^{-jd}; R_j absorbs it as a polynomial identity
        assert asym.R_poly(j).eval({"lam": x, "d": Fraction(d)}) == \
            per_site * (1 + x) ** (j * d)


def test_b1_closed_form():
    table = asym.compute_B(1)
    expect = RatFunc(beta * (dim * beta - 1), opow=3)
    assert table[1] == expect


def test_compute_B_refuses_a_nonzero_residual(monkeypatch):
    """B_j is solved as if its coefficient in Q_j were (1-beta)^2; a Q_j
    whose B_j coefficient is perturbed leaves a residual, which is refused."""
    q_func = asym.Q_func
    monkeypatch.setattr(asym, "Q_func", lambda j, b=None: q_func(j, b) + (
        (b or {}).get(j, RatFunc.const(0)) * RatFunc(beta)))
    asym.compute_B.cache_clear()
    try:
        with pytest.raises(ArithmeticError,
                           match="nonzero residual after solving Q_1"):
            asym.compute_B(2)
    finally:
        asym.compute_B.cache_clear()


def test_p1_closed_form():
    table = asym.compute_P(1)
    assert table[1] == RatFunc(beta, opow=1)


def test_p2_closed_form():
    # cross-multiplied comparison keeps everything polynomial
    table = asym.compute_P(2)
    got = table[2]
    num = (dim * (dim - 1) * (2 - beta) * beta ** 3 * Fraction(1, 4)
           - (1 - beta) ** 2 * beta ** 2 * Fraction(1, 2)) * (1 - beta) ** 3 \
        - beta * (1 - dim * beta) ** 2 * Fraction(1, 2) * (1 - beta) ** 4
    expect = RatFunc(num, opow=7)
    assert got == expect


def test_lambda_beta_low_order_is_odds_ratio():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        lb = asym.lambda_beta(Fraction(1, 2), 4, 1)
    assert lb.value == 1
    assert lb.r == 0 and lb.terms == ()


def test_lambda_beta_correction_term():
    b, d = Fraction(1, 4), 12
    lb = asym.lambda_beta(b, d, 4)
    assert lb.r == 1
    base = b / (1 - b)
    corr = (b * (d * b - 1) / (1 - b) ** 3) * (1 - b) ** d
    assert lb.value == base + corr
    assert lb.terms == ((1, corr),)


def test_lambda_beta_warns_below_regime_boundary():
    with pytest.warns(RegimeWarning):
        asym.lambda_beta(Fraction(1, 10), 8, 2)


def test_lambda_beta_validates_inputs():
    with pytest.raises(ValueError):
        asym.lambda_beta(Fraction(0), 4, 2)
    with pytest.raises(ValueError):
        asym.lambda_beta(Fraction(1, 2), 4, 0)


J = asym.MAX_EXACT_J

# each public entry at an order n and a density or fugacity x, with the
# largest order it can serve from R_1 .. R_J
ORDER_LIMITS = {
    "compute_B": (lambda n, x: asym.compute_B(n), J),
    "compute_P": (lambda n, x: asym.compute_P(n), J),
    "lambda_beta": (lambda n, x: asym.lambda_beta(x, 10, n), 2 * J + 2),
    "log_Z_asymptotic": (lambda n, x: asym.log_Z_asymptotic(x, 10, n), J + 1),
    "log_count_asymptotic": (lambda n, x: asym.log_count_asymptotic(x, 10, n), J + 1),
    "structured_count": (lambda n, x: asym.structured_count(x, 10, t=n), J + 1),
}


@pytest.mark.parametrize("name", ORDER_LIMITS)
def test_entries_refuse_orders_past_the_exact_strata(name):
    call, largest = ORDER_LIMITS[name]
    assert call(largest, Fraction(1, 2)) is not None
    # x = 1/100 is below every regime boundary at these orders: the order is
    # refused before the regime warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"is past {largest}: higher orders "
                                             f"need R_j for j > {J}"):
            call(largest + 1, Fraction(1, 100))
    assert caught == []


ORDER_PROBE = """
from fractions import Fraction
from cubecount import asymptotics as asym
J, x = asym.MAX_EXACT_J, Fraction(1, 2)
for call in (lambda: asym.compute_B(J + 1), lambda: asym.compute_P(J + 1),
             lambda: asym.lambda_beta(x, 10, 2 * J + 3),
             lambda: asym.log_Z_asymptotic(x, 10, J + 2),
             lambda: asym.log_count_asymptotic(x, 10, J + 2),
             lambda: asym.structured_count(x, 10, t=J + 2)):
    try:
        call()
        print("returned")
    except Exception as e:
        print(type(e).__name__, e)
"""


def test_orders_are_refused_without_asserts():
    # the refusal is a check of its own, not _strata_series' assert
    proc = subprocess.run([sys.executable, "-O", "-c", ORDER_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("ValueError") and "higher orders need R_j" in line
               for line in lines), lines


def test_log_z_asymptotic_approaches_exact_small_d():
    target = math.log(ex.size_profile(5).partition_value(Fraction(1)))
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for t in (1, 2, 3):
            lc = asym.log_Z_asymptotic(Fraction(1), 5, t)
            errs.append(abs(float(lc.to_json()["ln_value"]) - target))
    # d = 5 sits far from the asymptotic regime; improvement is still monotone
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.1


def test_log_z_asymptotic_error_shrinks_at_d6():
    # at lam = 1 the errors are -0.8335, -0.3335, -0.1616, -0.0639 for t = 1..4
    sp = ex.size_profile(6)
    errs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for lam in (Fraction(1), Fraction(2)):
            target = mpmath.log(int(sp.partition_value(lam)))  # integer at integer lam
            errs[lam] = [float(mpmath.mpf(asym.log_Z_asymptotic(lam, 6, t).to_json()["ln_value"])
                               - target) for t in (1, 2, 3, 4)]
    for lam, e in errs.items():
        assert all(abs(a) > abs(b) for a, b in zip(e, e[1:])), (lam, e)
    assert [float(f"{e:.3g}") for e in errs[Fraction(1)]] == [
        -0.834, -0.334, -0.162, -0.0639]


def test_log_count_asymptotic_matches_exact_profile():
    # d = 5, beta = 1/2: exact ln i_8(Q_5) vs the order-2 formula
    sp = ex.size_profile(5)
    target = math.log(sp.counts[8])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        lc = asym.log_count_asymptotic(Fraction(1, 2), 5, 2)
    obj = lc.to_json()
    assert set(obj) >= {"log10_value", "ln_value", "precision", "terms", "alt_ln_value"}
    assert abs(float(obj["ln_value"]) - target) < 0.05
    # the secondary evaluation path agrees to the order's own accuracy
    assert abs(float(obj["alt_ln_value"]) - target) < 0.05


def test_log_count_builds_no_large_factorial_at_benchmark_sizes(monkeypatch):
    # the Stirling enclosure decides ln C(N, m) for `count` at d = 23 and 24;
    # an exact x! serves only below `_EXACT_BELOW`
    factorial = math.factorial

    def small_factorial(x):
        assert x < certified._EXACT_BELOW, f"built {x}!"
        return factorial(x)

    monkeypatch.setattr(math, "factorial", small_factorial)
    for beta, d in ((Fraction(1, 2), 24), (Fraction(1, 3), 23)):
        lc = asym.log_count_asymptotic(beta, d, 3)
        assert float(lc.to_json()["ln_value"]) > 0


class LengthGuard:
    """A decimal context that fails on an operand far longer than its
    precision: more than 8 prec bits, where the kit passes at most 4."""

    def __init__(self, context):
        self.context = context

    def __getattr__(self, name):
        method = getattr(self.context, name)
        limit = 8 * self.context.prec

        def checked(*operands):
            for x in operands:
                bits = (x.bit_length() if isinstance(x, int)
                        else len(x.as_tuple().digits) * math.log2(10))
                assert bits <= limit, f"{name} got a {bits:.0f}-bit operand"
            return method(*operands)
        return checked


def test_no_long_operand_reaches_the_decimal_kit(monkeypatch):
    # converting a long int to Decimal is quadratic in its length: the
    # strata N R_j(lam, d) (1+lam)^(-jd) of `count --beta 1/3 --d 23 --t 3`
    # were Fractions of 23,277 and 11,646 bits, divided in decimal
    contexts = certified.decimal_contexts
    monkeypatch.setattr(certified, "decimal_contexts",
                        lambda digits: tuple(map(LengthGuard, contexts(digits))))
    for lc in (asym.log_count_asymptotic(Fraction(1, 2), 24, 3),
               asym.log_count_asymptotic(Fraction(1, 3), 23, 3),
               asym.log_Z_asymptotic(Fraction(1), 24, 3)):
        lc.to_json()


def test_structured_count_splits_off_fixed_types():
    # pinning zero defects of every size-1..3 type must stay below the
    # unrestricted count; both are finite and positive
    b, d = Fraction(1, 4), 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        free = asym.log_count_asymptotic(b, d, 2)
        pinned = asym.structured_count(b, d, fixed_types={DefectType.from_key("s1c0g0"): 0},
                                       diverging_types={}, t=2)
    pinned, free = (float(lc.to_json()["ln_value"]) for lc in (pinned, free))
    assert pinned < free
    assert pinned > 0


def test_structured_count_rejects_absent_type_and_honours_budget():
    b = Fraction(1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        with pytest.raises(ValueError, match="does not occur"):
            asym.structured_count(b, 8, fixed_types={DefectType.from_key("s1c5g0"): 1})
        with pytest.raises(BudgetExceededError):
            asym.structured_count(b, 12, fixed_types={DefectType.from_key("s5c0g0"): 1},
                                  budget=1000)


def test_structured_count_takes_large_fixed_counts_quickly():
    # ln k! came from k! itself, and math.factorial(10**6) alone takes seconds
    s1 = DefectType.from_key("s1c0g0")
    k = 2 ** 22
    start = time.perf_counter()
    lc = asym.structured_count(Fraction(1, 2), 24, fixed_types={s1: k})
    terms = {term["label"]: term["ln"] for term in lc.to_json()["terms"]}
    assert time.perf_counter() - start < 10
    # the term is k ln(rho) - rho - ln k!, with ln k! from Stirling's series
    # (the first omitted term is below 1/(1680 k^7) < 10^-49); it prints
    # correctly rounded at 30 digits, and its interval in the kit at 80
    # digits holds it to 10^-40
    lb = asym.lambda_beta(Fraction(1, 2), 24, 2).value
    rho = census(24, 1).expected_type_count("s1c0g0", lb)
    _, kit_terms, _ = lc._formula(certified.DecimalNumbers(80))
    poisson = dict(kit_terms)[f"poisson[s1c0g0]@{k}"]
    with mpmath.workdps(80):
        rho = mpmath.mpf(rho.numerator) / rho.denominator
        log_k_factorial = (k * mpmath.log(k) - k + mpmath.log(2 * mpmath.pi * k) / 2
                           + mpmath.mpf(1) / (12 * k) - mpmath.mpf(1) / (360 * k ** 3)
                           + mpmath.mpf(1) / (1260 * k ** 5))
        expected = k * mpmath.log(rho) - rho - log_k_factorial
        for end in (poisson.lo, poisson.hi):
            assert abs(mpmath.mpf(str(end)) - expected) < mpmath.mpf(10) ** -40
        assert terms[f"poisson[s1c0g0]@{k}"] == mpmath.nstr(expected, 30)
    # one more defect than half the side can hold is refused
    with pytest.raises(ValueError, match="more than half"):
        asym.structured_count(Fraction(1, 2), 24, fixed_types={s1: k + 1})


@pytest.mark.parametrize("j", range(1, asym.MAX_EXACT_J + 1))
@pytest.mark.parametrize("size", [False, True])
def test_beta_x_coefficient_keeps_the_read_powers_of_X(j, size):
    """(1-beta)^c * R_j (or F_j) at lam = (beta+X)/(1-beta), expanded in
    full, agrees with _beta_x_coefficient on every term of X-degree
    <= MAX_EXACT_J - j, and those are all the terms it has."""
    p = asym.R_poly(j)
    lam = RatPoly.var("lam")
    if size:
        p = lam * ((lam + 1) * p.derivative("lam") - RatPoly.var("d") * j * p)
    c = p.degree("lam")
    bx = RatPoly.var("beta") + RatPoly.var("X")
    omb = 1 - RatPoly.var("beta")
    full = RatPoly.const(0)
    for i, coef in p.as_univariate("lam").items():
        full = full + coef * bx ** i * omb ** (c - i)
    top = asym.MAX_EXACT_J - j
    assert full.vars == ("X", "beta", "d")
    kept = RatPoly(full.vars, {e: v for e, v in full.terms.items() if e[0] <= top})
    assert full.degree("X") > top or j == 1  # R_1 and F_1 have lam-degree <= 2
    got, got_c = asym._beta_x_coefficient(j, size)
    assert got_c == c
    assert got.to_json() == kept.to_json()


def test_caches_cleared_results_stable():
    before = asym.R_poly(2)
    asym.clear_caches()
    assert asym.R_poly(2) == before


def test_B_and_P_tables_match_the_fraction_kernel(monkeypatch):
    """compute_B(3) and compute_P(3) solved again in tests/fraction_kernel.py,
    from the same R_1..R_3, print the same JSON."""
    b_table = asym.compute_B(3).to_json()
    p_table = asym.compute_P(3).to_json()
    r_old = {j: ref.RatPoly.from_json(asym.R_poly(j).to_json()) for j in (1, 2, 3)}
    for name in ("RatFunc", "RatPoly", "TruncSeries", "poly_on_series",
                 "neg_binomial_expand", "log_ratio_expand"):
        monkeypatch.setattr(asym, name, getattr(ref, name))
    monkeypatch.setattr(asym, "R_poly", lambda j, budget=None: r_old[j])
    cached = (asym._beta_x_coefficient, asym.compute_B)
    for fn in cached:
        fn.cache_clear()
    try:
        b_ref = asym.compute_B(3)
        assert isinstance(b_ref[3], ref.RatFunc)
        assert b_ref.to_json() == b_table
        assert asym.compute_P(3).to_json() == p_table
    finally:
        for fn in cached:
            fn.cache_clear()
