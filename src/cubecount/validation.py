"""Acceptance suite: eleven independent checks of the whole stack.

Each criterion is a pure function returning a list of failure messages
(empty means pass).  The CLI `validate` subcommand and the test suite both
drive the same registry, so there is exactly one definition of "correct".

Everything here is deterministic: fixed seeds, exact rationals, and
closed-form reference values derived by hand or by an independent method.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

from . import asymptotics, clusters, exact, polymers, sampler
from . import hypercube as hc
from .asymptotics import DIM, LAM
from .certified import decimal_contexts, nstr
from .chisq import chdtrc
from .symbolic import BETA, RatFunc, RatPoly


# -- criterion bodies -------------------------------------------------------------

_, _, _NEAR = decimal_contexts(50)  # the reference logs, to 50 digits


def _decimal(x: Fraction) -> Decimal:
    return _NEAR.divide(x.numerator, x.denominator)


def _ln(x: Fraction) -> Decimal:
    return _NEAR.ln(_decimal(x))


def _direct_census_ratios(d: int, max_size: int) -> dict[str, Fraction]:
    """The cross-check for census and symbolic_census: n_T(d)/n_side per type
    key, from the rooted supports enumerated and classified at d itself."""
    rooted = Counter(polymers.classify(s, d)
                     for s in polymers.rooted_polymer_supports(d, max_size))
    return {t.key: Fraction(r, t.size) for t, r in rooted.items()}


def _check_symbolic_closed_forms() -> list[str]:
    fails: list[str] = []
    lam = RatPoly.var(LAM)
    d = RatPoly.var(DIM)
    beta = RatPoly.var(BETA)
    one = RatPoly.const(1)

    r1 = asymptotics.R_poly(1)
    if r1 != lam:
        fails.append(f"R_1 is {r1.text()}, expected lam")

    expect_r2 = ((RatPoly.const(2) * lam ** 3 + lam ** 4) * d * (d - one)
                 - RatPoly.const(2) * lam ** 2) * Fraction(1, 4)
    r2 = asymptotics.R_poly(2)
    if r2 != expect_r2:
        fails.append(f"R_2 is {r2.text()}, expected {expect_r2.text()}")

    # census and the closed-form census, both rescaled from one base-dimension
    # enumeration, against supports enumerated at every grid dimension itself
    sym = polymers.symbolic_census(3)
    for dim in sym.grid:
        direct = _direct_census_ratios(dim, 3)
        closed = {t.key: p.eval({DIM: Fraction(dim)}) for t, p in sym.entries}
        if closed != direct:
            fails.append(f"symbolic_census(3) differs from the direct count at d = {dim}")
        cen = {e.type.key: Fraction(e.count, hc.n_side(dim))
               for e in polymers.census(dim, 3).entries}
        if cen != direct:
            fails.append(f"census({dim}, 3) differs from the direct count")

    b1 = asymptotics.compute_B(1)[1]
    expect_b1 = RatFunc(beta * (d * beta - one), 0, 3)
    if b1 != expect_b1:
        fails.append(f"B_1 is {b1.text()}, expected {expect_b1.text()}")

    p = asymptotics.compute_P(2)
    expect_p1 = RatFunc(beta, 0, 1)
    if p[1] != expect_p1:
        fails.append(f"P_1 is {p[1].text()}, expected beta/(1-beta)")

    # (d(d-1)(2-beta) beta^3 - 2 (1-beta)^2 beta^2) / (4 (1-beta)^4)
    #   - beta (1 - d beta)^2 / (2 (1-beta)^3)
    num = (d * (d - one) * (RatPoly.const(2) - beta) * beta ** 3
           - RatPoly.const(2) * (one - beta) ** 2 * beta ** 2) * Fraction(1, 4) \
        - beta * (one - d * beta) ** 2 * (one - beta) * Fraction(1, 2)
    expect_p2 = RatFunc(num, 0, 4)
    if p[2] != expect_p2:
        fails.append(f"P_2 is {p[2].text()}, expected {expect_p2.text()}")
    return fails


def _check_ursell_equivalence() -> list[str]:
    fails: list[str] = []
    if clusters.ursell(2, [(0, 1)]) != Fraction(-1, 2):
        fails.append("phi(K_2) != -1/2")
    if clusters.ursell(3, [(0, 1), (0, 2), (1, 2)]) != Fraction(1, 3):
        fails.append("phi(K_3) != 1/3")
    if clusters.ursell(2, []) != 0:
        fails.append("phi(disconnected) != 0")

    for n in range(1, 6):
        all_pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            edges = tuple(e for i, e in enumerate(all_pairs) if bits >> i & 1)
            a = clusters.ursell(n, edges)
            b = clusters.ursell_recursive(n, edges)
            if a != b:
                fails.append(f"n={n} edges={edges}: sum {a} vs recursive {b}")
                return fails
    return fails


def _check_exact_oracle() -> list[str]:
    fails: list[str] = []
    for d in (2, 3, 4):
        p = exact.size_profile(d)
        q = exact.size_profile_exhaustive(d)
        if p.counts != q.counts:
            fails.append(f"d={d}: transfer profile {p.counts} vs subsets {q.counts}")
    # totals from OEIS A027624; d = 5 and 6 are the largest packed products
    for d, total in ((2, 7), (3, 35), (5, 254475), (6, 19768832143)):
        if exact.size_profile(d).total != total:
            fails.append(f"total count at d={d} is not {total}")

    profile = exact.size_profile(4)
    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        z = profile.partition_value(lam)
        dist = profile.size_distribution(lam)
        for m, (count, p_m) in enumerate(zip(profile.counts, dist)):
            recovered = z / lam ** m * p_m
            if recovered != count:
                fails.append(f"lam={lam} m={m}: Z/lam^m * P(|I|=m) = "
                             f"{recovered}, counts say {count}")
    return fails


def _check_polymer_partition() -> list[str]:
    fails: list[str] = []
    om = exact.odd_model_exact(3)
    if om.xi_terms != (((0, 0), 1), ((1, 3), 4)):
        fails.append(f"one-sided partition terms {om.xi_terms}, "
                     "expected 1 + 4 lam (1+lam)^-3")
    if om.z_poly != (1, 8, 10, 4, 1):
        fails.append(f"z_poly {om.z_poly}, expected (1+lam)^4 + 4 lam (1+lam)")
    if om.xi_value(Fraction(1)) != Fraction(3, 2):
        fails.append("xi(1) != 3/2")
    found = polymers.enumerate_polymers(3, 3)
    if len(found) != 4:
        fails.append(f"enumerate_polymers(3, 3) found {len(found)}, expected 4")
    return fails


def _check_truncation_convergence() -> list[str]:
    fails: list[str] = []
    lam = Fraction(1, 20)
    om = exact.odd_model_exact(4)
    series = clusters.log_xi_series(4, lam, 5)
    ln_xi = _ln(om.xi_value(lam))
    errs = []
    partial = Fraction(0)
    for k in range(1, 5):
        partial += series[k - 1]
        if partial != clusters.truncated_log_xi(4, lam, k):
            fails.append(f"k={k}: series terms and truncation disagree")
        err = abs(_NEAR.subtract(_decimal(partial), ln_xi))
        omitted = abs(_decimal(series[k]))
        if err >= omitted:
            fails.append(f"k={k}: error {nstr(err, 6)} not below "
                         f"first omitted order {nstr(omitted, 6)}")
        errs.append(err)
    for k in range(1, len(errs)):
        if not errs[k] < errs[k - 1]:
            fails.append(f"error not strictly decreasing at k={k + 1}")
    return fails


def _check_abstract_universe() -> list[str]:
    fails: list[str] = []
    weights = [RatPoly.var(f"w{i}") for i in range(3)]
    for edges in ({(0, 1), (1, 2)}, {(0, 1), (1, 2), (0, 2)}, set()):
        a = clusters.abstract_cluster_log(weights, edges, 6)
        b = clusters.abstract_log_direct(weights, edges, 6)
        if a != b:
            fails.append(f"universe with interactions {sorted(edges)}: "
                         "expansion and direct log disagree at degree 6")
    return fails


def _printed_ln(lc: asymptotics.LogCount) -> Decimal:
    """The ln_value field a command prints for lc (30 digits)."""
    return Decimal(lc.to_json()["ln_value"])


def _check_asymptotic_desk() -> list[str]:
    fails: list[str] = []
    profile = exact.size_profile(5)
    ln_z = _ln(Fraction(profile.partition_value(Fraction(1))))
    z2 = _printed_ln(asymptotics.log_Z_asymptotic(Fraction(1), 5, 2))
    z3 = _printed_ln(asymptotics.log_Z_asymptotic(Fraction(1), 5, 3))
    if not abs(_NEAR.subtract(z3, ln_z)) < abs(_NEAR.subtract(z2, ln_z)):
        fails.append(f"order 3 not closer to exact log Z: "
                     f"|{nstr(z3, 8)} - {nstr(ln_z, 8)}| vs "
                     f"order 2 {nstr(z2, 8)}")

    ln_i8 = _ln(Fraction(profile.counts[8]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c1 = _printed_ln(asymptotics.log_count_asymptotic(Fraction(1, 2), 5, 1))
        c2 = _printed_ln(asymptotics.log_count_asymptotic(Fraction(1, 2), 5, 2))
    if not abs(_NEAR.subtract(c2, ln_i8)) < abs(_NEAR.subtract(c1, ln_i8)):
        fails.append(f"order 2 count not closer to exact log i_8: "
                     f"{nstr(c2, 8)} vs order 1 {nstr(c1, 8)}, "
                     f"exact {nstr(ln_i8, 8)}")
    return fails


def _check_targeting_trend() -> list[str]:
    fails: list[str] = []
    devs = []
    for d in (10, 12, 14):
        lb = asymptotics.lambda_beta(Fraction(1, 2), d, 4).value
        n = 1 << (d - 1)
        mean = clusters.expected_size_truncated(d, lb, 2)
        devs.append(abs(float(mean - n // 2)) / math.sqrt(n))
    for i in range(1, len(devs)):
        if not devs[i] < devs[i - 1]:
            fails.append(f"deviation/sqrt(N) not decreasing: {devs}")
            break
    return fails


def _q2_stationary_pvalue(seed: int = 12345) -> float:
    """Chi-square p-value of the chain's visit counts vs the exact law at lam=1."""
    states = list(sampler.glauber_run(2, Fraction(1), steps=10 ** 6,
                                      burn_in=1000, thin=8, seed=seed))
    masks = exact.independent_set_masks(2)
    counts = {m: 0 for m in masks}
    for s in states:
        counts[s.occupancy] += 1
    n = len(states)
    expected = n / len(masks)  # lam=1: uniform over independent sets
    stat = sampler._float_sum((counts[m] - expected) ** 2 / expected for m in masks)
    return chdtrc(len(masks) - 1, stat)


# pinned sampler run: d=9, lam=1, one snapshot every 4096 steps after burn-in
_D9 = dict(d=9, steps=46080 + 4096 * 400, burn_in=46080, thin=4096, seed=7)


def _d9_summary() -> sampler.SamplerSummary:
    lam = Fraction(1)
    states = list(sampler.glauber_run(_D9["d"], lam, steps=_D9["steps"],
                                      burn_in=_D9["burn_in"], thin=_D9["thin"],
                                      seed=_D9["seed"]))
    reports = [sampler.extract_defects(s) for s in states]
    cen = polymers.census(_D9["d"], 3)
    return sampler.defect_statistics(states, reports, cen, lam)


def _check_sampler_statistics() -> list[str]:
    fails: list[str] = []
    p_q2 = _q2_stationary_pvalue()
    if not p_q2 > 0.01:
        fails.append(f"stationary chi-square p={p_q2:.4f} <= 0.01 at d=2")

    summary = _d9_summary()
    singleton = summary.per_type["s1c0g0"]
    if not abs(singleton["z"]) <= 3:
        fails.append(f"singleton mean off by {singleton['z']:.2f} null SEs")
    gof = singleton.get("poisson_gof")
    if gof is None or not gof["p"] > 0.01:
        fails.append(f"singleton Poisson GOF p={gof and gof['p']}: not > 0.01")
    ratio = singleton["var_over_mean"]
    if not 0.8 <= ratio <= 1.2:
        fails.append(f"singleton variance/mean {ratio:.3f} outside [0.8, 1.2]")

    target = float(clusters.expected_size_truncated(9, Fraction(1), 2))
    size = summary.size_stats
    z_size = (size["mean"] - target) / size["se"]
    if not abs(z_size) <= 3:
        fails.append(f"|I| mean {size['mean']:.3f} is {z_size:.2f} SEs from "
                     f"predicted {target:.3f}")
    return fails


def _lclt_errors(profile: exact.SizeProfile, lam: Fraction) \
        -> tuple[float, float, float]:
    """(sigma sup_k |P(k) - phi(k)|, the same for the Edgeworth density,
    |kappa_3| / sigma^3) for the exact law P(k) = i_k lam^k / Z of |I|.

    phi is the Gaussian density with the law's own mean and variance
    sigma^2, and the Edgeworth density phi(k) (1 + skew He_3(x) / 6), with
    x = (k - mean) / sigma and He_3(x) = x^3 - 3x, adds the law's
    skewness kappa_3 / sigma^3.
    """
    law = profile.size_distribution(lam)
    mean = sum(k * p for k, p in enumerate(law))
    var, k3 = (float(sum((k - mean) ** r * p for k, p in enumerate(law)))
               for r in (2, 3))
    sigma = math.sqrt(var)
    skew = k3 / sigma ** 3
    gauss = edgeworth = 0.0
    for k, p in enumerate(law):
        x = float(k - mean) / sigma
        phi = math.exp(-x * x / 2) / (sigma * math.sqrt(2 * math.pi))
        gauss = max(gauss, abs(float(p) - phi))
        edgeworth = max(edgeworth,
                        abs(float(p) - phi * (1 + skew * (x ** 3 - 3 * x) / 6)))
    return sigma * gauss, sigma * edgeworth, abs(skew)


def _check_hardcore_lclt() -> list[str]:
    """The local CLT for |I| under the hard-core model at d = 6, lam = 1, 2.

    Two checks, at each lam, of the exact law against the Gaussian density
    phi of its own mean and variance:
    (i) the Edgeworth density, which adds the law's skewness, is closer to
        the law than phi;
    (ii) sigma sup_k |P(k) - phi(k)| < |kappa_3| / sigma^3.
    The local CLT's error is the leading Edgeworth term, phi skew He_3 / 6,
    and what follows it; sigma times that term peaks at 0.092 |skew|.  So
    (ii) asks that the Gaussian's error be at most about 11 times its
    leading term.  At d = 6 sigma sup|P - phi| is 0.043 at lam = 1 (0.024
    with the Edgeworth term) and 0.024 at lam = 2 (0.0019), against
    skewnesses of 0.273 and 0.240: (ii) holds 6 and 10 times over.  A law
    whose variance or mean is misread fails: (ii) with a doubled variance,
    (i) with a halved one, and (i) at lam = 2 with the mean shifted by 1/2.
    """
    fails: list[str] = []
    profile = exact.size_profile(6)
    for lam in (Fraction(1), Fraction(2)):
        gauss, edgeworth, skew = _lclt_errors(profile, lam)
        if not edgeworth < gauss:
            fails.append(f"lam={lam}: Edgeworth error {edgeworth:.4f} is not "
                         f"below the Gaussian's {gauss:.4f}")
        if not gauss < skew:
            fails.append(f"lam={lam}: sigma sup|P - phi| = {gauss:.4f} is not "
                         f"below |kappa_3|/sigma^3 = {skew:.4f}")
    return fails


def _check_reproducibility() -> list[str]:
    import pathlib
    import shutil
    import tempfile

    from . import cli

    fails: list[str] = []
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="cubecount-repro-"))
    try:
        def run(args: list[str], tag: str) -> tuple[bytes, bytes]:
            out = tmp / f"{tag}.json"
            csv = tmp / f"{tag}.csv"
            code = cli.main(args + ["--out", str(out), "--csv", str(csv)])
            if code != 0:  # and wrote no output to read
                fails.append(f"sample run exited {code}")
                return b"", b""
            return out.read_bytes(), csv.read_bytes()

        args = ["sample", "--d", "3", "--lam", "1", "--samples", "580",
                "--burn-in", "1000", "--thin", "50", "--seed", "99"]
        a_json, a_csv = run(args, "a")
        b_json, b_csv = run(args, "b")
        if a_json != b_json:
            fails.append("sample JSON differs between identical runs")
        if a_csv != b_csv:
            fails.append("sample CSV differs between identical runs")

        # chain i of `sample --chains` is the run at --seed 99 + 1000003 * i
        _, c_csv = run(args + ["--chains", "2"], "c")
        _, s_csv = run(args[:-1] + [str(99 + 1000003)], "s")
        if c_csv.splitlines()[1:] != (a_csv.splitlines()[1:]
                                      + s_csv.splitlines()[1:]):
            fails.append("sample --chains 2 rows are not those of --seed 99 "
                         "followed by those of --seed 1000102")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return fails


# -- registry and runner ----------------------------------------------------------


class Criterion(NamedTuple):
    number: int
    name: str
    fn: Callable[[], list[str]]


class CheckResult(NamedTuple):
    number: int
    name: str
    passed: bool
    seconds: float
    failures: tuple[str, ...]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "symbolic-closed-forms", _check_symbolic_closed_forms),
    Criterion(2, "ursell-equivalence", _check_ursell_equivalence),
    Criterion(3, "exact-oracle-cross-validation", _check_exact_oracle),
    Criterion(4, "polymer-partition-exactness", _check_polymer_partition),
    Criterion(5, "truncation-convergence", _check_truncation_convergence),
    Criterion(6, "abstract-universe-identity", _check_abstract_universe),
    Criterion(7, "asymptotic-desk-check", _check_asymptotic_desk),
    Criterion(8, "targeting-trend", _check_targeting_trend),
    Criterion(9, "sampler-statistics", _check_sampler_statistics),
    Criterion(10, "hardcore-lclt", _check_hardcore_lclt),
    Criterion(11, "reproducibility", _check_reproducibility),
)


def run_criterion(c: Criterion) -> CheckResult:
    start = time.perf_counter()
    try:
        failures = tuple(c.fn())
    except Exception as e:  # a crash is a failure, not an abort
        failures = (f"raised {type(e).__name__}: {e}",)
    elapsed = time.perf_counter() - start
    return CheckResult(c.number, c.name, not failures, elapsed, failures)


def run_all(numbers: list[int] | None = None,
            report=print) -> list[CheckResult]:
    results = []
    for c in CRITERIA:
        if numbers is not None and c.number not in numbers:
            continue
        r = run_criterion(c)
        results.append(r)
        status = "PASS" if r.passed else "FAIL"
        report(f"{status} {r.number:2d} {r.name} ({r.seconds:.1f}s)")
        for f in r.failures:
            report(f"        {f}")
    return results
