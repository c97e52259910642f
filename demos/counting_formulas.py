"""High-precision counting formulas, checked against exact small cases.

The series machinery turns the stratum sums into closed-form coefficient
polynomials (R_j in lam and d, then B_j and P_j in beta and d), which in
turn drive two estimators: the log of the full partition function and the
log of the number of independent sets of a fixed size. Both are compared
here against the exact d = 5 oracle, then pushed to dimensions where no
oracle exists.
"""

import math
import warnings
from fractions import Fraction

from cubecount import asymptotics, exact
from cubecount.errors import RegimeWarning


def main() -> None:
    warnings.simplefilter("ignore", RegimeWarning)

    print("coefficient polynomials")
    print("=" * 66)
    for j in (1, 2, 3):
        print(f"R_{j} = {asymptotics.R_poly(j).text()}")
    b = asymptotics.compute_B(1)
    print(f"B_1 = {b[1].text()}")
    p = asymptotics.compute_P(2)
    for j in (1, 2):
        print(f"P_{j} = {p[j].text()}")
    print()

    print("fugacity tuned to a target density (beta = 1/4, t = 4)")
    print("=" * 66)
    for d in (8, 12, 16):
        lb = asymptotics.lambda_beta(Fraction(1, 4), d, 4)
        print(f"d={d:2d}  lambda = {float(lb.value):.10f}"
              f"  (base {float(Fraction(1, 3)):.10f}, "
              f"{len(lb.terms)} correction)")
    print()

    print("log Z at lam = 1 versus the exact d = 5 value")
    print("=" * 66)
    target = math.log(exact.size_profile(5).partition_value(Fraction(1)))
    print(f"exact: ln Z = {target:.10f}")
    for t in (1, 2, 3):
        ln_z = float(asymptotics.log_Z_asymptotic(Fraction(1), 5, t).to_json()["ln_value"])
        print(f"t={t}: {ln_z:.10f}  err={abs(ln_z - target):.2e}")
    print()

    print("log of the number of half-density independent sets")
    print("=" * 66)
    sp = exact.size_profile(5)
    m = 8
    target = math.log(sp.counts[m])
    lc = asymptotics.log_count_asymptotic(Fraction(1, 2), 5, 2)
    print(f"d=5:  exact ln i_{m} = {target:.6f}  "
          f"formula: {float(lc.to_json()['ln_value']):.6f}")
    for d in (16, 20, 24):
        lc = asymptotics.log_count_asymptotic(Fraction(1, 2), d, 2)
        print(f"d={d}: log10 i_(N/2) = {lc.to_json()['log10_value']}")
    print()

    print("structured counts: pinning the commonest defect type to zero")
    print("=" * 66)
    from cubecount.polymers import DefectType
    free = asymptotics.log_count_asymptotic(Fraction(1, 4), 12, 2)
    pinned = asymptotics.structured_count(
        Fraction(1, 4), 12, fixed_types={DefectType.from_key("s1c0g0"): 0})
    print(f"unrestricted: ln count = {float(free.to_json()['ln_value']):.4f}")
    print(f"no singleton defects: ln count = {float(pinned.to_json()['ln_value']):.4f}")


if __name__ == "__main__":
    main()
