"""Two gradings of the defect expansion, compared against exact values.

log Xi admits a cluster expansion whose terms can be grouped two ways:
by total defect size (strata, which produce the R_j coefficient
polynomials) or by the number of polymers in the cluster. Both partial
sums converge to the same limit; only the second is monotone enough that
the first omitted term bounds the error in the regimes shown here.
"""

import math
from fractions import Fraction

from cubecount import clusters, exact


def main() -> None:
    d, lam = 4, Fraction(1, 20)
    target = math.log(float(exact.odd_model_exact(d).xi_value(lam)))
    print(f"d={d}, lam={lam}: exact log Xi = {target:.12f}")
    print()

    print("grading by total defect size (strata)")
    print("=" * 56)
    running = Fraction(0)
    for k in range(1, 7):
        s = clusters.cluster_sum(d, k).value(lam)
        running += s
        err = abs(float(running) - target)
        print(f"  k={k}  stratum={float(s):+.6e}  "
              f"partial={float(running):.9f}  err={err:.3e}")
    print()

    print("grading by polymer count")
    print("=" * 56)
    series = clusters.log_xi_series(d, lam, 6)
    running = Fraction(0)
    for n, term in enumerate(series, start=1):
        running += term
        err = abs(float(running) - target)
        print(f"  n={n}  term={float(term):+.6e}  "
              f"partial={float(running):.9f}  err={err:.3e}")
    print()

    print("the count grading keeps err below the next term:")
    partial = Fraction(0)
    for n in range(1, 6):
        partial += series[n - 1]
        err = abs(float(partial) - target)
        nxt = abs(float(series[n]))
        marker = "ok" if err < nxt else "NO"
        print(f"  n={n}: err {err:.3e} < |term {n+1}| {nxt:.3e}  [{marker}]")
    print()

    print("observables through the same machinery")
    print("=" * 56)
    for k in (1, 2, 3):
        est = clusters.expected_size_truncated(d, lam, k)
        print(f"  E|I| truncated at stratum {k}: {float(est):.6f}")


if __name__ == "__main__":
    main()
