"""Exact independent-set counts in small hypercubes.

Prints the full size profile i_m(Q_d) for d = 1..6, the totals, and a few
derived quantities at unit fugacity. The profiles come from splitting Q_d as
C_4 x Q_{d-2}; everything up to d = 4 is double-checked against direct subset
enumeration.
"""

from fractions import Fraction

from cubecount import exact


def main() -> None:
    print("size profiles i_m(Q_d)")
    print("=" * 60)
    for d in range(1, 7):
        sp = exact.size_profile(d)
        if d <= 4:
            assert sp.counts == exact.size_profile_exhaustive(d).counts
        print(f"d={d}  total={sp.total}")
        for m, c in enumerate(sp.counts):
            if c:
                print(f"    m={m:2d}  {c}")

    print()
    print("hardcore model at lam = 1 (uniform measure on independent sets)")
    print("=" * 60)
    for d in range(2, 6):
        sp = exact.size_profile(d)
        z, mean = sp.partition_value(Fraction(1)), sp.mean_size(Fraction(1))
        n = 1 << d
        print(f"d={d}  Z={z}  E|I|={mean} = {float(mean):.4f}"
              f"  density={float(mean / n):.4f}")

    print()
    print("restricted one-sided model on Q_3, exact polynomial in lam")
    print("=" * 60)
    om = exact.odd_model_exact(3)
    print(f"Z coefficients: {om.z_poly}")
    print(f"Xi terms (lam^m (1+lam)^-n, count): {om.xi_terms}")
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        z = sum(c * lam ** m for m, c in enumerate(om.z_poly))
        print(f"  lam={lam}: Xi={om.xi_value(lam)}  Z={z}")


if __name__ == "__main__":
    main()
