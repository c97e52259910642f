"""Defect enumeration: what lives on one side of the cube.

Walks the polymer universe of Q_4 and Q_5, groups defects by isomorphism
type, and shows how the per-type counts extend to all dimensions at once
from one enumeration at a dimension where closure never binds.
"""

from collections import Counter
from fractions import Fraction

from cubecount import hypercube as hc
from cubecount import polymers as pm


def main() -> None:
    print("polymer universe of Q_4 (connected odd sets, closure <= N/2)")
    print("=" * 64)
    polys = pm.enumerate_polymers(4, 8)
    hist = Counter(p.size for p in polys)
    print(f"total polymers: {len(polys)}")
    for size in sorted(hist):
        print(f"  size {size}: {hist[size]}")
    print()

    smallest = polys[0]
    lam = Fraction(1, 20)
    print(f"example: support={smallest.support}  |N(S)|={smallest.nbhd_size}"
          f"  type={smallest.type.key}")
    print(f"  weight at lam={lam}: {smallest.weight(lam)}"
          f" = {float(smallest.weight(lam)):.6f}")
    print()

    print("census by type, d = 4 and d = 5, defect size <= 3")
    print("=" * 64)
    for d in (4, 5):
        cen = pm.census(d, 3)
        row = "  ".join(f"{e.type.key}:{e.count}" for e in cen.entries)
        print(f"d={d}  {row}")
    print()

    print("type counts as polynomials in d (n_T / n_side)")
    print("=" * 64)
    sym = pm.symbolic_census(3)
    for t, poly in sym.entries:
        print(f"{t.key:>10}  {poly.text()}")
    # spot check: the polynomials reproduce the direct census at d = 6
    cen6 = pm.census(6, 3).by_key()
    for t, poly in sym.entries:
        predicted = poly.eval({"d": Fraction(6)}) * hc.n_side(6)
        assert predicted == cen6[t.key].count
    print("(verified against the direct census at d = 6)")


if __name__ == "__main__":
    main()
