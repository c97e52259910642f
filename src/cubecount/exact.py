"""Brute-force exact oracles for small hypercubes.

Everything in this module is exact big-integer / big-rational arithmetic; no
floating point.  These routines anchor the rest of the package: the scalable
enumeration and series code is validated against them.

The size profile i_m(Q_d) (number of independent sets of each size m) is
computed by splitting Q_d as C_4 x Q_{d-2}: an independent set of Q_d is four
independent sets of Q_{d-2}, one per column of the 4-cycle, with cyclically
adjacent columns disjoint.  Iterating the pairs (I1, I3) of the two
non-adjacent columns and counting each of the other two columns by a memoized
vertex-branching recursion on Q_{d-2}, with every polynomial packed into one
int, gives every d <= 6 in under 0.2 s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import hypercube as hc

ORACLE_MAX_DIM = 6


class SizeProfile(NamedTuple):
    """Exact counts i_m(Q_d), index m = set size."""

    d: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def _terms(self, lam: Fraction) -> tuple[list[int], int]:
        """The integers i_m p^m q^(M-m) and q^M, for lam = p/q in lowest
        terms and M the largest size: Z(lam) is their sum over q^M, so each
        quantity below is one Fraction, reduced by one gcd."""
        lam = Fraction(lam)
        p, q = lam.numerator, lam.denominator
        q_pows = [1]
        for _ in self.counts[1:]:
            q_pows.append(q_pows[-1] * q)
        terms = []
        p_pow = 1
        for c, q_pow in zip(self.counts, reversed(q_pows)):
            terms.append(c * p_pow * q_pow)
            p_pow *= p
        return terms, q_pows[-1]

    def partition_value(self, lam: Fraction) -> Fraction:
        """Z(lam) = sum_m i_m lam^m."""
        terms, scale = self._terms(lam)
        return Fraction(sum(terms), scale)

    def mean_size(self, lam: Fraction) -> Fraction:
        terms, _ = self._terms(lam)
        return Fraction(sum(m * t for m, t in enumerate(terms)), sum(terms))

    def size_distribution(self, lam: Fraction) -> tuple[Fraction, ...]:
        terms, _ = self._terms(lam)
        total = sum(terms)
        return tuple(Fraction(t, total) for t in terms)

    def to_json(self) -> dict:
        return {"d": self.d, "counts": [str(c) for c in self.counts]}


def _neighbor_masks(d: int) -> list[int]:
    """hc.neighbor_masks, also for the one-vertex Q_0 that size_profile(2) needs."""
    if d == 0:
        return [0]
    return hc.neighbor_masks(d)


def independent_set_masks(d: int) -> list[int]:
    """All independent sets of Q_d as occupancy bitmasks, ascending."""
    nbrs = _neighbor_masks(d)
    sets = [0]
    for v in range(1 << d):
        bit = 1 << v
        nb = nbrs[v]
        sets += [s | bit for s in sets if not (s & nb)]
    return sorted(sets)


class _IndependencePolyCounter:
    """Counts independent sets by size on an induced subgraph of Q_d.

    State is the bitmask of still-available vertices; branching on the lowest
    available vertex v gives I(G) = I(G - v) + x * I(G - N[v]).  Each
    polynomial is one int holding coefficient k in bits [k*width,
    (k+1)*width), so multiplying by x is a shift by width.
    """

    def __init__(self, d: int, width: int):
        self.width = width
        self.nbrs = _neighbor_masks(d)
        self.memo: dict[int, int] = {0: 1}

    def poly(self, available: int) -> int:
        cached = self.memo.get(available)
        if cached is not None:
            return cached
        v = (available & -available).bit_length() - 1
        bit = 1 << v
        without = self.poly(available & ~bit)
        with_v = self.poly(available & ~(bit | self.nbrs[v]))
        result = without + (with_v << self.width)
        self.memo[available] = result
        return result


def _unpack(x: int, width: int, count: int) -> tuple[int, ...]:
    """The first `count` coefficients of a polynomial packed `width` bits
    per coefficient, lowest degree first."""
    mask = (1 << width) - 1
    return tuple(x >> (width * k) & mask for k in range(count))


def size_profile(d: int) -> SizeProfile:
    """Exact i_m(Q_d) for all m, by the C_4 split; d <= 6.

    Columns 1 and 3 of Q_d = C_4 x Q_{d-2} share no edge, and columns 0 and 2
    each meet only those two, so Z_d(x) = sum over independent sets I1, I3 of
    Q_{d-2} of x^(|I1|+|I3|) f(I1 | I3)^2, where f(U) counts the independent
    sets of Q_{d-2} avoiding U.  The pairs are folded into one weight
    W(U) = sum of x^(|I1|+|I3|) per union U, and Z_d = sum_U f(U)^2 W(U);
    the sum is symmetric in I1 and I3, so each unordered pair is visited
    once and counted twice, and each diagonal pair once.

    Each polynomial is packed into one int with B = 2^d bits per
    coefficient (Kronecker substitution: x becomes 2^B), so each product is
    one big-int multiplication.  B comes from a bound on the coefficients.
    A coefficient of f(U), W(U), f(U)^2 or f(U)^2 W(U) counts tuples of
    subsets of distinct columns, that is, subsets of the 2^d vertices of
    Q_d, and the running sum adds those of different unions U, which are
    different subsets.  So every coefficient is below 2^(2^d) = 2^B.  All
    are nonnegative, so no slot borrows from its neighbour, and the sum
    unpacks to the exact counts.  d = 6 takes about 0.15 s.
    """
    hc.check_dim(d)
    if d > ORACLE_MAX_DIM:
        raise ValueError(f"dimension {d} too large for exact oracle (max {ORACLE_MAX_DIM})")
    if d == 1:
        return SizeProfile(1, (1, 2))  # K_2: the empty set and two singletons

    width = 1 << d
    lower = d - 2
    # each set with the bit offset of x^|set|
    offsets = [(a, width * a.bit_count()) for a in independent_set_masks(lower)]
    weight: dict[int, int] = {}
    for i, (a, sa) in enumerate(offsets):
        weight[a] = weight.get(a, 0) + (1 << 2 * sa)
        for b, sb in offsets[i + 1:]:  # (a, b) and (b, a) at once
            weight[a | b] = weight.get(a | b, 0) + (2 << sa + sb)
    counter = _IndependencePolyCounter(lower, width)
    mask_all = (1 << (1 << lower)) - 1
    total = 0
    for union, w in weight.items():
        f = counter.poly(mask_all & ~union)
        total += f * f * w
    return SizeProfile(d, _unpack(total, width, (1 << (d - 1)) + 1))


def size_profile_exhaustive(d: int) -> SizeProfile:
    """Independent oracle for d <= 4: test all 2^(2^d) subsets directly."""
    hc.check_dim(d)
    if d > 4:
        raise ValueError("exhaustive subset enumeration is limited to d <= 4")
    nbrs = hc.neighbor_masks(d)
    n = 1 << d
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            # only check neighbors above v; each edge tested once
            if mask & nbrs[v] & ~((1 << (v + 1)) - 1):
                ok = False
                break
            m &= m - 1
        if ok:
            counts[mask.bit_count()] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return SizeProfile(d, tuple(counts))


# -- restricted (one-sided defect) model, tiny d ----------------------------


def _is_admissible_defect(support: frozenset[int], d: int) -> bool:
    """Connected under distance-2 moves and closure at most half the side."""
    comps = hc.square_components(support, d)
    if len(comps) != 1:
        return False
    return len(hc.closure(support, d)) <= hc.n_side(d) // 2


def _brute_polymers(d: int) -> list[frozenset[int]]:
    """All admissible connected odd defect sets, by direct subset filtering."""
    odd = hc.odd_side(d)
    out = []
    for mask in range(1, 1 << len(odd)):
        support = frozenset(odd[i] for i in range(len(odd)) if mask >> i & 1)
        if _is_admissible_defect(support, d):
            out.append(support)
    return sorted(out, key=lambda s: tuple(sorted(s)))


class OddModelProfile(NamedTuple):
    """Exact data of the one-sided defect model at tiny d.

    xi_terms maps (defect size, neighborhood size) to the number of mutually
    distant defect collections with those totals, so the model's partition
    function is  sum over terms of  count * lam^size / (1+lam)^nbhd,
    and z_poly lists the coefficients of (1+lam)^n_side * that sum, which is
    a genuine polynomial: the size-indexed counts of independent sets the
    model can produce.
    """

    d: int
    xi_terms: tuple[tuple[tuple[int, int], int], ...]
    z_poly: tuple[int, ...]

    def xi_value(self, lam: Fraction) -> Fraction:
        lam = Fraction(lam)
        total = Fraction(0)
        for (size, nbhd), count in self.xi_terms:
            total += count * lam ** size / (1 + lam) ** nbhd
        return total


def _collection_counts(supports: list[frozenset[int]], d: int) \
        -> dict[tuple[int, int, int], int]:
    """The compatible collections of the given polymers, counted by (number
    of polymers, total size, total |N|); the empty one is (0, 0, 0).

    The one walk over compatible polymer collections: odd_model_exact reads
    it over every polymer at d <= 4, and clusters.log_xi_series over the
    full universe at d <= 5.  Two polymers are compatible at distance > 2:
    no shared vertex and no shared neighbor.  A shared vertex puts its
    neighbors in both neighborhoods, so disjoint N(S) alone decides it.
    Collections grow in index order, from a stack of (allowed, n, size,
    nbhd): `allowed` is the bitmask of the later polymers compatible with
    every one of the n - 1 chosen, whose totals are size and nbhd, and
    meets[w] that of the polymers whose neighborhood holds w.
    """
    nbhds = [hc._neighborhood(s, d) for s in supports]
    meets: dict[int, int] = {}
    for i, nb in enumerate(nbhds):
        for w in nb:
            meets[w] = meets.get(w, 0) | 1 << i
    counts = {(0, 0, 0): 1}
    stack = [((1 << len(supports)) - 1, 1, 0, 0)]
    while stack:
        allowed, n, size, nbhd = stack.pop()
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            key = (n, size + len(supports[i]), nbhd + len(nbhds[i]))
            counts[key] = counts.get(key, 0) + 1
            clash = 0
            for w in nbhds[i]:
                clash |= meets[w]
            stack.append((allowed & ~clash, n + 1, key[1], key[2]))
    return counts


def odd_model_exact(d: int) -> OddModelProfile:
    """Enumerate the one-sided defect model exhaustively; d <= 4."""
    hc.check_dim(d)
    if d > 4:
        raise ValueError("odd_model_exact is limited to d <= 4")
    polymers = _brute_polymers(d)
    n = hc.n_side(d)
    xi: dict[tuple[int, int], int] = {}
    for (_, size, nbhd), count in _collection_counts(polymers, d).items():
        xi[(size, nbhd)] = xi.get((size, nbhd), 0) + count

    # z = (1+lam)^n * xi, packed as in size_profile: a coefficient of each
    # term and of the sum counts independent sets of Q_d of one size, so
    # 2^d bits hold it; unpacking stops at the highest nonzero coefficient
    width = 1 << d
    one_plus_x = 1 + (1 << width)
    z = 0
    for (size, nbhd), count in xi.items():
        z += count * one_plus_x ** (n - nbhd) << width * size

    return OddModelProfile(
        d=d,
        xi_terms=tuple(sorted(xi.items())),
        z_poly=_unpack(z, width, -(-z.bit_length() // width)),
    )

