"""Exact small-d oracles: size profiles and restricted models."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from cubecount import exact as ex
from cubecount import hypercube as hc
from cubecount.cli import _read_oracle


def layered_size_profile(d):
    """Differential reference for `size_profile` at d <= 5, sharing no code
    with it.

    Splits Q_d as K_2 x Q_{d-1}: an independent set is a pair (A, B) of
    disjoint independent sets of Q_{d-1}, so each A contributes x^|A| times
    the independence polynomial of Q_{d-1} with A deleted.  That polynomial
    is a list of coefficients, from I(G) = I(G - v) + x * I(G - N[v]) at the
    lowest vertex v of G.
    """
    lower = d - 1
    n = 1 << lower
    nbrs = [sum(1 << (v ^ 1 << i) for i in range(lower)) for v in range(n)]
    memo = {0: [1]}

    def poly(available):
        if available not in memo:
            v = (available & -available).bit_length() - 1
            without = poly(available & ~(1 << v))
            with_v = [0] + poly(available & ~(1 << v | nbrs[v]))
            memo[available] = [a + b for a, b in
                               itertools.zip_longest(without, with_v, fillvalue=0)]
        return memo[available]

    counts = [0] * (n + 1)
    for a in range(1 << n):
        if all(not a & nbrs[v] for v in range(n) if a >> v & 1):
            for m, c in enumerate(poly((1 << n) - 1 & ~a), a.bit_count()):
                counts[m] += c
    while counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def test_q2_profile_by_hand():
    # Q_2 is a 4-cycle: empty set, 4 singletons, 2 diagonal pairs.
    assert ex.size_profile(2).counts == (1, 4, 2)
    assert ex.size_profile(2).total == 7


def test_q3_profile_frozen():
    assert ex.size_profile(3).counts == (1, 8, 16, 8, 2)
    assert ex.size_profile(3).total == 35


def test_q4_and_q5_totals_frozen():
    assert ex.size_profile(4).total == 743
    assert ex.size_profile(5).total == 254475


def test_c4_split_matches_layered_reference_and_exhaustive_enumeration():
    for d in range(1, 6):
        assert ex.size_profile(d).counts == layered_size_profile(d), d
    for d in range(1, 5):
        assert ex.size_profile(d).counts == ex.size_profile_exhaustive(d).counts, d


def test_q6_profile_frozen():
    # total: OEIS A027624; i_2 drops the 192 edges of Q_6 from C(64, 2); the
    # largest sets are the two sides and the 64 sets one vertex short of one
    q6 = ex.size_profile(6)
    assert q6.total == 19768832143
    assert len(q6.counts) == 33
    assert q6.counts[:3] == (1, 64, math.comb(64, 2) - 192)
    assert q6.counts[31:] == (64, 2)
    blob = json.dumps(q6.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "ea3e13638a5c4dd56b76e7a4ed9238834a11f755c39b1317f89d804f59461e59")


def test_exhaustive_oracle_refuses_large_d():
    with pytest.raises(ValueError):
        ex.size_profile_exhaustive(5)


def test_oracle_refuses_dimension_seven():
    with pytest.raises(ValueError, match="max 6"):
        ex.size_profile(7)


def test_partition_value_and_mean_size_from_counts():
    sp = ex.size_profile(3)
    lam = Fraction(2, 3)
    z = sum(c * lam ** m for m, c in enumerate(sp.counts))
    assert sp.partition_value(lam) == z
    mean = sum(m * c * lam ** m for m, c in enumerate(sp.counts)) / z
    assert sp.mean_size(lam) == mean


def test_size_distribution_sums_to_one():
    sp = ex.size_profile(4)
    dist = sp.size_distribution(Fraction(1, 2))
    assert sum(dist) == 1
    assert len(dist) == len(sp.counts)


@pytest.mark.parametrize("d", range(1, 7))
def test_sums_equal_term_by_term_fractions(d):
    # each sum is one integer numerator over q^M for lam = p/q; adding the
    # Fractions i_m lam^m one at a time must give the same values
    sp = ex.size_profile(d)
    for lam in (Fraction(1), Fraction(3, 7), Fraction(1, 10 ** 998),
                Fraction(10 ** 500 + 1, 10 ** 499)):
        terms = [c * lam ** m for m, c in enumerate(sp.counts)]
        z = sum(terms, Fraction(0))
        assert sp.partition_value(lam) == z, lam
        assert sp.mean_size(lam) == sum(m * t for m, t in enumerate(terms)) / z
        assert sp.size_distribution(lam) == tuple(t / z for t in terms)


def test_profile_json_round_trip():
    # report's oracle reader is the one reader of this layout
    sp = ex.size_profile(4)
    assert _read_oracle(sp.to_json()) == sp


def test_profile_at_unit_fugacity():
    sp = ex.size_profile(3)
    assert sp.partition_value(Fraction(1)) == 35
    assert sp.mean_size(Fraction(1)) == Fraction(72, 35)
    assert sum(sp.size_distribution(Fraction(1))) == 1


def test_odd_model_q3_by_hand():
    # Q_3 odd side has 4 vertices; only singleton defects fit the closure
    # bound, each with |N(S)| = 3, so Xi = 1 + 4 lam (1+lam)^{-3}.
    om = ex.odd_model_exact(3)
    assert om.xi_terms == (((0, 0), 1), ((1, 3), 4))
    assert om.xi_value(Fraction(1)) == Fraction(3, 2)
    assert om.z_poly == (1, 8, 10, 4, 1)


def test_odd_model_xi_value_matches_terms():
    om = ex.odd_model_exact(4)
    lam = Fraction(1, 5)
    expect = sum(c * lam ** m * (1 + lam) ** -n for (m, n), c in om.xi_terms)
    assert om.xi_value(lam) == expect


def achievable_independent_sets(d):
    """Size counts of the independent sets of Q_d, d <= 4, whose odd part
    decomposes into admissible defects: components whose closure covers at
    most half of the odd side."""
    counts = {}
    for mask in ex.independent_set_masks(d):
        odd_part = [v for v in range(1 << d) if mask >> v & 1 and hc.parity(v)]
        if all(len(hc.closure(comp, d)) <= hc.n_side(d) // 2
               for comp in hc.square_components(odd_part, d)):
            size = mask.bit_count()
            counts[size] = counts.get(size, 0) + 1
    return counts


def test_achievable_sets_q2_excludes_all_defects():
    # at d=2 the closure of any odd singleton is the whole odd side,
    # so only subsets of one fixed side survive
    assert achievable_independent_sets(2) == {0: 1, 1: 2, 2: 1}


@pytest.mark.parametrize("d, z_poly", [
    (2, (1, 2, 1)),
    (3, (1, 8, 10, 4, 1)),
    (4, (1, 16, 88, 184, 166, 72, 28, 8, 1)),
])
def test_odd_model_counts_the_achievable_sets(d, z_poly):
    # z_poly is (1+lam)^n_side * Xi expanded from packed (1+X)^m powers;
    # the direct filter over every independent set checks that expansion
    ach = achievable_independent_sets(d)
    direct = tuple(ach.get(m, 0) for m in range(max(ach) + 1))
    assert ex.odd_model_exact(d).z_poly == direct == z_poly


def test_achievable_counts_bounded_by_profile():
    for d in (2, 3, 4):
        counts = dict(enumerate(ex.size_profile(d).counts))
        ach = achievable_independent_sets(d)
        assert all(ach[m] <= counts.get(m, 0) for m in ach)


def test_independent_set_masks_are_independent():
    masks = ex.independent_set_masks(3)
    assert len(masks) == 35
    assert all(hc.is_independent(m, 3) for m in masks)
