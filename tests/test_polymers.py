"""Defect enumeration, classification, and census counts."""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubecount import hypercube as hc
from cubecount import polymers as pm
from cubecount.errors import BudgetExceededError
from cubecount.symbolic import interpolate_poly, poly_to_json_str

SYMBOLIC_CENSUS_4_SHA256 = "8c1f4857a35f15528aa3a2855b000aa1c0c588724503a01649624808e0d9f385"


def brute_force_supports(d: int, max_size: int) -> set:
    """Connected odd subsets obeying the closure bound, by definition."""
    out = set()
    half = hc.n_side(d) // 2
    for m in range(1, max_size + 1):
        for subset in itertools.combinations(hc.odd_side(d), m):
            if len(hc.square_components(subset, d)) != 1:
                continue
            if len(hc.closure(subset, d)) > half:
                continue
            out.add(subset)
    return out


def reference_cert_of_adj(adj: list[list[bool]]) -> int:
    """Smallest row-major adjacency code over all relabellings, by search."""
    s = len(adj)
    best = None
    for perm in itertools.permutations(range(s)):
        code = 0
        bit = 1
        for a in range(s):
            pa = perm[a]
            row = adj[pa]
            for b in range(a + 1, s):
                if row[perm[b]]:
                    code |= bit
                bit <<= 1
        if best is None or code < best:
            best = code
    return best


def reference_cert(support) -> int:
    """The per-support exhaustive certificate, as classify computed it
    before certificates were tabulated by labelled graph."""
    vs = sorted(support)
    s = len(vs)
    adj = [[(vs[i] ^ vs[j]).bit_count() == 2 for j in range(s)] for i in range(s)]
    return reference_cert_of_adj(adj)


def test_q3_admits_only_singletons():
    polys = pm.enumerate_polymers(3, 3)
    assert len(polys) == 4
    assert all(p.size == 1 for p in polys)
    assert {p.support[0] for p in polys} == set(hc.odd_side(3))


def test_enumeration_matches_brute_force_d4():
    for max_size in (1, 2, 3):
        expect = brute_force_supports(4, max_size)
        got = {p.support for p in pm.enumerate_polymers(4, max_size)}
        assert got == expect


def test_d4_size_histogram_frozen():
    polys = pm.enumerate_polymers(4, 8)
    hist = sorted(Counter(p.size for p in polys).items())
    assert hist == [(1, 8), (2, 24), (3, 32), (4, 8)]


def test_rooted_counts_scale_by_transitivity():
    # supports of size m containing a fixed vertex: m/N of the global list
    d = 4
    n = hc.n_side(d)
    global_hist = Counter(p.size for p in pm.enumerate_polymers(d, 4))
    rooted_hist = Counter(p.size for p in pm.enumerate_polymers(d, 4, rooted=True))
    for m, total in global_hist.items():
        assert rooted_hist[m] * n == total * m


def test_polymer_weight_formula():
    p = pm.enumerate_polymers(4, 1)[0]
    lam = Fraction(1, 20)
    assert p.nbhd_size == 4
    assert p.weight(lam) == lam / (1 + lam) ** 4


def test_classify_singleton_and_key_round_trip():
    t = pm.classify([1], 4)
    assert t.key == "s1c0g0"
    assert pm.DefectType.from_key(t.key) == t
    pair = pm.classify([1, 2], 4)
    assert pm.DefectType.from_key(pair.key) == pair


def test_from_key_rejects_malformed_input():
    for bad in ("", "s1c0", "x1c0g0", "s1c0gZZ", "s-1c0g0"):
        with pytest.raises(ValueError):
            pm.DefectType.from_key(bad)


def test_classification_caps_at_supported_size():
    with pytest.raises(ValueError):
        pm.classify(hc.odd_side(5)[:8], 5)


def test_type_invariant_under_coordinate_relabeling():
    # swapping two coordinates is a cube automorphism fixing parity
    d = 4

    def swap01(v: int) -> int:
        b0, b1 = v & 1, (v >> 1) & 1
        return (v & ~3) | (b0 << 1) | b1

    for p in pm.enumerate_polymers(d, 3):
        image = [swap01(v) for v in p.support]
        assert pm.classify(image, d) == p.type


def test_census_d4_frozen_and_consistent_with_enumeration():
    cen = pm.census(4, 2)
    assert [(e.type.key, e.count) for e in cen.entries] == [
        ("s1c0g0", 8), ("s2c2g1", 24)]
    by_type = Counter(p.type.key for p in pm.enumerate_polymers(4, 2))
    assert dict(by_type) == {e.type.key: e.count for e in cen.entries}


def test_census_json_round_trip():
    cen = pm.census(4, 3)
    assert pm.Census.from_json(cen.to_json()) == cen


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        pm.census(9, 3, budget=5)


def grid_symbolic_census(max_size: int) -> list[tuple[str, str]]:
    """Cross-check for symbolic_census: (key, poly_to_json_str) per type,
    interpolated from direct censuses over symbolic_census's grid.

    For a type of size s, n_T(d)/n_side has degree at most 2(s-1) in d, so
    the 2*max_size grid points fit every type with one spare point that
    interpolate_poly checks.
    """
    lo = 2 * max_size + 1
    grid = range(lo, lo + 2 * max_size)
    ratios = [{e.type: Fraction(e.count, hc.n_side(d))
               for e in pm.census(d, max_size).entries} for d in grid]
    out = []
    for t in sorted(set().union(*ratios)):
        points = [(d, r.get(t, Fraction(0))) for d, r in zip(grid, ratios)]
        bound = min(2 * (t.size - 1), len(points) - 2)
        out.append((t.key, poly_to_json_str(interpolate_poly(points, bound, var="d"))))
    return out


@pytest.mark.parametrize("max_size", [2, 3])
def test_symbolic_census_equals_grid_interpolation(max_size):
    sym = pm.symbolic_census(max_size)
    assert sym.grid == tuple(range(2 * max_size + 1, 4 * max_size + 1))
    assert [(t.key, poly_to_json_str(p)) for t, p in sym.entries] \
        == grid_symbolic_census(max_size)


def test_symbolic_census_evaluates_to_global_counts():
    # entries hold n_T(d) / n_side as polynomials in d; d = 7 is free_dim(4),
    # the base dimension, and d = 7, 8 lie below the grid
    sym = pm.symbolic_census(4)
    for d in (7, 8, 9, 10):
        cen = pm.census(d, 4).by_key()
        assert {t.key for t, _ in sym.entries} == set(cen)
        for t, poly in sym.entries:
            assert poly.eval({"d": Fraction(d)}) * hc.n_side(d) == cen[t.key].count


def test_symbolic_census_of_size_four_is_pinned():
    # recorded from the census-grid interpolation, before the closed form
    sym = pm.symbolic_census(4)
    doc = json.dumps({"max_size": sym.max_size, "grid": list(sym.grid),
                      "entries": [[t.key, p.to_json()] for t, p in sym.entries]},
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == SYMBOLIC_CENSUS_4_SHA256


def test_census_bounds_rejected_before_enumerating():
    # a node budget of 1 would stop any enumeration: ValueError comes first
    for d, max_size in ((9, 8), (5, 8), (6, 100), (1, 2), (4, 0)):
        with pytest.raises(ValueError):
            pm.census(d, max_size, budget=1)
        with pytest.raises(ValueError):
            pm.enumerate_polymers(d, max_size, rooted=True, budget=1)
    # 2^(d-2) = 4 caps the polymer size at d = 4, so a larger bound is fine
    assert pm.census(4, 8).entries == pm.census(4, 4).entries


def test_cert_table_matches_reference_on_every_labelled_graph():
    checked = 0
    for s in range(1, 6):
        pairs = list(itertools.combinations(range(s), 2))
        for code in range(1 << len(pairs)):
            adj = [[False] * s for _ in range(s)]
            for k, (a, b) in enumerate(pairs):
                if code >> k & 1:
                    adj[a][b] = adj[b][a] = True
            assert pm._cert_of_code(s, code) == reference_cert_of_adj(adj), (s, code)
            checked += 1
    assert checked == 1099


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_classify_matches_reference_cert_on_rooted_supports(d):
    for s in pm.rooted_polymer_supports(d, 4):
        assert pm.classify(s, d).cert == reference_cert(s), sorted(s)


@st.composite
def connected_supports(draw):
    """A distance-2 connected odd set of size 5..7, grown from the root."""
    d = draw(st.integers(5, 9))
    size = draw(st.integers(5, pm.MAX_TYPE_SIZE))
    support = {pm.V0}
    while len(support) < size:
        frontier = sorted({u for v in support for u in hc.square_neighbors(v, d)}
                          - support)
        support.add(draw(st.sampled_from(frontier)))
    return d, frozenset(support)


@settings(max_examples=40, deadline=None)
@given(connected_supports())
def test_classify_matches_reference_cert_on_larger_supports(case):
    d, support = case
    t = pm.classify(support, d)
    assert t.cert == reference_cert(support)
    assert t.nbhd_size(d) == len(hc.neighborhood(support, d))


def test_cert_table_is_bounded():
    assert pm._cert_of_code.cache_info().maxsize == 4096
    pm._cert_of_code.cache_clear()
    pm.census(9, 4)
    # one entry per labelled distance-2 graph met; there are 75 of size <= 4
    assert pm._cert_of_code.cache_info().currsize <= 75
