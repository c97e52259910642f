"""Defect enumeration, classification, and census counts."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubecount import hypercube as hc
from cubecount import polymers as pm
from cubecount.errors import BudgetExceededError
from cubecount.symbolic import RatPoly, interpolate_poly

SYMBOLIC_CENSUS_4_SHA256 = "8c1f4857a35f15528aa3a2855b000aa1c0c588724503a01649624808e0d9f385"


def poly_to_json_str(p: RatPoly) -> str:
    return json.dumps(p.to_json(), sort_keys=True)


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
    """Smallest row-major adjacency code over all relabellings, by scanning
    all s! of them: the brute-force reference for the pruned search in
    polymers._cert_of_code."""
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


def colex_pairs(s: int):
    """The vertex pairs (a, b), a < b < s, in colex order: bit k of a colex
    adjacency code, the layout _cert_of_code reads, is the k-th of them."""
    return [(a, b) for b in range(s) for a in range(b)]


def adjacency_of_code(s: int, code: int) -> list[list[bool]]:
    """The labelled graph whose colex adjacency code is `code`."""
    adj = [[False] * s for _ in range(s)]
    for k, (a, b) in enumerate(colex_pairs(s)):
        if code >> k & 1:
            adj[a][b] = adj[b][a] = True
    return adj


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
    rooted_hist = Counter(len(s) for s in pm.rooted_polymer_supports(d, 4))
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


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        pm.census(9, 3, budget=5)


def active_mask(vertices) -> int:
    """Bit i set iff some vertex differs from V0 in coordinate i."""
    mask = 0
    for v in vertices:
        mask |= v ^ pm.V0
    return mask


def all_rooted_type_counts(b: int, max_size: int) -> Counter:
    """_rooted_type_counts times C(b, a), by definition: every rooted
    support at b, with no prefix representatives."""
    return Counter((pm.classify(s, b), active_mask(s).bit_count())
                   for s in pm.rooted_polymer_supports(b, max_size))


def weighed_type_counts(b: int, max_size: int) -> Counter:
    """_rooted_type_counts with each representative weighed by the C(b, a)
    rooted supports it stands for at b."""
    return Counter({(key, a): r * math.comb(b, a)
                    for (key, a), r in pm._rooted_type_counts(b, max_size).items()})


# b = 4, 5, 6 lie below free_dim(4) = 7, where closure rejects supports
@pytest.mark.parametrize("b", [2, 3, 4, 5, 6, 7, 8])
def test_rooted_type_counts_match_every_rooted_support(b):
    for max_size in (1, 2, 3, 4):
        assert weighed_type_counts(b, max_size) == \
            all_rooted_type_counts(b, max_size), (b, max_size)


@pytest.mark.slow
def test_rooted_type_counts_match_every_rooted_support_of_size_five():
    assert weighed_type_counts(7, 5) == all_rooted_type_counts(7, 5)


def direct_census(d: int, max_size: int) -> dict[pm.DefectType, int]:
    """The cross-check for census and symbolic_census: n_T(d) per type, from
    the rooted supports enumerated and classified at d itself, with no
    rescaling from a base dimension."""
    rooted = Counter(pm.classify(s, d) for s in pm.rooted_polymer_supports(d, max_size))
    out = {}
    for t, r in rooted.items():
        total = Fraction(hc.n_side(d) * r, t.size)
        assert total.denominator == 1, (d, t.key)
        out[t] = int(total)
    return out


@pytest.mark.parametrize("max_size", [1, 2, 3, 4])
def test_census_matches_direct_count(max_size):
    b = pm.free_dim(max_size)
    dims = sorted(set(range(4, 13)) | {b - 1, b, b + 1})
    for d in dims:
        cen = pm.census(d, max_size)
        direct = direct_census(d, max_size)
        assert {e.type: e.count for e in cen.entries} == direct, d
        assert [e.type for e in cen.entries] == sorted(direct)
        classes = Counter((t.size, t.cert) for t in direct)
        assert cen.split_certs == tuple(sorted(k for k, m in classes.items() if m > 1)), d


def grid_symbolic_census(max_size: int) -> list[tuple[str, str]]:
    """Cross-check for symbolic_census: (key, poly_to_json_str) per type,
    interpolated from direct counts over symbolic_census's grid.

    For a type of size s, n_T(d)/n_side has degree at most 2(s-1) in d, so
    the 2*max_size grid points fit every type with one spare point that
    interpolate_poly checks.
    """
    lo = 2 * max_size + 1
    grid = range(lo, lo + 2 * max_size)
    ratios = [{t: Fraction(n, hc.n_side(d)) for t, n in direct_census(d, max_size).items()}
              for d in grid]
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
        direct = direct_census(d, 4)
        assert {t for t, _ in sym.entries} == set(direct)
        for t, poly in sym.entries:
            assert poly.eval({"d": Fraction(d)}) * hc.n_side(d) == direct[t]


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
            pm.enumerate_polymers(d, max_size, budget=1)
    # 2^(d-2) = 4 caps the polymer size at d = 4, so a larger bound is fine
    assert pm.census(4, 8).entries == pm.census(4, 4).entries


def test_cert_table_matches_reference_on_every_labelled_graph():
    checked = 0
    for s in range(1, 6):
        for code in range(1 << (s * (s - 1) // 2)):
            assert pm._cert_of_code(s, code) == \
                reference_cert_of_adj(adjacency_of_code(s, code)), (s, code)
            checked += 1
    assert checked == 1099


@pytest.mark.parametrize("s", [6, 7])
def test_cert_search_matches_reference_on_sampled_graphs(s):
    rng = random.Random(s)
    pairs = s * (s - 1) // 2
    # the brute-force reference scans s! relabellings: about 25 ms at s = 7
    samples = 300 if s == 6 else 150
    codes = [0, (1 << pairs) - 1] + [rng.getrandbits(pairs) for _ in range(samples)]
    for code in codes:
        assert pm._cert_of_code(s, code) == \
            reference_cert_of_adj(adjacency_of_code(s, code)), (s, code)


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


def reference_grow_polymers(d, root, max_size, budget=None, keep=None, above_root=False):
    """The recursive growth kernel that _grow_polymers replaced, kept as its
    differential reference: frozensets grown along the distance-2 neighbor
    lists, with the keep(mask, size) callback as the cut."""
    if keep is not None and not keep(root ^ pm.V0, 1):
        return

    def nbrs(v):
        square = hc._square_neighbors(v, d)
        return tuple(u for u in square if u > root) if above_root else square

    base = frozenset((root,))
    if not pm._is_valid(base, d):
        return
    yield base

    def rec(s, mask, cand, seen):
        for i, v in enumerate(cand):
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceededError("connected-set enumeration budget exhausted")
            m2 = mask | (v ^ pm.V0)
            if keep is not None and not keep(m2, len(s) + 1):
                continue
            s2 = s | {v}
            if not pm._is_valid(s2, d):
                continue
            yield s2
            if len(s2) < max_size:
                fresh = tuple(u for u in nbrs(v) if u not in seen)
                yield from rec(s2, m2, cand[i + 1:] + fresh, seen | frozenset(fresh))

    if max_size > 1:
        first = nbrs(root)
        yield from rec(base, root ^ pm.V0, first, base | frozenset(first))


def colex_code(vertices) -> int:
    """The colex distance-2 code of the vertices in the given order."""
    vs = list(vertices)
    return sum(1 << k for k, (a, b) in enumerate(colex_pairs(len(vs)))
               if (vs[a] ^ vs[b]).bit_count() == 2)


def check_kernel_against_reference(d, root, max_size, joins=None, above_root=False):
    """The kernel yields the reference's sets in the reference's order and
    spends the same budget, with a correct shape carried for each set."""
    keep = None
    if joins is not None:
        def keep(mask, n):
            return pm._may_become_prefix(mask | joins, max_size - n)
    want_budget, got_budget = [10 ** 9], [10 ** 9]
    want = list(reference_grow_polymers(d, root, max_size, want_budget, keep, above_root))
    got = list(pm._grow_polymers(d, root, max_size, got_budget, joins, above_root))
    assert [frozenset(g[0]) for g in got] == want
    assert got_budget == want_budget
    for verts, mask, deficiency, code in got:
        s = len(verts)
        assert verts[0] == root and len(set(verts)) == s
        assert mask == active_mask(verts)
        assert deficiency == d * s - len(hc._neighborhood(verts, d))
        assert code == colex_code(verts)
        assert pm._cert_of_code(s, code) == pm._cert_of_code(s, colex_code(sorted(verts)))
    return got


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_growth_kernel_matches_recursive_reference(d):
    for max_size in (1, 2, 3, 4):
        check_kernel_against_reference(d, pm.V0, max_size)
        # the cut of _prefix_candidates, and one as a cluster walk makes it
        # for a set joining a union with active mask 0b1011
        check_kernel_against_reference(d, pm.V0, max_size, 0)
        if d >= 3:
            check_kernel_against_reference(d, pm.V0 ^ 0b110, max_size,
                                           0b1011 & ((1 << d) - 1))
        for root in hc.odd_side(d)[:: max(1, hc.n_side(d) // 6)]:
            check_kernel_against_reference(d, root, max_size, above_root=True)


@pytest.mark.slow
def test_growth_kernel_matches_recursive_reference_at_size_five():
    got = check_kernel_against_reference(9, pm.V0, 5, 0)
    assert max(len(g[0]) for g in got) == 5


def test_shape_is_the_kernels_per_vertex_step():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(3, 10)
        size = rng.randint(1, min(pm.MAX_TYPE_SIZE, hc.n_side(d)))
        support = {pm.V0}
        while len(support) < size:
            frontier = sorted({u for v in support for u in hc.square_neighbors(v, d)}
                              - support)
            support.add(rng.choice(frontier))
        order = list(support)
        rng.shuffle(order)
        s, deficiency, code = pm._shape(order)
        assert s == len(support)
        assert deficiency == d * s - len(hc.neighborhood(support, d))
        assert code == colex_code(order)
