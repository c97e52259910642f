"""Bitmask combinatorics of Q_d against first-principles definitions."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cubecount import hypercube as hc
from cubecount import polymers as pm


def hamming(u: int, v: int) -> int:
    return (u ^ v).bit_count()


def test_dimension_bounds():
    with pytest.raises(ValueError):
        hc.check_dim(0)
    with pytest.raises(ValueError):
        hc.check_dim(-3)
    with pytest.raises(ValueError):
        hc.check_dim(hc.MAX_DIM + 1)
    hc.check_dim(1)
    hc.check_dim(hc.MAX_DIM)


def test_parity_counts_set_bits():
    assert hc.parity(0) == 0
    assert hc.parity(1) == 1
    assert hc.parity(0b1011) == 1
    assert hc.parity(0b1111) == 0


def even_side(d: int) -> tuple[int, ...]:
    return tuple(v for v in range(1 << d) if hc.parity(v) == 0)


def test_sides_partition_the_cube():
    for d in (1, 2, 3, 5):
        even, odd = even_side(d), hc.odd_side(d)
        assert len(even) == len(odd) == hc.n_side(d) == 1 << (d - 1)
        assert sorted(even + odd) == list(range(1 << d))
        assert all(hc.parity(v) == 0 for v in even)
        assert all(hc.parity(v) == 1 for v in odd)


def test_neighbors_are_hamming_distance_one():
    for d in (2, 3, 4):
        for v in range(1 << d):
            nbrs = hc.neighbors(v, d)
            assert len(nbrs) == d
            assert all(hamming(v, u) == 1 for u in nbrs)
            assert len(set(nbrs)) == d


def test_square_neighbors_are_hamming_distance_two():
    for d in (2, 3, 4, 5):
        for v in (0, 1, (1 << d) - 1):
            sq = hc.square_neighbors(v, d)
            assert len(sq) == d * (d - 1) // 2
            assert all(hamming(v, u) == 2 for u in sq)


def test_neighborhood_matches_union_of_neighbor_sets():
    d = 4
    for subset in itertools.combinations(hc.odd_side(d), 2):
        expect = sorted({u for v in subset for u in hc.neighbors(v, d)})
        assert list(hc.neighborhood(subset, d)) == expect


def test_closure_singleton_is_itself_for_d_at_least_three():
    for d in (3, 4, 5):
        v = hc.odd_side(d)[0]
        assert hc.closure([v], d) == (v,)


def test_closure_of_distance_two_pair_in_q3_is_whole_side():
    # N({1,2}) covers three of the four even vertices; every odd vertex
    # has its neighborhood inside that, so the closure saturates.
    assert hc.closure([1, 2], 3) == hc.odd_side(3)


def test_closure_is_monotone_and_idempotent():
    d = 4
    odd = hc.odd_side(d)
    for subset in itertools.combinations(odd, 2):
        cl = hc.closure(subset, d)
        assert set(subset) <= set(cl)
        assert hc.closure(cl, d) == cl


def reference_closure(support, d: int) -> list[int]:
    """Reference closure of an odd set, from the definition.

    Scans every odd vertex of Q_d for one whose d neighbors all lie in N(S),
    with no distance-2 shell and no size short-circuit: the independent check
    for hypercube.closure and for the polymer validity test built on it.
    """
    nbhd = {v ^ (1 << i) for v in support for i in range(d)}
    return [u for u in range(1 << d) if hamming(u, 0) % 2 == 1
            and all(u ^ (1 << i) in nbhd for i in range(d))]


def reference_connected_supports(d: int, max_size: int) -> set:
    """Odd sets containing the root V0 and connected under distance-2 moves,
    grown one vertex at a time from the definition."""
    odd = [u for u in range(1 << d) if hamming(u, 0) % 2 == 1]
    layer = {frozenset([pm.V0])}
    out = set(layer)
    for _ in range(max_size - 1):
        layer = {s | {u} for s in layer for u in odd
                 if u not in s and any(hamming(u, v) == 2 for v in s)}
        out |= layer
    return out


@st.composite
def odd_subsets(draw):
    d = draw(st.integers(3, 7))
    odd = [u for u in range(1 << d) if hamming(u, 0) % 2 == 1]
    return d, draw(st.sets(st.sampled_from(odd), max_size=len(odd)))


@given(odd_subsets())
@settings(max_examples=300, deadline=None)
def test_closure_matches_reference(case):
    d, support = case
    assert hc.closure(support, d) == tuple(reference_closure(support, d))


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_polymer_validity_matches_reference(d):
    # d*|S| <= 2^(d-2) holds for every size at d = 7, for none at d = 3,
    # and for some sizes in between, so both branches of _is_valid run
    half = 1 << (d - 2)
    supports = reference_connected_supports(d, 4)
    valid = {s for s in supports if len(reference_closure(s, d)) <= half}
    assert {s for s in supports if pm._is_valid(s, d)} == valid
    assert set(pm.rooted_polymer_supports(d, 4)) == valid


def test_square_components_split_by_distance():
    d = 4
    a, b = 1, 2  # distance 2: one component
    assert len(hc.square_components([a, b], d)) == 1
    far = 0b1110  # distance 4 from vertex 1: two components
    assert hamming(1, far) == 4
    assert len(hc.square_components([1, far], d)) == 2


def pairwise_components(vertices, d):
    """Distance-2 components by a union over every pair, as frozensets."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in itertools.combinations(vertices, 2):
        if hamming(u, v) == 2:
            root[find(u)] = find(v)
    comps = {}
    for v in vertices:
        comps.setdefault(find(v), set()).add(v)
    return {frozenset(c) for c in comps.values()}


@pytest.mark.parametrize("d", range(1, 9))
def test_square_components_match_pairwise_union(d):
    # the empty set, single vertices, one side, the other side and sets of
    # both parities, which at distance 2 never join
    rng = random.Random(d)
    n = 1 << d
    odd, even = hc.odd_side(d), even_side(d)
    sets = [[], [0], [n - 1], list(odd), list(even)]
    for _ in range(40):
        k = rng.randrange(1, min(n, 40) + 1)
        sets.append(rng.sample(range(n), k))
        sets.append(rng.sample(odd, min(k, len(odd))))
    for vs in sets:
        want = pairwise_components(vs, d)
        got = hc._square_components(vs, d)
        assert {frozenset(c) for c in got} == want
        assert len(got) == len(want)
        assert hc.square_components(vs, d) == tuple(
            sorted((tuple(sorted(c)) for c in want), key=lambda c: c[0]))


def direct_is_independent(mask: int, d: int) -> bool:
    return all(not (mask >> u & 1 and mask >> v & 1)
               for u in range(1 << d) for v in hc.neighbors(u, d) if u < v)


def test_is_independent_matches_direct_check():
    for d in (1, 2, 3):
        for mask in range(1 << (1 << d)):
            assert hc.is_independent(mask, d) == direct_is_independent(mask, d)


def test_is_independent_matches_direct_check_on_random_masks():
    rng = random.Random(6)
    outcomes = set()
    for d in range(1, 7):
        n = 1 << d
        for _ in range(300):
            # a random subset of a random size, so that small sets, which
            # are often independent, and large ones both occur
            mask = sum(1 << v for v in rng.sample(range(n), rng.randint(0, n)))
            got = hc.is_independent(mask, d)
            assert got == direct_is_independent(mask, d), (d, mask)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_is_independent_finds_one_edge_added_to_a_packed_side():
    # the packed even side of Q_12 plus an odd vertex u, less all but one of
    # u's neighbours w, has exactly the edge uw; less w too, it has none
    d = 12
    even = sum(1 << v for v in even_side(d))
    assert hc.is_independent(even, d)
    nbr = hc.neighbor_masks(d)
    for u in hc.odd_side(d):
        alone = even & ~nbr[u] | 1 << u
        assert hc.is_independent(alone, d)
        for w in hc.neighbors(u, d):
            assert not hc.is_independent(alone | 1 << w, d), (u, w)


def test_neighbor_masks_agree_with_neighbors():
    # one entry per vertex: its callers read only the first 2^d
    for d in range(1, 7):
        masks = hc.neighbor_masks(d)
        assert len(masks) == 1 << d
        for v in range(1 << d):
            expect = 0
            for u in hc.neighbors(v, d):
                expect |= 1 << u
            assert masks[v] == expect and expect.bit_count() == d


def test_vertex_bounds_checked():
    with pytest.raises(ValueError):
        hc.check_vertex(-1, 3)
    with pytest.raises(ValueError):
        hc.check_vertex(8, 3)
    hc.check_vertex(7, 3)
