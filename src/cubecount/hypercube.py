"""Vertex-level combinatorics of the discrete hypercube Q_d.

Vertices of Q_d are the integers 0 .. 2^d - 1, read as bit vectors; u and v
are adjacent iff they differ in exactly one bit.  The even/odd bipartition is
by popcount parity, and each side has n_side(d) = 2^(d-1) vertices.

Vertex sets cross API boundaries as sorted tuples (ascending numeric order);
internally most routines work with Python sets.  All functions are pure.

This module is the one implementation of the distance-2 neighbor list and
components, the neighborhood N(S) and the closure.  The public
square_neighbors, square_components, neighborhood and closure check their
arguments and call the unchecked kernels _square_neighbors,
_square_components, _neighborhood and _closure, which the polymer and
cluster enumerations and the sampler's defect extraction call directly on
vertex sets they built themselves.  The one cache is _square_masks: a tuple
of C(d, 2) ints per dimension, at most MAX_DIM of them.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Collection, Iterable

MAX_DIM = 24  # 2^24-entry side masks are still cheap; beyond that, refuse


def check_dim(d: int) -> None:
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds supported maximum {MAX_DIM}")


def n_side(d: int) -> int:
    """Size of each parity class of Q_d."""
    check_dim(d)
    return 1 << (d - 1)


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def check_vertex(v: int, d: int) -> None:
    if not isinstance(v, int) or v < 0 or v >> d:
        raise ValueError(f"vertex {v!r} out of range for dimension {d}")


def neighbors(v: int, d: int) -> tuple[int, ...]:
    """The d neighbors of v, ascending."""
    check_dim(d)
    check_vertex(v, d)
    return tuple(sorted(v ^ (1 << i) for i in range(d)))


@lru_cache(maxsize=MAX_DIM)
def _square_masks(d: int) -> tuple[int, ...]:
    """The C(d, 2) masks (1 << i) ^ (1 << j), i < j < d: v ^ m runs over the
    vertices at distance 2 from v."""
    return tuple((1 << i) ^ (1 << j) for i in range(d) for j in range(i + 1, d))


def _square_neighbors(v: int, d: int) -> tuple[int, ...]:
    """Vertices at Hamming distance exactly 2 from v, ascending; unchecked."""
    return tuple(sorted([v ^ m for m in _square_masks(d)]))


def square_neighbors(v: int, d: int) -> tuple[int, ...]:
    """Vertices at Hamming distance exactly 2 from v, ascending."""
    check_dim(d)
    check_vertex(v, d)
    return _square_neighbors(v, d)


def odd_side(d: int) -> tuple[int, ...]:
    check_dim(d)
    return tuple(v for v in range(1 << d) if parity(v) == 1)


def _check_uniform_parity(vertices: Collection[int], d: int) -> None:
    parities = {parity(v) for v in vertices}
    if len(parities) > 1:
        raise ValueError("vertex set mixes parities")


def neighborhood(vertices: Iterable[int], d: int) -> tuple[int, ...]:
    """N(S): union of the neighbor sets of S, ascending.

    S must lie in a single parity class; N(S) then lies in the other one.
    """
    check_dim(d)
    vs = set(vertices)
    for v in vs:
        check_vertex(v, d)
    _check_uniform_parity(vs, d)
    return tuple(sorted(_neighborhood(vs, d)))


def _neighborhood(vs: Iterable[int], d: int) -> set[int]:
    """N(S) as a set; unchecked."""
    return {v ^ (1 << i) for v in vs for i in range(d)}


def _closure(vs: Iterable[int], d: int) -> list[int]:
    """The closure of a one-parity set S, in no particular order; unchecked.

    A vertex is hit once for each of its neighbors in N(S), so the vertices
    hit d times are exactly those with every neighbor in N(S).  Only the
    d*|N(S)| edges out of N(S) are read, never the whole side.
    """
    hits = Counter(w ^ (1 << i) for w in _neighborhood(vs, d) for i in range(d))
    return [u for u, n in hits.items() if n == d]


def closure(vertices: Iterable[int], d: int) -> tuple[int, ...]:
    """All same-side vertices whose entire neighborhood lies inside N(S).

    closure(S) always contains S itself; closure(empty) is empty.  The size
    of the closure is what separates small defects from the bulk: a defect
    set is only admissible when its closure covers at most half of its side.
    """
    check_dim(d)
    vs = set(vertices)
    for v in vs:
        check_vertex(v, d)
    _check_uniform_parity(vs, d)
    return tuple(sorted(_closure(vs, d)))


def _square_components(vs: Collection[int], d: int) -> list[set[int]]:
    """Connected components of S under distance-2 adjacency, as sets in no
    particular order; unchecked."""
    masks = _square_masks(d)
    remaining = set(vs)
    comps = []
    while remaining:
        frontier = [remaining.pop()]
        comp = set(frontier)
        while frontier:
            v = frontier.pop()
            for m in masks:
                u = v ^ m
                if u in remaining:
                    remaining.remove(u)
                    comp.add(u)
                    frontier.append(u)
        comps.append(comp)
    return comps


def square_components(vertices: Iterable[int], d: int) -> tuple[tuple[int, ...], ...]:
    """Connected components of S under distance-2 adjacency.

    Blocks are sorted internally and ordered by their minima.
    """
    check_dim(d)
    vs = set(vertices)
    for v in vs:
        check_vertex(v, d)
    return tuple(sorted(tuple(sorted(c)) for c in _square_components(vs, d)))


def is_independent(mask: int, d: int) -> bool:
    """Whether the occupancy bitmask (bit v = vertex v in the set) is independent.

    Each edge joins a vertex v whose bit i is 0 to v + 2^i, so the set is
    independent iff no mask & (mask >> 2^i) & L_i is nonzero, where L_i marks
    the vertices whose bit i is 0: d mask operations, not one per vertex.
    """
    check_dim(d)
    n = 1 << d
    for i in range(d):
        s = 1 << i
        # L_i: a run of 2^i ones in every period of 2^(i + 1) bits, doubled
        # out to n bits
        low, width = (1 << s) - 1, 2 * s
        while width < n:
            low |= low << width
            width *= 2
        if mask & (mask >> s) & low:
            return False
    return True


def neighbor_masks(d: int) -> list[int]:
    """Occupancy-bitmask adjacency table: entry v has bit u set iff u ~ v."""
    check_dim(d)
    out = []
    for v in range(1 << d):
        m = 0
        for i in range(d):
            m |= 1 << (v ^ (1 << i))
        out.append(m)
    return out
