"""Connected odd defects of Q_d and their censuses.

A defect (polymer) is a set S of odd vertices that is connected under
distance-2 moves and whose closure covers at most half of the odd side.  Its
weight at fugacity lam is lam^|S| / (1+lam)^|N(S)|.  Two defects interact iff
they are within graph distance 2 of each other (share a vertex or a neighbor).

Supports are grown as frozensets along the distance-2 neighbor lists of the
hypercube module, which also computes every N(S) and closure here (its
unchecked kernels).  This module caches only the permutations of each size
up to MAX_TYPE_SIZE and the bounded certificate table described under
Types.  Validity (_is_valid) rests on |closure(S)| <= |N(S)| <= d*|S|,
since every closure vertex has all d of its neighbors in N(S): a support
with d*|S| <= 2^(d-2), half the side, is valid without computing its
closure; only larger supports count the closure against half the side.

Enumeration exploits translation symmetry.  XOR by an even-parity word maps
the odd side to itself and preserves everything in sight, and the action on
(support, marked vertex) pairs is free, so for any translation-invariant f

    sum over all defects of f(S)  =  n_side * sum_{S containing V0} f(S)/|S|,

where V0 is the fixed root vertex.  Counts per type follow with f = 1.  Note
the action on bare supports is NOT free (a two-element support {v, v^t} is
fixed by t), which is why the marked-vertex form is used throughout.

Types: a defect is classified by the isomorphism class of its distance-2
graph together with its deficiency c = d*|S| - |N(S)|; the deficiency is the
dimension-free part of the neighborhood size, so one type means one weight.
The class is named by an exhaustive certificate, the smallest adjacency code
over all relabellings.  It depends only on the support's labelled distance-2
graph (its size and the "distance 2 or not" bits over its sorted vertices),
so it is computed once per labelled graph and kept in a table bounded at
4096 entries (_cert_of_code); the 55,813 rooted supports of census(9, 4)
have 26 labelled graphs.  The census records whether any graph class ever
splits across deficiencies (none do for sizes up to 4; the census keeps
checking anyway).

Counts in d: census counts types at one dimension; symbolic_census gives
every n_T(d)/n_side as a polynomial in d from a single enumeration at the
base dimension clusters.free_dim(max_size), by counting supports per type
and number of active coordinates (those in which some vertex differs from
V0), the same C(d, a) rescaling that clusters.cluster_sum applies.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from . import hypercube as hc
from .errors import BudgetExceededError
# interpolate_poly stays importable here: perfbench/traced_child.py patches it
from .symbolic import RatPoly, binom_poly, interpolate_poly  # noqa: F401

V0 = 1  # root: the smallest odd vertex


def _is_valid(support: frozenset, d: int) -> bool:
    """Whether the closure covers at most half the side; connectivity is the
    caller's business, and support and d are not checked.

    |closure(S)| <= |N(S)| <= d*|S| (every closure vertex has all d of its
    neighbors in N(S)), so d*|S| <= half decides without computing the
    closure.
    """
    half = (1 << (d - 1)) // 2
    return d * len(support) <= half or len(hc._closure(support, d)) <= half


def _grow_connected(root: int, max_size: int,
                    neighbor_fn: Callable[[int], Iterable[int]],
                    budget: list[int] | None = None) -> Iterator[frozenset]:
    """All connected vertex sets containing `root`, each exactly once.

    Candidate lists carry the classic once-seen-never-again discipline, so a
    set is produced exactly at its canonical insertion order.  `budget`, when
    given, is a single-element mutable node countdown.
    """
    first = tuple(neighbor_fn(root))
    base = frozenset((root,))
    yield base

    def rec(s: frozenset, cand: tuple, seen: frozenset) -> Iterator[frozenset]:
        for i, v in enumerate(cand):
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceededError("connected-set enumeration budget exhausted")
            s2 = s | {v}
            yield s2
            if len(s2) < max_size:
                fresh = tuple(u for u in neighbor_fn(v) if u not in seen)
                yield from rec(s2, cand[i + 1:] + fresh, seen | frozenset(fresh))

    if max_size > 1:
        yield from rec(base, first, frozenset((root,)) | frozenset(first))


# -- types -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _perm_table(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(size)))


MAX_TYPE_SIZE = 7  # exhaustive canonization; 7! = 5040 permutations


@dataclass(frozen=True, order=True)
class DefectType:
    """(size, deficiency, canonical distance-2 graph certificate)."""

    size: int
    deficiency: int
    cert: int

    @property
    def key(self) -> str:
        return f"s{self.size}c{self.deficiency}g{self.cert:x}"

    def nbhd_size(self, d: int) -> int:
        return d * self.size - self.deficiency

    def weight(self, lam: Fraction, d: int) -> Fraction:
        lam = Fraction(lam)
        return lam ** self.size / (1 + lam) ** self.nbhd_size(d)

    @staticmethod
    def from_key(key: str) -> "DefectType":
        m = re.fullmatch(r"s(\d+)c(\d+)g([0-9a-f]+)", key)
        if m is None:
            raise ValueError(f"malformed type key: {key!r}")
        return DefectType(size=int(m.group(1)), deficiency=int(m.group(2)),
                          cert=int(m.group(3), 16))


def check_census_bounds(d: int, max_size: int) -> None:
    """Reject, before enumerating, a census or polymer list that cannot
    finish: d < 2, max_size < 1, or supports that could exceed MAX_TYPE_SIZE.

    A polymer has |S| <= |closure(S)| <= 2^(d-2), half the side, so
    min(max_size, 2^(d-2)) bounds the sizes that occur.  When it exceeds
    MAX_TYPE_SIZE, polymers of size MAX_TYPE_SIZE + 1 exist (d >= 5), and
    the enumeration would fail only once the first of them was classified.
    """
    if d < 2:
        raise ValueError("the defect model needs d >= 2")
    hc.check_dim(d)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if min(max_size, 1 << (d - 2)) > MAX_TYPE_SIZE:
        raise ValueError(f"defect types have size <= {MAX_TYPE_SIZE}, but "
                         f"max_size {max_size} at d = {d} admits larger polymers")


@lru_cache(maxsize=4096)
def _cert_of_code(s: int, code: int) -> int:
    """Canonical certificate of a labelled graph on s vertices: the smallest
    adjacency code over all relabellings.

    Bit k of an adjacency code is the k-th vertex pair (a, b), a < b, in
    row-major order.
    """
    adj = [[False] * s for _ in range(s)]
    for k, (a, b) in enumerate(itertools.combinations(range(s), 2)):
        if code >> k & 1:
            adj[a][b] = adj[b][a] = True
    best = None
    for perm in _perm_table(s):
        relabelled = 0
        bit = 1
        for a in range(s):
            pa = perm[a]
            row = adj[pa]
            for b in range(a + 1, s):
                if row[perm[b]]:
                    relabelled |= bit
                bit <<= 1
        if best is None or relabelled < best:
            best = relabelled
    return best


def _type_of(sup: frozenset, d: int) -> tuple[int, int, int]:
    """(size, deficiency, cert) of a nonempty support; d is not checked."""
    s = len(sup)
    if s > MAX_TYPE_SIZE:
        raise ValueError(f"type certificates support size <= {MAX_TYPE_SIZE}, got {s}")
    code = 0
    for k, (u, v) in enumerate(itertools.combinations(sorted(sup), 2)):
        if (u ^ v).bit_count() == 2:
            code |= 1 << k
    return s, d * s - len(hc._neighborhood(sup, d)), _cert_of_code(s, code)


def classify(support: Iterable[int], d: int) -> DefectType:
    """Type of a connected defect set (connectivity is not re-checked)."""
    sup = frozenset(support)
    if not sup:
        raise ValueError("cannot classify an empty set")
    hc.check_dim(d)
    return DefectType(*_type_of(sup, d))


@dataclass(frozen=True)
class Polymer:
    support: tuple[int, ...]
    d: int
    nbhd_size: int
    type: DefectType

    @property
    def size(self) -> int:
        return len(self.support)

    def weight(self, lam: Fraction) -> Fraction:
        lam = Fraction(lam)
        return lam ** self.size / (1 + lam) ** self.nbhd_size


def _make_polymer(support: frozenset, d: int) -> Polymer:
    t = classify(support, d)
    return Polymer(support=tuple(sorted(support)), d=d,
                   nbhd_size=t.nbhd_size(d), type=t)


# -- enumeration --------------------------------------------------------------


def rooted_polymer_supports(d: int, max_size: int,
                            budget: int | None = None) -> list[frozenset]:
    """Supports of all polymers of size <= max_size that contain V0."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    hc.check_dim(d)
    bud = [budget] if budget is not None else None
    out = [s for s in _grow_connected(V0, max_size,
                                      lambda v: hc._square_neighbors(v, d), bud)
           if _is_valid(s, d)]
    out.sort(key=lambda s: tuple(sorted(s)))
    return out


def enumerate_polymers(d: int, max_size: int, rooted: bool = False,
                       budget: int | None = None) -> list[Polymer]:
    """All polymers of size <= max_size, in ascending support order.

    rooted=True restricts to supports containing the root vertex V0 (the
    translation-reduced list); rooted=False enumerates globally and is only
    sensible for small d.
    """
    check_census_bounds(d, max_size)
    if rooted:
        return [_make_polymer(s, d) for s in rooted_polymer_supports(d, max_size, budget)]
    bud = [budget] if budget is not None else None
    out = []
    for root in hc.odd_side(d):
        def nbrs(v: int, _root=root) -> tuple[int, ...]:
            return tuple(u for u in hc._square_neighbors(v, d) if u > _root)

        for s in _grow_connected(root, max_size, nbrs, bud):
            if _is_valid(s, d):
                out.append(_make_polymer(s, d))
    out.sort(key=lambda p: p.support)
    return out


def polymers_touching(targets: frozenset, d: int, max_size: int,
                      budget: list[int] | None = None) -> list[frozenset]:
    """Supports of polymers of size <= max_size meeting the target set."""
    if max_size < 1:
        return []
    hc.check_dim(d)
    seen: set[frozenset] = set()
    for w in sorted(targets):
        for s in _grow_connected(w, max_size,
                                 lambda v: hc._square_neighbors(v, d), budget):
            if s not in seen and _is_valid(s, d):
                seen.add(s)
    return sorted(seen, key=lambda s: tuple(sorted(s)))


# -- censuses ------------------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    type: DefectType
    count: int  # n_T: number of polymers of this type in all of Q_d


@dataclass(frozen=True)
class Census:
    """Global type counts at one dimension, via rooted counting."""

    d: int
    max_size: int
    entries: tuple[CensusEntry, ...]
    split_certs: tuple[tuple[int, int], ...]  # (size, cert) with >1 deficiency

    def by_key(self) -> dict[str, CensusEntry]:
        return {e.type.key: e for e in self.entries}

    def expected_type_count(self, type_key: str, lam: Fraction) -> Fraction:
        e = self.by_key()[type_key]
        return e.count * e.type.weight(lam, self.d)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "max_size": self.max_size,
            "entries": [
                {
                    "size": e.type.size,
                    "deficiency": e.type.deficiency,
                    "cert": e.type.cert,
                    "key": e.type.key,
                    "count": str(e.count),
                    "nbhd_size": e.type.nbhd_size(self.d),
                }
                for e in self.entries
            ],
            "split_certs": [list(x) for x in self.split_certs],
        }

    @staticmethod
    def from_json(obj: dict) -> "Census":
        entries = tuple(
            CensusEntry(
                type=DefectType(int(e["size"]), int(e["deficiency"]), int(e["cert"])),
                count=int(e["count"]),
            )
            for e in obj["entries"]
        )
        return Census(int(obj["d"]), int(obj["max_size"]), entries,
                      tuple(tuple(x) for x in obj["split_certs"]))


def census(d: int, max_size: int, budget: int | None = None) -> Census:
    """Count polymers of each type across all of Q_d."""
    check_census_bounds(d, max_size)
    n = hc.n_side(d)
    # (size, deficiency, cert) tuples sort as the DefectTypes they become
    rooted_counts = Counter(_type_of(s, d)
                            for s in rooted_polymer_supports(d, max_size, budget))

    entries = []
    for key, r in sorted(rooted_counts.items()):
        t = DefectType(*key)
        total = Fraction(n * r, t.size)
        if total.denominator != 1:
            raise AssertionError(f"type {t.key}: non-integer global count {total}")
        entries.append(CensusEntry(type=t, count=int(total)))

    by_cert: dict[tuple[int, int], set[int]] = {}
    for size, deficiency, cert in rooted_counts:
        by_cert.setdefault((size, cert), set()).add(deficiency)
    split = tuple(sorted(k for k, v in by_cert.items() if len(v) > 1))
    return Census(d=d, max_size=max_size, entries=tuple(entries), split_certs=split)


@dataclass(frozen=True)
class SymbolicCensus:
    """Type counts as exact polynomials in the dimension: n_T(d)/n_side.

    `grid` names the dimensions at which the tests and `validate` check the
    closed form against direct censuses.
    """

    max_size: int
    grid: tuple[int, ...]
    entries: tuple[tuple[DefectType, RatPoly], ...]

    def by_key(self) -> dict[str, RatPoly]:
        return {t.key: p for t, p in self.entries}


def _active_count(vertices: Iterable[int]) -> int:
    """Number of coordinates in which some vertex differs from V0."""
    active = 0
    for v in vertices:
        active |= v ^ V0
    return active.bit_count()


def symbolic_census(max_size: int) -> SymbolicCensus:
    """Per-type counts n_T(d)/n_side in closed form, from one enumeration.

    The rooted supports are enumerated once, at the base dimension
    b = free_dim(max_size), where closure never binds (see the clusters
    module docstring).  A support's type depends only on its a active
    coordinates, and every a-subset of the d coordinates carries the same
    supports, so with r_(T,a) the rooted supports of type T and a active
    coordinates found at b, for every d >= b

        n_T(d)/n_side = sum_a r_(T,a) * C(d, a) / (s * C(b, a)),

    a polynomial in d of degree at most 2(s-1).  The grid is the 2*max_size
    dimensions from 2*max_size + 1 on.
    """
    if max_size < 1 or max_size > 4:
        raise ValueError("symbolic_census supports max_size in 1..4")
    from .clusters import free_dim  # clusters imports this module

    b = free_dim(max_size)
    rooted = Counter((_type_of(s, b), _active_count(s))
                     for s in rooted_polymer_supports(b, max_size))
    dim = RatPoly.var("d")
    polys: dict[tuple[int, int, int], RatPoly] = {}
    for (key, a), r in rooted.items():
        term = binom_poly(-dim, a) * Fraction(r, key[0] * math.comb(b, a))
        polys[key] = polys.get(key, RatPoly.const(0)) + term
    lo = 2 * max_size + 1
    return SymbolicCensus(
        max_size=max_size, grid=tuple(range(lo, lo + 2 * max_size)),
        entries=tuple((DefectType(*key), polys[key]) for key in sorted(polys)))
