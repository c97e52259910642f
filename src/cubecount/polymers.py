"""Connected odd defects of Q_d and their censuses.

A defect (polymer) is a set S of odd vertices that is connected under
distance-2 moves and whose closure covers at most half of the odd side.  Its
weight at fugacity lam is lam^|S| / (1+lam)^|N(S)|.  Two defects interact iff
they are within graph distance 2 of each other (share a vertex or a neighbor).

Every enumeration of supports, here and in the clusters module, calls one
growth kernel, _grow_polymers: one generator frame that grows sets from a
root vertex along the distance-2 neighbor lists of the hypercube module,
depth first over an explicit stack, and yields the valid ones, each with
its active mask, deficiency and distance-2 graph code (see Types), all
updated per added vertex with d-bit integers.  No N(S) is built: the
closure (the hypercube module's unchecked kernel) is computed only where
validity needs it.  This module caches only the bounded certificate table
described under Types.  Validity (_is_valid, which only the kernel calls)
rests on |closure(S)| <= |N(S)| <= d*|S|, since every closure vertex has all
d of its neighbors in N(S): a support with d*|S| <= 2^(d-2), half the side,
is valid without computing its closure; only larger supports count the
closure against half the side.

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
Both grow one vertex at a time (_meet): when v joins S, N(v) meets N(S) in
v ^ e_i for exactly the bits i of the OR of u ^ v over the u in S at
distance 2 from v, so c grows by that OR's popcount, and the positions of
those u are v's row of the graph's colex code (bit b(b-1)/2 + a is the pair
a < b of labels in joining order).  The growth kernel carries both;
_shape runs the same step over a vertex list for classify and the
sampler's defect extraction.  The class is named by a canonical
certificate, the smallest row-major adjacency code over all relabellings,
which _cert_of_code finds by a pruned search instead of scanning all s!
relabellings (about 0.2 ms for a random graph on 7 vertices, 30 ms for the
complete graph, where no labelling is pruned).  The certificate depends
only on the support's labelled distance-2 graph (its size and colex code),
so it is computed once per labelled graph and kept in a table bounded at
4096 entries; the rooted supports of size <= 4 at the census base
dimension have 22 labelled graphs in joining order.  A graph class can
split across deficiencies (from d = 5 the complete graph on 4 vertices,
cert 63, does), so the census records every class that splits.

Counts in d: a support's type depends only on its active coordinates (those
in which some vertex differs from V0), and every a-subset of the d
coordinates carries the same supports.  From free_dim(max_size) on, closure
never binds (see the clusters module docstring), so both census and
symbolic_census enumerate the rooted supports once, at the base dimension
b = min(d, free_dim(max_size)), count their prefix representatives
(below) per type and active count a (_rooted_type_counts), and weigh each
count by C(d, a) over one common denominator (_rescale, which
clusters.cluster_sum calls too).  census evaluates the sum at one d;
symbolic_census keeps it as a polynomial in d.

Prefix representatives: since the a-subsets carry the same supports,
_rooted_type_counts grows only the supports whose active coordinates are
exactly 0, ..., a-1 (active mask m, the OR of v ^ V0, with m & (m+1) = 0)
and counts each once: it stands for the C(d, a) rooted supports that the
a-subsets of the coordinates carry at d.  The growth is cut exactly by the
gap bound: each vertex added later is a distance-2 step, so it makes at most
two more coordinates active, and a set with mask m and room for r more
vertices can still become a prefix only if m.bit_length() - m.bit_count()
<= 2r.  Every set a cut discards contains the cut set, so none of them is a
representative.  _prefix_candidates hands the kernel the mask its sets join
(0 for a support alone), and the kernel applies the bound to each set's
mask OR that one; clusters._stratum_table cuts its clusters the same way,
passing each multiset's union mask.  rooted_polymer_supports grows every
rooted support and stays as the reference for the tests and the acceptance
suite.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from . import hypercube as hc
from .errors import BudgetExceededError
# interpolate_poly stays importable here: perfbench/traced_child.py patches it
from .symbolic import RatPoly, binom_poly, interpolate_poly  # noqa: F401

V0 = 1  # root: the smallest odd vertex


def _is_valid(support: Iterable[int], d: int) -> bool:
    """Whether the closure covers at most half the side; connectivity is the
    caller's business, and support and d are not checked.

    |closure(S)| <= |N(S)| <= d*|S| (every closure vertex has all d of its
    neighbors in N(S)), so d*|S| <= half decides without computing the
    closure.
    """
    half = (1 << (d - 1)) // 2
    return d * len(support) <= half or len(hc._closure(support, d)) <= half


def _meet(verts: Iterable[int], v: int) -> tuple[int, int]:
    """(gain, row) of v joining the one-parity vertices `verts`, in order.

    The u in verts with popcount(u ^ v) = 2 are v's distance-2 neighbors,
    and with m the OR of their u ^ v, N(v) meets N(verts) in exactly the
    v ^ e_i with bit i of m set (no other vertex of verts shares a neighbor
    with v).  So the deficiency grows by gain = popcount(m), and row has bit
    j set when the j-th vertex of verts is one of those u.
    """
    m = row = 0
    for j, u in enumerate(verts):
        x = u ^ v
        if x.bit_count() == 2:
            m |= x
            row |= 1 << j
    return m.bit_count(), row


def _shape(vertices: Iterable[int]) -> tuple[int, int, int]:
    """(size, deficiency, code) of a one-parity vertex list, joined one
    vertex at a time by _meet in the list's order; the code labels the
    vertices in that order (see _cert_of_code for its layout)."""
    verts: list[int] = []
    deficiency = code = 0
    for v in vertices:
        n = len(verts)
        gain, row = _meet(verts, v)
        deficiency += gain
        code |= row << (n * (n - 1) // 2)
        verts.append(v)
    return len(verts), deficiency, code


def _grow_polymers(d: int, root: int, max_size: int,
                   budget: list[int] | None = None,
                   joins: int | None = None,
                   above_root: bool = False) -> Iterator[tuple]:
    """The polymers of size <= max_size at dimension d that contain `root`,
    each exactly once; with above_root, only those whose other vertices all
    exceed root, so that every polymer is grown from its smallest vertex.

    The one growth kernel of the package.  It yields (verts, mask,
    deficiency, code) per polymer: its vertices in insertion order (root
    first), the OR of v ^ V0 over them, d*|S| - |N(S)|, and the colex code
    of its distance-2 graph over that order, the last two grown one vertex
    at a time by _meet with no N(S) built.  It grows the connected sets
    containing root along the distance-2 neighbor lists, depth first over an
    explicit stack; candidate lists carry the classic once-seen-never-again
    discipline, so a set is reached exactly at its canonical insertion
    order.  It yields the valid sets and extends only those: closure is
    monotone (S within T puts closure(S) within closure(T)), so no superset
    of an invalid set is valid.  `budget`, when given, a single-element
    mutable countdown, counts the candidates tried.  `joins`, when given, is
    the active mask of what the set joins: a set of n vertices and mask m is
    neither yielded nor extended unless the gap bound
    _may_become_prefix(m | joins, max_size - n) holds, which then fails on
    every connected superset too.
    """
    mask = root ^ V0
    if joins is not None and not _may_become_prefix(mask | joins, max_size - 1):
        return
    verts = (root,)
    if not _is_valid(verts, d):
        return
    yield verts, mask, 0, 0
    if max_size == 1:
        return

    squares: dict[int, tuple[int, ...]] = {}  # the distance-2 lists this walk met
    first = hc._square_neighbors(root, d)
    if above_root:
        first = tuple(u for u in first if u > root)
    seen = {root, *first}
    # frames (candidates left, candidates, verts, mask, deficiency, code,
    # the vertices the frame added to seen); the top frame is the deepest set
    stack = [(enumerate(first), first, verts, mask, 0, 0, first)]
    while stack:
        it, cand, verts, mask, deficiency, code, fresh = stack[-1]
        n = len(verts) + 1  # the size of each set this frame tries
        gaps = 2 * (max_size - n)  # the gaps the later vertices can fill
        for i, v in it:
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceededError("connected-set enumeration budget exhausted")
            m2 = mask | (v ^ V0)
            if joins is not None:
                g = m2 | joins  # the gap bound, _may_become_prefix inlined
                if g.bit_length() - g.bit_count() > gaps:
                    continue
            v2 = verts + (v,)
            if not _is_valid(v2, d):
                continue
            gain, row = _meet(verts, v)
            c2 = deficiency + gain
            code2 = code | row << ((n - 1) * (n - 2) // 2)
            yield v2, m2, c2, code2
            if n < max_size:
                square = squares.get(v)
                if square is None:
                    square = hc._square_neighbors(v, d)
                    if above_root:
                        square = tuple(u for u in square if u > root)
                    squares[v] = square
                new = tuple(u for u in square if u not in seen)
                seen.update(new)
                cand2 = cand[i + 1:] + new
                stack.append((enumerate(cand2), cand2, v2, m2, c2, code2, new))
                break
        else:
            stack.pop()
            seen.difference_update(fresh)


# -- types -------------------------------------------------------------------


MAX_TYPE_SIZE = 7  # canonical certificates are searched up to this size


class DefectType(NamedTuple):
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

    The input is in colex layout, the order in which _shape and the growth
    kernel label vertices as they join: bit b(b-1)/2 + a is the pair
    (a, b), a < b, so each new label's row sits above the earlier ones.
    The certificate is in row-major layout: bit k is the k-th pair (a, b),
    a < b, in row-major order, so the pairs among labels m..s-1 are exactly
    its top C(s-m, 2) bits, and row m (the pairs (m, b), b > m) is the next
    block below them.  Labels are therefore assigned from s-1 down to 0;
    each step extends every surviving prefix by each unused vertex and keeps
    only the extensions whose newly fixed row is smallest.  Every survivor
    carries the same top bits, which are those of the minimum, so after the
    last step they all carry the minimum itself.
    """
    adj = [0] * s  # adjacency bitmask per vertex
    for b in range(1, s):
        low = code >> (b * (b - 1) // 2) & ((1 << b) - 1)  # b's smaller neighbors
        adj[b] = low
        for a in range(b):
            if low >> a & 1:
                adj[a] |= 1 << b
    cert = 0
    prefixes = [()]  # the vertices labelled m+1, m+2, ..., s-1, in that order
    for m in range(s - 1, -1, -1):
        best = None
        survivors = []
        for pre in prefixes:
            for v in range(s):
                if v in pre:
                    continue
                row = 0
                for bit, u in enumerate(pre):
                    if adj[v] >> u & 1:
                        row |= 1 << bit
                if best is None or row < best:
                    best = row
                    survivors = [(v,) + pre]
                elif row == best:
                    survivors.append((v,) + pre)
        prefixes = survivors
        # row m starts after rows 0..m-1, which hold s-1, s-2, ..., s-m pairs
        cert |= best << (m * (2 * s - m - 1) // 2)
    return cert


def _type_of(size: int, deficiency: int, code: int) -> tuple[int, int, int]:
    """(size, deficiency, cert) of a shape (_shape, or the growth kernel's
    carried one) of a nonempty support."""
    if size > MAX_TYPE_SIZE:
        raise ValueError(f"type certificates support size <= {MAX_TYPE_SIZE}, got {size}")
    return size, deficiency, _cert_of_code(size, code)


def classify(support: Iterable[int], d: int) -> DefectType:
    """Type of a connected defect set (connectivity is not re-checked)."""
    sup = frozenset(support)
    if not sup:
        raise ValueError("cannot classify an empty set")
    hc.check_dim(d)
    return DefectType(*_type_of(*_shape(sup)))


class Polymer(NamedTuple):
    support: tuple[int, ...]
    d: int
    nbhd_size: int
    type: DefectType

    @property
    def size(self) -> int:
        return len(self.support)

    def weight(self, lam: Fraction) -> Fraction:
        return self.type.weight(lam, self.d)


# -- enumeration --------------------------------------------------------------


def rooted_polymer_supports(d: int, max_size: int,
                            budget: int | None = None) -> list[frozenset]:
    """Supports of all polymers of size <= max_size that contain V0."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    hc.check_dim(d)
    bud = [budget] if budget is not None else None
    return [frozenset(s) for s in
            sorted(tuple(sorted(g[0])) for g in _grow_polymers(d, V0, max_size, bud))]


def enumerate_polymers(d: int, max_size: int,
                       budget: int | None = None) -> list[Polymer]:
    """All polymers of size <= max_size in Q_d, in ascending support order.

    The list is global, so it is only sensible for small d; the translation-
    reduced list is rooted_polymer_supports.  `budget` counts each root as
    well as the candidates the kernel tries, so it bounds a size-1 listing.
    """
    check_census_bounds(d, max_size)
    bud = [budget] if budget is not None else None
    out = []
    for root in hc.odd_side(d):
        if bud is not None:
            bud[0] -= 1
            if bud[0] < 0:
                raise BudgetExceededError("connected-set enumeration budget exhausted")
        for verts, _, deficiency, code in _grow_polymers(d, root, max_size, bud,
                                                         above_root=True):
            t = DefectType(*_type_of(len(verts), deficiency, code))
            out.append(Polymer(support=tuple(sorted(verts)), d=d,
                               nbhd_size=t.nbhd_size(d), type=t))
    out.sort(key=lambda p: p.support)
    return out


# -- censuses ------------------------------------------------------------------


class CensusEntry(NamedTuple):
    type: DefectType
    count: int  # n_T: number of polymers of this type in all of Q_d


class Census(NamedTuple):
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


def free_dim(k: int) -> int:
    """Smallest d >= max(2, 2(k-1)) with d*k <= 2^(d-2).

    From this dimension on every connected support of size <= k is a
    polymer, and every stratum-k cluster's active coordinates fit in it.
    """
    d = max(2, 2 * (k - 1))
    while d * k > 1 << (d - 2):
        d += 1
    return d


def _is_prefix(mask: int) -> bool:
    """Whether the active coordinates are exactly 0, ..., a-1."""
    return mask & (mask + 1) == 0


def _may_become_prefix(mask: int, room: int) -> bool:
    """The gap bound (module docstring): whether `room` more vertices, each
    making at most two more coordinates active, can fill mask's gaps."""
    return mask.bit_length() - mask.bit_count() <= 2 * room


def _rescale(counts: dict, d: int) -> tuple[dict, int]:
    """({K: N_K}, D) with N_K / D = sum_a r * C(d, a), from counts
    {(K, a): r} (ints or Fractions) of the prefix representatives with a
    active coordinates (module docstring).  D, the lcm of the r
    denominators, is one common denominator, so every N_K is an int."""
    den = math.lcm(*(r.denominator for r in counts.values()))
    out: dict = {}
    for (key, a), r in counts.items():
        out[key] = (out.get(key, 0)
                    + r.numerator * (den // r.denominator) * math.comb(d, a))
    return out, den


def _prefix_candidates(d: int, max_size: int,
                       budget: list[int] | None) -> Iterator[tuple]:
    """The valid rooted supports of size <= max_size that can still grow,
    within total size max_size, into a set with prefix active coordinates,
    as the growth kernel yields them.

    The growth from V0 is cut by the gap bound, with room for max_size - n
    more vertices at a set of n.  `budget` counts the nodes of the cut search.
    """
    return _grow_polymers(d, V0, max_size, budget, 0)


def _rooted_type_counts(b: int, max_size: int, budget: int | None = None) \
        -> Counter[tuple[tuple[int, int, int], int]]:
    """r_(T,a): the prefix representatives among the rooted supports at
    dimension b, by ((size, deficiency, cert), a), with a the number of
    active coordinates.

    Only the supports whose active coordinates are 0, ..., a-1 are grown and
    classified, each counted once (module docstring).
    """
    counts: Counter = Counter()
    bud = [budget] if budget is not None else None
    for verts, mask, deficiency, code in _prefix_candidates(b, max_size, bud):
        if _is_prefix(mask):
            counts[_type_of(len(verts), deficiency, code), mask.bit_count()] += 1
    return counts


def census(d: int, max_size: int, budget: int | None = None) -> Census:
    """Count polymers of each type across all of Q_d.

    The prefix representatives are enumerated once, at
    b = min(d, free_dim(max_size)) (module docstring), and weighed at d by
    _rescale; for a type T of size s

        n_T(d) = n_side * sum_a r_(T,a) * C(d, a) / s.

    `budget` limits the enumeration at b.
    """
    check_census_bounds(d, max_size)
    b = min(d, free_dim(max_size))
    rooted, den = _rescale(_rooted_type_counts(b, max_size, budget), d)

    n = hc.n_side(d)
    entries = []
    # (size, deficiency, cert) tuples sort as the DefectTypes they become
    for key in sorted(rooted):
        t = DefectType(*key)
        total = Fraction(n * rooted[key], den * t.size)
        if total.denominator != 1:
            raise AssertionError(f"type {t.key}: non-integer global count {total}")
        entries.append(CensusEntry(type=t, count=int(total)))

    by_cert: dict[tuple[int, int], set[int]] = {}
    for size, deficiency, cert in rooted:
        by_cert.setdefault((size, cert), set()).add(deficiency)
    split = tuple(sorted(k for k, v in by_cert.items() if len(v) > 1))
    return Census(d=d, max_size=max_size, entries=tuple(entries), split_certs=split)


class SymbolicCensus(NamedTuple):
    """Type counts as exact polynomials in the dimension: n_T(d)/n_side.

    `grid` names the dimensions at which the tests and `validate` check the
    closed form against direct censuses.
    """

    max_size: int
    grid: tuple[int, ...]
    entries: tuple[tuple[DefectType, RatPoly], ...]


def symbolic_census(max_size: int) -> SymbolicCensus:
    """Per-type counts n_T(d)/n_side in closed form, from one enumeration.

    The prefix representatives are enumerated once, at the base dimension
    b = free_dim(max_size), where closure never binds (see the module
    docstring), so with r_(T,a) those of type T and a active coordinates,
    for every d >= b

        n_T(d)/n_side = sum_a r_(T,a) * C(d, a) / s,

    a polynomial in d of degree at most 2(s-1).  The grid is the 2*max_size
    dimensions from 2*max_size + 1 on.
    """
    if max_size < 1 or max_size > 4:
        raise ValueError("symbolic_census supports max_size in 1..4")
    b = free_dim(max_size)
    dim = RatPoly.var("d")
    polys: dict[tuple[int, int, int], RatPoly] = {}
    for (key, a), r in _rooted_type_counts(b, max_size).items():
        term = binom_poly(-dim, a) * Fraction(r, key[0])
        polys[key] = polys.get(key, RatPoly.const(0)) + term
    lo = 2 * max_size + 1
    return SymbolicCensus(
        max_size=max_size, grid=tuple(range(lo, lo + 2 * max_size)),
        entries=tuple((DefectType(*key), polys[key]) for key in sorted(polys)))
