"""Cluster-expansion machinery over the odd defect model.

A cluster is an ordered tuple of polymers whose interaction graph H (edge =
within distance 2, repeats always interact) is connected; its weight is

    w(Gamma) = phi(H) * lam^(total size) * (1+lam)^(-total neighborhood),

where the total neighborhood size sums |N(S)| over tuple entries WITH
multiplicity and phi is the Ursell coefficient of H.  Sums over clusters are
organized by stratum k = total size; the sum of any per-cluster observable f
over all clusters of stratum k in Q_d has the exact closed shape

    n_side * lam^k * (polynomial in lam) * (1+lam)^(-k*d),

and the polynomial is what this module computes, with Fraction coefficients.

Internally clusters are stored as multisets (sorted support tuples with
repetition); the orderings factor (multinomial of the multiplicities)
converts multiset sums back to ordered-tuple sums.  Translation symmetry
reduces to clusters whose support union contains the root vertex, each
weighted by 1/|union| (see polymers module for the marked-vertex argument).

Connectivity.  _multisets grows each multiset one entry at a time, and
every entry it adds meets the union of the earlier ones or a distance-2
neighbor of that union: it shares a vertex with an earlier entry, or a
neighbor of two vertices at distance 2.  So every new entry interacts with
an earlier one, H is connected by construction, and no multiset is built
only to be discarded.  The candidate entries are the polymers that the
polymers module's one growth kernel, polymers._grow_polymers, grows from
each vertex of that target set (_touching); the rooted start supports and
the full universe of _universe_counts come from the same kernel.  The walk,
depth first over an explicit stack, carries what it knows of each
multiset: the key (its sorted support tuples, a new entry inserted by
bisection), the union, the union's active mask, the total size and the
deficiency sum e, each entry's deficiency as the kernel carried it, so no
N(S) is built.  _stratum_table and enumerate_clusters fold from that
record alone.  Two entries interact exactly when some vertex of one lies
within distance 2 of some vertex of the other; _orderings_phi reads H that
way from the key.

Active coordinates.  A rooted cluster's active coordinates are the ones in
which some vertex of its union differs from the root V0; there are at most
2(k-1) of them, since each added vertex is a distance-2 step.  Two vertices
share a neighbor only through coordinates in which they differ, so the
deficiency d*|S| - |N(S)| of every entry, the interaction graph, phi, the
union size and the defect types depend on the active coordinates alone, not
on d.  The maps v -> pi(v ^ V0) ^ V0, pi a coordinate permutation, are
automorphisms fixing V0, so every a-subset of the d coordinates carries the
same clusters.  Once d >= free_dim(k), where d*k <= 2^(d-2), closure never
binds: |closure(S)| <= |N(S)| <= d*|S| is at most half the side, so every
connected support of size <= k is a polymer.  Hence a stratum at any d
follows from the clusters at the base dimension b = min(d, free_dim(k)).
So a stratum is one exact table, orderings * phi / |union| summed by
deficiency sum e and active count a over the representatives below
(_stratum_table), that cluster_sum weighs by C(d, a) (polymers._rescale)
and by the observable.

Representatives.  Since every a-subset carries the same clusters,
_stratum_table grows only the multisets whose union has active coordinates
exactly 0, ..., a-1, each standing for the C(d, a) clusters that the
a-subsets of the coordinates carry at d.  The cut is the polymers
module's gap bound: every vertex a later entry brings is a distance-2 step
from one already present, so a partial multiset whose union has active mask
m and total size t can still become a prefix only if
m.bit_length() - m.bit_count() <= 2 * (k - t).  The same test cuts the
growth of each candidate entry, the kernel given the union's mask to join,
and of each start support (polymers._prefix_candidates).
enumerate_clusters grows every rooted cluster; it is the tests'
differential reference for the tables.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, NamedTuple

from . import hypercube as hc
from . import polymers as pm
from .errors import BudgetExceededError
from .polymers import free_dim
from .symbolic import RatPoly, _reduced

# -- Ursell coefficients -------------------------------------------------------


def _spanning_connected_sum(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    """sum over spanning connected edge subsets of (-1)^|A| (multigraphs ok).

    c(S), that sum for the subgraph induced on the vertex set S, follows from
    splitting each edge subset inside S at the component that holds min S:
    f(S) = sum over T with min S in T, T within S, of c(T) f(S - T), where
    f(S), the sum over every edge subset inside S, is 1 when no edge (a loop
    or a parallel edge included) lies inside S and 0 otherwise.  Sets are
    bitmasks, visited in increasing order, so 3^n steps in all.
    """
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    f = [1] * (1 << n)
    c = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        f[s] = 0 if adj[low.bit_length() - 1] & s else f[rest]
        total = f[s]
        part = rest  # T = low | part over the proper parts of rest
        while part:
            part = (part - 1) & rest
            total -= c[low | part] * f[rest ^ part]
        c[s] = total
    return c[-1]


def _dc_sum(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    """The same alternating sum via deletion-contraction (independent route).

    C(G) = C(G-e) - C(G/e); a loop makes the sum vanish (subsets pair up);
    an edgeless graph contributes 1 iff it is a single vertex.
    """
    for a, b in edges:
        if a == b:
            return 0
    if not edges:
        return 1 if n == 1 else 0
    e = edges[0]
    rest = edges[1:]
    deleted = _dc_sum(n, rest)
    a, b = e
    keep = b
    contracted = tuple(
        (keep if x == a else x, keep if y == a else y) for x, y in rest
    )
    # renumber to 0..n-2
    remap = {}
    normalized = []
    for x, y in contracted:
        for v in (x, y):
            if v not in remap:
                remap[v] = len(remap)
        normalized.append((remap[x], remap[y]))
    for v in range(n):
        if v != a and v not in remap:
            remap[v] = len(remap)
    return deleted - _dc_sum(n - 1, tuple(normalized))


def _edge_pairs(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The edges as (min, max) pairs, checked against the vertices 0..n-1."""
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    es = tuple((min(a, b), max(a, b)) for a, b in edges)
    for a, b in es:
        if a < 0 or b >= n:
            raise ValueError("edge endpoint out of range")
    return es


def ursell(n: int, edges: Iterable[tuple[int, int]]) -> Fraction:
    """Ursell coefficient phi of a graph on vertices 0..n-1.

    Zero when the graph is disconnected; phi(K1) = 1, phi(K2) = -1/2.
    """
    return Fraction(_spanning_connected_sum(n, _edge_pairs(n, edges)), math.factorial(n))


def ursell_recursive(n: int, edges: Iterable[tuple[int, int]]) -> Fraction:
    """Independent deletion-contraction evaluation of the Ursell coefficient.

    Not on the hot path: the acceptance suite (validate criterion 2) and the
    tests use it as the cross-check for ursell.
    """
    return Fraction(_dc_sum(n, _edge_pairs(n, edges)), math.factorial(n))


@lru_cache(maxsize=65536)
def _ursell_cached(n: int, edges: tuple[tuple[int, int], ...]) -> Fraction:
    return ursell(n, edges)


# -- observables ---------------------------------------------------------------


class _ObservableFields(NamedTuple):
    kind: str
    power: int = 1
    type_key: str | None = None


class Observable(_ObservableFields):
    """Per-cluster quantity summed against cluster weights.

    kind: 'one' | 'size' | 'nbhd' | 'type_count' | 'size_nbhd'
    power applies to size/nbhd/type_count and must be 1 for one/size_nbhd;
    type_key selects the defect type.
    """

    __slots__ = ()

    def __new__(cls, kind: str, power: int = 1, type_key: str | None = None):
        if kind not in ("one", "size", "nbhd", "type_count", "size_nbhd"):
            raise ValueError(f"unknown observable kind {kind!r}")
        if power < 1:
            raise ValueError("observable power must be >= 1")
        if power != 1 and kind in ("one", "size_nbhd"):
            raise ValueError(f"observable {kind!r} takes no power")
        if kind == "type_count" and not type_key:
            raise ValueError("type_count observable needs a type_key")
        return super().__new__(cls, kind, power, type_key)

    def label(self) -> str:
        base = self.kind if self.kind != "type_count" else f"type_count[{self.type_key}]"
        return base if self.power == 1 else f"{base}^{self.power}"

    def value(self, k: int, nbhd: int, count: int) -> int:
        """On a stratum-k cluster: total neighborhood nbhd, count of type_key."""
        if self.kind == "size_nbhd":
            return k * nbhd
        base = {"one": 1, "size": k, "nbhd": nbhd, "type_count": count}[self.kind]
        return base ** self.power


# -- hypercube cluster enumeration ---------------------------------------------


class Cluster(NamedTuple):
    """A rooted cluster: multiset of polymer supports, union meeting V0."""

    supports: tuple[tuple[int, ...], ...]  # sorted, with repetition
    total_size: int
    nbhd_total: int  # sum of |N(S)| over entries, with repetition
    union_size: int
    orderings: int
    phi: Fraction


def _interact(s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """Whether two one-parity supports lie within distance 2 of each other
    (a shared vertex or a shared neighbor)."""
    return any((u ^ w).bit_count() <= 2 for u in s for w in t)


def _orderings_phi(key: tuple[tuple[int, ...], ...]) -> tuple[int, Fraction]:
    """The orderings factor and phi of a multiset: the sorted support tuples
    of `key`, repeats adjacent (module docstring, Connectivity)."""
    n = len(key)
    orderings = math.factorial(n)
    run = 1
    for i in range(1, n):
        run = run + 1 if key[i] == key[i - 1] else 1
        orderings //= run
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if _interact(key[i], key[j]))
    return orderings, _ursell_cached(n, edges)


def _touching(d: int, union: frozenset, joins: int | None, room: int,
              bud: list[int] | None) -> dict[tuple[int, ...], tuple[int, int]]:
    """{sorted support: (active mask, deficiency)} over the polymers of size
    <= room that the growth kernel grows from a vertex of `union` or a
    distance-2 neighbor of one, cut by the gap bound against `joins` when it
    is given (polymers._grow_polymers)."""
    targets = set(union)
    for m in hc._square_masks(d):
        targets.update([v ^ m for v in union])
    touching = {}
    for w in targets:
        for verts, mask, deficiency, _ in pm._grow_polymers(d, w, room, bud, joins):
            touching[tuple(sorted(verts))] = mask, deficiency
    return touching


def _multisets(d: int, max_total: int, starts: Iterable[tuple],
               bud: list[int] | None, prefix_cut: bool) -> Iterator[tuple]:
    """Every rooted multiset of total size <= max_total grown from `starts`,
    the growth kernel's rooted sets, each once (module docstring,
    Connectivity), as (key, union, mask, total, e): the sorted support
    tuples, the union of the supports, its active mask, the total size and
    the sum of the entries' deficiencies.  Depth first over an explicit
    stack, each multiset before its children.

    With prefix_cut, a support joins only while the union, at total size t,
    may still become a prefix with room max_total - t (polymers'
    _may_become_prefix), and every start must have passed the same test
    (module docstring, Representatives).
    """
    # the starts are distinct and every child has two entries or more, so no
    # start needs a seen_keys entry
    seen_keys: set[tuple] = set()
    for verts, mask, deficiency, _ in starts:
        s = tuple(sorted(verts))
        node = ((s,), frozenset(s), mask, len(s), deficiency)
        stack = []  # (multiset, the supports it has not yet been grown by)
        while node is not None:
            yield node
            key, union, umask, total, e = node
            if total < max_total:
                if bud is not None:
                    bud[0] -= 1
                    if bud[0] < 0:
                        raise BudgetExceededError("cluster enumeration budget exhausted")
                touching = _touching(d, union, umask if prefix_cut else None,
                                     max_total - total, bud)
                stack.append((node, iter(touching.items())))
            node = None
            while stack and node is None:
                (key, union, umask, total, e), rest = stack[-1]
                for s, (mask, deficiency) in rest:
                    i = bisect_right(key, s)
                    child = key[:i] + (s,) + key[i:]
                    if child not in seen_keys:
                        seen_keys.add(child)
                        node = (child, union.union(s), umask | mask, total + len(s),
                                e + deficiency)
                        break
                else:
                    stack.pop()


def enumerate_clusters(d: int, max_total: int) -> list[Cluster]:
    """All rooted clusters with total size <= max_total, each exactly once.

    Rooted means the union of supports contains the root vertex; global sums
    are recovered as n_side * sum over rooted clusters of value/|union|.
    The stratum tables do not use it: it is the differential reference for
    _stratum_table's representative enumeration, in the tests.
    """
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    starts = pm._grow_polymers(d, pm.V0, max_total)
    out = []
    for key, union, _, total, e in _multisets(d, max_total, starts, None, False):
        orderings, phi = _orderings_phi(key)
        out.append(Cluster(key, total, d * total - e, len(union), orderings, phi))
    return sorted(out, key=lambda c: (c.total_size, c.supports))


# -- stratum sums ----------------------------------------------------------------


# Stratum tables by (b, k, type_key), oldest evicted first; b <= free_dim(k),
# so a few serve every d.  A hit spends no budget, and only an enumeration
# that ran out of budget is not stored.
_TABLE_CACHE_SIZE = 8
_table_cache: dict[tuple[int, int, str | None], dict] = {}


def _stratum_table(b: int, k: int, type_key: str | None, budget: int | None) -> dict:
    """{((e, n), a): sum of orderings * phi / |union|} over the rooted
    stratum-k clusters at dimension b, by deficiency sum e, number n of
    supports of type type_key (classified at b; 0 without a type_key) and
    active count a.

    Only the clusters whose active coordinates are 0, ..., a-1 are grown and
    folded, each once (module docstring).  `budget` counts the nodes of the
    cut search.
    """
    hit = _table_cache.get((b, k, type_key))
    if hit is not None:
        return hit
    bud = [budget] if budget is not None else None
    table: dict = {}
    for key, union, mask, total, e in _multisets(
            b, k, pm._prefix_candidates(b, k, bud), bud, True):
        if total != k or not pm._is_prefix(mask):
            continue
        orderings, phi = _orderings_phi(key)
        n = sum(pm.classify(s, b).key == type_key for s in key) if type_key else 0
        bucket = ((e, n), mask.bit_count())
        table[bucket] = table.get(bucket, 0) + Fraction(orderings, len(union)) * phi
    if len(_table_cache) >= _TABLE_CACHE_SIZE:
        del _table_cache[next(iter(_table_cache))]
    _table_cache[(b, k, type_key)] = table
    return table


class ClusterSum(NamedTuple):
    """Exact stratum sum: full value = n_side * lam^k * poly(lam) * (1+lam)^(-k d)."""

    d: int
    k: int
    observable: Observable
    poly: RatPoly  # in lam

    def value(self, lam: Fraction) -> Fraction:
        lam = Fraction(lam)
        if lam <= 0:
            raise ValueError("fugacity must be positive")
        n = hc.n_side(self.d)
        return (n * lam ** self.k * self.poly.eval({"lam": lam})
                * (1 + lam) ** (-self.k * self.d))

    def to_json(self) -> dict:
        return {"d": self.d, "k": self.k, "observable": self.observable.label(),
                "poly": self.poly.to_json()}


def cluster_sum(d: int, k: int, observable: Observable = Observable("one"),
                budget: int | None = None) -> ClusterSum:
    """Sum observable * weight over all clusters of stratum k, exactly.

    The result is returned as the polynomial factor of
    n_side * lam^k * poly * (1+lam)^(-k*d).

    The stratum's table is built once, at the base dimension
    b = min(d, free_dim(k)), and rescaled to d (module docstring); the
    exponent e is the same at d, and the total neighborhood there, which
    nbhd and size_nbhd read, is k*d - e.  `budget` limits the enumeration
    at b; a cached table spends none.

    The polynomial is built in integers over the one common denominator D
    of polymers._rescale: N_e / D sums the rescaled entries of exponent e
    times the observable, and the lam^i coefficient of
    sum_e N_e (1+lam)^e / D is sum_e N_e * C(e, i).  It has the variable
    lam exactly when some e > 0 has N_e != 0.
    """
    if d < 2:
        raise ValueError("the defect model needs d >= 2")
    hc.check_dim(d)
    if k < 1:
        raise ValueError("stratum index must be >= 1")
    b = min(d, free_dim(k))
    table = _stratum_table(b, k, observable.type_key, budget)
    rescaled, den = pm._rescale(table, d)
    by_exponent: dict[int, int] = {}
    for (e, n), c in rescaled.items():
        by_exponent[e] = by_exponent.get(e, 0) + c * observable.value(k, k * d - e, n)
    coeffs: dict[int, int] = {}
    for e, c in by_exponent.items():
        if c:
            binom = 1  # C(e, i)
            for i in range(e + 1):
                coeffs[i] = coeffs.get(i, 0) + c * binom
                binom = binom * (e - i) // (i + 1)
    if any(e and c for e, c in by_exponent.items()):
        poly = _reduced(("lam",), {(i,): c for i, c in coeffs.items() if c}, den)
    else:
        poly = _reduced((), {(): c for c in coeffs.values() if c}, den)
    return ClusterSum(d=d, k=k, observable=observable, poly=poly)


# -- count-graded truncation (exact, small d) ---------------------------------------


@lru_cache(maxsize=8)
def _universe_counts(d: int) -> dict[tuple[int, int, int], int]:
    """exact._collection_counts over every polymer at this dimension.

    The universe has polymers up to size n_side/2, so it is only enumerable
    at d <= 5 (7292 polymers; d = 6 would need supports up to size 16 on a
    32-vertex side).
    """
    if d > 5:
        raise ValueError("the full polymer universe is only enumerable for d <= 5")
    from . import exact

    half = hc.n_side(d) // 2
    return exact._collection_counts(
        [frozenset(g[0]) for root in hc.odd_side(d)
         for g in pm._grow_polymers(d, root, half, above_root=True)], d)


def log_xi_series(d: int, lam: Fraction, kmax: int) -> list[Fraction]:
    """Taylor coefficients L_1..L_kmax of log Xi graded by polymer count.

    With Xi(t) = 1 + sum_n c_n t^n marking every polymer with t, the
    coefficient L_n collects exactly the clusters made of n polymers;
    n L_n = n c_n - sum_{j<n} j L_j c_{n-j}.  The c_n come from the full
    polymer universe, so this is a small-d tool (d <= 5).  Successive orders
    fall off in an essentially alternating fashion, which makes the first
    omitted order an empirical bound on the truncation error.  The strata of
    cluster_sum, graded by total polymer size, have no such bound:
    neighboring strata can be comparable in magnitude.
    """
    lam = Fraction(lam)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    c = [Fraction(0)] * (kmax + 1)
    for (n, size, nbhd), count in _universe_counts(d).items():
        if n <= kmax:
            c[n] += count * lam ** size / (1 + lam) ** nbhd
    ell: list[Fraction] = []
    for n in range(1, kmax + 1):
        acc = n * c[n]
        for j in range(1, n):
            acc -= j * ell[j - 1] * c[n - j]
        ell.append(acc / n)
    return ell


def expected_size_truncated(d: int, lam: Fraction, max_total: int) -> Fraction:
    """Mean independent-set size in the one-sided model, truncated at a stratum.

    The fugacity derivative of each cluster weight contributes
    w * (total size - lam/(1+lam) * total neighborhood), so the truncation is
    lam*N/(1+lam) plus stratum sums of those two observables.  This is the
    observable route to lam d/dlam log Xi, a second implementation of the F_j
    route in asymptotics._beta_x_coefficient: acceptance criterion 8
    evaluates it at the lam_beta that route solves for, and criterion 9
    checks it against the sampler's mean |I|.
    """
    lam = Fraction(lam)
    n = hc.n_side(d)
    total = lam * n / (1 + lam)
    for k in range(1, max_total + 1):
        s_one = cluster_sum(d, k).value(lam)
        s_nbhd = cluster_sum(d, k, Observable("nbhd")).value(lam)
        total += k * s_one - lam / (1 + lam) * s_nbhd
    return total


def clear_caches() -> None:
    _table_cache.clear()
    _ursell_cached.cache_clear()
    _universe_counts.cache_clear()


# -- abstract universes (validation harness) -------------------------------------


def abstract_cluster_log(weights: list[RatPoly], incompatible: set[tuple[int, int]],
                         max_total: int) -> RatPoly:
    """Cluster expansion of log Xi for an explicit finite polymer universe.

    weights[i] is the (symbolic or numeric) weight of polymer i; incompatible
    lists unordered index pairs that interact (every polymer interacts with
    itself).  Returns the sum over connected multisets with at most max_total
    polymers counted with multiplicity, as a polynomial in the weights.
    """
    m = len(weights)
    pairs = {(min(a, b), max(a, b)) for a, b in incompatible}

    out = RatPoly.const(0)
    for used in range(1, max_total + 1):
        # each multiset once, as its sorted positions
        for positions in combinations_with_replacement(range(m), used):
            edges = []
            for a in range(used):
                for b in range(a + 1, used):
                    pa, pb = positions[a], positions[b]
                    if pa == pb or (pa, pb) in pairs:
                        edges.append((a, b))
            phi = _ursell_cached(used, tuple(edges))
            if phi:
                orderings = math.factorial(used)
                term = RatPoly.const(1)
                for i, c in Counter(positions).items():
                    orderings //= math.factorial(c)
                    term = term * weights[i] ** c
                out = out + term * (phi * orderings)
    return out


def abstract_log_direct(weights: list[RatPoly], incompatible: set[tuple[int, int]],
                        max_total: int) -> RatPoly:
    """log of the explicit partition sum, Taylor-truncated to total degree max_total.

    Xi sums the weight product over all subsets of pairwise compatible
    polymers; log(1 + P) is expanded as an alternating series, truncating
    every product at total degree max_total in the weights.
    """
    m = len(weights)
    pairs = {(min(a, b), max(a, b)) for a, b in incompatible}

    # each nonempty compatible subset once, grown in index order from a
    # stack of (chosen, its weight product, the first index to add)
    p = RatPoly.const(0)
    stack = [((), RatPoly.const(1), 0)]
    while stack:
        chosen, product, start = stack.pop()
        for i in range(start, m):
            if all((j, i) not in pairs for j in chosen):
                term = product * weights[i]
                p = p + term
                stack.append((chosen + (i,), term, i + 1))
    p = p.truncate_total_degree(max_total)

    out = RatPoly.const(0)
    power = RatPoly.const(1)
    for j in range(1, max_total + 1):
        power = (power * p).truncate_total_degree(max_total)
        out = out + power * Fraction((-1) ** (j + 1), j)
    return out
