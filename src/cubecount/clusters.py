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
connected support of size <= k is a polymer.  Hence a stratum sum at any d
follows from the clusters at the base dimension b = min(d, free_dim(k)):
each one found at b with a active coordinates stands for C(d, a)/C(b, a)
clusters at d (cluster_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from . import hypercube as hc
from . import polymers as pm
from .errors import BudgetExceededError
from .symbolic import RatPoly

# -- Ursell coefficients -------------------------------------------------------


def _spanning_connected_sum(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    """sum over spanning connected edge subsets of (-1)^|A| (multigraphs ok)."""
    total = 0
    m = len(edges)
    for mask in range(1 << m):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parts = n
        for i in range(m):
            if mask >> i & 1:
                a, b = edges[i]
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    parts -= 1
        if parts == 1:
            total += -1 if mask.bit_count() & 1 else 1
    return total


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


def ursell(n: int, edges: Iterable[tuple[int, int]]) -> Fraction:
    """Ursell coefficient phi of a graph on vertices 0..n-1.

    Zero when the graph is disconnected; phi(K1) = 1, phi(K2) = -1/2.
    """
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    es = tuple((min(a, b), max(a, b)) for a, b in edges)
    for a, b in es:
        if a < 0 or b >= n:
            raise ValueError("edge endpoint out of range")
    return Fraction(_spanning_connected_sum(n, es), math.factorial(n))


def ursell_recursive(n: int, edges: Iterable[tuple[int, int]]) -> Fraction:
    """Independent deletion-contraction evaluation of the Ursell coefficient."""
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    es = tuple((min(a, b), max(a, b)) for a, b in edges)
    return Fraction(_dc_sum(n, es), math.factorial(n))


@lru_cache(maxsize=65536)
def _ursell_cached(n: int, edges: tuple[tuple[int, int], ...]) -> Fraction:
    return ursell(n, edges)


# -- observables ---------------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    """Per-cluster quantity summed against cluster weights.

    kind: 'one' | 'size' | 'nbhd' | 'type_count' | 'size_nbhd'
    power applies to size/nbhd/type_count; type_key selects the defect type.
    """

    kind: str
    power: int = 1
    type_key: str | None = None

    def __post_init__(self):
        if self.kind not in ("one", "size", "nbhd", "type_count", "size_nbhd"):
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.power < 1:
            raise ValueError("observable power must be >= 1")
        if self.kind == "type_count" and not self.type_key:
            raise ValueError("type_count observable needs a type_key")

    @staticmethod
    def one() -> "Observable":
        return Observable("one")

    @staticmethod
    def size(power: int = 1) -> "Observable":
        return Observable("size", power)

    @staticmethod
    def nbhd(power: int = 1) -> "Observable":
        return Observable("nbhd", power)

    @staticmethod
    def type_count(type_key: str, power: int = 1) -> "Observable":
        return Observable("type_count", power, type_key)

    @staticmethod
    def size_nbhd() -> "Observable":
        return Observable("size_nbhd")

    def label(self) -> str:
        base = self.kind if self.kind != "type_count" else f"type_count[{self.type_key}]"
        return base if self.power == 1 else f"{base}^{self.power}"


# -- hypercube cluster enumeration ---------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """A rooted cluster: multiset of polymer supports, union meeting V0."""

    supports: tuple[tuple[int, ...], ...]  # sorted, with repetition
    total_size: int
    nbhd_total: int  # sum of |N(S)| over entries, with repetition
    union_size: int
    orderings: int
    phi: Fraction
    type_counts: tuple[tuple[str, int], ...]  # defect-type key -> multiplicity

    def weight(self, lam: Fraction, d: int) -> Fraction:
        """Ordered-tuple weight sum of this multiset at fugacity lam."""
        lam = Fraction(lam)
        return (self.orderings * self.phi * lam ** self.total_size
                / (1 + lam) ** self.nbhd_total)


def _multiset_key(supports: list[frozenset]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(s)) for s in supports))


def _interaction_edges(supports: list[frozenset], nbhds: list[set[int]]) \
        -> tuple[tuple[int, int], ...]:
    edges = []
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j] or nbhds[i] & nbhds[j]:
                edges.append((i, j))
    return tuple(edges)


def _orderings(key: tuple[tuple[int, ...], ...]) -> int:
    mults: dict[tuple[int, ...], int] = {}
    for s in key:
        mults[s] = mults.get(s, 0) + 1
    out = math.factorial(len(key))
    for m in mults.values():
        out //= math.factorial(m)
    return out


def _build_cluster(key: tuple[tuple[int, ...], ...], d: int) -> Cluster | None:
    """Assemble cluster data; None when the interaction graph is disconnected."""
    supports = [frozenset(s) for s in key]
    nbhds = [hc._neighborhood(s, d) for s in supports]
    edges = _interaction_edges(supports, nbhds)

    # connectivity of H
    n = len(supports)
    seen = {0}
    stack = [0]
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != n:
        return None

    phi = _ursell_cached(n, edges)
    union: set[int] = set()
    for s in supports:
        union |= s
    types: dict[str, int] = {}
    for s in supports:
        k = pm.classify(s, d).key
        types[k] = types.get(k, 0) + 1
    return Cluster(
        supports=key,
        total_size=sum(len(s) for s in supports),
        nbhd_total=sum(len(nb) for nb in nbhds),
        union_size=len(union),
        orderings=_orderings(key),
        phi=phi,
        type_counts=tuple(sorted(types.items())),
    )


# Completed enumerations by (d, max_total), oldest evicted first.  Stratum
# sums only ever enumerate at d <= free_dim(k), so a few entries serve them all.
_CLUSTER_CACHE_SIZE = 8
_cluster_cache: dict[tuple[int, int], list[Cluster]] = {}


def enumerate_clusters(d: int, max_total: int,
                       budget: int | None = None) -> list[Cluster]:
    """All rooted clusters with total size <= max_total, each exactly once.

    Rooted means the union of supports contains the root vertex; global sums
    are recovered as n_side * sum over rooted clusters of value/|union|.

    The result is cached by (d, max_total) whatever the budget: a cached
    enumeration is returned without spending any budget, and one that
    finishes within its budget is the same list as an unbudgeted one, so it
    is stored too.  Only an exhausted budget leaves the cache unchanged.
    """
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    hit = _cluster_cache.get((d, max_total))
    if hit is not None:
        return hit

    bud = [budget] if budget is not None else None
    seen_keys: set[tuple] = set()
    found: list[tuple] = []

    def rec(supports: list[frozenset], total: int) -> None:
        key = _multiset_key(supports)
        if key in seen_keys:
            return
        seen_keys.add(key)
        found.append(key)
        room = max_total - total
        if room < 1:
            return
        if bud is not None:
            bud[0] -= 1
            if bud[0] < 0:
                raise BudgetExceededError("cluster enumeration budget exhausted")
        union: set[int] = set()
        for s in supports:
            union |= s
        targets = set(union)
        for v in union:
            targets.update(hc._square_neighbors(v, d))
        for cand in pm.polymers_touching(frozenset(targets), d, room, bud):
            rec(supports + [cand], total + len(cand))

    for start in pm.rooted_polymer_supports(d, max_total, budget):
        rec([start], len(start))

    out = []
    for key in sorted(found):
        c = _build_cluster(key, d)
        if c is not None:
            out.append(c)
    out.sort(key=lambda c: (c.total_size, c.supports))
    if len(_cluster_cache) >= _CLUSTER_CACHE_SIZE:
        del _cluster_cache[next(iter(_cluster_cache))]
    _cluster_cache[(d, max_total)] = out
    return out


# -- stratum sums ----------------------------------------------------------------


def free_dim(k: int) -> int:
    """Smallest d >= max(2, 2(k-1)) with d*k <= 2^(d-2).

    From this dimension on every connected support of size <= k is a
    polymer, and every stratum-k cluster's active coordinates fit in it.
    """
    d = max(2, 2 * (k - 1))
    while d * k > 1 << (d - 2):
        d += 1
    return d


def _observable_value(c: Cluster, obs: Observable, nbhd_total: int) -> int:
    """Observable of c, with nbhd_total its total neighborhood at the target d."""
    if obs.kind == "one":
        return 1
    if obs.kind == "size":
        return c.total_size ** obs.power
    if obs.kind == "nbhd":
        return nbhd_total ** obs.power
    if obs.kind == "size_nbhd":
        return c.total_size * nbhd_total
    if obs.kind == "type_count":
        count = dict(c.type_counts).get(obs.type_key, 0)
        return count ** obs.power
    raise ValueError(f"unknown observable kind {obs.kind!r}")


@dataclass(frozen=True)
class ClusterSum:
    """Exact stratum sum: full value = n_side * lam^k * poly(lam) * (1+lam)^(-k d)."""

    d: int
    k: int
    observable: Observable
    poly: RatPoly  # in lam

    def value(self, lam: Fraction) -> Fraction:
        lam = Fraction(lam)
        n = hc.n_side(self.d)
        return (n * lam ** self.k * self.poly.eval({"lam": lam})
                * (1 + lam) ** (-self.k * self.d))

    def to_json(self) -> dict:
        return {"d": self.d, "k": self.k, "observable": self.observable.label(),
                "poly": self.poly.to_json()}


@lru_cache(maxsize=None)
def _one_plus_lam_power(e: int) -> RatPoly:
    return (RatPoly.var("lam") + 1) ** e


def cluster_sum(d: int, k: int, observable: Observable = Observable.one(),
                budget: int | None = None) -> ClusterSum:
    """Sum observable * weight over all clusters of stratum k, exactly.

    The result is returned as the polynomial factor of
    n_side * lam^k * poly * (1+lam)^(-k*d); coefficients are Fractions.

    Clusters are enumerated once, at the base dimension
    b = min(d, free_dim(k)), and rescaled to d by active coordinates (see the
    module docstring): a cluster with a active coordinates counts
    C(d, a)/C(b, a) times, its exponent e = k*b - nbhd_total is the sum of
    its deficiencies and so the same at d, and its total neighborhood at d,
    which the nbhd and size_nbhd observables read, is k*d - e.  For
    d <= free_dim(k) the base is d itself and every factor is 1.  `budget`
    limits the enumeration at the base dimension; when that enumeration is
    already cached (see enumerate_clusters) no budget is spent.
    """
    if d < 2:
        raise ValueError("the defect model needs d >= 2")
    if k < 1:
        raise ValueError("stratum index must be >= 1")
    b = min(d, free_dim(k))
    clusters = enumerate_clusters(b, k, budget)
    # accumulate rational coefficients per power of (1+lam)
    by_exponent: dict[int, Fraction] = {}
    for c in clusters:
        if c.total_size != k:
            continue
        e = k * b - c.nbhd_total
        assert e >= 0
        val = _observable_value(c, observable, k * d - e)
        if not val:
            continue
        a = pm._active_count(v for s in c.supports for v in s)
        coef = Fraction(c.orderings * val * math.comb(d, a),
                        c.union_size * math.comb(b, a)) * c.phi
        by_exponent[e] = by_exponent.get(e, Fraction(0)) + coef
    poly = RatPoly.const(0)
    for e, coef in sorted(by_exponent.items()):
        if coef:
            poly = poly + _one_plus_lam_power(e) * coef
    return ClusterSum(d=d, k=k, observable=observable, poly=poly)


def stratum_value(d: int, k: int, lam: Fraction,
                  observable: Observable = Observable.one()) -> Fraction:
    return cluster_sum(d, k, observable).value(lam)


def stratum_partial_sum(d: int, lam: Fraction, max_total: int) -> Fraction:
    """Expansion of log(polymer partition function), strata <= max_total.

    Strata here are graded by total polymer size, the grading that produces
    the R_j coefficient polynomials.  Neighboring strata can be comparable
    in magnitude (the stratum k+1 leading coefficient often outweighs the
    extra power of lam), so the first omitted stratum is not a reliable
    error bound for these partial sums; see truncated_log_xi for the
    grading that has one.
    """
    lam = Fraction(lam)
    return sum((stratum_value(d, k, lam) for k in range(1, max_total + 1)), Fraction(0))


# -- count-graded truncation (exact, small d) ---------------------------------------


@lru_cache(maxsize=8)
def _full_universe(d: int) -> tuple[tuple[int, int, Fraction, Fraction], ...]:
    """Every polymer at this dimension as (support mask, nbhd mask, |S|, |N(S)|).

    The universe has polymers up to size n_side/2, so it is only enumerable
    at d <= 5 (7292 polymers; d = 6 would need supports up to size 16 on a
    32-vertex side).
    """
    if d > 5:
        raise ValueError("the full polymer universe is only enumerable for d <= 5")
    half = hc.n_side(d) // 2
    out = []
    for root in hc.odd_side(d):
        def nbrs(v: int, _root=root) -> tuple[int, ...]:
            return tuple(u for u in hc._square_neighbors(v, d) if u > _root)

        for s in pm._grow_connected(root, half, nbrs, None):
            if pm._is_valid(s, d):
                sup_mask = 0
                for v in s:
                    sup_mask |= 1 << v
                nb = hc._neighborhood(s, d)
                nb_mask = 0
                for v in nb:
                    nb_mask |= 1 << v
                out.append((sup_mask, nb_mask, len(s), len(nb)))
    out.sort()
    return tuple(out)


def _collection_sums(d: int, lam: Fraction, kmax: int) -> list[Fraction]:
    """c_n = sum of weight products over compatible n-polymer collections.

    Polymers are compatible when both their supports and their neighborhoods
    are disjoint (graph distance > 2), so the test is two mask intersections.
    Index n runs 1..kmax; the scan under the hood is quadratic in the size
    of the universe, noticeable at d = 5.
    """
    universe = _full_universe(d)
    weights = [lam ** size / (1 + lam) ** nbsize
               for _, _, size, nbsize in universe]
    count = len(universe)
    c = [Fraction(0)] * (kmax + 1)

    def rec(start: int, depth: int, sup_acc: int, nb_acc: int,
            w_acc: Fraction) -> None:
        for j in range(start, count):
            sup, nb, _, _ = universe[j]
            if sup & sup_acc or nb & nb_acc:
                continue
            w2 = w_acc * weights[j]
            c[depth] += w2
            if depth < kmax:
                rec(j + 1, depth + 1, sup_acc | sup, nb_acc | nb, w2)

    if kmax >= 1:
        rec(0, 1, 0, 0, Fraction(1))
    return c[1:]


def log_xi_series(d: int, lam: Fraction, kmax: int) -> list[Fraction]:
    """Taylor coefficients L_1..L_kmax of log Xi graded by polymer count.

    With Xi(t) = 1 + sum_n c_n t^n marking every polymer with t, the
    coefficient L_n collects exactly the clusters made of n polymers;
    n L_n = n c_n - sum_{j<n} j L_j c_{n-j}.
    """
    lam = Fraction(lam)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    c = _collection_sums(d, lam, kmax)
    ell: list[Fraction] = []
    for n in range(1, kmax + 1):
        acc = n * c[n - 1]
        for j in range(1, n):
            acc -= j * ell[j - 1] * c[n - j - 1]
        ell.append(acc / n)
    return ell


def truncated_log_xi(d: int, lam: Fraction, max_polymers: int) -> Fraction:
    """log of the polymer partition function, truncated by polymer count.

    Sums the cluster expansion over clusters of at most max_polymers
    polymers (of any size), computed exactly from the full universe, so it
    is a small-d tool (d <= 5).  Successive orders fall off in an
    essentially alternating fashion, which makes the first omitted order an
    empirical bound on the truncation error; contrast stratum_partial_sum.
    """
    return sum(log_xi_series(d, lam, max_polymers), Fraction(0))


def expected_size_truncated(d: int, lam: Fraction, max_total: int) -> Fraction:
    """Mean independent-set size in the one-sided model, truncated at a stratum.

    The fugacity derivative of each cluster weight contributes
    w * (total size - lam/(1+lam) * total neighborhood), so the truncation is
    lam*N/(1+lam) plus stratum sums of those two observables.
    """
    lam = Fraction(lam)
    n = hc.n_side(d)
    total = lam * n / (1 + lam)
    for k in range(1, max_total + 1):
        s_one = stratum_value(d, k, lam)
        s_nbhd = stratum_value(d, k, lam, Observable.nbhd())
        total += k * s_one - lam / (1 + lam) * s_nbhd
    return total


def clear_caches() -> None:
    _cluster_cache.clear()
    _ursell_cached.cache_clear()
    _full_universe.cache_clear()


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

    def rec(counts: tuple[int, ...], start: int, used: int) -> None:
        nonlocal out
        if used > 0:
            positions = []
            for i, c in enumerate(counts):
                positions += [i] * c
            edges = []
            for a in range(len(positions)):
                for b in range(a + 1, len(positions)):
                    pa, pb = positions[a], positions[b]
                    if pa == pb or (min(pa, pb), max(pa, pb)) in pairs:
                        edges.append((a, b))
            phi = _ursell_cached(len(positions), tuple(edges))
            if phi:
                orderings = math.factorial(used)
                term = RatPoly.const(1)
                for i, c in enumerate(counts):
                    orderings //= math.factorial(c)
                    if c:
                        term = term * weights[i] ** c
                out = out + term * (phi * orderings)
        if used == max_total:
            return
        for i in range(start, m):
            inc = list(counts)
            inc[i] += 1
            rec(tuple(inc), i, used + 1)

    rec((0,) * m, 0, 0)
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

    compatible_subsets: list[tuple[int, ...]] = [()]

    def grow(chosen: tuple[int, ...], start: int) -> None:
        for i in range(start, m):
            if all((min(i, j), max(i, j)) not in pairs for j in chosen):
                compatible_subsets.append(chosen + (i,))
                grow(chosen + (i,), i + 1)

    grow((), 0)

    p = RatPoly.const(0)
    for subset in compatible_subsets:
        if not subset:
            continue
        term = RatPoly.const(1)
        for i in subset:
            term = term * weights[i]
        p = p + term
    p = p.truncate_total_degree(max_total)

    out = RatPoly.const(0)
    power = RatPoly.const(1)
    for j in range(1, max_total + 1):
        power = (power * p).truncate_total_degree(max_total)
        out = out + power * Fraction((-1) ** (j + 1), j)
    return out
