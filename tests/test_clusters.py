"""Ursell coefficients, stratum sums, and the two truncation gradings."""

import collections
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from cubecount import asymptotics as asy
from cubecount import clusters as cl
from cubecount import exact as ex
from cubecount import hypercube as hc
from cubecount import polymers as pm
from cubecount.symbolic import RatPoly


def test_ursell_base_cases():
    assert cl.ursell(1, []) == 1
    assert cl.ursell(2, [(0, 1)]) == Fraction(-1, 2)
    assert cl.ursell(3, [(0, 1), (1, 2), (0, 2)]) == Fraction(1, 3)
    # path on 3 vertices: single spanning connected subgraph, 2 edges
    assert cl.ursell(3, [(0, 1), (1, 2)]) == Fraction(1, 6)
    for phi in (cl.ursell, cl.ursell_recursive):
        with pytest.raises(ValueError, match="endpoint out of range"):
            phi(2, [(0, 5)])
        with pytest.raises(ValueError, match="endpoint out of range"):
            phi(2, [(-1, 1)])
        with pytest.raises(ValueError, match="at least one vertex"):
            phi(0, [])


def test_ursell_vanishes_on_disconnected_graphs():
    assert cl.ursell(2, []) == 0
    assert cl.ursell(3, [(0, 1)]) == 0
    assert cl.ursell(4, [(0, 1), (2, 3)]) == 0


def test_ursell_agrees_with_recursive_form_on_all_small_graphs():
    for n in (2, 3, 4):
        all_edges = list(itertools.combinations(range(n), 2))
        for r in range(len(all_edges) + 1):
            for edges in itertools.combinations(all_edges, r):
                assert cl.ursell(n, edges) == cl.ursell_recursive(n, edges)
    # n = 6, the densest clusters of order six: K6, a seeded sample, and
    # multigraphs, whose loops and parallel edges both routes must count
    k6 = list(itertools.combinations(range(6), 2))
    assert cl.ursell(6, k6) == cl.ursell_recursive(6, k6) == Fraction(-1, 6)
    rng = random.Random(6)
    graphs = [[e for e in k6 if rng.random() < p] for p in (0.3, 0.5, 0.7) for _ in range(10)]
    graphs += [k6[:5] + [(2, 2)], k6[:5] + [(0, 1)], k6 + [(3, 4), (3, 4)]]
    for edges in graphs:
        assert cl.ursell(6, edges) == cl.ursell_recursive(6, edges), edges
    assert cl.ursell(6, graphs[-3]) == 0


def test_observable_labels_and_validation():
    assert cl.Observable("one").label() == "one"
    assert cl.Observable("size", 2).label() == "size^2"
    assert cl.Observable("type_count", type_key="s1c0g0").label() == "type_count[s1c0g0]"
    assert cl.Observable("type_count", 2, "s1c0g0").label() == "type_count[s1c0g0]^2"
    with pytest.raises(ValueError, match="unknown observable kind 'bogus'"):
        cl.Observable("bogus")
    with pytest.raises(ValueError, match="needs a type_key"):
        cl.Observable("type_count")
    with pytest.raises(ValueError, match="power must be >= 1"):
        cl.Observable("size", 0)
    # a power was dropped from these, so size_nbhd^2 summed size_nbhd
    for kind in ("one", "size_nbhd"):
        with pytest.raises(ValueError, match="takes no power"):
            cl.Observable(kind, power=2)


def test_first_stratum_closed_form():
    # single-polymer clusters of size 1: n_side * lam * (1+lam)^{-d}
    d, lam = 4, Fraction(1, 20)
    assert cl.cluster_sum(d, 1).value(lam) == Fraction(64000, 194481)
    assert cl.cluster_sum(d, 1).value(lam) == 8 * lam / (1 + lam) ** d


def test_stratum_partial_sum_is_the_running_total(capsys):
    # clusters --lam adds the stratum it prints to the strata below it
    from cubecount import cli

    d, lam = 4, Fraction(1, 20)
    assert cli.main(["clusters", "--d", str(d), "--k", "4", "--lam", str(lam)]) == 0
    obj = json.loads(capsys.readouterr().out)
    strata = [cl.cluster_sum(d, k).value(lam) for k in range(1, 5)]
    assert obj["stratum_value"] == str(strata[-1])
    assert obj["stratum_partial_sum"] == str(sum(strata))


@pytest.mark.parametrize("lam", [Fraction(-1), Fraction(-2), Fraction(0)])
def test_a_nonpositive_fugacity_is_refused(lam, capsys):
    # -1 divided by zero in (1 + lam)^(-kd); -2 and 0 gave values for a
    # fugacity the model does not have
    from cubecount import cli

    with pytest.raises(ValueError, match="^fugacity must be positive$"):
        cl.cluster_sum(4, 2).value(lam)
    assert cli.main(["clusters", "--d", "4", "--k", "2", f"--lam={lam}"]) == 1
    assert capsys.readouterr().err == "error: fugacity must be positive\n"


def test_cluster_sum_json_shape():
    cs = cl.cluster_sum(3, 1, cl.Observable("size"))
    obj = cs.to_json()
    assert obj["d"] == 3 and obj["k"] == 1 and obj["observable"] == "size"
    assert obj["poly"] == cs.poly.to_json()


def test_size_observable_first_stratum():
    # every size-1 polymer contributes its size 1, so 'size' matches 'one'
    d = 4
    a = cl.cluster_sum(d, 1, cl.Observable("one"))
    b = cl.cluster_sum(d, 1, cl.Observable("size"))
    assert a.poly == b.poly


def xi_by_enumeration(d: int, lam: Fraction) -> Fraction:
    """Polymer-model partition function summed over compatible sets."""
    items = []
    for p in pm.enumerate_polymers(d, hc.n_side(d)):
        sup = 0
        for v in p.support:
            sup |= 1 << v
        nb = 0
        for v in hc.neighborhood(p.support, d):
            nb |= 1 << v
        items.append((sup, nb, p.weight(lam)))

    def rec(i: int, sup_acc: int, nb_acc: int) -> Fraction:
        if i == len(items):
            return Fraction(1)
        total = rec(i + 1, sup_acc, nb_acc)
        sup, nb, w = items[i]
        if not (sup & sup_acc) and not (nb & nb_acc):
            total += w * rec(i + 1, sup_acc | sup, nb_acc | nb)
        return total

    return rec(0, 0, 0)


def test_enumerated_xi_matches_restricted_model():
    # two independent routes: compatible polymer sets vs direct counting
    for lam in (Fraction(1), Fraction(1, 20), Fraction(3, 2)):
        assert xi_by_enumeration(4, lam) == ex.odd_model_exact(4).xi_value(lam)


def test_count_graded_series_converges_to_log_xi():
    d, lam = 4, Fraction(1, 20)
    target = math.log(xi_by_enumeration(d, lam))
    series = cl.log_xi_series(d, lam, 6)
    partial = Fraction(0)
    errs = []
    for term in series:
        partial += term
        errs.append(abs(float(partial) - target))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-4
    assert series[:3] == cl.log_xi_series(d, lam, 3)  # a shorter series is a prefix


def test_count_graded_leading_terms_by_hand():
    # order 1 is the sum of polymer weights; order 2 is c_2 - c_1^2 / 2
    d, lam = 4, Fraction(1, 20)
    series = cl.log_xi_series(d, lam, 2)
    polys = pm.enumerate_polymers(d, hc.n_side(d))
    c1 = sum(p.weight(lam) for p in polys)
    assert series[0] == c1
    assert series[0] == Fraction(75392000, 200120949)
    pair_sum = Fraction(0)
    for a, b in itertools.combinations(polys, 2):
        if set(a.support) & set(b.support):
            continue
        if set(hc.neighborhood(a.support, d)) & set(hc.neighborhood(b.support, d)):
            continue
        pair_sum += a.weight(lam) * b.weight(lam)
    assert series[1] == pair_sum - c1 * c1 / 2


def test_count_graded_universe_needs_small_d():
    with pytest.raises(ValueError):
        cl.log_xi_series(6, Fraction(1, 10), 2)


def test_size_graded_total_tracks_odd_model():
    # the size-graded strata converge to log Xi too; at weak fugacity the
    # running total lands close to the exact restricted-model value
    d, lam = 4, Fraction(1, 100)
    target = math.log(float(ex.odd_model_exact(d).xi_value(lam)))
    got = float(sum(cl.cluster_sum(d, k).value(lam) for k in range(1, 5)))
    assert abs(got - target) < 1e-6


def test_expected_size_truncated_assembles_observable_strata():
    # E|I| truncation: lam N/(1+lam) + sum_k [k s_k - lam/(1+lam) s_k^nbhd]
    d, lam = 6, Fraction(1, 30)
    n = hc.n_side(d)
    b = lam / (1 + lam)
    s1 = cl.cluster_sum(d, 1).value(lam)
    s1_size = cl.cluster_sum(d, 1, cl.Observable("size")).value(lam)
    s1_nbhd = cl.cluster_sum(d, 1, cl.Observable("nbhd")).value(lam)
    assert s1_size == s1  # stratum 1 holds only size-1 polymers
    assert cl.expected_size_truncated(d, lam, 1) == n * b + s1 - b * s1_nbhd


def test_abstract_universe_log_identities():
    # three abstract polymers, star incompatibility, symbolic weights
    w = [RatPoly.var(f"w{i}") for i in range(3)]
    edges = {(0, 1), (0, 2)}
    order = 5
    assert cl.abstract_cluster_log(w, edges, order) == cl.abstract_log_direct(
        w, edges, order)


def test_abstract_universe_independent_polymers_add():
    # no incompatibilities: log Xi = sum of log(1 + w_i) termwise
    w = [RatPoly.var("a"), RatPoly.var("b")]
    got = cl.abstract_cluster_log(w, set(), 4)
    expect = RatPoly.const(0)
    for v in w:
        for j in range(1, 5):
            expect = expect + v ** j * Fraction((-1) ** (j + 1), j)
    assert got == expect


def test_cache_clearing_keeps_results_stable():
    before = cl.cluster_sum(4, 2).value(Fraction(1, 7))
    cl.clear_caches()
    assert cl.cluster_sum(4, 2).value(Fraction(1, 7)) == before


def test_free_dim_values():
    assert [cl.free_dim(k) for k in (1, 2, 3, 4)] == [4, 6, 7, 7]


def connected_rooted_sets(d: int, max_size: int) -> set[frozenset]:
    """The sets of at most max_size odd vertices that contain V0 and are
    connected under distance-2 steps, grown breadth first."""
    layer = {frozenset((pm.V0,))}
    out = set(layer)
    for _ in range(max_size - 1):
        layer = {s | {u} for s in layer for v in s
                 for u in hc.square_neighbors(v, d) if u not in s}
        out |= layer
    return out


def test_every_connected_support_is_a_polymer_from_free_dim():
    # the rescaling in cluster_sum rests on closure never binding at free_dim,
    # so there the growth kernel yields every connected rooted set, once
    for k in (1, 2, 3, 4):
        d = cl.free_dim(k)
        grown = [frozenset(g[0]) for g in pm._grow_polymers(d, pm.V0, k)]
        assert len(grown) == len(set(grown)), k
        assert set(grown) == connected_rooted_sets(d, k), k


def seed_cluster_sum_poly(d: int, k: int, obs: cl.Observable) -> RatPoly:
    """Reference stratum sum: every cluster enumerated at d itself."""
    by_exponent = {}
    for c in cl.enumerate_clusters(d, k):
        if c.total_size != k:
            continue
        val = {"one": 1,
               "size": c.total_size ** obs.power,
               "nbhd": c.nbhd_total ** obs.power,
               "size_nbhd": c.total_size * c.nbhd_total,
               "type_count": sum(pm.classify(s, d).key == obs.type_key
                                 for s in c.supports) ** obs.power,
               }[obs.kind]
        e = k * d - c.nbhd_total
        coef = Fraction(c.orderings * val, c.union_size) * c.phi
        by_exponent[e] = by_exponent.get(e, Fraction(0)) + coef
    poly = RatPoly.const(0)
    for e, coef in by_exponent.items():
        poly = poly + (RatPoly.var("lam") + 1) ** e * coef
    return poly


def test_rescaled_cluster_sum_matches_enumeration_at_d():
    observables = (cl.Observable("one"), cl.Observable("size", 2), cl.Observable("nbhd", 2),
                   cl.Observable("size_nbhd"), cl.Observable("type_count", 2, "s1c0g0"))
    for k in (1, 2, 3):
        for d in (cl.free_dim(k), cl.free_dim(k) + 1):
            for obs in observables:
                assert cl.cluster_sum(d, k, obs).poly == \
                    seed_cluster_sum_poly(d, k, obs), (d, k, obs.label())


def ratpoly_cluster_sum_poly(d: int, k: int, obs: cl.Observable) -> RatPoly:
    """cluster_sum's polynomial from the same stratum table in Fraction and
    RatPoly arithmetic: sum_e coef_e * (lam+1)^e, with coef_e the entries
    of exponent e weighed by C(d, a) and by the observable."""
    b = min(d, cl.free_dim(k))
    table = cl._stratum_table(b, k, obs.type_key, None)
    by_exponent = {}
    for ((e, n), a), r in table.items():
        coef = r * math.comb(d, a) * obs.value(k, k * d - e, n)
        by_exponent[e] = by_exponent.get(e, 0) + coef
    poly = RatPoly.const(0)
    for e, coef in sorted(by_exponent.items()):
        if coef:
            poly = poly + (RatPoly.var("lam") + 1) ** e * coef
    return poly


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_cluster_sum_matches_ratpoly_arithmetic(k):
    """Equal JSON, so the same variables too: k = 1 has no lam."""
    observables = (cl.Observable("one"), cl.Observable("size"), cl.Observable("size", 3),
                   cl.Observable("nbhd"), cl.Observable("nbhd", 2), cl.Observable("size_nbhd"),
                   cl.Observable("type_count", type_key="s1c0g0"),
                   cl.Observable("type_count", 2, "s2c2g1"))
    for d in (2, 2 * k + 1, cl.free_dim(k), cl.free_dim(k) + 1, 14, 24):
        for obs in observables:
            got = cl.cluster_sum(d, k, obs).poly
            want = ratpoly_cluster_sum_poly(d, k, obs)
            assert got.to_json() == want.to_json(), (d, k, obs.label())


def folded_stratum_table(b: int, k: int, type_key: str | None) -> dict:
    """_stratum_table times C(b, a), by definition: every rooted cluster
    at b folded, with no prefix representatives."""
    table = {}
    for c in cl.enumerate_clusters(b, k):
        if c.total_size != k:
            continue
        n = sum(pm.classify(s, b).key == type_key for s in c.supports) if type_key else 0
        mask = 0  # the active coordinates: where some vertex differs from V0
        for v in set().union(*c.supports):
            mask |= v ^ pm.V0
        a = mask.bit_count()
        bucket = ((k * b - c.nbhd_total, n), a)
        table[bucket] = table.get(bucket, 0) + Fraction(c.orderings, c.union_size) * c.phi
    return table


@pytest.mark.parametrize("b", [2, 3, 4, 5, 6, 7, 8])
def test_stratum_table_matches_every_rooted_cluster(b):
    for k in (1, 2, 3):
        for type_key in (None, "s1c0g0"):
            cl.clear_caches()
            # each representative stands for the C(b, a) clusters at b
            table = {(key, a): r * math.comb(b, a) for (key, a), r in
                     cl._stratum_table(b, k, type_key, None).items()}
            assert table == folded_stratum_table(b, k, type_key), (b, k, type_key)


def partitions(total: int, largest: int | None = None):
    """The partitions of total into parts of at most `largest`, each as a
    nonincreasing tuple."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - part, part):
            yield (part,) + rest


def brute_force_clusters(d: int, k: int) -> list[cl.Cluster]:
    """Every rooted cluster of total size <= k from the definitions alone.

    The polymers are the odd sets of size <= k that are connected under
    distance-2 steps and whose closure covers at most half the side, found
    by itertools.combinations rather than the growth kernel.  The
    multisets of each size partition of t <= k are formed by
    combinations_with_replacement; one is a cluster when its union holds V0
    and its interaction graph (a shared vertex or a shared neighbor) is
    connected, which phi != 0 decides."""
    half = hc.n_side(d) // 2
    by_size = {t: [s for s in itertools.combinations(hc.odd_side(d), t)
                   if len(hc.square_components(s, d)) == 1
                   and len(hc.closure(s, d)) <= half]
               for t in range(1, k + 1)}
    out = []
    for total in range(1, k + 1):
        for part in partitions(total):
            groups = [itertools.combinations_with_replacement(by_size[t], m)
                      for t, m in collections.Counter(part).items()]
            for combo in itertools.product(*groups):
                key = tuple(sorted(s for group in combo for s in group))
                union = set().union(*key)
                if pm.V0 not in union:
                    continue
                nbhds = [set(hc.neighborhood(s, d)) for s in key]
                n = len(key)
                edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                         if set(key[i]) & set(key[j]) or nbhds[i] & nbhds[j]]
                phi = cl.ursell_recursive(n, edges)
                if phi == 0:
                    continue
                orderings = math.factorial(n)
                for m in collections.Counter(key).values():
                    orderings //= math.factorial(m)
                out.append(cl.Cluster(key, total, sum(map(len, nbhds)), len(union),
                                      orderings, phi))
    return sorted(out, key=lambda c: (c.total_size, c.supports))


@pytest.mark.parametrize("d, k", [(d, k) for d in (3, 4, 5, 6) for k in (1, 2, 3)]
                         + [(3, 4), (4, 4), (5, 4)])
def test_enumerated_clusters_match_brute_force(d, k):
    assert cl.enumerate_clusters(d, k) == brute_force_clusters(d, k)


def test_stratum_tables_build_no_cluster(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a stratum table built a Cluster")

    cl.clear_caches()
    monkeypatch.setattr(cl, "Cluster", refuse)
    cl.cluster_sum(10, 3)
    cl.cluster_sum(9, 3, cl.Observable("type_count", type_key="s1c0g0"))


def test_budgeted_r_poly_enumerates_each_base_dimension_once(monkeypatch):
    cl.clear_caches()
    asy.clear_caches()
    expect = asy.R_poly(3)
    cl.clear_caches()
    grow = pm._prefix_candidates
    calls = []

    def counted(d, max_size, budget=None):
        calls.append((d, max_size))
        return grow(d, max_size, budget)

    monkeypatch.setattr(pm, "_prefix_candidates", counted)
    # grid d = 7..14, every point with base dimension free_dim(3) = 7
    assert asy.R_poly(3, budget=10 ** 8) == expect
    assert calls == [(7, 3)]


def test_expected_size_enumerates_each_stratum_once(monkeypatch):
    cl.clear_caches()
    grow = pm._prefix_candidates
    calls = []

    def counted(d, max_size, budget=None):
        calls.append((d, max_size))
        return grow(d, max_size, budget)

    monkeypatch.setattr(pm, "_prefix_candidates", counted)
    # the one and nbhd observables of each stratum read the same table
    cl.expected_size_truncated(9, Fraction(1, 3), 3)
    assert sorted(calls) == [(4, 1), (6, 2), (7, 3)]


def test_cluster_cache_is_bounded():
    cl.clear_caches()
    for k in (1, 2, 3):
        for d in range(3, 15):
            cl.cluster_sum(d, k)
            cl.cluster_sum(d, k, cl.Observable("type_count", type_key="s1c0g0"))
            assert len(cl._table_cache) <= cl._TABLE_CACHE_SIZE
    assert len(cl._table_cache) == cl._TABLE_CACHE_SIZE
    cl.clear_caches()
    assert not cl._table_cache


def poly_to_json_str(p: RatPoly) -> str:
    return json.dumps(p.to_json(), sort_keys=True)


# SHA-256 of poly_to_json_str, recorded from the per-cluster sums that the
# (e, a) tables replaced; the differential test above stops at k = 3
STRATUM_4_DIGESTS = {
    "R_poly(4)": "3ef2bc1cf94c16ebe10adfbc307cf83db74f8ddee2c4eac24a5bc914ab66dc09",
    "cluster_sum(10, 4, nbhd^2)":
        "7a9e154b6792a62165261f3b8c010aadb28fc78132a3ca62c087962af3479be8",
}


@pytest.mark.slow
def test_stratum_4_digests_hold():
    def digest(poly):
        return hashlib.sha256(poly_to_json_str(poly).encode()).hexdigest()

    got = {
        "R_poly(4)": digest(asy.R_poly(4, budget=10 ** 9)),
        "cluster_sum(10, 4, nbhd^2)":
            digest(cl.cluster_sum(10, 4, cl.Observable("nbhd", 2)).poly),
    }
    assert got == STRATUM_4_DIGESTS
