"""Every memoizing cache in the package has a size bound."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import cubecount
from cubecount import asymptotics, clusters


def lru_wrappers():
    for info in pkgutil.iter_modules(cubecount.__path__):
        module = importlib.import_module(f"cubecount.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") \
                    and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_every_lru_cache_is_bounded():
    found = dict(lru_wrappers())
    assert "cubecount.polymers._cert_of_code" in found
    assert "cubecount.asymptotics.compute_B" in found
    assert "cubecount.asymptotics._beta_x_coefficient" in found
    unbounded = [name for name, fn in found.items()
                 if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


@pytest.mark.slow
def test_dict_caches_stay_within_their_bounds(monkeypatch):
    asymptotics.clear_caches()
    clusters.clear_caches()
    # with the exact strata cut to j <= 2, R_3 is the first budgeted one: the
    # same property as at the real bound, without building R_(MAX_EXACT_J+1)
    monkeypatch.setattr(asymptotics, "MAX_EXACT_J", 2)
    for j in (1, 2):
        asymptotics.R_poly(j)
    # a budgeted stratum beyond the exact ones is not cached in _r_cache
    asymptotics.R_poly(3, budget=10 ** 9)
    assert sorted(asymptotics._r_cache) == [1, 2]
    for k in (1, 2, 3):
        for d in range(2, 10):
            clusters.cluster_sum(d, k)
            assert len(clusters._table_cache) <= clusters._TABLE_CACHE_SIZE


def test_each_B_table_is_solved_once(monkeypatch):
    asymptotics.clear_caches()
    assert asymptotics.compute_B.cache_info().currsize == 0
    builds = []
    strata_series = asymptotics._strata_series
    monkeypatch.setattr(asymptotics, "_strata_series",
                        lambda x, size: builds.append((x.order, size))
                        or strata_series(x, size))
    # log_count_asymptotic's lambda_beta and compute_P(3) both need B_1: one
    # solve, a build that solves B_1 and one that checks it; compute_P's own
    # series follows.  structured_count shares the base count's setup and
    # solves nothing more
    asymptotics.structured_count(Fraction(1, 2), 12, t=4)
    assert builds == [(2, True), (2, True), (4, False)]
    info = asymptotics.compute_B.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    asymptotics.clear_caches()
    assert asymptotics.compute_B.cache_info().currsize == 0
