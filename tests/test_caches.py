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
def test_dict_caches_stay_within_their_bounds():
    asymptotics.clear_caches()
    clusters.clear_caches()
    asymptotics.R_table(asymptotics.MAX_EXACT_J)
    # a budgeted stratum beyond the exact ones is not cached in _r_cache
    asymptotics.R_poly(asymptotics.MAX_EXACT_J + 1, budget=10 ** 9)
    assert sorted(asymptotics._r_cache) == \
        list(range(1, asymptotics.MAX_EXACT_J + 1))
    for k in (1, 2, 3):
        for d in range(2, 10):
            clusters.cluster_sum(d, k)
            assert len(clusters._table_cache) <= clusters._TABLE_CACHE_SIZE


def test_each_B_table_is_solved_once(monkeypatch):
    asymptotics.clear_caches()
    assert asymptotics.compute_B.cache_info().currsize == 0
    solved = []
    q_func = asymptotics.Q_func
    monkeypatch.setattr(asymptotics, "Q_func",
                        lambda j, b=None: solved.append(j) or q_func(j, b))
    # compute_P(3) and two lambda_beta calls (log_count_asymptotic's and
    # structured_count's own) all need B_1: one solve, Q_1 and its residual
    asymptotics.structured_count(Fraction(1, 2), 12, t=4)
    assert solved == [1, 1]
    info = asymptotics.compute_B.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    asymptotics.clear_caches()
    assert asymptotics.compute_B.cache_info().currsize == 0
