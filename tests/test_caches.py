"""Every memoizing cache in the package has a size bound."""

import importlib
import pkgutil

import cubecount


def lru_wrappers():
    for info in pkgutil.iter_modules(cubecount.__path__):
        module = importlib.import_module(f"cubecount.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") \
                    and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_every_lru_cache_is_bounded():
    found = dict(lru_wrappers())
    assert "cubecount.polymers._perm_table" in found
    assert "cubecount.asymptotics.F_poly" in found
    unbounded = [name for name, fn in found.items()
                 if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
