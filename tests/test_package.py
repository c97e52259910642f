"""The package surface: lazy re-exports, and the module attributes the traced benchmark wraps."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import cubecount

TRACED_CHILD = (pathlib.Path(__file__).resolve().parent.parent
                / "perfbench" / "traced_child.py")


def test_every_reexport_is_its_home_modules_object():
    for name in cubecount.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"cubecount.{cubecount._EXPORTS[name]}")
        value = getattr(cubecount, name)
        assert value is getattr(home, name), name
        # the table names the module that defines it, not one that imports it
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(cubecount.__all__) <= set(dir(cubecount))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cubecount import *", namespace)
    assert set(cubecount.__all__) <= set(namespace)
    assert namespace["census"] is cubecount.census


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cubecount.no_such_name


def test_from_import_of_a_submodule_returns_the_module():
    # in a fresh interpreter, so the submodule is not yet an attribute
    script = ("import sys, cubecount\n"
              "assert 'cubecount.polymers' not in sys.modules\n"
              "from cubecount import polymers\n"
              "assert polymers is sys.modules['cubecount.polymers']\n"
              "assert cubecount.census is polymers.census\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def traced_hooks():
    """(module, attribute) for each `tracer.wrap` / `tracer.tally` call in
    perfbench/traced_child.py, read from its syntax tree."""
    hooks = []
    for node in ast.walk(ast.parse(TRACED_CHILD.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("wrap", "tally")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            module, attr = node.args[:2]
            hooks.append((module.id, attr.value))
    return hooks


def test_traced_benchmark_hooks_are_module_attributes():
    # The traced run replaces these module attributes with timing wrappers;
    # one that a refactor removes would fail only inside a traced run.
    hooks = traced_hooks()
    assert {("asymptotics", "cluster_sum"), ("asymptotics", "interpolate_poly"),
            ("asymptotics", "binomial"), ("polymers", "interpolate_poly"),
            ("polymers", "classify"), ("sampler", "sample_chains")} <= set(hooks)
    for module, attr in hooks:
        assert hasattr(importlib.import_module(f"cubecount.{module}"), attr), \
            (module, attr)
