"""The library interface the benchmark drives: a prune that removes a name or
a result field it reads would turn its operations into failures."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os

import diracjunction
from diracjunction.deficiency import boundary_form_quadrature, gram_matrix
from diracjunction.scattering import ScatteringResult

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "child.py")


def _resolves(module_name: str, name: str) -> bool:
    """``name`` is an attribute or a submodule of ``module_name``."""
    module = importlib.import_module(module_name)
    return hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}") is not None


def test_every_name_the_benchmark_calls_resolves():
    assert all(hasattr(diracjunction, name) for name in diracjunction.__all__)
    with open(CHILD, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    # the child binds the package to ``dj`` and imports the rest by name
    used = {
        ("diracjunction", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dj"
    }
    used |= {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("diracjunction")
        for alias in node.names
    }
    used |= {
        ("diracjunction.cli", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli"
    }
    assert ("diracjunction", "scatter_alpha") in used and ("diracjunction.cli", "main") in used
    assert all(_resolves(module, name) for module, name in sorted(used))


def test_scattering_result_keeps_the_fields_the_benchmark_reads():
    fields = {f.name for f in dataclasses.fields(ScatteringResult)}
    assert {"E", "k", "lam", "r", "t", "R", "T", "flag"} <= fields


def test_quadratures_keep_the_num_points_argument():
    # perfbench/tracing.py binds ``num_points`` by name to count quadrature points
    for func, default in ((gram_matrix, 2**16 + 1), (boundary_form_quadrature, 2**15 + 1)):
        assert inspect.signature(func).parameters["num_points"].default == default
