"""Where the package imports numpy: ``deficiency`` at module level, and two
array helpers on call; every other module runs on Python numbers."""

import ast
from pathlib import Path

import diracjunction

PACKAGE = Path(diracjunction.__file__).parent
#: (module, function) of the only numpy imports made on call
LAZY = {("matrix2", "compose"), ("boundary", "AlphaBC.matrix")}
#: modules whose annotations name numpy types, imported under TYPE_CHECKING only
ANNOTATIONS = {"matrix2", "boundary"}


def _is_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy" and not node.level


def numpy_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """(scope, under TYPE_CHECKING) of each numpy import; the scope is the
    dotted name of the enclosing function, "" at module level."""
    found = []

    def visit(nodes, scope: str, typing_only: bool) -> None:
        for node in nodes:
            if _is_numpy(node):
                found.append((scope, typing_only))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, f"{scope}.{node.name}" if scope else node.name, typing_only)
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.body, scope, True)
                visit(node.orelse, scope, typing_only)
            else:
                visit(ast.iter_child_nodes(node), scope, typing_only)

    visit(tree.body, "", False)
    return found


def test_numpy_is_imported_only_by_deficiency_and_two_array_helpers():
    at_module_level, on_call, for_annotations = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for scope, typing_only in numpy_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if typing_only:
                for_annotations.add(module)
            elif scope:
                on_call.add((module, scope))
            else:
                at_module_level.add(module)
    assert at_module_level == {"deficiency"}
    assert on_call == LAZY
    assert for_annotations <= ANNOTATIONS


def test_the_scan_sees_every_kind_of_numpy_import():
    source = (
        "import numpy\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import numpy as np\nelse:\n    from numpy import linalg\n"
        "class A:\n    def f(self):\n        import numpy.linalg\n"
        "def g():\n    try:\n        from numpy import array\n    except ImportError:\n        pass\n"
        "from .numpy import x\n"
    )
    assert numpy_imports(ast.parse(source)) == [("", False), ("", True), ("", False), ("A.f", False), ("g", False)]
