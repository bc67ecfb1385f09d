"""Where the package imports numpy: ``deficiency`` at module level, and
nowhere else, not on call and not for annotations; every other module runs
on Python numbers.  And what a
CLI process loads: no command imports ``argparse``, numpy or ``cmath``,
``json`` only where JSON is parsed, the scattering module only to scatter,
and every command runs with numpy blocked.  And what importing the CLI's
modules compiles at run time: nothing, and every module compiles without
a warning."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import diracjunction

PACKAGE = Path(diracjunction.__file__).parent


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


def test_numpy_is_imported_only_by_deficiency_at_module_level():
    found = {
        (path.stem, scope, typing_only)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, typing_only in numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("deficiency", "", False)}


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


# ---------------------------------------------------------------------------
# Modules a CLI process loads, and the CLI with numpy unimportable
# ---------------------------------------------------------------------------

SRC = PACKAGE.parent
#: Makes numpy unimportable in the process if its first argument is "block".
_BLOCKER = """
import sys
class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is blocked")
if sys.argv.pop(1) == "block":
    sys.meta_path.insert(0, NoNumpy())
"""
#: Then runs ``python -m diracjunction.cli ARGS`` in this process and prints
#: the exit code and which of the watched modules were loaded.
_PROBE = _BLOCKER + """
import runpy
try:
    runpy.run_module("diracjunction.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
watched = {"argparse", "gettext", "locale", "json", "numpy", "cmath", "diracjunction.scattering"}
print("exit", code, sorted(watched & set(sys.modules)), file=sys.stderr)
"""
_ROT = "[[[0,0],[-1,0]],[[1,0],[0,0]]]"
_GRID = ["--emin", "1.2", "--emax", "3", "--steps", "16"]
#: argv -> whether it loads json: only to parse a JSON flag value, never to emit a JSON object
COMMANDS = [
    (["--help"], False),
    (["verify", "-h"], False),
    (["decompose", "--matrix", _ROT], True),
    (["convert", "u2-to-bc", "--gamma", "0,-i,i", "--mass", "1"], False),
    (["convert", "alpha-to-bd", "--alpha", "0,1,1,0"], False),
    (["convert", "bd-to-alpha", "--bd", "3pi/2,0,1,1,0"], False),
    (["convert", "rho-to-u2", "--rho", "inf,0.5", "--mass", "1"], False),
    (["verify", "--alpha", "0,1,1,0", "--mass", "1"], False),
    (["verify", "--rho", "inf,0.5", "--mass", "1"], False),
    (["verify", "--alpha", "1,1,0,1"], False),
    (["verify", "--fuzz", "200", "--seed", "7"], False),
    (["verify", "--fuzz", "600", "--mass", "1", "--seed", "7"], False),  # in parts on 2 CPUs or more
    (["scatter", "--alpha", "0,1,1,0", "--mass", "1", *_GRID], False),
    (["scatter", "--rho", "0,0", "--mass", "0", *_GRID, "--format", "json"], False),  # rows from a template
    (["demo-switch", "--phase", "pi/2"], False),
    (["scatter", "--alpha", "0,1,1,0", "--emax", "3", "--steps", "16"], False),  # usage error
    (["verify", "--alpha", "0,1,1,0", "--mass", "-1"], False),
    (["convert", "u2-to-bc", "--gamma", "[0,0],[0,-1],[0,1]", "--mass", "1"], True),  # a JSON [re, im] value
]


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": str(SRC)}, timeout=120)


def _probe(block: bool, argv: list[str]) -> tuple[int, str, set[str]]:
    """Exit code, stdout and the watched modules loaded of the CLI run on ``argv``."""
    p = _run(_PROBE, "block" if block else "run", *argv)
    _, code, loaded = p.stderr.splitlines()[-1].split(" ", 2)
    return int(code), p.stdout, set(ast.literal_eval(loaded))


def test_the_blocker_makes_numpy_unimportable():
    assert "numpy is blocked" in _run(_BLOCKER + "import numpy", "block").stderr
    assert _run(_BLOCKER + "import numpy", "run").returncode == 0


@pytest.mark.parametrize("argv, loads_json", COMMANDS)
def test_cli_loads_no_argparse_numpy_or_unneeded_json(argv, loads_json):
    _, _, loaded = _probe(False, argv)
    assert loaded & {"argparse", "gettext", "locale", "json", "numpy"} == ({"json"} if loads_json else set())


#: Runs its first argument under an audit hook, then prints how many sources named "<string>" were
#: compiled: what ``eval``, ``exec`` and ``compile`` of a string compile, which no bytecode cache holds,
#: such as the constructor a ``namedtuple`` makes or the string annotations a ``typing`` named tuple
#: turns into ``ForwardRef``\ s.
_COMPILES = """
import sys
code, compiled = compile(sys.argv[1], "<argument>", "exec"), []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>" and compiled.append(args[0]))
exec(code)
print(len(compiled))
"""
_CLI_MODULES = "import diracjunction.cli, diracjunction.checks, diracjunction.scattering"


def test_importing_the_cli_modules_compiles_nothing():
    warm = _run(_CLI_MODULES)  # so that the bytecode cache holds every module
    assert warm.returncode == 0, warm.stderr
    p = _run(_COMPILES, _CLI_MODULES)
    assert (p.returncode, p.stdout) == (0, "0\n"), p.stderr


def test_the_compile_count_sees_a_namedtuple():
    p = _run(_COMPILES, "import collections; collections.namedtuple('P', 'x y')")
    assert (p.returncode, p.stdout) == (0, "1\n"), p.stderr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_compiles_without_a_warning(path):
    """Such as an invalid escape in a docstring: uncached, it is a warning on
    every start-up and an error under ``python -W error``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


#: argv -> whether it loads the scattering module: only to scatter or to fuzz,
#: never to check one condition
SCATTERS = [
    (["verify", "--alpha", "0,1,1,0", "--mass", "1"], False),
    (["verify", "--alpha", "1,1,0,1"], False),
    (["verify", "--rho", "inf,0.5", "--mass", "1"], False),
    (["verify", "--gamma", "0,-i,i", "--mass", "1"], False),
    (["verify", "--matrix", _ROT, "--mass", "0.5"], False),
    (["verify", "--fuzz", "200", "--seed", "7"], True),
    (["verify", "--fuzz", "600", "--mass", "1", "--seed", "7"], True),
    (["scatter", "--alpha", "0,1,1,0", "--mass", "1", *_GRID], True),
    (["scatter", "--rho", "0,0", "--mass", "0", *_GRID, "--format", "json"], True),
    (["demo-switch"], True),
    (["demo-switch", "--phase", "pi/2"], True),
]


@pytest.mark.parametrize("argv, scatters", SCATTERS)
def test_cli_loads_scattering_only_to_scatter_and_never_cmath(argv, scatters):
    _, _, loaded = _probe(False, argv)
    assert "cmath" not in loaded
    assert ("diracjunction.scattering" in loaded) == scatters


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_cli_runs_without_numpy(argv):
    assert _probe(True, argv)[:2] == _probe(False, argv)[:2]


@pytest.mark.parametrize("statement", ["import diracjunction.deficiency", "from diracjunction import gram_matrix"])
def test_the_oracles_without_numpy_name_the_extra_that_installs_it(statement):
    p = _run(_BLOCKER + statement, "block")
    assert p.returncode == 1
    assert p.stderr.splitlines()[-1] == (
        "ImportError: diracjunction.deficiency needs numpy: pip install 'diracjunction[oracles]'")


# ---------------------------------------------------------------------------
# The public map API with numpy unimportable
# ---------------------------------------------------------------------------

#: Then runs the scalar map pipeline script in this process.
_PIPELINE = _BLOCKER + f"""
import runpy
runpy.run_path({str(Path(__file__).with_name("map_pipeline.py"))!r}, run_name="__main__")
"""


def test_the_map_pipeline_runs_without_numpy():
    blocked, free = _run(_PIPELINE, "block"), _run(_PIPELINE, "run")
    assert blocked.returncode == 0 and free.returncode == 0, blocked.stderr + free.stderr
    assert blocked.stdout == free.stdout
    # importable or not, the maps, the kernel and the fuzz checks never load numpy
    assert free.stdout.endswith("numpy loaded: False\n")
    assert len(free.stdout.splitlines()) == 15


def test_the_readme_worked_example_runs_without_numpy():
    section = (SRC.parent / "README.md").read_text(encoding="utf-8").partition("## Worked example")[2]
    code = section.partition("```python\n")[2].partition("```")[0]
    blocked, free = _run(_BLOCKER + code, "block"), _run(_BLOCKER + code, "run")
    assert blocked.returncode == 0 and free.returncode == 0, blocked.stderr + free.stderr
    assert blocked.stdout == free.stdout
    assert blocked.stdout.splitlines()[0] == "((0j, (-1+0j)), ((1+0j), 0j))"
