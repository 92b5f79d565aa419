"""The package surface: exported names and what an import loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rankineq
from rankineq import functionals, linalg, maps


def test_every_exported_name_resolves():
    assert len(set(rankineq.__all__)) == len(rankineq.__all__)
    for name in rankineq.__all__:
        assert getattr(rankineq, name) is not None, name
    namespace: dict = {}
    exec("from rankineq import *", namespace)
    assert set(rankineq.__all__) <= set(namespace)


def test_removed_aliases_stay_removed():
    # each had a one-path replacement: M.rank(), phi.apply(A),
    # Echelon(...).contains and ExactMatrix(field, [], ncols)
    for name in ("rank_of", "apply_map"):
        assert name not in rankineq.__all__ and not hasattr(rankineq, name)
    assert not hasattr(linalg, "rank_of") and not hasattr(maps, "apply_map")
    assert not hasattr(linalg.ExactMatrix, "row_space_contains")
    assert not hasattr(linalg.ExactMatrix, "zero_rows")
    assert not hasattr(functionals.Functional, "support")


def test_cli_import_loads_no_dataclasses():
    # a fresh interpreter, so modules the test run imported do not count
    src = str(Path(rankineq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, rankineq.cli; print(sorted({'dataclasses', 'inspect', "
            "'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


IMPORT_AND_HELP = """
import contextlib, io, os, sys
calls = set()

def profile(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_name))

sys.setprofile(profile)
import rankineq.cli
for argv in (["--help"], *([name, "--help"] for name in sys.argv[1:])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rankineq.cli.main(argv) == 0, argv
sys.setprofile(None)
files = {os.path.abspath(m.__file__): m for name, m in list(sys.modules.items())
         if name.startswith("rankineq") and getattr(m, "__file__", None)}
ran = {(files[os.path.abspath(f)].__name__, name) for f, name in calls
       if os.path.abspath(f) in files}
# a module or class body runs once per import; a function of the package
# runs only if the import or --help does work
print(sorted((module, name) for module, name in ran
             if name != "<module>"
             and not isinstance(getattr(sys.modules[module], name, None), type)))
"""


def test_cli_import_and_help_run_no_package_function():
    # work done on import or on --help would be paid by every command, a
    # 2^n table above all; only main and the argument parser may run
    src = str(Path(rankineq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = ["check", "eval", "gen-kinser", "realize", "pullback",
                "pushforward", "verify", "random-test"]
    out = subprocess.run([sys.executable, "-c", IMPORT_AND_HELP, *commands],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == ("[('rankineq.cli', '_build_parser'), "
                                  "('rankineq.cli', 'main')]")


def _private_names_never_referenced(sources: dict[str, str]) -> list[str]:
    """Module-level _names (functions, classes, constants) no module refers to."""
    defined, used = [], set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [f"{module}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [name for name in defined if name.split(".")[1] not in used]


def test_no_dead_private_helper():
    src = Path(rankineq.__file__).resolve().parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(src.glob("*.py"))}
    assert _private_names_never_referenced(sources) == []


def test_dead_private_helper_check_sees_leftovers():
    # a constant, a function and a class that nothing reads are all caught;
    # one read from another module, or through an attribute, is not
    sources = {"a": "_PARITY = 1\n_USED = 2\ndef _f(): pass\nclass _C: pass\n"
                    "def _g(): return _h\ndef _h(): pass\n",
               "b": "from .a import _USED\nimport a\nx = a._g\n"}
    assert _private_names_never_referenced(sources) == ["a._PARITY", "a._f", "a._C"]
