"""The package surface: exported names and what an import loads."""

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
