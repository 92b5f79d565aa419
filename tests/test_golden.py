"""The verify reports, byte for byte, against outputs recorded in tests/golden.

Each golden file is the stdout of `rankineq verify --n N --cert C`.  A
faster path through the certificates must print exactly the same report.
"""

from pathlib import Path

import pytest

from rankineq.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUNS = [(n, "all") for n in range(4, 9)] + [(9, "vanishing")]


@pytest.mark.parametrize("n,cert", RUNS, ids=[f"n{n}-{cert}" for n, cert in RUNS])
def test_verify_output_matches_golden(capsys, n, cert):
    assert main(["verify", "--n", str(n), "--cert", cert]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"verify_n{n}_{cert}.json").read_bytes()
