"""Acceptance suite: one test per criterion, every tolerance exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (a failed assertion marks the criterion failed).
"""

import random
import time
from itertools import permutations

from rankineq.arrangements import (Arrangement, derive_seed, intersect,
                                   random_arrangement, rank_function,
                                   sum_pullback)
from rankineq.certificates import (facet_rank, verify_basis_F,
                                   verify_line_identities, verify_vanishing,
                                   verify_witness_realizations, witness_T)
from rankineq.functionals import (Functional, basic_functionals, kinser, pair,
                                  permute_functional)
from rankineq.linalg import ExactMatrix
from rankineq.maps import UnionMap, hierarchy_map, pullback, pushforward
from rankineq.setfunctions import SetFunction
from rankineq.subsets import subset

from oracles import is_polymatroid_all_pairs


def passed(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS  {label}")


def test_criterion_01_ingleton_recovery():
    expected = {
        (1, 2): -1, (3,): -1, (4,): -1, (1, 3, 4): -1, (2, 3, 4): -1,
        (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1,
    }
    got = {tuple(i + 1 for i in range(4) if m >> i & 1): c
           for m, c in kinser(4).items()}
    assert got == expected
    passed(1, "kinser(4) is exactly the Ingleton coefficient vector")


def test_criterion_02_hierarchy_collapse():
    for n in range(5, 11):
        assert pushforward(hierarchy_map(n), kinser(n)) == kinser(n - 1)
    passed(2, "pushforward along the hierarchy map collapses n=5..10 exactly")


def test_criterion_03_witness():
    for n in range(4, 11):
        T = witness_T(n)
        assert pair(kinser(n), T) == -1
        assert is_polymatroid_all_pairs(T)
    passed(3, "witness pairs to -1 and is a polymatroid for n=4..10")


def test_criterion_04_witness_realizations():
    start = time.perf_counter()
    for n in (5, 6):
        report = verify_witness_realizations(n)
        assert report.passed, report.details
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passed(4, f"witness realizations for n=5,6 over QQ/GF(2)/GF(3) "
              f"({elapsed:.1f}s)")


def test_criterion_05_vanishing():
    for n in range(4, 9):
        report = verify_vanishing(n)
        assert report.passed, report.details
    passed(5, "every qualifying U(S,d) pairs to exactly 0 for n=4..8")


def test_criterion_06_line_identities():
    for n in range(4, 8):
        report = verify_line_identities(n)
        assert report.passed, report.details
    passed(6, "splitting/basis/triple/four-term identities hold for n=4..7")


def test_criterion_07_facet_dimensions():
    for n in range(4, 8):
        assert facet_rank(n) == (2 ** n - 2, 2 ** n - 1)
    passed(7, "facet ranks are (2^n-2, 2^n-1) for n=4..7")


def test_criterion_08_basis_membership():
    for n in (5, 6):
        report = verify_basis_F(n)
        assert report.passed, report.details
    passed(8, "all 2^n-2 claimed basis vectors lie in the vanishing span")


def test_criterion_09_validity_sweep():
    def orbit(n):
        return sorted({permute_functional(kinser(n), sigma)
                       for sigma in permutations(range(1, n + 1))},
                      key=lambda f: f.items())

    checked = 0
    for n, trials, prime, max_dim, master in ((5, 500, 101, 7, 2026),
                                              (4, 200, 2, 4, 2027)):
        family = basic_functionals(n) + orbit(n)
        for trial in range(trials):
            d = trial % max_dim + 1
            V = random_arrangement(n, d, prime, derive_seed(master, trial))
            P = rank_function(V)
            for f in family:
                value = pair(f, P)
                assert value >= 0, (n, trial, f, value)
                checked += 1
    passed(9, f"zero violations across {checked} inequality evaluations")


def test_criterion_10_adjointness():
    rng = random.Random(1009)
    for k in range(1, 7):
        for n in range(1, 7):
            for _ in range(200):
                phi = UnionMap(k, n, [[j for j in range(1, n + 1)
                                       if rng.random() < 0.4]
                                      for _ in range(k)])
                f = Functional(k, {rng.randint(1, 2 ** k - 1):
                                   rng.randint(-3, 3)
                                   for _ in range(rng.randint(0, 5))})
                P = SetFunction(n, (0,) + tuple(rng.randint(-4, 9)
                                                for _ in range(2 ** n - 1)))
                assert pair(f, pullback(phi, P)) == pair(pushforward(phi, f), P)
    passed(10, "adjointness exact on 200 random triples at each (k,n) <= 6")


def test_criterion_11_realization_functoriality():
    rng = random.Random(1013)
    for trial in range(100):
        k, n = rng.randint(1, 6), rng.randint(1, 6)
        p = (2, 3, 101)[trial % 3]
        V = random_arrangement(n, rng.randint(1, 5), p, derive_seed(7, trial))
        phi = UnionMap(k, n, [[j for j in range(1, n + 1)
                               if rng.random() < 0.4] for _ in range(k)])
        assert rank_function(sum_pullback(phi, V)) == \
            pullback(phi, rank_function(V))
    passed(11, "realization commutes with pullback on 100 random (phi, V)")


def test_criterion_12_proof_white_box():
    def dim_sum(*mats):
        rows = [row for m in mats for row in m.rows]
        return ExactMatrix(mats[0].field, rows, mats[0].ncols).rank()

    for n, master in ((5, 31), (6, 37)):
        for trial in range(100):
            p = (2, 3, 101)[trial % 3]
            d = trial % 5 + 2
            V = random_arrangement(n, d, p, derive_seed(master, trial))
            subs = V.subspaces
            W = intersect(V, subset(n, range(3, n + 1)))
            # submodular step: [W+V1+V2 : W+V1] <= [W+V2 : W]
            lhs = dim_sum(W, subs[0], subs[1]) - dim_sum(W, subs[0])
            rhs = dim_sum(W, subs[1]) - W.nrows
            assert lhs <= rhs
            # telescoping chain: [V2 : V2 meet W] as a sum of steps
            chain = subs[1]
            total = 0
            for i in range(3, n + 1):
                nxt = Arrangement(V.field, V.ambient_dim,
                                  [chain, subs[i - 1]])
                nxt = intersect(nxt, subset(2, [1, 2]))
                total += chain.nrows - nxt.nrows
                chain = nxt
            V2_meet_W = intersect(V, subset(n, range(2, n + 1)))
            assert chain == V2_meet_W  # chain ends at V2 meet W, canonically
            assert subs[1].nrows - V2_meet_W.nrows == total
    passed(12, "submodular step and telescoping chain exact on 200 arrangements")
