"""Exact elimination: ranks, canonical forms, intersections, primality."""

import random
from fractions import Fraction

import pytest

from rankineq.linalg import (RATIONAL, Echelon, ExactMatrix,
                             intersect_row_spaces, is_prime)


def row_space(M):
    ech = Echelon(M.field, M.ncols)
    ech.extend(M.rows)
    return ech


def test_rank_examples():
    assert ExactMatrix.identity(2, 3).rank() == 3
    assert ExactMatrix(RATIONAL, [[0, 0], [0, 0]]).rank() == 0
    assert ExactMatrix(RATIONAL, [[1, 2], [2, 4]]).rank() == 1
    assert ExactMatrix(5, [], 4).rank() == 0


def test_rank_with_fractions():
    M = ExactMatrix(RATIONAL, [[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), 2]])
    assert M.rank() == 2  # det = 1/2 * 2 - 1/3 * 3/2 = 1/2
    N = ExactMatrix(RATIONAL, [[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), 1]])
    assert N.rank() == 1  # second row is 3 times the first
    P = ExactMatrix(RATIONAL, [[Fraction(1, 2), Fraction(1, 4)],
                               [2, 1]])
    assert P.rank() == 1


def test_field_validation():
    with pytest.raises(ValueError, match="prime"):
        ExactMatrix(4, [[1, 0]])
    with pytest.raises(ValueError, match="prime"):
        ExactMatrix(-3, [[1]])
    ExactMatrix(2, [[1, 0]])  # fine
    with pytest.raises(ValueError, match="below 2\\^64"):
        ExactMatrix(2 ** 64 + 13, [[1]])  # prime, but above the field bound
    ExactMatrix(2 ** 64 - 59, [[1]])  # the largest prime below 2^64


def test_entries_normalized_mod_p():
    M = ExactMatrix(5, [[7, -1], [10, 3]])
    assert M.rows == ((2, 4), (0, 3))


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix(RATIONAL, [[1, 2], [3]])


def test_rref_is_canonical_for_row_span():
    rng = random.Random(7)
    for field in (RATIONAL, 2, 7):
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
            M = ExactMatrix(field, rows, 4)
            R = M.rref()
            # same span: every original row reduces to zero against R and back
            assert all(row_space(R).contains(row) for row in M.rows)
            assert all(row_space(M).contains(row) for row in R.rows)
            assert R.rref() == R
            assert R.rank() == R.nrows == M.rank()


def test_echelon_matches_matrix_rank():
    rng = random.Random(3)
    for field in (RATIONAL, 2, 13):
        for _ in range(40):
            m, c = rng.randint(0, 6), rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(m)]
            M = ExactMatrix(field, rows, c)
            ech = Echelon(field, c)
            ech.extend(M.rows)
            assert ech.rank == M.rank()
            for row in M.rows:
                assert ech.contains(row)


def test_echelon_rational_is_fraction_free():
    # internal pivot rows stay integral even when fed Fractions
    ech = Echelon(RATIONAL, 3)
    ech.add([Fraction(1, 2), Fraction(1, 3), 0])
    ech.add([Fraction(2, 5), 1, Fraction(7, 2)])
    assert all(isinstance(x, int) for row in ech.rows for x in row)
    assert ech.rank == 2


def test_echelon_copy_is_independent():
    ech = Echelon(5, 3)
    ech.add([1, 2, 3])
    dup = ech.copy()
    dup.add([0, 1, 1])
    assert ech.rank == 1 and dup.rank == 2


def test_intersection_examples():
    A = ExactMatrix(RATIONAL, [[1, 0]])
    B = ExactMatrix(RATIONAL, [[0, 1]])
    assert intersect_row_spaces(A, B).nrows == 0
    C = ExactMatrix(7, [[1, 2, 3], [0, 1, 1]]).rref()
    assert intersect_row_spaces(C, C) == C  # idempotence, canonical form


def test_intersection_dimension_formula():
    # oracle: dim(A meet B) = dim A + dim B - dim(A + B), via rank on stacks
    rng = random.Random(23)
    for field in (RATIONAL, 2, 5):
        for _ in range(60):
            d = rng.randint(1, 5)
            A = ExactMatrix(field, [[rng.randint(-3, 3) for _ in range(d)]
                                    for _ in range(rng.randint(0, d))], d).rref()
            B = ExactMatrix(field, [[rng.randint(-3, 3) for _ in range(d)]
                                    for _ in range(rng.randint(0, d))], d).rref()
            meet = intersect_row_spaces(A, B)
            expected = A.rank() + B.rank() - A.stack(B).rank()
            assert meet.nrows == meet.rank() == expected
            for row in meet.rows:
                assert row_space(A).contains(row)
                assert row_space(B).contains(row)


def test_stack_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        ExactMatrix(2, [[1, 0]]).stack(ExactMatrix(3, [[1, 0]]))
    with pytest.raises(ValueError, match="mismatch"):
        ExactMatrix(2, [[1, 0]]).stack(ExactMatrix(2, [[1, 0, 1]]))


def trial_division_is_prime(p):
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def test_is_prime_matches_trial_division():
    for p in range(-3, 200_000):
        assert is_prime(p) == trial_division_is_prime(p), p


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)  # Mersenne prime
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 61 + 1)  # divisible by 3
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_is_prime_memo_still_rejects():
    # the primality result is memoized; validating one prime many times
    # must not let a composite or an oversized field through afterwards
    for _ in range(200):
        assert ExactMatrix(2 ** 31 - 1, [[1, 2]]).rank() == 1
        assert Echelon(2 ** 31 - 1, 2).rank == 0
    assert not is_prime(2 ** 31 + 1)
    with pytest.raises(ValueError, match="prime"):
        Echelon((2 ** 31 - 1) * 3, 2)
    with pytest.raises(ValueError, match="2\\^64"):
        Echelon(2 ** 64 + 13, 2)
    assert is_prime(2 ** 31 - 1)
