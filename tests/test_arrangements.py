"""Arrangements: rank functions, intersections, realizations, generators."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rankineq.arrangements import (Arrangement, derive_seed, generic_lines,
                                   intersect, random_arrangement,
                                   rank_function, sum_echelons, sum_pullback,
                                   uniform_U)
from rankineq.linalg import RATIONAL, Echelon, ExactMatrix
from rankineq.maps import UnionMap, identity_map, pullback
from rankineq.subsets import subset

from oracles import is_polymatroid_all_pairs


def test_rank_function_independent_lines():
    V = Arrangement(2, 2, [[[1, 0]], [[0, 1]]])
    P = rank_function(V)
    assert [P.value(subset(2, [1])), P.value(subset(2, [2])),
            P.value(subset(2, [1, 2]))] == [1, 1, 2]


def test_rank_function_equal_lines():
    V = Arrangement(RATIONAL, 2, [[[1, 0]], [[1, 0]]])
    P = rank_function(V)
    assert [P.value_at(1), P.value_at(2), P.value_at(3)] == [1, 1, 1]


def test_rank_function_empty_subspace_and_rationals():
    V = Arrangement(RATIONAL, 3,
                    [[], [[Fraction(1, 2), 0, 0], [1, 1, 0]], [[0, 0, 2]]])
    P = rank_function(V)
    assert P.value(subset(3, [1])) == 0
    assert P.value(subset(3, [2])) == 2
    assert P.value(subset(3, [1, 2])) == 2
    assert P.value(subset(3, [1, 2, 3])) == 3


@pytest.mark.parametrize("trial", range(30))
def test_rank_function_is_polymatroid(trial):
    p = (2, 3, 101)[trial % 3]
    V = random_arrangement(5, 4, p, seed=derive_seed(11, trial))
    assert is_polymatroid_all_pairs(rank_function(V))


def test_rank_function_matches_naive_stacking():
    # oracle: stack the chosen bases directly and take the matrix rank
    cases = [random_arrangement(4, 3, 5, seed=derive_seed(13, trial))
             for trial in range(20)]
    # n=6 in dimension 2 or 3: most sums fill the space, so most subsets
    # take rank_function's full-rank branch
    for trial in range(12):
        field, d = (2, 101, RATIONAL)[trial % 3], 2 + trial % 2
        rng = random.Random(derive_seed(19, trial))
        cases.append(Arrangement(field, d, [
            [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(0, d))]
            for _ in range(6)]))
    saturated = 0
    for V in cases:
        P = rank_function(V)
        assert_naive_stacking(P, V.field, V.ambient_dim,
                              [sub.rows for sub in V.subspaces])
        if V.n == 6:
            saturated += sum(P.value_at(bits & (bits - 1)) == V.ambient_dim
                             for bits in range(1, 1 << V.n))
    assert saturated > 12 * 63 // 2


def stacked(subspaces, bits):
    return [row for i, rows in enumerate(subspaces) if bits >> i & 1
            for row in rows]


def assert_naive_stacking(P, field, d, subspaces):
    """P(A) is the rank of the rows of the subspaces in A, stacked."""
    for bits in range(1, 1 << len(subspaces)):
        assert P.value_at(bits) == \
            ExactMatrix(field, stacked(subspaces, bits), d).rank()


@st.composite
def spanning_sets(draw):
    """(field, d, rows of each subspace): zero, full, repeated or random."""
    field = draw(st.sampled_from([2, 3, 101, RATIONAL]))
    d = draw(st.integers(1, 4))
    entry = (st.integers(0, field - 1) if field else
             st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4))
    subs = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "random", "zero", "full",
                                     "repeat"]))
        if kind == "zero":
            rows = []
        elif kind == "full":
            rows = draw(st.permutations(ExactMatrix.identity(field, d).rows))
        elif kind == "repeat" and subs:
            rows = draw(st.sampled_from(subs))
        else:
            rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                 max_size=d))
        subs.append(rows)
    return field, d, subs


# sizes 2, 0, 1 and 3, 1, 0, 2: the walk's order is not the caller's
@settings(derandomize=True, max_examples=150, deadline=None)
@given(spanning_sets())
@example((3, 2, [[[1, 2], [0, 1]], [], [[1, 1]]]))
@example((RATIONAL, 3, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[Fraction(1, 2), 1, 0]],
                        [], [[1, 2, 0], [0, 0, 3]]]))
def test_rank_function_matches_naive_stacking_on_random_subspaces(case):
    field, d, subs = case
    P = rank_function(Arrangement(field, d, subs))
    assert_naive_stacking(P, field, d, subs)
    # each state of the walk spans exactly the stacked rows of its mask
    states = sum_echelons(field, d, subs)
    assert len(states) == 1 << len(subs)
    for bits, state in enumerate(states):
        rows = stacked(subs, bits)
        assert state.rank == ExactMatrix(field, rows, d).rank()
        assert all(state.contains(row) for row in rows)


def test_walk_peels_the_smallest_subspace(monkeypatch):
    # V_1 is the whole space and V_2..V_6 are zero: only the subset {1}
    # inserts rows, and every other subset shares its parent's echelon
    d = 4
    V = Arrangement(101, d, [ExactMatrix.identity(101, d)] + [[]] * 5)
    add, calls = Echelon.add, []

    def counted(self, vec):
        calls.append(vec)
        return add(self, vec)

    monkeypatch.setattr(Echelon, "add", counted)
    P = rank_function(V)
    assert len(calls) == d
    assert P.values_by_mask() == tuple(d if bits & 1 else 0 for bits in range(64))


def test_random_arrangement_defers_its_canonical_form(monkeypatch):
    def no_rref(self):
        raise AssertionError("canonical form built before it was observed")

    with monkeypatch.context() as patch:
        patch.setattr(Echelon, "rref", no_rref)
        patch.setattr(ExactMatrix, "rref", no_rref)
        V = random_arrangement(5, 4, 7, seed=derive_seed(29, 0))
        P = rank_function(V)
        assert V.n == 5 and repr(V) == "Arrangement(5 subspaces in GF(7)^4)"
    subs = V.subspaces
    assert V.subspaces is subs  # built once
    assert all(sub.rref() == sub for sub in subs)
    same = Arrangement(7, 4, [sub.rows for sub in subs])
    assert same == V and hash(same) == hash(V) and same.dumps() == V.dumps()
    assert rank_function(same) == P


def test_intersect_examples():
    V = Arrangement(RATIONAL, 2, [[[1, 0]], [[0, 1]], [[1, 1]]])
    assert intersect(V, subset(3, [1, 2])).nrows == 0
    same = Arrangement(7, 3, [[[1, 2, 0], [0, 0, 1]], [[1, 2, 0], [0, 0, 1]]])
    assert intersect(same, subset(2, [1, 2])) == same.subspaces[0]
    with pytest.raises(ValueError, match="empty"):
        intersect(V, subset(3, []))


def test_intersect_dimension_oracle():
    for trial in range(40):
        field = (RATIONAL, 2, 13)[trial % 3]
        rng = random.Random(derive_seed(17, trial))
        d = rng.randint(1, 5)
        rows = lambda: [[rng.randint(-3, 3) for _ in range(d)]
                        for _ in range(rng.randint(0, d))]
        V = Arrangement(field, d, [rows(), rows()])
        both = intersect(V, subset(2, [1, 2]))
        stacked = V.subspaces[0].stack(V.subspaces[1])
        assert both.nrows == (V.subspaces[0].nrows + V.subspaces[1].nrows
                              - stacked.rank())


def test_sum_pullback_identity_and_empty():
    V = random_arrangement(3, 3, 5, seed=123)
    W = sum_pullback(identity_map(3), V)
    assert W == V  # canonical rref bases make this literal equality
    phi = UnionMap(2, 3, [[], [1, 3]])
    U = sum_pullback(phi, V)
    assert U.subspaces[0].nrows == 0


@pytest.mark.parametrize("trial", range(100))
def test_sum_pullback_consistency(trial):
    # both sides computed independently: realize then pull back vs
    # pull back the arrangement then realize
    rng = random.Random(derive_seed(19, trial))
    k, n = rng.randint(1, 5), rng.randint(1, 5)
    p = (2, 3, 101)[trial % 3]
    V = random_arrangement(n, rng.randint(1, 4), p, seed=derive_seed(23, trial))
    phi = UnionMap(k, n, [[j for j in range(1, n + 1) if rng.random() < 0.4]
                          for _ in range(k)])
    assert rank_function(sum_pullback(phi, V)) == pullback(phi, rank_function(V))


def test_uniform_U_examples():
    S = subset(4, [1, 2, 3])
    U = uniform_U(4, S, 2)
    assert U.value(subset(4, [1, 2, 3])) == 2
    assert U.value(subset(4, [4])) == 0
    assert U.value(subset(4, [1, 4])) == 1
    assert is_polymatroid_all_pairs(U)


def test_uniform_U_splits_into_lines_when_d_large():
    for n in (3, 4, 5):
        for smask in range(1 << n):
            S = subset(n, [i for i in range(1, n + 1) if smask >> (i - 1) & 1])
            for d in range(max(1, len(S)), n + 1):
                total = None
                for i in S.elements():
                    term = uniform_U(n, subset(n, [i]), 1)
                    total = term if total is None else total + term
                if total is None:
                    assert all(uniform_U(n, S, d).value_at(m) == 0
                               for m in range(1 << n))
                else:
                    assert uniform_U(n, S, d) == total


def test_generic_lines_realizes_uniform_U():
    # oracle: the min(d, |A meet S|) formula itself
    arr = generic_lines(4, subset(4, [1, 2, 3]), 2, 7)
    P = rank_function(arr)
    assert P == uniform_U(4, subset(4, [1, 2, 3]), 2)
    assert [P.value(subset(4, [1])), P.value(subset(4, [4])),
            P.value(subset(4, [1, 4])), P.value(subset(4, [1, 2, 3]))] == [1, 0, 1, 2]


def test_generic_lines_more_fields():
    assert rank_function(generic_lines(5, subset(5, [2, 4, 5]), 3, 11)) == \
        uniform_U(5, subset(5, [2, 4, 5]), 3)
    assert rank_function(generic_lines(3, subset(3, []), 2, 3)) == \
        uniform_U(3, subset(3, []), 2)  # empty S: all-zero rank function


def test_generic_lines_prime_too_small():
    with pytest.raises(ValueError, match="too small"):
        generic_lines(4, subset(4, [1, 2, 3, 4]), 3, 2)
    with pytest.raises(ValueError, match="too small"):
        generic_lines(4, subset(4, [1, 2, 3, 4]), 3, 3)
    generic_lines(4, subset(4, [1, 2, 3, 4]), 3, 5)  # large enough


def test_random_arrangement_deterministic():
    a = random_arrangement(4, 3, 101, seed=987654321)
    b = random_arrangement(4, 3, 101, seed=987654321)
    assert a == b
    c = random_arrangement(4, 3, 101, seed=987654322)
    assert a != c  # overwhelmingly likely, and fixed by the seeds above


def test_random_arrangement_hits_degenerate_dimensions():
    # zero and full-dimensional subspaces must both occur across seeds
    dims = {sub.nrows
            for s in range(50)
            for sub in random_arrangement(3, 2, 5, seed=derive_seed(3, s)).subspaces}
    assert 0 in dims and 2 in dims


def test_arrangement_validation():
    with pytest.raises(ValueError, match="prime"):
        random_arrangement(3, 2, 4, seed=1)
    with pytest.raises(ValueError):
        Arrangement(5, 2, [[[1, 2, 3]]])  # row too wide
    with pytest.raises(ValueError, match="prime"):
        Arrangement(6, 2, [[[1, 0]]])
    with pytest.raises(ValueError, match="bad ambient dimension True"):
        Arrangement(2, True, [[[1]]])


def test_json_round_trip():
    V = random_arrangement(3, 3, 101, seed=5)
    assert Arrangement.loads(V.dumps()) == V
    W = Arrangement(RATIONAL, 2, [[[Fraction(1, 2), 1]], []])
    obj = W.to_json_obj()
    assert obj["field"] == 0
    assert obj["subspaces"][0] == [[1, 2]]  # rref scales to leading 1
    assert Arrangement.loads(W.dumps()) == W
    with pytest.raises(ValueError, match="exactly the keys"):
        Arrangement.loads('{"field": 2, "ambient_dim": 2}')
