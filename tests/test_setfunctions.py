"""SetFunction values, polymatroid predicates, and the JSON format."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rankineq.setfunctions import (SetFunction, in_polymatroid_cone,
                                   is_connected, is_integral, is_matroid,
                                   is_polymatroid)
from rankineq.subsets import SubsetRef, format_subset, subset

from oracles import in_polymatroid_cone_all_pairs, is_polymatroid_all_pairs


def table(n, assignments):
    return SetFunction.from_values(
        n, {tuple(k): v for k, v in assignments.items()})


def test_indicator_values():
    e13 = SetFunction.indicator(4, subset(4, [1, 3]))
    assert e13.value(subset(4, [1, 3])) == 1
    assert e13.value(subset(4, [1])) == 0
    assert e13.value(subset(4, [])) == 0  # empty set is always 0


def test_value_ground_set_mismatch():
    e = SetFunction.indicator(4, subset(4, [1]))
    with pytest.raises(ValueError, match="mismatch"):
        e.value(subset(5, [1]))


def test_from_values_requires_complete_table():
    with pytest.raises(ValueError, match="missing"):
        SetFunction.from_values(2, {(1,): 1, (2,): 1})
    with pytest.raises(ValueError, match="empty"):
        SetFunction.from_values(1, {(): 0, (1,): 1})
    with pytest.raises(ValueError, match="duplicate"):
        SetFunction.from_values(1, {(1,): 1, subset(1, [1]): 1})


def test_vector_arithmetic():
    a = SetFunction.indicator(3, subset(3, [1]))
    b = SetFunction.indicator(3, subset(3, [1, 2]))
    c = a + 2 * b
    assert c.value(subset(3, [1])) == 1
    assert c.value(subset(3, [1, 2])) == 2
    assert (c - a - b - b) == SetFunction.zero(3)
    assert -a + a == SetFunction.zero(3)


def test_monotonicity_violation_detected():
    P = table(2, {(1,): 2, (2,): 1, (1, 2): 1})
    assert not is_polymatroid_all_pairs(P)
    assert not is_polymatroid(P)


def test_uniform_like_table_is_polymatroid():
    # rank function of two generic lines among {1,2,3} inside a plane
    vals = {}
    for bits in range(1, 16):
        members = [i for i in range(1, 5) if bits >> (i - 1) & 1]
        vals[tuple(members)] = min(2, len([i for i in members if i <= 3]))
    P = SetFunction.from_values(4, vals)
    assert is_polymatroid_all_pairs(P)
    assert is_polymatroid(P)


def test_non_integral_cone_point_reported_separately():
    P = table(1, {(1,): Fraction(1, 2)})
    assert not is_integral(P)
    assert in_polymatroid_cone_all_pairs(P)
    assert not is_polymatroid(P)


def test_matroid_examples():
    U12_1 = table(2, {(1,): 1, (2,): 1, (1, 2): 1})
    assert is_matroid(U12_1)
    doubled = 2 * table(2, {(1,): 1, (2,): 1, (1, 2): 2})
    assert is_polymatroid_all_pairs(doubled)
    assert not is_matroid(doubled)  # singleton rank 2


def test_connected_examples():
    split = table(2, {(1,): 1, (2,): 1, (1, 2): 2})
    assert not is_connected(split)
    joined = table(2, {(1,): 1, (2,): 1, (1, 2): 1})
    assert is_connected(joined)
    single = table(1, {(1,): 1})
    assert is_connected(single)  # no proper nonempty S to test


def test_connected_requires_polymatroid():
    bad = table(2, {(1,): 2, (2,): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="polymatroid"):
        is_connected(bad)


def test_local_equals_full_exhaustively_small():
    for n in (1, 2, 3):
        size = 2 ** n - 1
        for values in product(range(4), repeat=size):
            P = SetFunction(n, (0,) + values)
            assert in_polymatroid_cone(P) == \
                in_polymatroid_cone_all_pairs(P)


@pytest.mark.parametrize("n", [4, 5])
def test_local_equals_full_random(n):
    rng = random.Random(500 + n)
    size = 2 ** n - 1
    agree = 0
    for _ in range(10_000):
        P = SetFunction(n, (0,) + tuple(rng.randint(0, 3) for _ in range(size)))
        assert in_polymatroid_cone(P) == \
            in_polymatroid_cone_all_pairs(P)
        agree += 1
    assert agree == 10_000


def test_cone_predicates_take_no_mode():
    P = table(1, {(1,): 1})
    assert in_polymatroid_cone(P) and is_polymatroid(P)
    with pytest.raises(TypeError):
        in_polymatroid_cone(P, "full")
    with pytest.raises(TypeError):
        is_polymatroid(P, "local")


def test_indicator_is_never_polymatroid_below_top():
    for n in range(2, 6):
        for bits in range(1, 2 ** n - 1):
            e = SetFunction(n, tuple(1 if m == bits else 0
                                     for m in range(2 ** n)))
            assert not is_polymatroid(e)


def test_json_round_trip():
    P = table(2, {(1,): 1, (2,): Fraction(7, 2), (1, 2): 4})
    obj = P.to_json_obj()
    assert obj == {"n": 2, "values": {"1": 1, "2": "7/2", "1,2": 4}}
    assert SetFunction.loads(P.dumps()) == P


def test_json_rejects_bad_tables():
    with pytest.raises(ValueError, match="missing"):
        SetFunction.loads(json.dumps({"n": 2, "values": {"1": 1, "2": 1}}))
    with pytest.raises(ValueError, match="strictly increasing"):
        SetFunction.loads(json.dumps(
            {"n": 2, "values": {"1": 1, "2": 1, "2,1": 2}}))
    with pytest.raises(ValueError, match="out of range"):
        SetFunction.loads(json.dumps(
            {"n": 2, "values": {"1": 1, "2": 1, "1,2": 2, "1,3": 2}}))
    with pytest.raises(ValueError, match="exactly the keys"):
        SetFunction.loads(json.dumps({"n": 2}))
    with pytest.raises(ValueError, match="rational"):
        SetFunction.loads(json.dumps(
            {"n": 1, "values": {"1": 1.5}}))
    with pytest.raises(ValueError, match="rational"):
        SetFunction.loads(json.dumps(
            {"n": 1, "values": {"1": "1/0"}}))


def _uniform_rank(n, r):
    # U_{r,n}: r = n is modular, r < n has tight covers above rank r, and
    # r = 0 is the zero function
    return SetFunction(n, [min(r, m.bit_count()) for m in range(2 ** n)])


def _broken(P):
    """Each element whose cover is decreasing somewhere, and each pair (i, j)
    whose exchange inequality fails somewhere, read off the definitions."""
    n, vals = P.n, P.values_by_mask()
    out = set()
    for a in range(2 ** n):
        for i in range(n):
            if a >> i & 1:
                continue
            if vals[a | 1 << i] < vals[a]:
                out.add((i,))
            for j in range(i + 1, n):
                if not a >> j & 1 and (vals[a | 1 << i] + vals[a | 1 << j]
                                       < vals[a | 1 << i | 1 << j] + vals[a]):
                    out.add((i, j))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_marginal_cone_test_against_all_pairs_on_moved_values(n):
    # rank functions of U_{r,n} with one value moved by +-1, +-1/2 or +-1/3:
    # the cone test agrees with the all-pairs oracle on each, and the moves
    # break every cover and every pair (i, j) at least once
    rng = random.Random(700 + n)
    masks = range(1, 2 ** n) if n <= 6 else rng.sample(range(1, 2 ** n), 24)
    moves = [s * Fraction(1, q) for q in (1, 2, 3) for s in (1, -1)]
    broken = set()
    for r in range(n + 1):
        vals = list(_uniform_rank(n, r).values_by_mask())
        assert in_polymatroid_cone(SetFunction(n, vals))
        for m in masks:
            for move in moves:
                moved = vals.copy()
                moved[m] += move
                P = SetFunction(n, moved)
                assert in_polymatroid_cone(P) == in_polymatroid_cone_all_pairs(P)
                broken |= _broken(P)
    want = {(i,) for i in range(n)} | {(i, j) for i in range(n) for j in range(i + 1, n)}
    assert broken == want


@pytest.mark.parametrize("n", [2, 5, 8])
def test_cone_test_sees_each_pair_alone(n):
    # F(|A|) = |A|(2n - |A|) leaves slack 2 in every exchange inequality, and
    # 3 on the sets holding both e1 and e2 breaks exactly those of (e1, e2)
    for e1 in range(n):
        for e2 in range(e1 + 1, n):
            both = 1 << e1 | 1 << e2
            P = SetFunction(n, [m.bit_count() * (2 * n - m.bit_count())
                                + 3 * (m & both == both) for m in range(2 ** n)])
            assert _broken(P) == {(e1, e2)}
            assert not in_polymatroid_cone(P)
            assert not in_polymatroid_cone_all_pairs(P)


VALUES = st.integers(-10 ** 30, 10 ** 30) | st.fractions(max_denominator=10 ** 6)


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(VALUES, min_size=2 ** n - 1, max_size=2 ** n - 1)))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_json_round_trip_any_values(values):
    n = (len(values) + 1).bit_length() - 1
    P = SetFunction(n, [0, *values])
    assert SetFunction.loads(P.dumps()) == P
    assert list(P.to_json_obj()["values"]) == [
        format_subset(SubsetRef(n, m)) for m in range(1, 2 ** n)]
