"""The inequality generator, pairings, permutations, basic inequalities."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rankineq
from rankineq.arrangements import (derive_seed, random_arrangement,
                                   rank_function, uniform_U)
from rankineq.functionals import (Functional, PairingTable, basic_functionals,
                                  kinser, pair, permute_functional)
from rankineq.setfunctions import SetFunction
from rankineq.subsets import parse_subset, subset


def coeff_table(f):
    return {tuple(i + 1 for i in range(f.n) if m >> i & 1): c
            for m, c in f.items()}


def test_kinser_4_is_ingleton():
    got = coeff_table(kinser(4))
    assert got == {
        (1, 2): -1, (3,): -1, (4,): -1, (1, 3, 4): -1, (2, 3, 4): -1,
        (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1,
    }


def test_kinser_5():
    got = coeff_table(kinser(5))
    assert got == {
        (1, 3): 1, (1, 5): 1, (2, 3): 1, (2, 4): 1, (2, 5): 1,
        (3, 4): 1, (4, 5): 1,
        (1, 2): -1, (1, 3, 5): -1, (3,): -1, (4,): -1, (5,): -1,
        (2, 3, 4): -1, (2, 4, 5): -1,
    }


def test_kinser_domain_bound():
    with pytest.raises(ValueError, match="n >= 4"):
        kinser(3)


@pytest.mark.parametrize("n", range(4, 11))
def test_kinser_per_element_balance(n):
    # the coefficients covering any fixed element sum to zero
    f = kinser(n)
    for j in range(n):
        assert sum(c for m, c in f.items() if m >> j & 1) == 0


@pytest.mark.parametrize("n", range(4, 11))
def test_kinser_support_sizes(n):
    assert all(1 <= m.bit_count() <= 3 for m, _ in kinser(n).items())


def test_pair_examples():
    from rankineq.certificates import witness_T
    assert pair(kinser(4), witness_T(4)) == -1
    # all-ones point (rank function of identical lines): oracle is the
    # brute-force sum of the generator's coefficients
    ones = uniform_U(4, subset(4, [1, 2, 3, 4]), 1)
    assert all(ones.value_at(m) == 1 for m in range(1, 16))
    expected = sum(c for _, c in kinser(4).items())
    assert expected == 0
    assert pair(kinser(4), ones) == expected
    assert pair(Functional.zero(4), witness_T(4)) == 0


def test_pair_ground_set_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        pair(kinser(4), SetFunction.zero(5))


def test_pair_is_bilinear():
    rng = random.Random(99)
    n = 4
    for _ in range(50):
        def rand_functional():
            return Functional(n, {rng.randint(1, 15): rng.randint(-3, 3)
                                  for _ in range(rng.randint(0, 5))})

        def rand_point():
            return SetFunction(n, (0,) + tuple(rng.randint(-5, 5)
                                               for _ in range(15)))

        f, g = rand_functional(), rand_functional()
        P, Q = rand_point(), rand_point()
        assert pair(f + g, P) == pair(f, P) + pair(g, P)
        assert pair(f, P + Q) == pair(f, P) + pair(f, Q)
        assert pair(3 * f, P) == 3 * pair(f, P)


def test_basic_functionals_small():
    n1 = basic_functionals(1)
    assert len(n1) == 1 and n1[0] == Functional.unit(1, subset(1, [1]))
    n2 = basic_functionals(2)
    submod = Functional.from_coeffs(2, {(1,): 1, (2,): 1, (1, 2): -1})
    assert submod in n2
    # counts: n*2^(n-1) monotonicity + C(n,2)*2^(n-2) submodularity
    assert len(n2) == 2 * 2 + 1 * 1
    assert len(basic_functionals(4)) == 4 * 8 + 6 * 4


def test_basic_functionals_nonnegative_on_arrangements():
    # oracle: direct rank computation over GF(5)
    basics = basic_functionals(4)
    for trial in range(25):
        V = random_arrangement(4, 3, 5, seed=1000 + trial)
        P = rank_function(V)
        assert all(pair(f, P) >= 0 for f in basics)


def test_permute_identity_and_swap():
    f = kinser(4)
    assert permute_functional(f, [1, 2, 3, 4]) == f
    e12 = Functional.unit(4, subset(4, [1, 2]))
    swapped = permute_functional(e12, [3, 2, 1, 4])
    assert swapped == Functional.unit(4, subset(4, [2, 3]))


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError, match="permutation"):
        permute_functional(kinser(4), [1, 1, 3, 4])
    with pytest.raises(ValueError, match="permutation"):
        permute_functional(kinser(4), [1, 2, 3])


def test_permute_is_group_action():
    rng = random.Random(17)
    f = kinser(5)
    for _ in range(30):
        s1 = list(range(1, 6))
        s2 = list(range(1, 6))
        rng.shuffle(s1)
        rng.shuffle(s2)
        composed = [s2[s1[i] - 1] for i in range(5)]  # s2 after s1
        assert permute_functional(permute_functional(f, s1), s2) == \
            permute_functional(f, composed)


def test_ingleton_orbit_internal_consistency():
    # orbit of the n=4 generator under all 24 relabelings, deduplicated;
    # the orbit must be closed under the action (size is a derived value)
    orbit = {permute_functional(kinser(4), sigma)
             for sigma in permutations(range(1, 5))}
    assert len(orbit) == 6  # stabilizer contains 1<->2 and 3<->4 swaps
    for sigma in permutations(range(1, 5)):
        assert {permute_functional(f, sigma) for f in orbit} == orbit


def test_no_stored_zero_coefficients():
    f = Functional.from_coeffs(3, {(1,): 1, (2,): 0})
    assert len(f) == 1
    g = Functional.unit(3, subset(3, [1])) - Functional.unit(3, subset(3, [1]))
    assert len(g) == 0 and g == Functional.zero(3)


def test_json_round_trip():
    f = Functional.from_coeffs(4, {(1, 2): -1, (1, 3): Fraction(1, 2)})
    obj = f.to_json_obj()
    assert obj == {"n": 4, "coeffs": {"1,2": "-1", "1,3": "1/2"}}
    assert Functional.loads(f.dumps()) == f


def test_json_rejects_zero_and_bad_keys():
    with pytest.raises(ValueError, match="zero coefficient"):
        Functional.loads('{"n": 4, "coeffs": {"1,2": "0"}}')
    with pytest.raises(ValueError, match="strictly increasing"):
        Functional.loads('{"n": 4, "coeffs": {"2,1": "1"}}')
    with pytest.raises(ValueError, match="exactly the keys"):
        Functional.loads('{"n": 4}')


@pytest.mark.parametrize("n", [21, 0, -1])
@pytest.mark.parametrize("value", ['"0"', '"x"', '"1"'])
def test_json_checks_n_before_the_coefficient(n, value):
    # an out-of-range n fails on the first key, before its coefficient is
    # read
    with pytest.raises(ValueError) as want:
        parse_subset(n, "1")
    with pytest.raises(ValueError) as got:
        Functional.loads(f'{{"n": {n}, "coeffs": {{"1": {value}}}}}')
    assert str(got.value) == str(want.value)
    if n == 21:
        assert str(got.value) == "ground-set size must be in 1..20, got 21"


def test_pairing_table_flags_exactly_the_negative_pairings():
    # negative control: the n=5 family plus sign-indefinite members, so
    # the packed signs must agree with pair on violated functionals too
    n = 5
    orbit = sorted({permute_functional(kinser(n), sigma)
                    for sigma in permutations(range(1, n + 1))},
                   key=lambda f: f.items())
    basics = basic_functionals(n)
    family = (basics + orbit + [-f for f in basics]
              + [-Functional(n, {mask: 1}) for mask in range(1, 1 << n)])
    full = (1 << n) - 1
    W = max(sum(abs(c) for _, c in f.items()) for f in family)
    low, high = len(family), len(family) + 1
    family += [Functional(n, {full: -W}), Functional(n, {full: W})]
    terms = [f.items() for f in family]
    wide = PairingTable(n, terms, bound=12)
    points = [rank_function(random_arrangement(n, d, p, derive_seed(41, trial)))
              for trial, (d, p) in enumerate([(1, 3), (2, 101), (3, 2), (3, 101),
                                              (4, 7), (5, 101), (6, 3)])]
    rng = random.Random(43)
    points += [SetFunction(n, [0] + [rng.randint(-M, M) for _ in range(full)])
               for M in (1, 3, 7, 12)]
    for P in points:
        want = [i for i, f in enumerate(family) if pair(f, P) < 0]
        M = max(abs(v) for v in P.values_by_mask())
        assert want and PairingTable(n, terms, bound=M).negatives(P) == want
        assert wide.negatives(P) == want
        if P.value_at(full) == M:  # edge slots: pairings of exactly -M*W, +M*W
            assert pair(family[low], P) == -M * W and low in want
            assert pair(family[high], P) == M * W and high not in want


def test_pairing_table_rejects_non_integers():
    with pytest.raises(ValueError, match="integer coefficients"):
        PairingTable(4, [Functional(4, {1: Fraction(1, 2)}).items()], 1)
    with pytest.raises(ValueError, match="ground-set mismatch"):
        PairingTable(4, [kinser(5).items()], 1)
    table = PairingTable(4, [kinser(4).items()], 1)
    half = SetFunction(4, [0] + [Fraction(1, 2)] * 15)
    with pytest.raises(ValueError, match="integer-valued"):
        table.negatives(half)
    with pytest.raises(ValueError, match="ground-set mismatch"):
        table.negatives(SetFunction.zero(5))
    assert table.negatives(SetFunction.zero(4)) == []


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.dictionaries(st.integers(1, 2 ** n - 1),
                             st.integers(-4, 4).filter(bool), max_size=6),
             max_size=8),
    st.lists(st.integers(0, 12).flatmap(lambda M: st.lists(
        st.integers(-M, M), min_size=2 ** n - 1, max_size=2 ** n - 1)),
        min_size=1, max_size=3))))
def test_pairing_table_agrees_with_pair_on_random_families(case):
    # signed families with repeats; points with negative and repeated
    # values, under the tightest bound and under a loose one
    n, family, points = case
    functionals = [Functional(n, coeffs) for coeffs in family]
    terms = [f.items() for f in functionals]
    table = PairingTable(n, terms, max(max(map(abs, v)) for v in points))
    wide = PairingTable(n, [tuple(t) for t in terms], 12)
    for values in points:
        P = SetFunction(n, [0] + values)
        want = [i for i, f in enumerate(functionals) if pair(f, P) < 0]
        assert table.negatives(P) == want
        assert wide.negatives(P) == want


def test_pairing_table_checks_pairs():
    with pytest.raises(ValueError, match="ground-set mismatch"):
        PairingTable(3, [((8, 1),)], 1)
    with pytest.raises(ValueError, match="ground-set mismatch"):
        PairingTable(3, [((0, 1),)], 1)
    with pytest.raises(ValueError, match="integer coefficients"):
        PairingTable(3, [((1, Fraction(1, 2)),)], 1)
    assert PairingTable(3, [(), ((1, -1),)], 1).negatives(
        SetFunction(3, [0, 1, 0, 0, 0, 0, 0, 0])) == [1]


def test_pairing_table_checks_its_bound():
    table = PairingTable(4, [kinser(4).items()], 2)
    assert table.bound == 2
    assert table.negatives(uniform_U(4, subset(4, [1, 2, 3, 4]), 2)) == []
    for values in ([3] * 15, [0] * 14 + [3], [-3] + [0] * 14):
        with pytest.raises(ValueError, match="exceeds the table's bound 2"):
            table.negatives(SetFunction(4, [0] + values))
    # a value of -2 is within the bound: only |P(A)| is capped
    assert table.negatives(SetFunction(4, [0] * 15 + [-2])) == []
    for bad in (True, False, -1, 1.0, "2", None):
        with pytest.raises(ValueError, match="nonnegative integer"):
            PairingTable(4, [kinser(4).items()], bad)
    zero = PairingTable(4, [kinser(4).items(), ((15, -1),)], 0)
    assert zero.negatives(SetFunction.zero(4)) == []
    with pytest.raises(ValueError, match="exceeds"):
        zero.negatives(SetFunction(4, [0] * 15 + [1]))


HUGE_N = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from rankineq.functionals import Functional
try:
    Functional.loads('{"n": 1000000000000000000, "coeffs": {"1": "0"}}')
except ValueError as err:
    print(err)
"""


def test_json_sizes_nothing_by_a_huge_n():
    # in a child capped at 1 GiB of address space: a table sized by n would
    # end in MemoryError there, not fill the machine
    src = str(Path(rankineq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", HUGE_N], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout == f"ground-set size must be in 1..20, got {10 ** 18}\n"
