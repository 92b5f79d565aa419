"""Cone separation fixture: a polymatroid in the cone that no arrangement
realizes.

The standard Vamos matroid (8 elements grouped into four pairs; every
4-set is a basis except the five pair-unions listed in FOUR_POINT_PLANES;
rank 4) is not representable over any field.  Pulling its rank function
back along the map sending i to the i-th pair yields a set function on 4
elements that satisfies all basic inequalities yet pairs negatively with
the n=4 generator, so the generator genuinely cuts the polymatroid cone.

The rank table is derived here from a circuit-based independence oracle,
not transcribed.
"""

from itertools import combinations, permutations

from rankineq.functionals import basic_functionals, kinser, pair, permute_functional
from rankineq.maps import UnionMap, pullback
from rankineq.setfunctions import SetFunction, is_matroid
from rankineq.subsets import subset

from oracles import in_polymatroid_cone_all_pairs, is_polymatroid_all_pairs

PAIRS = ((1, 2), (3, 4), (5, 6), (7, 8))
FOUR_POINT_PLANES = [
    frozenset((1, 2, 3, 4)), frozenset((1, 2, 5, 6)), frozenset((3, 4, 5, 6)),
    frozenset((1, 2, 7, 8)), frozenset((3, 4, 7, 8)),
]  # {5,6,7,8} stays independent


def independent(elements) -> bool:
    if len(elements) > 4:
        return False
    if len(elements) == 4 and frozenset(elements) in FOUR_POINT_PLANES:
        return False
    return True  # no circuits of size < 4


def vamos_rank_table() -> SetFunction:
    values = {}
    for r in range(1, 9):
        for members in combinations(range(1, 9), r):
            rank = max(len(sub) for k in range(min(4, len(members)) + 1)
                       for sub in combinations(members, k) if independent(sub))
            values[members] = rank
    return SetFunction.from_values(8, values)


def test_vamos_is_a_matroid_of_rank_4():
    V = vamos_rank_table()
    assert is_matroid(V)
    assert V.value(subset(8, range(1, 9))) == 4
    for plane in FOUR_POINT_PLANES:
        assert V.value(subset(8, plane)) == 3
    assert V.value(subset(8, [5, 6, 7, 8])) == 4


def test_vamos_pullback_separates_the_cones():
    V = vamos_rank_table()
    # slot the independent pair-union {5,6,7,8} at positions {1,2}
    phi = UnionMap(4, 8, [PAIRS[2], PAIRS[3], PAIRS[0], PAIRS[1]])
    P = pullback(phi, V)
    # P satisfies every defining inequality of the polymatroid cone ...
    assert is_polymatroid_all_pairs(P)
    assert in_polymatroid_cone_all_pairs(P)
    assert all(pair(f, P) >= 0 for f in basic_functionals(4))
    # ... yet violates the generator, so it is not realizable
    assert pair(kinser(4), P) == -1


def test_vamos_violation_is_permutation_specific():
    V = vamos_rank_table()
    phi = UnionMap(4, 8, list(PAIRS))
    P = pullback(phi, V)
    values = sorted(pair(permute_functional(kinser(4), sigma), P)
                    for sigma in permutations(range(1, 5)))
    assert values[0] == -1   # some relabeling catches it
    assert values[-1] > 0    # others do not
