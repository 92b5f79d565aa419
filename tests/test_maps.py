"""Union-preserving maps: application, pullback/pushforward, adjointness."""

import random

import pytest

from rankineq.functionals import Functional, kinser, pair
from rankineq.maps import (UnionMap, compose, hierarchy_map,
                           identity_map, pullback, pushforward)
from rankineq.arrangements import random_arrangement, rank_function, uniform_U
from rankineq.setfunctions import SetFunction
from rankineq.subsets import subset

from oracles import is_polymatroid_all_pairs


def test_apply_examples():
    phi = UnionMap(2, 3, [[1], [2, 3]])
    assert phi.apply(subset(2, [1, 2])) == subset(3, [1, 2, 3])
    assert phi.apply(subset(2, [])) == subset(3, [])
    psi = UnionMap(2, 2, [[], [2]])
    assert psi.apply(subset(2, [1])) == subset(2, [])


def test_apply_range_checks():
    phi = UnionMap(2, 3, [[1], [2, 3]])
    with pytest.raises(ValueError, match="source"):
        phi.apply(subset(3, [1]))
    with pytest.raises(ValueError):
        UnionMap(2, 3, [[1]])  # wrong number of images
    with pytest.raises(ValueError):
        UnionMap(2, 3, [[1], [4]])  # image out of range


def test_pullback_examples():
    P = uniform_U(3, subset(3, [1, 2, 3]), 1)
    phi = UnionMap(2, 3, [[1], [2, 3]])
    back = pullback(phi, P)
    assert [back.value_at(m) for m in range(1, 4)] == [1, 1, 1]
    Q = SetFunction(3, tuple(range(8)))
    assert pullback(identity_map(3), Q) == Q


def test_pullback_reads_each_mask_at_its_image():
    # the doubled image table against phi(A) mask by mask, with images that
    # are empty, repeated or overlapping
    rng = random.Random(31)
    for k, n in [(1, 1), (3, 2), (5, 4), (8, 6)]:
        P = SetFunction(n, [0] + [rng.randint(0, 9) for _ in range(2 ** n - 1)])
        for _ in range(5):
            phi = rand_map(rng, k, n)
            assert pullback(phi, P).values_by_mask() == tuple(
                P.value_at(phi.apply_mask(m)) for m in range(2 ** k))


def test_pushforward_substitution_example():
    phi = UnionMap(2, 3, [[1], [2, 3]])
    f = Functional.from_coeffs(2, {(1,): 1, (2,): 1, (1, 2): -1})
    assert pushforward(phi, f) == Functional.from_coeffs(
        3, {(1,): 1, (2, 3): 1, (1, 2, 3): -1})
    assert pushforward(identity_map(4), kinser(4)) == kinser(4)


def test_pushforward_drops_empty_and_cancels():
    phi = UnionMap(2, 2, [[], [1]])
    f = Functional.from_coeffs(2, {(1,): 5, (2,): 1, (1, 2): -1})
    # {1} lands on the empty set; {2} and {1,2} collide on {1} and cancel
    assert pushforward(phi, f) == Functional.zero(2)


def test_hierarchy_map_shape():
    h = hierarchy_map(5)
    assert [h.image_of(i) for i in range(1, 6)] == [
        subset(4, [1]), subset(4, [2]), subset(4, [3]), subset(4, [4]),
        subset(4, [1, 4])]
    assert h.apply(subset(5, [5])) == subset(4, [1, 4])
    with pytest.raises(ValueError, match="n >= 5"):
        hierarchy_map(4)


@pytest.mark.parametrize("n", range(5, 11))
def test_hierarchy_collapses_generator(n):
    assert pushforward(hierarchy_map(n), kinser(n)) == kinser(n - 1)


def rand_map(rng, k, n):
    return UnionMap(k, n, [[j for j in range(1, n + 1) if rng.random() < 0.4]
                           for _ in range(k)])


def test_adjointness_small_random():
    rng = random.Random(41)
    for _ in range(200):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        phi = rand_map(rng, k, n)
        f = Functional(k, {rng.randint(1, 2 ** k - 1): rng.randint(-3, 3)
                           for _ in range(rng.randint(0, 4))})
        P = SetFunction(n, (0,) + tuple(rng.randint(-4, 9)
                                        for _ in range(2 ** n - 1)))
        assert pair(f, pullback(phi, P)) == pair(pushforward(phi, f), P)


def test_pullback_preserves_polymatroids():
    rng = random.Random(43)
    for trial in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        V = random_arrangement(n, rng.randint(1, 4), 3, seed=7000 + trial)
        P = rank_function(V)
        assert is_polymatroid_all_pairs(P)
        assert is_polymatroid_all_pairs(pullback(rand_map(rng, k, n), P))


def test_pullback_functoriality_via_compose():
    rng = random.Random(47)
    for _ in range(60):
        k1, n1, n2 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        first = rand_map(rng, k1, n1)
        second = rand_map(rng, n1, n2)
        P = SetFunction(n2, (0,) + tuple(rng.randint(-3, 8)
                                         for _ in range(2 ** n2 - 1)))
        assert pullback(first, pullback(second, P)) == \
            pullback(compose(second, first), P)
    with pytest.raises(ValueError, match="compose"):
        compose(UnionMap(3, 3, [[1], [2], [3]]), UnionMap(2, 2, [[1], [2]]))


def test_injective_surjective_predicates():
    assert identity_map(3).is_injective()
    assert identity_map(3).is_surjective()
    h = hierarchy_map(5)
    assert not h.is_injective()  # image of 5 has no private element
    assert h.is_surjective()
    embed = UnionMap(2, 3, [[1], [2]])
    assert embed.is_injective()
    assert not embed.is_surjective()
    collapse = UnionMap(2, 1, [[1], [1]])
    assert not collapse.is_injective()
    with_empty = UnionMap(2, 2, [[], [1]])
    assert not with_empty.is_injective()


def test_injectivity_matches_definition_exhaustively():
    # brute force over all maps Pow(2) -> Pow(2)
    for img1 in range(4):
        for img2 in range(4):
            phi = UnionMap(2, 2, [subset(2, [i for i in (1, 2) if img1 >> (i - 1) & 1]),
                                  subset(2, [i for i in (1, 2) if img2 >> (i - 1) & 1])])
            seen = {phi.apply_mask(m) for m in range(4)}
            assert phi.is_injective() == (len(seen) == 4)
            assert phi.is_surjective() == (seen == {0, 1, 2, 3})


def test_pullback_pushforward_ground_mismatch():
    phi = UnionMap(2, 3, [[1], [2, 3]])
    with pytest.raises(ValueError, match="map target"):
        pullback(phi, SetFunction.zero(2))
    with pytest.raises(ValueError, match="map source"):
        pushforward(phi, Functional.zero(3))


def test_json_round_trip():
    phi = UnionMap(2, 3, [[1], [2, 3]])
    assert phi.to_json_obj() == {"k": 2, "n": 3, "images": [[1], [2, 3]]}
    assert UnionMap.loads(phi.dumps()) == phi
    empty_image = UnionMap(2, 3, [[], [1]])
    assert UnionMap.loads(empty_image.dumps()) == empty_image
    with pytest.raises(ValueError, match="exactly the keys"):
        UnionMap.loads('{"k": 2, "n": 3}')
    with pytest.raises(ValueError, match="list"):
        UnionMap.loads('{"k": 1, "n": 2, "images": ["1"]}')
