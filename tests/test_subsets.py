"""Subset algebra against a naive element-set model, plus Mobius properties."""

import time
from itertools import combinations

import pytest

from rankineq.subsets import (SubsetRef, all_subsets, check_digits, format_subset,
                              mobius, nonempty_subsets, parse_int_list, parse_subset,
                              subset, subset_keys, subset_mask_reader)


def test_constructor_examples():
    assert subset(4, [1, 3]).elements() == (1, 3)
    assert subset(4, [3, 1, 3]) == subset(4, [1, 3])
    with pytest.raises(ValueError, match="element out of range"):
        subset(4, [5])
    with pytest.raises(ValueError):
        subset(0, [])
    with pytest.raises(ValueError):
        subset(21, [1])


def test_empty_subset_representable():
    empty = subset(3, [])
    assert empty.is_empty()
    assert len(empty) == 0
    assert empty.elements() == ()


def naive(ref: SubsetRef) -> frozenset:
    return frozenset(ref.elements())


def test_set_algebra_matches_naive_model_exhaustively():
    for n in range(1, 7):
        refs = list(all_subsets(n))
        assert len(refs) == 2 ** n
        # ascending mask order is the documented iteration order
        assert [r.bits for r in refs] == list(range(2 ** n))
        for A in refs:
            assert naive(A.complement()) == frozenset(range(1, n + 1)) - naive(A)
            assert len(A) == len(naive(A))
            for B in refs:
                assert naive(A | B) == naive(A) | naive(B)
                assert naive(A & B) == naive(A) & naive(B)
                assert naive(A - B) == naive(A) - naive(B)
                assert A.issubset(B) == (naive(A) <= naive(B))
                assert (A == B) == (naive(A) == naive(B))


def test_membership_and_equality():
    A = subset(5, [2, 4])
    assert 2 in A and 4 in A
    assert 3 not in A and 0 not in A and 6 not in A
    assert A != subset(4, [2, 4])  # different ground set
    assert hash(subset(5, [2, 4])) == hash(A)


def test_ground_set_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        subset(4, [1]) | subset(5, [1])


def test_mobius_examples():
    assert mobius(subset(3, [1]), subset(3, [1, 2])) == -1
    assert mobius(subset(3, [1, 3]), subset(3, [1, 3])) == 1
    assert mobius(subset(3, [1]), subset(3, [1, 2, 3])) == 1
    with pytest.raises(ValueError, match="not a subset"):
        mobius(subset(3, [2]), subset(3, [1, 3]))


def test_mobius_against_sign_oracle():
    n = 5
    for A in all_subsets(n):
        for r in range(len(A) + 1):
            for sub_elems in combinations(A.elements(), r):
                S = subset(n, sub_elems)
                assert mobius(S, A) == (-1) ** (len(A) - len(S))


def test_mobius_inversion_sums():
    # sum over A >= S of mu(S, A) is 0 unless S is the whole ground set
    for n in range(1, 7):
        top = subset(n, range(1, n + 1))
        for S in all_subsets(n):
            total = sum(mobius(S, A) for A in all_subsets(n)
                        if S.issubset(A))
            assert total == (1 if S == top else 0)


def test_text_form_round_trip():
    for n in (1, 4, 6):
        for S in nonempty_subsets(n):
            text = format_subset(S)
            assert text == ",".join(str(i) for i in S.elements())
            assert parse_subset(n, text) == S


def test_text_form_rejects_non_canonical():
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_subset(4, "3,1")
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_subset(4, "1,1")
    with pytest.raises(ValueError, match="malformed"):
        parse_subset(4, "")
    with pytest.raises(ValueError, match="malformed"):
        parse_subset(4, "1,x")
    with pytest.raises(ValueError, match="out of range"):
        parse_subset(4, "1,5")


# Spellings that int() accepts but format_subset never writes.
NON_CANONICAL = ["01,2", " 1,2", "+1,2", "1,2 ", "\u0661,2", "1, 2", "1_0"]


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_text_form_accepts_only_the_canonical_spelling(text):
    with pytest.raises(ValueError, match="malformed subset key"):
        parse_subset(12, text)


def test_int_list_reads_the_canonical_spelling():
    assert parse_int_list("3,-1,0,12", "permutation") == [3, -1, 0, 12]
    assert parse_int_list("9" * 4300, "x") == [int("9" * 4300)]
    with pytest.raises(ValueError, match="longer than 4300 digits"):
        parse_int_list("1," + "9" * 4301, "x")


def test_digit_check_counts_each_run():
    for text in ("9" * 4301, "1/" + "9" * 4301, "\u0664" * 4301, "x" + "9" * 5000 + "y"):
        with pytest.raises(ValueError, match="longer than 4300 digits"):
            check_digits(text)
    for text in ("9" * 4300, "9" * 4300 + "/" + "9" * 4300, "9" * 4300 + "_9"):
        assert check_digits(text) == text


def test_digit_check_is_linear_in_the_text():
    # 50 runs just under the cap: a search that restarts inside each run
    # reads every run 4,300 times over, seconds of work instead of milliseconds
    text = ("9" * 4300 + ",") * 50
    start = time.process_time()
    assert check_digits(text) == text
    assert time.process_time() - start < 1.0


def test_elements_must_be_integers_not_bools():
    for elements in ([True], [1, True], [False]):
        with pytest.raises(ValueError, match="out of range"):
            SubsetRef.from_elements(3, elements)
        with pytest.raises(ValueError, match="out of range"):
            subset(3, elements)
    assert subset(3, [1]) == SubsetRef(3, 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_subset_keys_are_the_formatted_subsets(n):
    assert subset_keys(n) == [format_subset(SubsetRef(n, m)) for m in range(1, 2 ** n)]


@pytest.mark.parametrize("n", [1, 3, 10, 12])
def test_mask_reader_reads_every_key(n):
    read = subset_mask_reader(n)
    assert [read(key) for key in subset_keys(n)] == list(range(1, 2 ** n))


@pytest.mark.parametrize("key", [
    "2,1", "1,1", "1,3,2", "3,3", "0", "4", "13", "01", " 1", "1 ", "1,", ",1",
    "", "-1", "+1", "1_0", "\u0661", "1,,2", "9" * 4301, "1,2,3,4"])
def test_mask_reader_rejects_as_parse_subset_does(key):
    # a key is read only in its one canonical spelling; every other key
    # raises parse_subset's own message
    with pytest.raises(ValueError) as want:
        parse_subset(3, key)
    with pytest.raises(ValueError) as got:
        subset_mask_reader(3)(key)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [0, -1, 21])
@pytest.mark.parametrize("key", ["1", "1,2", "2,1", "x"])
def test_mask_reader_sends_every_key_of_a_bad_n_to_parse_subset(n, key):
    # no part table is sized by an n outside 1..MAX_GROUND_SET
    with pytest.raises(ValueError) as want:
        parse_subset(n, key)
    with pytest.raises(ValueError) as got:
        subset_mask_reader(n)(key)
    assert str(got.value) == str(want.value)
