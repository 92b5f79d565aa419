"""Subset algebra on the Boolean lattice of {1, ..., n}.

Subsets are encoded as n-bit masks (element i <-> bit i-1).  All lattice
iteration is in ascending mask order, so file formats and reports built on
top of it are deterministic.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

MAX_GROUND_SET = 20
# Longest run of digits read: int() takes time quadratic in its length.
MAX_DIGITS = 4300
# Matched only at the start of a run, so a scan is linear in the text.
_LONG_RUN = re.compile(rf"(?<!\d)\d{{{MAX_DIGITS + 1}}}").search

# Integers as str() writes them; int() also takes " 1", "+1", "01", "1_0", "\u0661".
_CANONICAL_KEY = re.compile(r"(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*").fullmatch


class SubsetRef:
    """Canonical subset of {1, ..., n}.

    Immutable value type: two refs are equal iff they have the same ground
    set and the same members.  The empty subset is representable.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if not isinstance(n, int) or not 1 <= n <= MAX_GROUND_SET:
            raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {n!r}")
        if bits < 0 or bits >> n:
            raise ValueError("element out of range")
        self.n = n
        self.bits = bits

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "SubsetRef":
        bits = 0
        for e in elements:
            if type(e) is not int or not 1 <= e <= n:  # no bools
                raise ValueError(f"element out of range: {e!r} not in 1..{n}")
            bits |= 1 << (e - 1)
        return cls(n, bits)

    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.bits >> (i - 1) & 1)

    def is_empty(self) -> bool:
        return self.bits == 0

    def _same_ground(self, other: "SubsetRef") -> None:
        if not isinstance(other, SubsetRef):
            raise TypeError(f"expected SubsetRef, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"ground-set mismatch: {self.n} vs {other.n}")

    def union(self, other: "SubsetRef") -> "SubsetRef":
        self._same_ground(other)
        return SubsetRef(self.n, self.bits | other.bits)

    def intersection(self, other: "SubsetRef") -> "SubsetRef":
        self._same_ground(other)
        return SubsetRef(self.n, self.bits & other.bits)

    def difference(self, other: "SubsetRef") -> "SubsetRef":
        self._same_ground(other)
        return SubsetRef(self.n, self.bits & ~other.bits)

    def complement(self) -> "SubsetRef":
        return SubsetRef(self.n, ~self.bits & ((1 << self.n) - 1))

    def issubset(self, other: "SubsetRef") -> bool:
        self._same_ground(other)
        return self.bits & ~other.bits == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.bits >> (element - 1) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubsetRef) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return "{" + ",".join(str(i) for i in self.elements()) + "}"


def check_digits(text: str) -> str:
    """Return text, unless it has a run of more than MAX_DIGITS digits."""
    if _LONG_RUN(text):
        raise ValueError(f"number literal longer than {MAX_DIGITS} digits")
    return text


def subset(n: int, elements: Iterable[int]) -> SubsetRef:
    """Build the subset of {1,...,n} with the given elements (duplicates ok)."""
    return SubsetRef.from_elements(n, elements)


def mobius(S: SubsetRef, A: SubsetRef) -> int:
    """Mobius function of the Boolean lattice: (-1)^|A \\ S| for S <= A."""
    S._same_ground(A)
    if S.bits & ~A.bits:
        raise ValueError(f"{S!r} is not a subset of {A!r}")
    return -1 if (A.bits & ~S.bits).bit_count() & 1 else 1


def all_subsets(n: int) -> Iterator[SubsetRef]:
    """All subsets of {1,...,n} including the empty one, ascending mask order."""
    for bits in range(1 << n):
        yield SubsetRef(n, bits)


def nonempty_subsets(n: int) -> Iterator[SubsetRef]:
    for bits in range(1, 1 << n):
        yield SubsetRef(n, bits)


def format_subset(S: SubsetRef) -> str:
    """Text form used in all file formats: "1,3,4" (strictly increasing)."""
    return ",".join(str(i) for i in S.elements())


def subset_keys(n: int) -> list[str]:
    """format_subset(SubsetRef(n, m)) at index m - 1, for every nonempty mask m.

    Built in one sweep with no SubsetRef: with top = 2^(t-1) the top bit of
    m, the key of m is the key of m ^ top, then "," and t, or just t when
    m == top.  The 2^n - 1 keys are built per call and kept by no one.
    """
    keys: list[str] = []
    for t in map(str, range(1, n + 1)):
        keys += [t] + [key + "," + t for key in keys]
    return keys


def subset_mask_reader(n: int) -> Callable[[str], int]:
    """A function from a subset key to parse_subset(n, key).bits, with no SubsetRef.

    A key is read part by part off str(i) -> 2^(i-1), 1 <= i <= n, and is
    accepted when every part is found and each bit is above the OR of the
    bits before it: the canonical, strictly increasing spelling of a
    subset of {1..n}.  Any other key goes to parse_subset, which raises
    its own message for it.  For n outside 1..MAX_GROUND_SET the table is
    empty, so every key goes to parse_subset and n is never used as a size.
    """
    bits = ({str(i): 1 << (i - 1) for i in range(1, n + 1)}
            if 1 <= n <= MAX_GROUND_SET else {})

    def read(key: str) -> int:
        mask = 0
        for part in key.split(","):
            bit = bits.get(part, 0)
            if bit <= mask:
                return parse_subset(n, key).bits
            mask |= bit
        return mask

    return read


def parse_int_list(text: str, what: str) -> list[int]:
    """Integers from "a,b,c" spelled as str() writes them; ValueError names what."""
    if _CANONICAL_KEY(text) is None:
        raise ValueError(f"malformed {what} {text!r}")
    return [int(p) for p in check_digits(text).split(",")]


def parse_subset(n: int, text: str) -> SubsetRef:
    """Parse the text form; accepts only keys spelled as format_subset writes them."""
    values = parse_int_list(text, "subset key")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"subset key not strictly increasing: {text!r}")
    return SubsetRef.from_elements(n, values)
