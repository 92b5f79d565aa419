"""Set functions on the Boolean lattice: points of the hyperplane H_n.

A SetFunction assigns an exact rational to every nonempty subset of
{1,...,n}; the value on the empty set is identically 0.  Integer-valued
set functions that are monotone and submodular are polymatroids; the same
type doubles as a plain vector of H_n for the certificate linear algebra,
where values need not be integral.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import ge, sub
from typing import Iterable, Mapping, Union

from .linalg import RATIONAL, Scalar, normalize_scalar
from .subsets import (SubsetRef, check_digits, format_subset, subset_keys,
                      subset_mask_reader)

SubsetKey = Union[SubsetRef, Iterable[int]]


def _as_mask(n: int, key: SubsetKey) -> int:
    if isinstance(key, SubsetRef):
        if key.n != n:
            raise ValueError(f"ground-set mismatch: {key.n} vs {n}")
        return key.bits
    return SubsetRef.from_elements(n, key).bits


# An integer or p/q in ASCII digits, no leading zeros, "-" the only sign.
_CANONICAL_VALUE = re.compile(r"0|-?[1-9][0-9]*(?:/[1-9][0-9]*)?").fullmatch


def parse_value(raw: object) -> Scalar:
    """Exact value from a JSON scalar, in the one spelling str() gives it.

    A JSON int, or a string: an integer like "-7", or a fraction like
    "-7/2" in lowest terms with denominator at least 2, as format_value
    writes a non-integer.
    """
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        check_digits(raw.replace("_", ""))  # "9_9" is one run of digits too
        if _CANONICAL_VALUE(raw):
            value = Fraction(raw)
            if str(value) != raw:  # "6/4" or "2/1"
                raise ValueError(f"not in lowest terms with denominator >= 2: {raw!r}")
            return normalize_scalar(value, RATIONAL)
    raise ValueError(f"not an exact rational: {raw!r}")


def format_value(value: Scalar) -> object:
    return value if isinstance(value, int) else str(value)


class SetFunction:
    """Total map from subsets of {1,...,n} to exact rationals, 0 on empty."""

    __slots__ = ("n", "_vals")

    def __init__(self, n: int, values_by_mask: Iterable[Scalar]):
        SubsetRef(n, 0)  # validates n
        vals = tuple(normalize_scalar(v, RATIONAL) for v in values_by_mask)
        if len(vals) != 1 << n:
            raise ValueError(f"need {1 << n} values (mask-indexed), got {len(vals)}")
        if vals[0] != 0:
            raise ValueError("value on the empty set must be 0")
        self.n = n
        self._vals = vals

    @classmethod
    def from_values(cls, n: int, values: Mapping[SubsetKey, Scalar]) -> "SetFunction":
        """Build from a {subset: value} table covering every nonempty subset."""
        table: list[Scalar | None] = [None] * (1 << n)
        table[0] = 0
        for key, val in values.items():
            mask = _as_mask(n, key)
            if mask == 0:
                raise ValueError("the empty subset may not be assigned a value")
            if table[mask] is not None:
                raise ValueError(f"duplicate subset key {SubsetRef(n, mask)!r}")
            table[mask] = val
        missing = next((m for m, v in enumerate(table) if v is None), None)
        if missing is not None:
            raise ValueError(f"missing subset key {SubsetRef(n, missing)!r}")
        return cls(n, table)  # type: ignore[arg-type]

    @classmethod
    def zero(cls, n: int) -> "SetFunction":
        return cls(n, [0] * (1 << n))

    @classmethod
    def indicator(cls, n: int, A: SubsetKey) -> "SetFunction":
        """The basis vector e_A: 1 on A, 0 elsewhere."""
        mask = _as_mask(n, A)
        if mask == 0:
            raise ValueError("indicator of the empty set is not a vector of H_n")
        vals = [0] * (1 << n)
        vals[mask] = 1
        return cls(n, vals)

    def value(self, A: SubsetKey) -> Scalar:
        return self._vals[_as_mask(self.n, A)]

    def value_at(self, mask: int) -> Scalar:
        return self._vals[mask]

    def values_by_mask(self) -> tuple[Scalar, ...]:
        return self._vals

    def _check_compatible(self, other: "SetFunction") -> None:
        if not isinstance(other, SetFunction):
            raise TypeError(f"expected SetFunction, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"ground-set mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "SetFunction") -> "SetFunction":
        self._check_compatible(other)
        return SetFunction(self.n, [a + b for a, b in zip(self._vals, other._vals)])

    def __sub__(self, other: "SetFunction") -> "SetFunction":
        self._check_compatible(other)
        return SetFunction(self.n, [a - b for a, b in zip(self._vals, other._vals)])

    def __mul__(self, scalar: Scalar) -> "SetFunction":
        return SetFunction(self.n, [scalar * v for v in self._vals])

    __rmul__ = __mul__

    def __neg__(self) -> "SetFunction":
        return SetFunction(self.n, [-v for v in self._vals])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SetFunction) and self.n == other.n
                and self._vals == other._vals)

    def __hash__(self) -> int:
        return hash((self.n, self._vals))

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n})"

    # -- file format ---------------------------------------------------

    def to_json_obj(self) -> dict:
        values = dict(zip(subset_keys(self.n), map(format_value, self._vals[1:])))
        return {"n": self.n, "values": values}

    @classmethod
    def from_json_obj(cls, obj: object) -> "SetFunction":
        if not isinstance(obj, dict) or set(obj) != {"n", "values"}:
            raise ValueError('set function file must have exactly the keys "n" and "values"')
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f'"n" must be an integer, got {n!r}')
        SubsetRef(n, 0)  # validates n before the 2^n table is allocated
        raw = obj["values"]
        if not isinstance(raw, dict):
            raise ValueError('"values" must be an object')
        table: list[Scalar | None] = [None] * (1 << n)
        table[0] = 0
        read_mask = subset_mask_reader(n)
        for key, val in raw.items():
            mask = read_mask(key)
            if table[mask] is not None:
                raise ValueError(f"duplicate subset key {key!r}")
            table[mask] = parse_value(val)
        missing = next((m for m, v in enumerate(table) if v is None), None)
        if missing is not None:
            raise ValueError(
                f"missing subset key {format_subset(SubsetRef(n, missing))!r}")
        return cls(n, table)  # type: ignore[arg-type]

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, text: str) -> "SetFunction":
        return cls.from_json_obj(json.loads(text))


def is_integral(P: SetFunction) -> bool:
    return all(isinstance(v, int) for v in P.values_by_mask())


def in_polymatroid_cone(P: SetFunction) -> bool:
    """Whether P satisfies the basic inequalities (nonneg + monotone + submodular).

    Rational values are allowed: this is membership in the closed cone cut
    out by the basic inequalities, of which polymatroids are the integer
    points.  Submodularity is checked in its exchange form on covers,
    P(A+i) + P(A+j) >= P(A+ij) + P(A), which is equivalent to the all-pairs
    form and quadratically cheaper.

    Both are read off the marginals D_i(A) = P(A+i) - P(A), A not holding
    i.  P is monotone on covers, and so nonnegative since P(empty) = 0,
    exactly when every D_i(A) >= 0.  The exchange inequality is
    D_i(A) >= D_i(A+j): the marginal of i does not grow when j joins A.
    D_i lists A by its mask with bit i taken out, so A and A+j sit 2^(j-1)
    apart for j > i, in block pairs that map(ge) compares; D_i itself is
    built from block pairs of P's values by map(sub).
    """
    n, vals = P.n, P.values_by_mask()
    size = 1 << n
    for i in range(n):
        h = 1 << i
        marginal: list[Scalar] = []
        for b in range(0, size, 2 * h):
            marginal += map(sub, vals[b + h:b + 2 * h], vals[b:b + h])
        if min(marginal) < 0:
            return False
        for j in range(i, n - 1):  # bit j of D_i's index is element j + 2 > i + 1
            h = 1 << j
            for b in range(0, size >> 1, 2 * h):
                if not all(map(ge, marginal[b:b + h], marginal[b + h:b + 2 * h])):
                    return False
    return True


def is_polymatroid(P: SetFunction) -> bool:
    """Integer-valued and satisfies the basic inequalities.

    Non-integral set functions report False here even when they satisfy the
    inequalities; use in_polymatroid_cone for the cone-membership question.
    """
    return is_integral(P) and in_polymatroid_cone(P)


def is_matroid(P: SetFunction) -> bool:
    """A polymatroid whose every singleton rank is at most 1."""
    return is_polymatroid(P) and _unit_singletons(P)


def is_connected(P: SetFunction) -> bool:
    """No proper nonempty S splits off: rk([n]) - rk([n]\\S) = rk(S) never holds.

    Requires a polymatroid.
    """
    if not is_polymatroid(P):
        raise ValueError("is_connected requires a polymatroid")
    return _no_separator(P)


def polymatroid_checks(P: SetFunction) -> dict[str, bool | None]:
    """The predicates above for one P, with one cone test among them all.

    Keys: integral, in_cone, polymatroid, matroid, and connected, which is
    None unless P is a polymatroid.
    """
    integral = is_integral(P)
    in_cone = in_polymatroid_cone(P)
    poly = integral and in_cone
    return {"integral": integral, "in_cone": in_cone, "polymatroid": poly,
            "matroid": poly and _unit_singletons(P),
            "connected": _no_separator(P) if poly else None}


def _unit_singletons(P: SetFunction) -> bool:
    return all(P.value_at(1 << i) <= 1 for i in range(P.n))


def _no_separator(P: SetFunction) -> bool:
    n, vals = P.n, P.values_by_mask()
    full_mask = (1 << n) - 1
    total = vals[full_mask]
    for s in range(1, full_mask):
        if total - vals[full_mask & ~s] == vals[s]:
            return False
    return True
