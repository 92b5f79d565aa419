"""Exact linear algebra over GF(p) and the rationals.

Matrices are immutable tuples of row tuples.  Over GF(p) entries are ints
reduced to 0..p-1; over the rationals entries are ints or Fractions in
lowest terms (ints preferred when integral).  Everything here is exact:
there is no floating point anywhere.

Rank sweeps over the rationals are fraction-free: rows are scaled to
primitive integer vectors and reduction uses cross-multiplication followed
by content stripping, so no Fractions appear while accumulating large
families of vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence, Union

RATIONAL = 0

Scalar = Union[int, Fraction]


# Deterministic Miller-Rabin witnesses: with these bases the test is exact
# below 3.3 * 10^24 (Sorenson and Webster, 2015), far above the 2^64 bound
# that check_field puts on field sizes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=64)
def is_prime(p: int) -> bool:
    """Primality by deterministic Miller-Rabin; exact below 3.3 * 10^24.

    Memoized: check_field validates the field of every matrix and echelon,
    and a run uses only a handful of fields.
    """
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p < 41 * 41:
        return True  # no prime factor up to 41, so none up to sqrt(p)
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_field(field: int) -> int:
    """Validate a field code: 0 means the rationals, otherwise a prime below 2^64."""
    if not isinstance(field, int) or isinstance(field, bool):
        raise ValueError(f"field must be 0 (rationals) or a prime, got {field!r}")
    if field >= 1 << 64:
        raise ValueError(f"field must be 0 (rationals) or a prime below 2^64, got {field}")
    if field != RATIONAL and not is_prime(field):
        raise ValueError(f"field must be 0 (rationals) or a prime, got {field}")
    return field


def normalize_scalar(value: Scalar, field: int) -> Scalar:
    """Reduce mod p over GF(p); over the rationals keep ints as ints."""
    if type(value) is int:  # the common case; bool takes the path below
        return value % field if field != RATIONAL else value
    if field != RATIONAL:
        if isinstance(value, Fraction):
            if value.denominator % field == 0:
                raise ValueError(f"denominator not invertible mod {field}")
            return value.numerator * pow(value.denominator, -1, field) % field
        return value % field
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    return value


def _primitive_int_row(vec: Sequence[Scalar]) -> list[int]:
    # Scale a rational row to a primitive integer row (same span).
    if all(type(x) is int for x in vec):
        row = list(vec)
    else:
        lcm = 1
        for x in vec:
            if isinstance(x, Fraction):
                d = x.denominator
                lcm = lcm // gcd(lcm, d) * d
        row = [int(x * lcm) if isinstance(x, Fraction) else x * lcm for x in vec]
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
    if g > 1:
        row = [x // g for x in row]
    return row


class Echelon:
    """Incremental row-space accumulator: feed rows, read off the rank.

    Over GF(p) pivot rows are kept with unit pivots.  Over the rationals
    pivot rows are primitive integer vectors and incoming rows are reduced
    by cross-multiplication, keeping all intermediate values in ZZ.
    """

    __slots__ = ("field", "ncols", "pivots", "rows")

    def __init__(self, field: int, ncols: int):
        self.field = check_field(field)
        self.ncols = ncols
        self.pivots: list[int] = []
        self.rows: list[list[Scalar]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        dup = Echelon.__new__(Echelon)
        dup.field = self.field
        dup.ncols = self.ncols
        dup.pivots = list(self.pivots)
        dup.rows = list(self.rows)  # rows themselves are never mutated
        return dup

    def reduce(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """Residue of vec after elimination against the stored pivot rows."""
        if len(vec) != self.ncols:
            raise ValueError(f"expected {self.ncols} columns, got {len(vec)}")
        p = self.field
        if p != RATIONAL:
            v = [x % p for x in vec]
            for pc, row in zip(self.pivots, self.rows):
                a = v[pc]
                if a:
                    v = [(x - a * y) % p for x, y in zip(v, row)]
            return v
        v = _primitive_int_row(vec)
        for pc, row in zip(self.pivots, self.rows):
            a = v[pc]
            if a:
                piv = row[pc]
                g = gcd(piv, a)
                piv, a = piv // g, a // g
                v = [piv * x - a * y for x, y in zip(v, row)]
        g = 0
        for x in v:
            if x:
                g = gcd(g, x)
        if g > 1:
            v = [x // g for x in v]
        return v

    def add(self, vec: Sequence[Scalar]) -> bool:
        """Insert vec's residue as a new pivot row; False if dependent."""
        v = self.reduce(vec)
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return False
        if self.field != RATIONAL:
            inv = pow(v[pc], -1, self.field)
            v = [x * inv % self.field for x in v]
        elif v[pc] < 0:
            v = [-x for x in v]
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pc:
            at += 1
        self.pivots.insert(at, pc)
        self.rows.insert(at, v)
        return True

    def extend(self, vecs: Iterable[Sequence[Scalar]]) -> int:
        added = 0
        for vec in vecs:
            added += self.add(vec)
        return added

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return not any(self.reduce(vec))

    def rref(self) -> "ExactMatrix":
        """Reduced row echelon form of the row space, unit pivots.

        The result is the canonical basis: two row spaces are equal iff
        their rrefs are equal.  The pivot rows are back-substituted
        bottom-up by inserting them, last pivot first, into a second
        Echelon: each insertion clears the row at every later pivot.  Over
        the rationals that stays fraction-free, and each row is divided by
        its pivot only at the end.
        """
        back = Echelon(self.field, self.ncols)
        back.extend(reversed(self.rows))
        rows = back.rows
        if self.field == RATIONAL:
            rows = [row if row[pc] == 1 else [Fraction(x, row[pc]) for x in row]
                    for pc, row in zip(back.pivots, rows)]
        return ExactMatrix(self.field, rows, self.ncols)


class ExactMatrix:
    """Immutable matrix over GF(p) or the rationals; rows span a subspace."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: int, rows: Iterable[Sequence[Scalar]], ncols: int | None = None):
        self.field = check_field(field)
        normalized = []
        width = ncols
        for row in rows:
            entries = tuple(normalize_scalar(x, self.field) for x in row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError(f"ragged rows: expected {width} columns, got {len(entries)}")
            normalized.append(entries)
        if width is None:
            raise ValueError("column count required for a matrix with no rows")
        self.rows = tuple(normalized)
        self.nrows = len(self.rows)
        self.ncols = width

    @classmethod
    def identity(cls, field: int, k: int) -> "ExactMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(k)] for i in range(k)], k)

    def stack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field or self.ncols != other.ncols:
            raise ValueError("stack: field or column mismatch")
        return ExactMatrix(self.field, self.rows + other.rows, self.ncols)

    def rank(self) -> int:
        ech = Echelon(self.field, self.ncols)
        ech.extend(self.rows)
        return ech.rank

    def rref(self) -> "ExactMatrix":
        """Reduced row echelon form, zero rows dropped (see Echelon.rref)."""
        forward = Echelon(self.field, self.ncols)
        forward.extend(self.rows)
        return forward.rref()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExactMatrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        name = "QQ" if self.field == RATIONAL else f"GF({self.field})"
        return f"ExactMatrix({name}, {self.nrows}x{self.ncols})"


def intersect_row_spaces(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Basis (in rref) of the intersection of two row spaces.

    Zassenhaus's algorithm: echelonize the rows (a | a) for a in A and
    (b | 0) for b in B.  The right halves of the pivot rows whose pivot
    lies in the right half span the intersection.
    """
    if A.field != B.field or A.ncols != B.ncols:
        raise ValueError("intersect: field or column mismatch")
    d = A.ncols
    ech = Echelon(A.field, 2 * d)
    ech.extend(row + row for row in A.rows)
    ech.extend(row + (0,) * d for row in B.rows)
    meet = [row[d:] for pc, row in zip(ech.pivots, ech.rows) if pc >= d]
    return ExactMatrix(A.field, meet, d).rref()
