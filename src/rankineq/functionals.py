"""Sparse linear functionals on H_n and the inequality hierarchy generator.

A Functional is a finite rational combination of dual basis vectors e*_A
(A a nonempty subset); pairing it with a SetFunction evaluates the
corresponding linear inequality, which "holds" when the pairing is >= 0.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Mapping, Sequence

from .linalg import RATIONAL, Scalar, normalize_scalar
from .setfunctions import SetFunction, SubsetKey, _as_mask, parse_value
from .subsets import SubsetRef, format_subset, subset_mask_reader


class Functional:
    """Sparse vector of H_n^*: rational coefficient per nonempty subset."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs_by_mask: Mapping[int, Scalar]):
        SubsetRef(n, 0)  # validates n
        clean: dict[int, Scalar] = {}
        for mask, c in coeffs_by_mask.items():
            if mask <= 0 or mask >> n:
                raise ValueError(f"bad subset mask {mask!r} for n={n}")
            c = normalize_scalar(c, RATIONAL)
            if c != 0:
                clean[mask] = c
        self.n = n
        self._coeffs = clean

    @classmethod
    def from_coeffs(cls, n: int, coeffs: Mapping[SubsetKey, Scalar]) -> "Functional":
        return cls(n, {_as_mask(n, key): val for key, val in coeffs.items()})

    @classmethod
    def unit(cls, n: int, A: SubsetKey) -> "Functional":
        """The dual basis vector e*_A."""
        return cls(n, {_as_mask(n, A): 1})

    @classmethod
    def zero(cls, n: int) -> "Functional":
        return cls(n, {})

    def coeff(self, A: SubsetKey) -> Scalar:
        return self._coeffs.get(_as_mask(self.n, A), 0)

    def coeff_at(self, mask: int) -> Scalar:
        return self._coeffs.get(mask, 0)

    def items(self) -> list[tuple[int, Scalar]]:
        """(mask, coefficient) pairs in ascending mask order."""
        return sorted(self._coeffs.items())

    def __len__(self) -> int:
        return len(self._coeffs)

    def _check_compatible(self, other: "Functional") -> None:
        if not isinstance(other, Functional):
            raise TypeError(f"expected Functional, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"ground-set mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Functional") -> "Functional":
        self._check_compatible(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, 0) + c
        return Functional(self.n, out)

    def __sub__(self, other: "Functional") -> "Functional":
        self._check_compatible(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, 0) - c
        return Functional(self.n, out)

    def __mul__(self, scalar: Scalar) -> "Functional":
        return Functional(self.n, {m: scalar * c for m, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "Functional":
        return Functional(self.n, {m: -c for m, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Functional) and self.n == other.n
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.items())))

    def __repr__(self) -> str:
        terms = " ".join(f"{'+' if c > 0 else '-'}{abs(c)}*{SubsetRef(self.n, m)!r}"
                         for m, c in self.items())
        return f"Functional(n={self.n}, {terms or '0'})"

    # -- file format ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"n": self.n,
                "coeffs": {format_subset(SubsetRef(self.n, m)): str(c)
                           for m, c in self.items()}}

    @classmethod
    def from_json_obj(cls, obj: object) -> "Functional":
        if not isinstance(obj, dict) or set(obj) != {"n", "coeffs"}:
            raise ValueError('functional file must have exactly the keys "n" and "coeffs"')
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f'"n" must be an integer, got {n!r}')
        raw = obj["coeffs"]
        if not isinstance(raw, dict):
            raise ValueError('"coeffs" must be an object')
        coeffs: dict[int, Scalar] = {}
        read_mask = subset_mask_reader(n)
        for key, val in raw.items():
            mask = read_mask(key)
            value = parse_value(val)
            if value == 0:
                raise ValueError(f"zero coefficient stored for key {key!r}")
            coeffs[mask] = value
        return cls(n, coeffs)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, text: str) -> "Functional":
        return cls.from_json_obj(json.loads(text))


def pair(f: Functional, P: SetFunction) -> Scalar:
    """Standard pairing <f, P> = sum of coeff(A) * P(A) over f's support."""
    if f.n != P.n:
        raise ValueError(f"ground-set mismatch: {f.n} vs {P.n}")
    total: Scalar = 0
    for mask, c in f._coeffs.items():
        total += c * P.value_at(mask)
    return normalize_scalar(total, RATIONAL)


class PairingTable:
    """The signs of <f_i, P> for a whole family of integral functionals.

    The table packs the family into one Python int per mask A,
    col[A] = sum_i c_i(A) * 2^(i*w), one w-bit slot per functional.  The
    caller bounds the values: every |P(A)| <= M, the table's bound (d for
    the rank function of subspaces of a d-dimensional space).  With
    W = max_i sum_A |c_i(A)|, every |<f_i, P>| <= M*W.  With
    w = bitlen(M*W) + 1 and B = 2^(w-1) > M*W, each <f_i, P> + B lies in
    [0, 2^w), so

        T = Bias + sum_A P(A) * col[A],   Bias = sum_i B * 2^(i*w),

    is exactly the base-2^w number whose digit i is <f_i, P> + B: no slot
    borrows from or carries into its neighbour.  <f_i, P> < 0 exactly when
    the top bit of slot i is 0, so T & Bias == Bias proves that no
    functional is violated, and otherwise the bits of Bias & ~T name the
    violated slots.  All arithmetic is on integers; a non-integer
    coefficient or value, or a value above the bound, raises ValueError.
    """

    __slots__ = ("n", "bound", "_width", "_bias", "_cols")

    def __init__(self, n: int, family: Sequence[Sequence[tuple[int, int]]],
                 bound: int):
        """family[i] is f_i's (mask, coefficient) terms; bound caps every |P(A)|."""
        SubsetRef(n, 0)
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise ValueError(f"bound must be a nonnegative integer, got {bound!r}")
        weight = 0
        for f in family:
            masks, coeffs = zip(*f) if f else ((), ())
            if masks and not (min(masks) > 0 and max(masks) >> n == 0):
                raise ValueError(f"ground-set mismatch: a mask of {f!r} "
                                 f"is not a nonempty subset of 1..{n}")
            if not all(map(isinstance, coeffs, repeat(int))):
                raise ValueError(f"packed pairing needs integer coefficients: {f!r}")
            weight = max(weight, sum(map(abs, coeffs)))
        self.n = n
        self.bound = bound
        self._width = w = (bound * weight).bit_length() + 1
        self._bias = ((1 << len(family) * w) - 1) // ((1 << w) - 1) << (w - 1)
        self._cols = _pack(family, 0, len(family), w)

    def negatives(self, P: SetFunction) -> list[int]:
        """Ascending indices i with <f_i, P> < 0."""
        if P.n != self.n:
            raise ValueError(f"ground-set mismatch: {self.n} vs {P.n}")
        vals = P.values_by_mask()
        if not all(isinstance(v, int) for v in vals):
            raise ValueError("packed pairing needs an integer-valued set function")
        if max(map(abs, vals)) > self.bound:
            raise ValueError(f"a value of P exceeds the table's bound {self.bound}")
        # sum_A P(A) * col[A], with one multiplication per distinct value
        by_value: dict[int, int] = {}
        for mask, col in self._cols.items():
            v = vals[mask]
            if v:
                by_value[v] = by_value.get(v, 0) + col
        bias = total = self._bias
        for v, col in by_value.items():
            total += v * col
        missing = bias & ~total
        out = []
        while missing:
            low = missing & -missing
            out.append(low.bit_length() // self._width - 1)
            missing ^= low
        return out


def _pack(family: Sequence, lo: int, hi: int, w: int) -> dict[int, int]:
    """col[A] over slots lo..hi-1 at slot width w, slot lo at bit 0.

    Halves are packed separately and merged, so each column costs
    O(size * log(slots)) rather than one full-size add per term.
    """
    if hi - lo <= 1:
        return dict(family[lo]) if hi > lo else {}
    mid = (lo + hi) // 2
    cols = _pack(family, lo, mid, w)
    shift = (mid - lo) * w
    for mask, col in _pack(family, mid, hi, w).items():
        cols[mask] = cols.get(mask, 0) + (col << shift)
    return cols


def kinser(n: int) -> Functional:
    """The n-th inequality of the hierarchy, as a functional on H_n.

    At n = 4 this is Ingleton's inequality.  Terms are accumulated as sets,
    so the i = 3 summand collapses ({i-1,i} and {2,i-1,i} both become
    {2,3}) before the sparse form is canonicalized.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 4:
        raise ValueError("n >= 4 required")
    coeffs: dict[int, Scalar] = {}

    def add(elements: Sequence[int], c: int) -> None:
        mask = 0
        for e in elements:
            mask |= 1 << (e - 1)
        coeffs[mask] = coeffs.get(mask, 0) + c

    add((1, 3), 1)
    add((1, n), 1)
    add((1, 2), -1)
    add((1, 3, n), -1)
    for i in range(3, n + 1):
        add((2, i), 1)
        add((i - 1, i), 1)
        add((i,), -1)
        add((2, i - 1, i), -1)
    return Functional(n, coeffs)


def basic_functionals(n: int) -> list[Functional]:
    """The local generating family of the polymatroid cone's dual.

    Monotonicity: e*_{A+i} - e*_A for every A and i not in A (the A = empty
    case degenerates to e*_i).  Submodularity in exchange form:
    e*_{A+i} + e*_{A+j} - e*_{A+ij} - e*_A for every A and i < j outside A;
    e*_empty terms are dropped since H_n vanishes on the empty set.
    """
    SubsetRef(n, 0)
    out: list[Functional] = []
    for a in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if a & bi:
                continue
            coeffs = {a | bi: 1}
            if a:
                coeffs[a] = -1
            out.append(Functional(n, coeffs))
    for a in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if a & bi:
                continue
            for j in range(i + 1, n):
                bj = 1 << j
                if a & bj:
                    continue
                coeffs = {a | bi: 1, a | bj: 1, a | bi | bj: -1}
                if a:
                    coeffs[a] = -1
                out.append(Functional(n, coeffs))
    return out


def check_permutation(sigma: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate sigma as images (sigma[i-1] = image of i) of a bijection on 1..n."""
    images = tuple(sigma)
    if len(images) != n or sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    return images


def permute_mask(mask: int, images: Sequence[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (images[low.bit_length() - 1] - 1)
        mask ^= low
    return out


def permute_functional(f: Functional, sigma: Sequence[int]) -> Functional:
    """Relabel indices: the coefficient of sigma(A) in the output is f's on A."""
    images = check_permutation(sigma, f.n)
    return Functional(f.n, {permute_mask(m, images): c for m, c in f.items()})
