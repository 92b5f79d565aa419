"""Union-preserving maps between Boolean lattices.

A map phi: Pow(k) -> Pow(n) with phi(empty) = empty that preserves unions
is determined by the images of the singletons.  It pulls set functions
back (precomposition) and pushes functionals forward (substitution on the
dual basis); the two operations are adjoint under the standard pairing.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence, Union

from .functionals import Functional
from .linalg import Scalar
from .setfunctions import SetFunction
from .subsets import SubsetRef

ImageKey = Union[SubsetRef, Iterable[int]]


class UnionMap:
    """Join-semilattice morphism Pow(k) -> Pow(n), stored by singleton images."""

    __slots__ = ("k", "n", "images")

    def __init__(self, k: int, n: int, images: Sequence[ImageKey]):
        SubsetRef(k, 0)
        SubsetRef(n, 0)
        masks = []
        for img in images:
            if isinstance(img, SubsetRef):
                if img.n != n:
                    raise ValueError(f"image over ground set {img.n}, expected {n}")
                masks.append(img.bits)
            else:
                masks.append(SubsetRef.from_elements(n, img).bits)
        if len(masks) != k:
            raise ValueError(f"need {k} singleton images, got {len(masks)}")
        self.k = k
        self.n = n
        self.images = tuple(masks)

    def image_of(self, i: int) -> SubsetRef:
        """phi({i}) for a source element i."""
        if not 1 <= i <= self.k:
            raise ValueError(f"source element out of range: {i}")
        return SubsetRef(self.n, self.images[i - 1])

    def apply_mask(self, mask: int) -> int:
        out = 0
        for i in range(self.k):
            if mask >> i & 1:
                out |= self.images[i]
        return out

    def apply(self, A: SubsetRef) -> SubsetRef:
        if A.n != self.k:
            raise ValueError(f"subset over ground set {A.n}, map source is {self.k}")
        return SubsetRef(self.n, self.apply_mask(A.bits))

    def is_injective(self) -> bool:
        """Injective as a map on power sets.

        Holds iff every singleton image owns a private element; otherwise
        dropping that source element does not change the image of the
        whole ground set.
        """
        for i in range(self.k):
            others = 0
            for j in range(self.k):
                if j != i:
                    others |= self.images[j]
            if not self.images[i] & ~others:
                return False
        return True

    def is_surjective(self) -> bool:
        # A singleton of the target is a union of images only if it is one.
        singletons = {img for img in self.images if img.bit_count() == 1}
        return len(singletons) == self.n

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UnionMap) and self.k == other.k
                and self.n == other.n and self.images == other.images)

    def __hash__(self) -> int:
        return hash((self.k, self.n, self.images))

    def __repr__(self) -> str:
        imgs = ", ".join(repr(SubsetRef(self.n, m)) for m in self.images)
        return f"UnionMap({self.k} -> {self.n}: [{imgs}])"

    # -- file format ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"k": self.k, "n": self.n,
                "images": [list(SubsetRef(self.n, m).elements()) for m in self.images]}

    @classmethod
    def from_json_obj(cls, obj: object) -> "UnionMap":
        if not isinstance(obj, dict) or set(obj) != {"k", "n", "images"}:
            raise ValueError('map file must have exactly the keys "k", "n" and "images"')
        k, n, images = obj["k"], obj["n"], obj["images"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f'"k" must be an integer, got {k!r}')
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f'"n" must be an integer, got {n!r}')
        if not isinstance(images, list) or not all(isinstance(e, list) for e in images):
            raise ValueError('"images" must be a list of element lists')
        return cls(k, n, images)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, text: str) -> "UnionMap":
        return cls.from_json_obj(json.loads(text))


def identity_map(n: int) -> UnionMap:
    return UnionMap(n, n, [[i] for i in range(1, n + 1)])


def compose(second: UnionMap, first: UnionMap) -> UnionMap:
    """The map A |-> second(first(A)); first's target must be second's source."""
    if first.n != second.k:
        raise ValueError(f"cannot compose: {first.n} != {second.k}")
    images = [SubsetRef(second.n, second.apply_mask(m)) for m in first.images]
    return UnionMap(first.k, second.n, images)


def pullback(phi: UnionMap, P: SetFunction) -> SetFunction:
    """Precompose: (phi^# P)(A) = P(phi(A)); maps H_n to H_k.

    The images of all 2^k masks come from one table, doubled once per
    source element: with top = 2^t the top bit of a mask m, phi(m) is
    phi(m ^ top) | phi({t + 1}).
    """
    if P.n != phi.n:
        raise ValueError(f"set function over {P.n}, map target is {phi.n}")
    images = [0]
    for img in phi.images:
        images += [m | img for m in images]
    return SetFunction(phi.k, map(P.values_by_mask().__getitem__, images))


def pushforward(phi: UnionMap, f: Functional) -> Functional:
    """Substitute: c * e*_A becomes c * e*_{phi(A)}; maps H_k^* to H_n^*.

    Coefficients on colliding images accumulate, terms landing on the
    empty set are dropped (H_n vanishes there), and exact cancellations
    disappear from the sparse form.
    """
    if f.n != phi.k:
        raise ValueError(f"functional over {f.n}, map source is {phi.k}")
    coeffs: dict[int, Scalar] = {}
    for mask, c in f.items():
        img = phi.apply_mask(mask)
        if img:
            coeffs[img] = coeffs.get(img, 0) + c
    return Functional(phi.n, coeffs)


def hierarchy_map(n: int) -> UnionMap:
    """The substitution Pow(n) -> Pow(n-1) that collapses the hierarchy.

    Sends i to {i} for i < n and n to {1, n-1}; pushing the n-th inequality
    forward along it yields the (n-1)-st.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 5:
        raise ValueError("n >= 5 required")
    images: list[list[int]] = [[i] for i in range(1, n)]
    images.append([1, n - 1])
    return UnionMap(n, n - 1, images)
