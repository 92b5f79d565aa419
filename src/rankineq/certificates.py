"""Machine checks for the structural facts behind the inequality hierarchy.

Each verifier re-derives one piece of the theory with exact arithmetic and
returns a CertificateReport: the non-realizable witness polymatroid and
its explicit realizations after substitution, the collapse of the
hierarchy under the substitution map, the vanishing family of generic-line
polymatroids, the lattice identities expressing basis vectors through
them, and the facet dimension count.
"""

from __future__ import annotations

import json
import random
from functools import cache, partial, reduce
from operator import xor
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .arrangements import sum_echelons, uniform_U
from .functionals import kinser
from .linalg import RATIONAL, Echelon, Scalar
from .maps import UnionMap, hierarchy_map, pushforward
from .setfunctions import SetFunction
from .subsets import SubsetRef, mobius, nonempty_subsets


class CertificateReport(NamedTuple):
    """Pass/fail record of one check, with exact-arithmetic witnesses."""

    check: str
    n: int
    outcome: str  # "pass" | "fail"
    details: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json_obj(self) -> dict:
        return {"check": self.check, "n": self.n, "outcome": self.outcome,
                "details": list(self.details)}

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())


def _report(check: str, n: int, failures: Sequence[str],
            notes: Sequence[str] = ()) -> CertificateReport:
    outcome = "fail" if failures else "pass"
    return CertificateReport(check, n, outcome, tuple(failures) + tuple(notes))


def _check_n(name: str, n: object) -> None:
    """Reject any n but an int in the range CERTIFICATES gives this certificate."""
    valid = CERTIFICATES[name][1]
    if type(n) is not int or n not in valid:
        raise ValueError(f"certificate {name!r} requires n in "
                         f"{valid.start}..{valid.stop - 1}")


# ---------------------------------------------------------------------------
# The witness polymatroid and its realizations


def witness_T(n: int) -> SetFunction:
    """The almost-realizable witness: pairs to -1 with the n-th inequality.

    Values: 2 on {2}; n-2 on other singletons; n-1 on {2,i} (i >= 3), on
    consecutive pairs {i-1,i} (i >= 3), and on {1,3} and {1,n}; n on
    everything else.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 4:
        raise ValueError("n >= 4 required")
    two = 1 << 1
    vals = [0] * (1 << n)
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if mask == two:
            vals[mask] = 2
        elif size == 1:
            vals[mask] = n - 2
        elif size == 2 and _is_special_pair(mask, n):
            vals[mask] = n - 1
        else:
            vals[mask] = n
    return SetFunction(n, vals)


def _is_special_pair(mask: int, n: int) -> bool:
    a = (mask & -mask).bit_length()
    b = mask.bit_length()
    if a == 2:
        return True  # {2, i} with i >= 3
    if b - a == 1 and b >= 3:
        return True  # {i-1, i} with i >= 3
    return (a, b) in ((1, 3), (1, n))


def _witness_blocks(n: int) -> dict:
    """Integer basis rows for the fixed realization machinery.

    The ambient space has basis w_1..w_{n-1}, wtilde (coordinates
    0..n-2, n-1); w-indices wrap around mod n-1.
    """
    full = [[int(i == j) for j in range(n)] for i in range(n)]
    wt = full[n - 1]
    big = {i: [full[(i + t - 1) % (n - 1)] for t in range(n - 3)] + [wt]
           for i in range(2, n)}
    z1 = full[:n - 3] + [wt]
    z2 = [[1] * (n - 1) + [0], wt]
    return {"dim": n, "W": big, "Z1": z1, "Z2": z2, "full": full}


def _choose_w1(n: int, cmask: int, blocks: dict, T: SetFunction) -> list[list[int]]:
    """Pick W_1 for a substitution with phi(1) = cmask.

    Dispatch order: subsets of {3..n}, the empty set included (as the sum
    of the fixed subspaces W_{j-1}, j in phi(1), with the index shifted to
    match phi(i) = {i+1}); the five-entry table; everything with witness
    value n gets the whole space.
    """
    if not cmask & 0b11:
        return _fixed_rows(blocks, cmask >> 2)
    cset = {i for i in range(1, n + 1) if cmask >> (i - 1) & 1}
    if cset == {1}:
        return blocks["Z1"]
    if cset == {2}:
        return blocks["Z2"]
    if cset == {1, 3}:
        return blocks["Z1"] + blocks["W"][2]
    if cset == {1, n}:
        return blocks["Z1"] + blocks["W"][n - 1]
    if len(cset) == 2 and 2 in cset and max(cset) >= 3:
        return blocks["Z2"] + blocks["W"][max(cset) - 1]
    if T.value_at(cmask) == T.n:
        return blocks["full"]
    raise AssertionError(f"unhandled substitution image {cset}")


def _fixed_rows(blocks: dict, m: int) -> list[list[int]]:
    """The rows of the fixed subspaces W_{i+2}, i in m, concatenated."""
    return [row for i in range(m.bit_length()) if m >> i & 1 for row in blocks["W"][i + 2]]


def _pullback_values(T: SetFunction, cmask: int) -> tuple[Scalar, ...]:
    """phi^*T by mask for phi(1) = cmask, phi(i) = {i+1} (i >= 2), read off T.

    Mask 2m + b of [n-1] maps to (2m << 1) | (cmask if b else 0).
    """
    vals = T.values_by_mask()
    return tuple(vals[m << 2 | c] for m in range(1 << (T.n - 2)) for c in (0, cmask))


def _witness_ranks(fixed: Sequence[Echelon], dim: int,
                   w1: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Rank function of (W_1, ..., W_{n-1}); fixed[m] spans W_{i+2}, i in m.

    W_1 is reduced once, in fixed's field, to its basis rows.  Mask 2m + 1
    extends a copy of fixed[m] by those rows, unless fixed[m] or W_1 alone
    spans everything.  Each elimination stops once it reaches rank dim.
    """
    basis = _span(Echelon(fixed[0].field, dim), w1)
    vals = []
    for ech in fixed:
        odd = dim
        if ech.rank < dim and basis.rank < dim:
            odd = _span(ech.copy(), basis.rows).rank
        vals += (ech.rank, odd)
    return tuple(vals)


def _sum_ranks(fixed: Sequence[Echelon], m1: int) -> tuple[int, ...]:
    """_witness_ranks for W_1 = the fixed W_{i+2}, i in m1: W_1 + fixed[m] is fixed[m | m1]."""
    return tuple(r for m, ech in enumerate(fixed) for r in (ech.rank, fixed[m | m1].rank))


def _span(ech: Echelon, rows: Iterable[Sequence[int]]) -> Echelon:
    """ech extended by rows, up to the first that brings it to full rank."""
    for row in rows:
        if ech.add(row) and ech.rank == ech.ncols:
            break
    return ech


def verify_witness_realizations(n: int, T: SetFunction | None = None) -> CertificateReport:
    """Every substitution image of the witness is realizable, explicitly.

    For each of the 2^n choices of phi(1) (with phi(i) = {i+1} for i >= 2)
    an arrangement (W_1, ..., W_{n-1}) over the rationals, GF(2) and GF(3)
    must have the pulled-back witness as its rank function exactly.  The
    substitutions, their pullbacks and W_1 do not depend on the field and
    are built once.  In each field the echelons of all sums of W_2, ...,
    W_{n-1} are built once.  A W_1 that is itself such a sum, as in the sum
    case, reads its ranks off them; each other distinct W_1 is reduced once
    and extends them.
    """
    _check_n("witness", n)
    if T is None:
        T = witness_T(n)
    elif T.n != n:
        raise ValueError(f"witness over ground set {T.n}, expected {n}")
    blocks = _witness_blocks(n)
    dim = blocks["dim"]
    w1s: dict[tuple, int] = {}  # each distinct W_1, numbered as first seen
    sums: dict[int, int] = {}  # number of a W_1 -> m, when it is the fixed W_{i+2}, i in m
    substitutions = []  # (phi(1), pullback values, number of W_1), in every field
    for cmask in range(1 << n):
        rows = _choose_w1(n, cmask, blocks, T)
        i = w1s.setdefault(tuple(map(tuple, rows)), len(w1s))
        if not cmask & 0b11 and rows == _fixed_rows(blocks, cmask >> 2):
            sums[i] = cmask >> 2
        substitutions.append((cmask, _pullback_values(T, cmask), i))
    failures: list[str] = []
    sum_realized = False
    cases = 0
    for fld, fld_name in ((RATIONAL, "rationals"), (2, "GF(2)"), (3, "GF(3)")):
        fixed = sum_echelons(fld, dim, [blocks["W"][i] for i in range(2, n)])
        ranks = [_sum_ranks(fixed, sums[i]) if i in sums else _witness_ranks(fixed, dim, w1)
                 for i, w1 in enumerate(w1s)]
        for cmask, expected, i in substitutions:
            got = ranks[i]
            cases += 1
            if got != expected:
                m = next(m for m, (g, w) in enumerate(zip(got, expected)) if g != w)
                failures.append(
                    f"{fld_name}, phi(1)={SubsetRef(n, cmask)!r}: rank function differs "
                    f"at {SubsetRef(n - 1, m)!r}: arrangement {got[m]}, pullback {expected[m]}")
                break
            # the sum case: phi(1) nonempty, inside {3..n}
            sum_realized = sum_realized or cmask and not cmask & 0b11
        if failures:
            break
    notes = [f"{cases} substitution cases checked across rationals/GF(2)/GF(3)"]
    if sum_realized:
        notes.append("sum case realized with shifted indexing")
    return _report("witness_realizations", n, failures, notes)


# ---------------------------------------------------------------------------
# Hierarchy collapse


def verify_hierarchy(n: int, substitution: UnionMap | None = None) -> CertificateReport:
    """Pushing the n-th inequality along the collapse map gives the (n-1)-st."""
    _check_n("hierarchy", n)
    if substitution is None:
        substitution = hierarchy_map(n)
    got = pushforward(substitution, kinser(n))
    want = kinser(n - 1)
    failures = []
    if got != want:
        worst = (got - want).items()[0]
        failures.append(
            f"pushforward differs from the n={n - 1} generator on "
            f"{SubsetRef(n - 1, worst[0])!r} (excess coefficient {worst[1]})")
    notes = [] if failures else [f"generator for n={n} collapses onto n={n - 1}"]
    return _report("hierarchy", n, failures, notes)


# ---------------------------------------------------------------------------
# Vanishing family of generic-line polymatroids


def vanishing_condition(n: int, S: SubsetRef, d: int) -> bool:
    """Condition under which the n-th inequality vanishes on uniform_U(n,S,d).

    d >= 3: always.  d = 2: S must not contain {1,3,n} and, when 2 is in
    S, no consecutive pair {i,i+1} with 3 <= i <= n-1 may be inside S.
    d = 1: without 2, S must not meet {1,3,n} in exactly {3,n}; with 2,
    S must be the whole ground set, an interval {2,...,k}, or {2} plus a
    tail {k,...,n}.
    """
    if S.n != n:
        raise ValueError(f"subset over ground set {S.n}, expected {n}")
    if d >= 3:
        return True
    sbits = S.bits
    has_two = bool(sbits >> 1 & 1)
    triple = (1 << 0) | (1 << 2) | (1 << (n - 1))  # {1, 3, n}
    if d == 2:
        if sbits & triple == triple:
            return False
        if not has_two:
            return True
        pair_base = 0b11 << 2  # {3, 4}
        return not any(sbits & (pair_base << t) == pair_base << t
                       for t in range(n - 3))
    if d == 1:
        if not has_two:
            return sbits & triple != triple ^ 1  # S meet {1,3,n} != {3,n}
        full = (1 << n) - 1
        if sbits == full:
            return True
        for k in range(2, n + 1):
            interval = ((1 << k) - 1) ^ 1  # {2, ..., k}
            tail = 2 | (full ^ ((1 << (k - 1)) - 1))  # {2} + {k, ..., n}
            if sbits in (interval, tail):
                return True
        return False
    raise ValueError(f"d must be a positive integer, got {d!r}")


def vanishing_family(n: int) -> list[tuple[SubsetRef, int]]:
    """All (S, d), S nonempty and 1 <= d <= n, meeting the vanishing condition."""
    return [(S, d) for S in nonempty_subsets(n) for d in range(1, n + 1)
            if vanishing_condition(n, S, d)]


def _pair_uniform(terms: Sequence[tuple[int, Scalar]], smask: int, d: int) -> Scalar:
    """<f, U(S, d)> summed over f.items(), without the dense 2^n vector."""
    return sum([c * (k if (k := (mask & smask).bit_count()) < d else d)
                for mask, c in terms])


def verify_vanishing(n: int) -> CertificateReport:
    """Every qualifying generic-line polymatroid pairs to exactly 0.

    Subsets are visited lazily, one at a time.  With t the largest term
    size of kinser(n), min(d, |A meet S|) = |A meet S| on every term once
    d >= t, so the pairing at d = t serves every larger d.
    """
    _check_n("vanishing", n)
    terms = kinser(n).items()
    top = max(mask.bit_count() for mask, _ in terms)
    failures = []
    count = 0
    for bits in range(1, 1 << n):
        S = SubsetRef(n, bits)
        at_top = _pair_uniform(terms, bits, top)
        for d in range(1, n + 1):
            if not vanishing_condition(n, S, d):
                continue
            count += 1
            got = _pair_uniform(terms, bits, d) if d < top else at_top
            if got != 0:
                failures.append(f"pairing with U(S={S!r}, d={d}) is {got}, expected 0")
    return _report("vanishing", n, failures,
                   [f"{count} qualifying (S, d) pairs checked"])


# ---------------------------------------------------------------------------
# Identities between basis vectors and generic-line polymatroids


_PACK_BITS = 16  # bits per coordinate of a packed row


@cache
def _element_masks(n: int, w: int) -> tuple[int, ...]:
    """M_i for i < n: 1 in the w-bit slot A, 0 <= A < 2^n, exactly when i is in A."""
    full = (1 << (w << n)) - 1
    masks = []
    for i in range(n):
        half = w << i  # 2^i slots
        block = ((1 << half) - 1) // ((1 << w) - 1) << half  # slots 2^i .. 2^(i+1) - 1
        masks.append(full // ((1 << 2 * half) - 1) * block)  # repeated every 2^(i+1) slots
    return tuple(masks)


def _layers(n: int, w: int, smask: int, d: int) -> list[int]:
    """L_j = {A : |A meet S| >= j}, j = 1..min(d, |S|), as 1s in w-bit slots A.

    min(d, |A meet S|) is the number of layers that hold A.
    """
    layers = [0] * min(d, smask.bit_count())
    seen = 0
    for i, m in enumerate(_element_masks(n, w)):
        if layers and smask >> i & 1:
            for j in range(min(seen, len(layers) - 1), 0, -1):
                layers[j] |= layers[j - 1] & m
            layers[0] |= m
            seen += 1
    return layers


def _u_row(n: int, smask: int, d: int) -> int:
    """U(S, d) in H_n, packed: min(d, |A meet S|) in slot A - 1, the layers summed."""
    return sum(_layers(n, _PACK_BITS, smask, d)) >> _PACK_BITS


def _zero_sum(n: int, rows: dict, lines: Sequence[tuple[int, int, int]],
              units: Sequence[tuple[int, int]] = ()) -> bool:
    """Whether sum c*U(S,d) over lines plus sum c*e_A over units is 0 in H_n.

    Rows are the packed _u_row, cached in rows under (S, min(d, |S|)), since
    U(S, d) = U(S, |S|) for d >= |S|.  Packing is linear, and a packed
    vector is 0 only if each coordinate is, once all have size below 2^w;
    U(S, d) has entries 0..n, so the bound n * sum |c| + sum |c_unit| is
    checked.
    """
    w = _PACK_BITS
    bound = n * sum(abs(c) for _, _, c in lines) + sum(abs(c) for _, c in units)
    if bound >> w:
        raise RuntimeError(f"identity terms reach {bound}, beyond {w}-bit packing")
    total = 0
    for smask, d, c in lines:
        key = smask, min(d, smask.bit_count())
        row = rows.get(key)
        if row is None:
            row = rows[key] = _u_row(n, *key)
        total += c * row
    for amask, c in units:
        total += c << w * (amask - 1)
    return total == 0


def verify_line_identities(n: int) -> CertificateReport:
    """Exact vector identities in H_n among the uniform_U polymatroids.

    Checks the splitting U(S,d) = sum of U({i},1) for d >= |S|, the
    expansions of e_[n] and of the coatom vectors e_{[n]-i}, the Mobius
    expansion of e_S for |S| <= n-2, the triple identity
    U(T,3) - U(T,2) = sum of e_A over A containing T, and the four-term
    inclusion-exclusion for line polymatroids on random (T, a, b).  Each
    identity is a list of terms c*U(S,d), given as (S, d, c), and c*e_A,
    given as (A, c), whose integer rows, each built once as a packed int,
    must sum to the zero vector.
    """
    _check_n("identities", n)
    full = (1 << n) - 1
    sub = partial(SubsetRef, n)

    def supersets(mask: int) -> list[int]:
        return [amask for amask in range(mask, full + 1) if amask & mask == mask]

    def identities() -> Iterator[tuple[str, list, list, Callable[[], str]]]:
        """(family, lines, units, failure line); each failure line binds its values."""
        # splitting: U(S, d) with d >= |S| decomposes into single lines
        for smask in range(1 << n):
            lines = [(1 << i, 1, -1) for i in range(n) if smask >> i & 1]
            for d in range(max(1, smask.bit_count()), n + 1):
                yield ("splitting", [(smask, d, 1)] + lines, [],
                       lambda smask=smask, d=d: f"splitting fails for S={sub(smask)!r}, d={d}")
        yield ("top-and-coatoms", [(full, n, 1), (full, n - 1, -1)], [(full, -1)],
               lambda: "top identity fails: e_[n] != U([n],n) - U([n],n-1)")
        for i in range(n):
            smask = full ^ (1 << i)
            yield ("top-and-coatoms",
                   [(full, n - 1, 1), (smask, n - 2, -1), (1 << i, 1, -1)],
                   [(smask, -1)],
                   lambda smask=smask: f"coatom identity fails for S={sub(smask)!r}")
        # Mobius expansion of e_S for |S| <= n - 2; U(A, 0) is the zero vector
        for smask in range(1, 1 << n):
            if smask.bit_count() <= n - 2:
                S = sub(smask)
                yield ("mobius", [(amask, amask.bit_count() - 1, -mobius(S, sub(amask)))
                                  for amask in supersets(smask)],
                       [(smask, -1)], lambda S=S: f"Mobius expansion fails for S={S!r}")
        # triples: U(T,3) - U(T,2) is the indicator sum over supersets
        for tmask in range(1, 1 << n):
            if tmask.bit_count() == 3:
                yield ("triples", [(tmask, 3, 1), (tmask, 2, -1)],
                       [(amask, -1) for amask in supersets(tmask)],
                       lambda tmask=tmask: f"triple identity fails for {sub(tmask)!r}")
        # four-term identity on random (T, a, b)
        rng = random.Random(74099 + n)
        checked = 0
        while checked < 100:
            tmask = rng.randrange(1 << n) & full
            outside = [i for i in range(n) if not tmask >> i & 1]
            if len(outside) < 2:
                continue
            a, b = rng.sample(outside, 2)
            ab = 1 << a | 1 << b
            checked += 1
            yield ("four-term", [(tmask | 1 << a, 1, 1), (tmask | 1 << b, 1, 1),
                                 (tmask, 1, -1), (tmask | ab, 1, -1)],
                   [(amask, -1) for amask in supersets(ab) if not amask & tmask],
                   lambda tmask=tmask, a=a, b=b: f"four-term identity fails for "
                                                 f"T={sub(tmask)!r}, a={a + 1}, b={b + 1}")

    failures: list[str] = []
    counts: dict[str, int] = {}
    zero_sum = partial(_zero_sum, n, {})  # one packed-row cache per call
    for family, lines, units, failure in identities():
        counts[family] = counts.get(family, 0) + 1
        if not zero_sum(lines, units):
            failures.append(failure())
    return _report("line_identities", n, failures,
                   [", ".join(f"{k}: {v}" for k, v in counts.items())])


# ---------------------------------------------------------------------------
# Facet dimension and explicit basis


def _gf2_rank(rows: Iterable[int], stop: int) -> int:
    """Rank over GF(2) of bitset rows, capped at stop; pivots keyed on the lead bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row and (pivot := pivots.get(row.bit_length())):
            row ^= pivot
        if row:
            pivots[row.bit_length()] = row
            if len(pivots) == stop:
                break
    return len(pivots)


def _parity_row(n: int, smask: int, d: int) -> int:
    """U(S, d) mod 2, one bit per coordinate: its layers XORed, bit A - 1 for A."""
    return reduce(xor, _layers(n, 1, smask, d), 0) >> 1


def facet_rank(n: int) -> tuple[int, int]:
    """Exact ranks of the generic-line families as vectors of H_n.

    Returns (rank of the vanishing family, rank of all U(S,d) with
    1 <= d <= n).  Each vanishing member is re-verified to pair to 0 with
    the nonzero generator, so that family's rank over QQ is at most 2^n - 2,
    and its rank over GF(2) is no larger: one that reaches 2^n - 2 is exact.
    Equal rows are swept once.  The GF(2)
    row of U(S, d) is the XOR of its layers at one bit per coordinate: bit
    A - 1 holds min(d, |A meet S|) mod 2.  The span is then
    ker kinser(n), so the full family has rank 2^n - 1 if some U(S, d) pairs
    to nonzero, exactly, else 2^n - 2.  A GF(2) rank that stops short is
    recomputed by one elimination over QQ, which goes on to the other rows
    to decide the full rank as well.

    The pairing of U(S, d) is the sum of c * min(d, |A meet S|) over the
    generator's terms c * e*_A.  With t the largest term size, |A meet S|
    <= t on every term, so min(d, |A meet S|) = min(min(d, t), |A meet S|),
    and the re-check pairs each distinct (S, min(d, t)) once, naming the
    first member that reaches it if it fails.
    """
    _check_n("facet", n)
    terms = kinser(n).items()
    kernel = vanishing_family(n)
    # U(S, d) = U(S, |S|) for d >= |S|: each distinct row is swept once
    rows = dict.fromkeys((S.bits, min(d, S.bits.bit_count())) for S, d in kernel)
    top = max(mask.bit_count() for mask, _ in terms)
    pairings: dict[tuple[int, int], tuple[SubsetRef, int]] = {}
    for S, d in kernel:
        pairings.setdefault((S.bits, min(d, S.bits.bit_count(), top)), (S, d))
    for (smask, d), (S, member_d) in pairings.items():
        value = _pair_uniform(terms, smask, d)
        if value != 0:
            raise RuntimeError(f"vanishing family member U(S={S!r}, d={member_d}) "
                               f"pairs to {value}")
    ncols = (1 << n) - 1
    family = [(smask, d) for smask in range(1, 1 << n) for d in range(1, n + 1)]
    if _gf2_rank((_parity_row(n, smask, d) for smask, d in rows), ncols - 1) < ncols - 1:
        ech = Echelon(RATIONAL, ncols)
        kernel_rank = ech.extend(uniform_U(n, S, d).values_by_mask()[1:] for S, d in kernel)
        ech.extend(uniform_U(n, SubsetRef(n, smask), d).values_by_mask()[1:]
                   for smask, d in family if ech.rank < ncols)
        return kernel_rank, ech.rank
    # every kernel member pairs to 0, so a nonzero pairing lifts the span
    lifted = any(_pair_uniform(terms, smask, d) for smask, d in family)
    return ncols - 1, (ncols if lifted else ncols - 1)


def verify_facet(n: int, ranks: tuple[int, int] | None = None) -> CertificateReport:
    """The vanishing family spans a hyperplane of the full family's span.

    Expected ranks are 2^n - 2 and 2^n - 1: the inequality cuts out a
    codimension-1 face, which is what makes it irreducible.  The caller
    may pass ranks = facet_rank(n) already computed.
    """
    _check_n("facet", n)
    got = ranks or facet_rank(n)
    want = (2 ** n - 2, 2 ** n - 1)
    failures = [f"ranks {got}, expected {want}"] if got != want else []
    return _report("facet_rank", n, failures,
                   [f"rank in kernel {got[0]}, full rank {got[1]}"])


def basis_alpha(n: int) -> dict[int, int]:
    """Correction coefficients alpha_S for the explicit facet basis.

    alpha is -1 on singletons {i} with i >= 3, on {1,2} and on {2,j,j+1};
    +1 on {1,3}, {1,n}, {2,i} with i >= 3 and on consecutive pairs
    {j,j+1} with j >= 3; 0 elsewhere.  These are exactly the generator's
    coefficients, which is forced by membership in its kernel.
    """
    SubsetRef(n, 0)
    alpha: dict[int, int] = {}
    for i in range(3, n + 1):
        alpha[1 << (i - 1)] = -1
        alpha[2 | 1 << (i - 1)] = 1
    alpha[0b11] = -1  # {1,2}
    for j in range(3, n):
        pair_mask = (1 << (j - 1)) | (1 << j)
        alpha[pair_mask] = 1
        alpha[pair_mask | 2] = -1
    alpha[0b101] = 1  # {1,3}
    alpha[1 | 1 << (n - 1)] = 1  # {1,n}
    return alpha


def verify_basis_F(n: int, alpha: dict[int, int] | None = None,
                   ranks: tuple[int, int] | None = None) -> CertificateReport:
    """The claimed facet basis lies in the vanishing family's span.

    Once facet_rank certifies rank 2^n - 2, the span is ker k, k = kinser(n),
    so e_S + alpha_S * e_R (R = {1,3,n}, S != R) lies in it exactly when
    k(S) + alpha_S * k(R) = 0.  Each vector has its own unit coordinate S,
    so the vectors are independent and their rank is the number checked.
    The caller may pass ranks = facet_rank(n) already computed.
    """
    _check_n("basis", n)
    if alpha is None:
        alpha = basis_alpha(n)
    kernel_rank = (ranks or facet_rank(n))[0]
    if kernel_rank != (1 << n) - 2:
        return _report("basis_F", n, [
            f"vanishing span has rank {kernel_rank}, expected {(1 << n) - 2}"])
    k = kinser(n)
    r_mask = 0b101 | 1 << (n - 1)  # {1, 3, n}
    failures = []
    members = 0
    for smask in range(1, 1 << n):
        if smask == r_mask:
            continue
        a = alpha.get(smask, 0)
        if k.coeff_at(smask) + a * k.coeff_at(r_mask) != 0:
            failures.append(
                f"e_S + alpha*e_{{1,3,{n}}} not in the vanishing span for "
                f"S={SubsetRef(n, smask)!r} (alpha={a})")
            break
        members += 1
    return _report("basis_F", n, failures,
                   [f"{members} basis vectors verified in the span, "
                    f"rank {members}"])


# ---------------------------------------------------------------------------
# Orchestration

CERTIFICATES: dict[str, tuple[Callable[[int], CertificateReport], range]] = {
    "hierarchy": (verify_hierarchy, range(5, 21)),
    "witness": (verify_witness_realizations, range(4, 11)),
    "vanishing": (verify_vanishing, range(4, 21)),
    "identities": (verify_line_identities, range(4, 11)),
    "facet": (verify_facet, range(4, 11)),
    "basis": (verify_basis_F, range(5, 8)),
}


def run_certificates(n: int, which: str = "all") -> list[CertificateReport]:
    """Run one named certificate, or every one applicable at this n."""
    if which != "all":
        if which not in CERTIFICATES:
            raise ValueError(f"unknown certificate {which!r}; "
                             f"choose from {', '.join(CERTIFICATES)} or all")
        _check_n(which, n)
        return [CERTIFICATES[which][0](n)]
    names = [name for name, (_, valid) in CERTIFICATES.items() if n in valid]
    if not names:
        raise ValueError(f"no certificate is applicable at n={n}")
    # one facet_rank(n) serves the facet and basis reports
    ranks = facet_rank(n) if "facet" in names else None
    return [check(n, ranks=ranks) if name in ("facet", "basis") else check(n)
            for name, (check, _) in CERTIFICATES.items() if name in names]
