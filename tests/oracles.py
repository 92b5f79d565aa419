"""Reference forms of the library's checks, kept as test oracles.

Each one is the direct definition that a faster path in ``rankineq``
replaces; tests compare the two.
"""

from rankineq.setfunctions import SetFunction, is_integral


def in_polymatroid_cone_all_pairs(P: SetFunction) -> bool:
    """The basic inequalities, with submodularity on all pairs (A, B).

    The reference for ``in_polymatroid_cone``, which checks the equivalent
    exchange form on covers.
    """
    n, vals = P.n, P.values_by_mask()
    full_mask = (1 << n) - 1
    # monotone + nonnegative via covers (value on empty set is 0)
    for a in range(full_mask + 1):
        va = vals[a]
        for i in range(n):
            bit = 1 << i
            if not a & bit and vals[a | bit] < va:
                return False
    for a in range(full_mask + 1):
        va = vals[a]
        for b in range(a, full_mask + 1):
            if vals[a | b] + vals[a & b] > va + vals[b]:
                return False
    return True


def is_polymatroid_all_pairs(P: SetFunction) -> bool:
    """The reference for ``is_polymatroid``: integral and in the cone."""
    return is_integral(P) and in_polymatroid_cone_all_pairs(P)


def dense_u_row(n: int, smask: int, d: int) -> int:
    """U(S, d) packed from its dense list: min(d, |A meet S|) in 16-bit slot A - 1.

    The reference for ``certificates._u_row``, which sums the layers
    {A : |A meet S| >= j} built from element masks and builds no list.
    """
    buf = bytearray(2 * ((1 << n) - 1))
    buf[::2] = [k if (k := (mask & smask).bit_count()) < d else d
                for mask in range(1, 1 << n)]
    return int.from_bytes(buf, "little")


def gf2_row(n: int, smask: int, d: int) -> int:
    """U(S, d) mod 2 as one int: bit A - 1 holds min(d, |A meet S|) mod 2.

    The reference for the rows of the facet sweep, which XORs the same
    layers as ``certificates._u_row`` at one bit per coordinate.
    """
    return sum(1 << (mask - 1) for mask in range(1, 1 << n)
               if min(d, (mask & smask).bit_count()) & 1)


def witness_ranks_from_raw_rows(fixed, dim, w1):
    """Rank function of (W_1, ..., W_{n-1}); fixed[m] spans W_{i+2}, i in m.

    The reference for ``certificates._witness_ranks``, which reduces W_1
    once to its basis rows: mask 2m + 1 extends a copy of fixed[m] by every
    raw row of W_1, unless fixed[m] spans everything.
    """
    vals = []
    for ech in fixed:
        odd = dim if ech.rank == dim else ech.rank + ech.copy().extend(w1)
        vals += (ech.rank, odd)
    return tuple(vals)
