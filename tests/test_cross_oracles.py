"""Independent oracles for the load-bearing paths.

Each test re-implements the quantity under test from scratch, by a
different method than the library uses, and demands exact agreement.
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import rankineq.certificates as certs
from rankineq.arrangements import (Arrangement, random_arrangement,
                                   rank_function, sum_echelons, uniform_U)
from rankineq.functionals import kinser, pair
from rankineq.linalg import RATIONAL, Echelon, ExactMatrix
from rankineq.subsets import SubsetRef
from rankineq.maps import UnionMap, pullback, pushforward
from rankineq.functionals import Functional
from rankineq.setfunctions import SetFunction

from oracles import gf2_row, witness_ranks_from_raw_rows


def naive_rank_fractions(rows):
    """Textbook Gauss elimination over Fractions, no pivoting tricks."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(work)) if work[r][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c] != 0:
                factor = work[r][c] / work[rank][c]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_rational_rank_against_naive_elimination():
    rng = random.Random(2028)
    for _ in range(200):
        m = rng.randint(1, 6)
        c = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(c)] for _ in range(m)]
        assert ExactMatrix(RATIONAL, rows, c).rank() == naive_rank_fractions(rows)


def naive_rref(rows, ncols, field):
    """Textbook Gauss-Jordan: Fraction arithmetic over QQ, mod p over GF(p)."""
    if field == RATIONAL:
        work = [[Fraction(x) for x in row] for row in rows]
    else:
        work = [[x % field for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        if field == RATIONAL:
            inv = 1 / work[r][c]
            work[r] = [x * inv for x in work[r]]
        else:
            inv = pow(work[r][c], -1, field)
            work[r] = [x * inv % field for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                a = work[i][c]
                work[i] = [x - a * y for x, y in zip(work[i], work[r])]
                if field != RATIONAL:
                    work[i] = [x % field for x in work[i]]
        r += 1
    if field == RATIONAL:  # integral entries are ints, as in ExactMatrix
        return [tuple(x.numerator if x.denominator == 1 else x for x in row)
                for row in work[:r]]
    return [tuple(row) for row in work[:r]]


def test_rref_against_naive_gauss_jordan():
    rng = random.Random(2030)
    for field in (RATIONAL, 2, 101):
        for _ in range(150):
            m, c = rng.randint(0, 6), rng.randint(1, 6)
            if field == RATIONAL:
                rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(c)] for _ in range(m)]
            else:
                rows = [[rng.randrange(field) if rng.random() < 0.7 else 0
                         for _ in range(c)] for _ in range(m)]
            got = ExactMatrix(field, rows, c).rref().rows
            want = naive_rref(rows, c, field)
            assert list(got) == want
            assert [[type(x) for x in row] for row in got] == \
                [[type(x) for x in row] for row in want]


def gf2_span(rows, d):
    """Closure of the row set under addition mod 2: the literal span."""
    span = {(0,) * d}
    frontier = [tuple(x % 2 for x in row) for row in rows]
    changed = True
    while changed:
        changed = False
        for v in list(span):
            for w in frontier:
                s = tuple((a + b) % 2 for a, b in zip(v, w))
                if s not in span:
                    span.add(s)
                    changed = True
    return span


def test_rank_function_against_span_enumeration_exhaustive_gf2():
    # every pair of subspaces of GF(2)^2: rank(A) must equal log2 |span|
    d = 2
    all_rows = list(product((0, 1), repeat=d))
    subspace_choices = [[], [(1, 0)], [(0, 1)], [(1, 1)], [(1, 0), (0, 1)]]
    for rows1 in subspace_choices:
        for rows2 in subspace_choices:
            V = Arrangement(2, d, [rows1, rows2])
            P = rank_function(V)
            for bits, chosen in ((1, [rows1]), (2, [rows2]), (3, [rows1, rows2])):
                stacked = [r for rs in chosen for r in rs]
                size = len(gf2_span(stacked, d))
                assert 2 ** P.value_at(bits) == size


def written_inequality_slack(V, n):
    """Right minus left side of the inequality as literally written,
    computed from stacked-basis dimensions only."""
    def dim(*indices):
        rows = [row for i in indices for row in V.subspaces[i - 1].rows]
        if not rows:
            return 0
        return ExactMatrix(V.field, rows, V.ambient_dim).rank()

    lhs = dim(1, 2) + dim(1, 3, n) + dim(3)
    rhs = dim(1, 3) + dim(1, n) + dim(2, 3)
    for i in range(4, n + 1):
        lhs += dim(i) + dim(2, i - 1, i)
        rhs += dim(2, i) + dim(i - 1, i)
    return rhs - lhs


def test_generator_pairing_matches_written_inequality():
    for n in (4, 5, 6):
        f = kinser(n)
        for trial in range(30):
            V = random_arrangement(n, trial % 5 + 1, 11, seed=40_000 + trial)
            slack = written_inequality_slack(V, n)
            assert pair(f, rank_function(V)) == slack
            assert slack >= 0


def test_pushforward_and_pullback_are_linear():
    rng = random.Random(2029)
    for _ in range(60):
        k, n = rng.randint(1, 4), rng.randint(1, 4)
        phi = UnionMap(k, n, [[j for j in range(1, n + 1) if rng.random() < 0.4]
                              for _ in range(k)])
        f = Functional(k, {rng.randint(1, 2 ** k - 1): rng.randint(-3, 3)
                           for _ in range(3)})
        g = Functional(k, {rng.randint(1, 2 ** k - 1): rng.randint(-3, 3)
                           for _ in range(3)})
        assert pushforward(phi, f + g) == pushforward(phi, f) + pushforward(phi, g)
        assert pushforward(phi, 5 * f) == 5 * pushforward(phi, f)
        from rankineq.setfunctions import SetFunction
        P = SetFunction(n, (0,) + tuple(rng.randint(-4, 9)
                                        for _ in range(2 ** n - 1)))
        Q = SetFunction(n, (0,) + tuple(rng.randint(-4, 9)
                                        for _ in range(2 ** n - 1)))
        assert pullback(phi, P + Q) == pullback(phi, P) + pullback(phi, Q)


def qq_rank(n, members):
    """Plain fraction-free QQ rank of U(S, d) over (S mask, d) pairs."""
    ech = Echelon(RATIONAL, 2 ** n - 1)
    ech.extend(uniform_U(n, SubsetRef(n, smask), d).values_by_mask()[1:]
               for smask, d in members)
    return ech.rank


def test_facet_rank_against_qq_echelon():
    for n in (4, 5, 6):
        kernel = [(S.bits, d) for S, d in certs.vanishing_family(n)]
        full = [(smask, d) for smask in range(1, 2 ** n)
                for d in range(1, n + 1)]
        assert certs.facet_rank(n) == (qq_rank(n, kernel), qq_rank(n, full))


def test_facet_rank_falls_back_to_qq_below_the_bound(monkeypatch):
    # with half the vanishing family the rank mod p cannot reach 2^n - 2,
    # so the QQ elimination must run and decide the rank
    n = 5
    kept = certs.vanishing_family(n)[::2]
    monkeypatch.setattr(certs, "vanishing_family", lambda m: kept)
    fields = []

    class SpyEchelon(Echelon):
        def __init__(self, field, ncols):
            fields.append(field)
            super().__init__(field, ncols)

    monkeypatch.setattr(certs, "Echelon", SpyEchelon)
    want = qq_rank(n, [(S.bits, d) for S, d in kept])
    assert want < 2 ** n - 2
    assert certs.facet_rank(n) == (want, 2 ** n - 1)
    assert fields.count(RATIONAL) == 1
    report = certs.verify_facet(n)
    assert not report.passed
    assert report.details[0] == f"ranks ({want}, 31), expected (30, 31)"


def qq_basis_report(n, alpha, span):
    """The basis check by elimination over QQ: span membership of each
    e_S + alpha_S e_{1,3,n}, then the rank of the vectors that passed."""
    r_mask = 0b101 | 1 << (n - 1)
    failures = []
    independence = Echelon(RATIONAL, 2 ** n - 1)
    members = 0
    for smask in range(1, 2 ** n):
        if smask == r_mask:
            continue
        vec = [0] * (2 ** n - 1)
        vec[smask - 1] = 1
        a = alpha.get(smask, 0)
        vec[r_mask - 1] += a
        if not span.contains(vec):
            failures.append(
                f"e_S + alpha*e_{{1,3,{n}}} not in the vanishing span for "
                f"S={SubsetRef(n, smask)!r} (alpha={a})")
            break
        members += 1
        independence.add(vec)
    if not failures and independence.rank != 2 ** n - 2:
        failures.append(f"claimed basis has rank {independence.rank}, "
                        f"expected {2 ** n - 2}")
    outcome = "fail" if failures else "pass"
    return outcome, tuple(failures) + (
        f"{members} basis vectors verified in the span, "
        f"rank {independence.rank}",)


def test_basis_pairing_against_qq_span_membership():
    rng = random.Random(5077)
    for n in (5, 6, 7):
        span = Echelon(RATIONAL, 2 ** n - 1)
        span.extend(uniform_U(n, S, d).values_by_mask()[1:]
                    for S, d in certs.vanishing_family(n))
        alpha = certs.basis_alpha(n)
        nonzero = sorted(alpha)
        zero = [m for m in range(1, 2 ** n)
                if m not in alpha and m != 0b101 | 1 << (n - 1)]
        flipped = dict(alpha)
        flip = rng.choice(nonzero)
        flipped[flip] = -alpha[flip]
        raised = dict(alpha)
        raised[rng.choice(zero)] = 1
        outcomes = []
        for a in (alpha, flipped, raised):
            report = certs.verify_basis_F(n, a)
            assert (report.outcome, report.details) == qq_basis_report(n, a, span)
            outcomes.append(report.outcome)
        assert outcomes == ["pass", "fail", "fail"]


def gf2_echelon_rank(rows, ncols):
    """Rank of 0/1 rows by Echelon over GF(2), one list entry per column."""
    ech = Echelon(2, ncols)
    ech.extend(rows)
    return ech.rank


def bits(row):
    """The bitset the GF(2) sweep stores: bit j holds row[j] mod 2."""
    return sum(1 << j for j, x in enumerate(row) if x % 2)


def test_gf2_bitset_rank_against_echelon_on_vanishing_rows():
    for n in (4, 5, 6):
        ncols = 2 ** n - 1
        rows = [uniform_U(n, S, d).values_by_mask()[1:]
                for S, d in certs.vanishing_family(n)]
        packed = [gf2_row(n, S.bits, d) for S, d in certs.vanishing_family(n)]
        assert packed == [bits(row) for row in rows]
        want = gf2_echelon_rank(rows, ncols)
        assert certs._gf2_rank(packed, ncols) == want == ncols - 1
        # the stop bound caps the rank and nothing else
        assert certs._gf2_rank(packed, want - 1) == want - 1


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda c: st.tuples(
    st.just(c), st.lists(st.lists(st.integers(0, 1), min_size=c, max_size=c),
                         max_size=14))))
def test_gf2_bitset_rank_against_echelon_on_random_rows(case):
    ncols, rows = case
    assert certs._gf2_rank([bits(row) for row in rows], ncols + 1) == \
        gf2_echelon_rank(rows, ncols)


def test_witness_ranks_against_rank_function():
    for n in (5, 6):
        blocks = certs._witness_blocks(n)
        dim, T = blocks["dim"], certs.witness_T(n)
        fixed = [blocks["W"][i] for i in range(2, n)]
        w1s = {tuple(map(tuple, certs._choose_w1(n, cmask, blocks, T)))
               for cmask in range(2 ** n)}
        for field in (RATIONAL, 2, 3):
            states = sum_echelons(field, dim, fixed)
            for w1 in w1s:
                want = rank_function(Arrangement(field, dim, [w1] + fixed))
                assert tuple(certs._witness_ranks(states, dim, w1)) == \
                    want.values_by_mask()


def test_witness_ranks_against_raw_row_extension():
    # each distinct W_1 is reduced once to its basis rows; extending every
    # fixed sum by all of W_1's raw rows must give the same rank function,
    # for every phi(1), in each field the certificate uses and one it does not
    for n in range(4, 9):
        blocks = certs._witness_blocks(n)
        dim, T = blocks["dim"], certs.witness_T(n)
        fixed = [blocks["W"][i] for i in range(2, n)]
        w1s = {tuple(map(tuple, certs._choose_w1(n, cmask, blocks, T)))
               for cmask in range(2 ** n)}  # the rank function depends on W_1 alone
        for field in (RATIONAL, 2, 3, 5):
            states = sum_echelons(field, dim, fixed)
            for w1 in w1s:
                assert certs._witness_ranks(states, dim, w1) == \
                    witness_ranks_from_raw_rows(states, dim, w1)


def test_sum_case_ranks_against_raw_row_extension():
    # phi(1) inside {3..n}: W_1 is the fixed W_{j-1}, j in phi(1), so its
    # ranks are read off the fixed echelons; extending every fixed sum by
    # the concatenated block rows must give the same rank function
    for n in range(4, 9):
        blocks = certs._witness_blocks(n)
        dim = blocks["dim"]
        fixed = [blocks["W"][i] for i in range(2, n)]
        for field in (RATIONAL, 2, 3):
            states = sum_echelons(field, dim, fixed)
            for cmask in range(0, 2 ** n, 4):  # every phi(1) without 1 or 2
                w1 = [row for j in range(3, n + 1) if cmask >> (j - 1) & 1
                      for row in blocks["W"][j - 1]]
                assert certs._sum_ranks(states, cmask >> 2) == \
                    witness_ranks_from_raw_rows(states, dim, w1)


def test_pullback_values_against_union_map_pullback():
    # phi(1) = cmask, phi(i) = {i+1} for i >= 2, read off T's table by mask;
    # the tampered T has pairwise distinct values, so any misread mask shows
    for n in range(4, 9):
        tail = [[i + 1] for i in range(2, n)]
        witness = certs.witness_T(n)
        tampered = SetFunction(n, [v + (n + 1) * mask
                                   for mask, v in enumerate(witness.values_by_mask())])
        for T in (witness, tampered):
            for cmask in range(2 ** n):
                phi = UnionMap(n - 1, n, [SubsetRef(n, cmask)] + tail)
                assert certs._pullback_values(T, cmask) == \
                    pullback(phi, T).values_by_mask()


def dense_row(n, smask, d):
    """U(S, d) as a plain list of its 2^n - 1 values on nonempty subsets.

    The Mobius identities use U(A, 0), the zero vector.
    """
    if d == 0:
        return [0] * (2 ** n - 1)
    return list(uniform_U(n, SubsetRef(n, smask), d).values_by_mask()[1:])


def dense_zero_sum(n, lines, units, row=dense_row):
    """The identity summed as plain lists of 2^n - 1 integers."""
    total = [0] * (2 ** n - 1)
    for smask, d, c in lines:
        total = [t + c * u for t, u in zip(total, row(n, smask, d))]
    for amask, c in units:
        total[amask - 1] += c
    return not any(total)


PACKED_ZERO_SUM = certs._zero_sum


def _zero_sums_against_dense(monkeypatch, n, row=dense_row):
    outcomes = []

    def both(m, rows, lines, units=()):
        got = PACKED_ZERO_SUM(m, rows, lines, units)
        assert got == dense_zero_sum(m, lines, units, row)
        outcomes.append(got)
        return got

    monkeypatch.setattr(certs, "_zero_sum", both)
    certs.verify_line_identities(n)
    return outcomes


def test_packed_zero_sum_against_dense_sum(monkeypatch):
    outcomes = _zero_sums_against_dense(monkeypatch, 5)
    assert len(outcomes) > 200 and all(outcomes)
    # one row U({2,3,5}, 3) off by one in one coordinate, [n], in both forms.
    # The packed rows are cached under (S, min(d, |S|)), so the dense form
    # corrupts every d >= 3 with it
    row = certs._u_row
    bad = (0b10110, 3)

    def corrupted(n, smask, d):
        out = row(n, smask, d)
        if (smask, d) == bad:
            out += 1 << certs._PACK_BITS * (2 ** n - 2)
        return out

    def dense_corrupted(n, smask, d):
        out = dense_row(n, smask, d)
        if (smask, min(d, smask.bit_count())) == bad:
            out[-1] += 1
        return out

    monkeypatch.setattr(certs, "_u_row", corrupted)
    outcomes = _zero_sums_against_dense(monkeypatch, 5, dense_corrupted)
    assert 0 < outcomes.count(False) < len(outcomes)
