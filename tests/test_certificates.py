"""Certificate verifiers: positive runs plus tampered negative controls."""

import json

import pytest

import rankineq.arrangements as arrangements
import rankineq.certificates as certs
from rankineq.arrangements import rank_function, uniform_U
from rankineq.certificates import (basis_alpha, facet_rank,
                                   run_certificates, vanishing_condition,
                                   vanishing_family, verify_basis_F,
                                   verify_facet, verify_hierarchy,
                                   verify_line_identities, verify_vanishing,
                                   verify_witness_realizations, witness_T)
from rankineq.functionals import Functional, kinser, pair
from rankineq.linalg import Echelon
from rankineq.maps import UnionMap
from rankineq.setfunctions import SetFunction, is_matroid
from rankineq.subsets import SubsetRef, mobius, subset

from oracles import dense_u_row, gf2_row, is_polymatroid_all_pairs


def test_witness_values_at_4():
    T = witness_T(4)
    assert T.value(subset(4, [2])) == 2
    for i in (1, 3, 4):
        assert T.value(subset(4, [i])) == 2  # n - 2 = 2 here
    for pair_elems in ([1, 3], [1, 4], [2, 3], [2, 4], [3, 4]):
        assert T.value(subset(4, pair_elems)) == 3
    assert T.value(subset(4, [1, 2])) == 4
    for bits in range(1, 16):
        if bin(bits).count("1") >= 3:
            assert T.value_at(bits) == 4
    with pytest.raises(ValueError, match="n >= 4"):
        witness_T(3)


def test_witness_values_at_6():
    T = witness_T(6)
    assert T.value(subset(6, [2])) == 2
    assert T.value(subset(6, [5])) == 4
    assert T.value(subset(6, [2, 5])) == 5
    assert T.value(subset(6, [4, 5])) == 5
    assert T.value(subset(6, [1, 3])) == 5
    assert T.value(subset(6, [1, 6])) == 5
    assert T.value(subset(6, [1, 4])) == 6
    assert T.value(subset(6, [3, 5])) == 6
    assert T.value(subset(6, [1, 2])) == 6


@pytest.mark.parametrize("n", range(4, 11))
def test_witness_is_polymatroid_but_not_matroid(n):
    T = witness_T(n)
    assert is_polymatroid_all_pairs(T)
    assert not is_matroid(T)  # T({2}) = 2
    assert pair(kinser(n), T) == -1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_witness_realizations_pass(n):
    report = verify_witness_realizations(n)
    assert report.passed
    assert any("shifted indexing" in d for d in report.details)


@pytest.mark.parametrize("n", [7, 8])
def test_witness_realizations_upper_range(n):
    # wraparound of the w-indices mod n-1 is heaviest at the top of the range
    report = verify_witness_realizations(n)
    assert report.passed
    assert f"{3 * 2 ** n} substitution cases" in report.details[0]


def test_witness_realizations_domain():
    with pytest.raises(ValueError):
        verify_witness_realizations(3)
    with pytest.raises(ValueError):
        verify_witness_realizations(11)


def test_witness_realizations_detect_tampering():
    T = witness_T(5)
    vals = list(T.values_by_mask())
    vals[subset(5, [3, 4]).bits] += 1  # silently raise one pair value
    report = verify_witness_realizations(5, SetFunction(5, vals))
    assert not report.passed
    assert any("differs at" in d for d in report.details)


def test_witness_realizations_compare_every_case(monkeypatch):
    # give one sum case phi(1) = {3,4} the W_1 of phi(1) = {1}: its rank
    # function is then already known, and the case must still fail alone
    target = subset(5, [3, 4])
    choose = certs._choose_w1

    def swapped(n, cmask, blocks, T):
        if cmask == target.bits:
            return blocks["Z1"]
        return choose(n, cmask, blocks, T)

    monkeypatch.setattr(certs, "_choose_w1", swapped)
    report = verify_witness_realizations(5)
    assert not report.passed
    assert report.details[0].startswith(f"rationals, phi(1)={target!r}: ")


def test_hierarchy_pass_and_negative_control():
    assert verify_hierarchy(5).passed
    assert verify_hierarchy(10).passed
    # misdefine the image of n as {1, n-2}
    bad = UnionMap(6, 5, [[1], [2], [3], [4], [5], [1, 3]])
    report = verify_hierarchy(6, bad)
    assert not report.passed
    with pytest.raises(ValueError, match=r"requires n in 5\.\.20"):
        verify_hierarchy(4)


def test_vanishing_condition_spot_checks():
    # d = 2 with 2 in S and no consecutive pair inside {3..n-1}
    assert vanishing_condition(5, subset(5, [1, 2, 4]), 2)
    assert pair(kinser(5), uniform_U(5, subset(5, [1, 2, 4]), 2)) == 0
    # d = 1 with 2 not in S and S meeting {1,3,n} away from {3,n}
    assert vanishing_condition(5, subset(5, [1, 4]), 1)
    assert pair(kinser(5), uniform_U(5, subset(5, [1, 4]), 1)) == 0
    # any S at d >= 3
    for bits in range(1, 32):
        S = subset(5, [i for i in range(1, 6) if bits >> (i - 1) & 1])
        assert vanishing_condition(5, S, 3)
    # d = 1 interval and tail families
    assert vanishing_condition(6, subset(6, [2, 3, 4]), 1)
    assert vanishing_condition(6, subset(6, [2, 5, 6]), 1)
    assert vanishing_condition(6, subset(6, [1, 2, 3, 4, 5, 6]), 1)
    assert not vanishing_condition(6, subset(6, [2, 4]), 1)
    # d = 1, 2 not in S, S meets {1,3,n} in exactly {3,n}: excluded
    assert not vanishing_condition(4, subset(4, [3, 4]), 1)
    assert pair(kinser(4), uniform_U(4, subset(4, [3, 4]), 1)) == 1


def test_vanishing_condition_excludes_kernel_escapees_at_d2():
    # with 2 in S and no consecutive pair, a set containing {1,3,n} still
    # pairs to 1, so the condition must reject it
    S = subset(5, [1, 2, 3, 5])
    assert not vanishing_condition(5, S, 2)
    assert pair(kinser(5), uniform_U(5, S, 2)) == 1
    S7 = subset(7, [1, 2, 3, 7])
    assert not vanishing_condition(7, S7, 2)
    assert pair(kinser(7), uniform_U(7, S7, 2)) == 1


@pytest.mark.parametrize("n", range(4, 9))
def test_vanishing_pass(n):
    report = verify_vanishing(n)
    assert report.passed


def test_vanishing_family_members_all_vanish_by_construction():
    for n in (4, 5, 6):
        gen = kinser(n)
        fam = vanishing_family(n)
        assert fam == sorted(fam, key=lambda t: (t[0].bits, t[1]))
        for S, d in fam:
            assert pair(gen, uniform_U(n, S, d)) == 0


def _admit(monkeypatch, escapee, d_escapee):
    # make vanishing_condition also accept one (S, d) that does not vanish
    condition = certs.vanishing_condition
    monkeypatch.setattr(
        certs, "vanishing_condition",
        lambda n, S, d: (condition(n, S, d)
                         or (S.bits == escapee.bits and d == d_escapee)))


def test_vanishing_pairing_reports_admitted_non_member(monkeypatch):
    # the sparse pairing must catch the admitted non-member and report the
    # value the dense pairing computes
    escapee = subset(5, [1, 2, 3, 5])
    _admit(monkeypatch, escapee, 2)
    dense = pair(kinser(5), uniform_U(5, escapee, 2))
    assert dense != 0
    report = verify_vanishing(5)
    assert not report.passed
    assert report.details[0] == (
        f"pairing with U(S={escapee!r}, d=2) is {dense}, expected 0")


def test_vanishing_pairing_above_term_size_matches_dense(monkeypatch):
    # a generator term of size 3 that pairs to nonzero for every d >= 3:
    # the pairing reused from d = 3 must give the dense report line by line
    n = 5
    tampered = kinser(n) + Functional.unit(n, subset(n, [1, 2, 3]))
    monkeypatch.setattr(certs, "kinser", lambda _: tampered)
    dense = [(S, d, pair(tampered, uniform_U(n, S, d)))
             for S, d in vanishing_family(n)]
    assert any(d > 3 and value for S, d, value in dense)
    assert verify_vanishing(n).details[:-1] == tuple(
        f"pairing with U(S={S!r}, d={d}) is {value}, expected 0"
        for S, d, value in dense if value)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_line_identities_pass(n):
    assert verify_line_identities(n).passed


def test_line_identities_report_deterministic():
    # the randomized four-term family is internally seeded
    assert verify_line_identities(4) == verify_line_identities(4)


def test_line_identities_detect_flipped_mobius_sign(monkeypatch):
    monkeypatch.setattr(certs, "mobius", lambda S, A: -mobius(S, A))
    report = verify_line_identities(4)
    assert not report.passed
    assert any("Mobius expansion" in d for d in report.details)


@pytest.mark.parametrize("elems,d,line,families", [
    ([1, 2], 3, "splitting fails for S={1,2}, d=3", {"splitting"}),
    ([1, 2, 3, 4, 5], 5, "top identity fails: e_[n] != U([n],n) - U([n],n-1)",
     {"splitting", "top"}),
    ([1, 2, 3, 5], 3, "coatom identity fails for S={1,2,3,5}", {"coatom", "Mobius"}),
    ([2, 3, 5], 2, "Mobius expansion fails for S={2,3,5}", {"Mobius", "triple"}),
    ([2, 3, 5], 3, "triple identity fails for {2,3,5}", {"splitting", "triple"}),
    ([1, 2, 3, 4], 1, "four-term identity fails for T=", {"four-term"}),
], ids=["splitting", "top", "coatom", "mobius", "triple", "four-term"])
def test_line_identities_fail_on_a_corrupted_term(monkeypatch, elems, d, line, families):
    # one row U(S, d) off by one in one coordinate: exactly the families with
    # an identity using U(S, d) fail, each with its own message.  Rows are
    # built and cached under (S, min(d, |S|)), so that key is the one corrupted
    bad = (subset(5, elems).bits, min(d, len(elems)))
    row = certs._u_row

    def corrupted(n, smask, dd):
        out = row(n, smask, dd)
        if (smask, dd) == bad:
            out += 1 << certs._PACK_BITS * (2 ** n - 2)  # the last coordinate, [n]
        return out

    monkeypatch.setattr(certs, "_u_row", corrupted)
    report = verify_line_identities(5)
    assert not report.passed
    assert any(got.startswith(line) for got in report.details)
    assert {got.split()[0] for got in report.details[:-1]} == families


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_u_row_is_the_uniform_polymatroid(n):
    # the identities sum these rows, and the facet sweep XORs the same layers
    # mod 2; tie them to the public polymatroid, slot by slot
    w = certs._PACK_BITS
    for smask in range(1 << n):
        for d in range(1, n + 2):
            want = uniform_U(n, SubsetRef(n, smask), d).values_by_mask()[1:]
            row = certs._u_row(n, smask, d)
            assert [row >> w * j & (1 << w) - 1 for j in range(2 ** n - 1)] == list(want)
            assert row >> w * (2 ** n - 1) == 0


@pytest.mark.parametrize("n", range(4, 10))
def test_u_row_against_the_dense_row(n):
    # the rows summed from element-mask layers are the packed dense lists,
    # for every (S, d), d = 0 (the zero row) included
    for smask in range(1 << n):
        for d in range(n + 1):
            assert certs._u_row(n, smask, d) == dense_u_row(n, smask, d)


@pytest.mark.parametrize("n", range(4, 9))
def test_parity_row_against_gf2_row(n):
    # the same layers XORed at one bit per coordinate are U(S, d) mod 2
    for smask in range(1 << n):
        for d in range(n + 1):
            assert certs._parity_row(n, smask, d) == gf2_row(n, smask, d)


def test_line_identities_build_each_row_once(monkeypatch):
    built = []
    row = certs._u_row

    def spy(n, smask, d):
        built.append((smask, d))
        return row(n, smask, d)

    monkeypatch.setattr(certs, "_u_row", spy)
    assert verify_line_identities(6).passed
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("width", [2, 8])
def test_packed_zero_sum_is_exact_below_the_width(width):
    # 2^width at coordinate {1} minus 1 at coordinate {2} is not zero, but
    # packs to zero at that width: the packing must be wider than any term
    units = [(0b1, 1 << width), (0b10, -1)]
    assert not certs._zero_sum(5, {}, [], units)
    assert certs._zero_sum(5, {}, [], units + [(0b1, -(1 << width)), (0b10, 1)])


def test_packed_zero_sum_checks_its_width(monkeypatch):
    monkeypatch.setattr(certs, "_PACK_BITS", 8)
    with pytest.raises(RuntimeError, match="beyond 8-bit packing"):
        certs._zero_sum(5, {}, [], [(0b1, 256), (0b10, -1)])
    with pytest.raises(RuntimeError, match="beyond 8-bit packing"):
        verify_line_identities(8)  # a Mobius identity has 128 lines of size 8


def test_line_identities_build_no_set_function(monkeypatch):
    built = []
    init = SetFunction.__init__

    def spy(self, n, values):
        built.append(n)
        init(self, n, values)

    monkeypatch.setattr(SetFunction, "__init__", spy)
    assert verify_line_identities(6).passed
    assert built == []
    uniform_U(6, subset(6, [1, 2]), 1)  # the spy does see a construction
    assert built == [6]


@pytest.mark.parametrize("n,expected", [(4, (14, 15)), (5, (30, 31))])
def test_facet_rank_small(n, expected):
    assert facet_rank(n) == expected
    assert verify_facet(n).passed


def test_facet_rank_rejects_admitted_non_member(monkeypatch):
    # the 2^n - 2 bound behind the modular rank needs every member of the
    # family in the generator's kernel
    _admit(monkeypatch, subset(5, [1, 2, 3, 5]), 2)
    with pytest.raises(RuntimeError, match=r"U\(S=\{1,2,3,5\}, d=2\) pairs to 1"):
        facet_rank(5)


def test_facet_rank_names_the_member_that_fails(monkeypatch):
    # the re-check pairs U(S, 5) at min(5, |S|, 3) = 3, but must name the
    # member as the family holds it
    n = 5
    S = subset(n, [1, 2, 3, 4])
    tampered = kinser(n) + Functional.unit(n, subset(n, [1, 2, 3]))
    monkeypatch.setattr(certs, "kinser", lambda _: tampered)
    monkeypatch.setattr(certs, "vanishing_family", lambda _: [(S, 5)])
    value = pair(tampered, uniform_U(n, S, 5))
    assert value
    with pytest.raises(RuntimeError) as err:
        facet_rank(n)
    assert str(err.value) == f"vanishing family member U(S={S!r}, d=5) pairs to {value}"


def _spy_echelon_fields(monkeypatch):
    # the field of every Echelon the certificates construct, in order
    fields = []

    class SpyEchelon(Echelon):
        def __init__(self, field, ncols):
            fields.append(field)
            super().__init__(field, ncols)

    monkeypatch.setattr(certs, "Echelon", SpyEchelon)
    return fields


def _spy_gf2_sweeps(monkeypatch):
    # the stop bound of every GF(2) kernel sweep the certificates run
    stops = []
    sweep = certs._gf2_rank

    def spy(rows, stop):
        stops.append(stop)
        return sweep(rows, stop)

    monkeypatch.setattr(certs, "_gf2_rank", spy)
    return stops


@pytest.mark.parametrize("n", [4, 5, 6])
def test_facet_rank_passes_with_one_modular_sweep(monkeypatch, n):
    # the kernel rank reaches its bound in one sweep mod 2, and the full
    # rank is lifted by an exact pairing: no Echelon is built at all
    fields = _spy_echelon_fields(monkeypatch)
    stops = _spy_gf2_sweeps(monkeypatch)
    assert facet_rank(n) == (2 ** n - 2, 2 ** n - 1)
    assert fields == []
    assert stops == [2 ** n - 2]


@pytest.mark.parametrize("n", range(4, 9))
def test_facet_rank_pairs_each_distinct_member_once(monkeypatch, n):
    # with t the largest term size, min(d, |A meet S|) = min(min(d, t),
    # |A meet S|) on every term A, so the re-check pairs each distinct
    # (S, min(d, |S|, t)) once, in the order the vanishing family first
    # reaches it
    calls = []
    pair_uniform = certs._pair_uniform

    def spy(terms, smask, d):
        calls.append((smask, d))
        return pair_uniform(terms, smask, d)

    monkeypatch.setattr(certs, "_pair_uniform", spy)
    assert facet_rank(n) == (2 ** n - 2, 2 ** n - 1)
    top = max(mask.bit_count() for mask, _ in kinser(n).items())
    distinct = list(dict.fromkeys((S.bits, min(d, len(S), top))
                                  for S, d in vanishing_family(n)))
    assert calls[:len(distinct)] == distinct  # the lift's pairings follow


def test_facet_full_rank_comes_from_an_exact_pairing(monkeypatch):
    # the lift to 2^n - 1 needs some U(S, d) outside the vanishing family
    # whose exact pairing with the generator is nonzero
    n = 5
    calls = []
    pair_uniform = certs._pair_uniform

    def spy(terms, smask, d):
        value = pair_uniform(terms, smask, d)
        calls.append((smask, d, value))
        return value

    monkeypatch.setattr(certs, "_pair_uniform", spy)
    assert facet_rank(n) == (30, 31)
    members = {(S.bits, d) for S, d in vanishing_family(n)}
    assert any(value and (smask, d) not in members for smask, d, value in calls)


@pytest.mark.parametrize("n", range(4, 9))
def test_facet_sweep_reduces_the_parity_bits_of_the_packed_rows(monkeypatch, n):
    # bit A - 1 of each swept row is min(d, |A meet S|) mod 2, the layers of
    # U(S, d) XORed at one bit per coordinate, and no other bit is set: the
    # oracle's row.
    # U(S, d) = U(S, |S|) for d >= |S|, so each distinct row is swept once,
    # in the order the vanishing family first reaches it
    swept = []
    sweep = certs._gf2_rank

    def spy(rows, stop):
        swept.append(list(rows))
        return sweep(swept[-1], stop)

    monkeypatch.setattr(certs, "_gf2_rank", spy)
    assert facet_rank(n) == (2 ** n - 2, 2 ** n - 1)
    distinct = dict.fromkeys((S.bits, min(d, len(S))) for S, d in vanishing_family(n))
    assert swept == [[gf2_row(n, smask, d) for smask, d in distinct]]


@pytest.mark.parametrize("n,rows", [(7, 337), (8, 783)])
def test_facet_sweep_consumes_each_distinct_row_once(monkeypatch, n, rows):
    # pinned, and below the 778 and 1,799 rows that the family's own order
    # reaches, most of them repeats of U(S, |S|) at some d > |S|
    consumed = []
    sweep = certs._gf2_rank

    def spy(it, stop):
        return sweep((consumed.append(row) or row for row in it), stop)

    monkeypatch.setattr(certs, "_gf2_rank", spy)
    assert facet_rank(n) == (2 ** n - 2, 2 ** n - 1)
    assert len(consumed) == len(set(consumed)) == rows


def test_facet_rank_top_of_range():
    assert facet_rank(8) == (254, 255)


def test_facet_rank_domain():
    with pytest.raises(ValueError):
        facet_rank(3)
    with pytest.raises(ValueError):
        facet_rank(11)


@pytest.mark.parametrize("n", [5, 6])
def test_basis_F_pass(n):
    report = verify_basis_F(n)
    assert report.passed
    assert f"{2 ** n - 2} basis vectors" in report.details[0]


def test_basis_F_alpha_matches_generator_coefficients():
    for n in (5, 6, 7):
        alpha = basis_alpha(n)
        gen = kinser(n)
        r_mask = 0b101 | 1 << (n - 1)
        for mask in range(1, 1 << n):
            if mask == r_mask:
                continue
            assert alpha.get(mask, 0) == gen.coeff_at(mask)


def test_basis_F_detects_tampered_alpha():
    alpha = basis_alpha(5)
    alpha[0b11] = 1  # flip the {1,2} correction
    report = verify_basis_F(5, alpha)
    assert not report.passed
    assert "{1,2}" in report.details[0]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_basis_F_runs_no_rational_elimination(monkeypatch, n):
    fields = _spy_echelon_fields(monkeypatch)
    stops = _spy_gf2_sweeps(monkeypatch)
    assert verify_basis_F(n).passed
    assert fields == []  # no elimination over QQ, nor any other Echelon
    assert stops == [2 ** n - 2]  # the facet sweep, mod 2


def test_run_certificates_runs_the_facet_sweep_once(monkeypatch):
    # the facet and basis reports share one facet_rank(7)
    stops = _spy_gf2_sweeps(monkeypatch)
    reports = run_certificates(7)
    assert all(r.passed for r in reports)
    assert {"facet_rank", "basis_F"} <= {r.check for r in reports}
    assert stops == [2 ** 7 - 2]


def test_basis_F_needs_the_full_vanishing_span(monkeypatch):
    # every pairing k(S) + alpha_S k(R) is still 0, but with half the
    # vanishing family the span is not ker kinser(5), so the test must fail
    kept = vanishing_family(5)[::2]
    monkeypatch.setattr(certs, "vanishing_family", lambda m: kept)
    kernel_rank = facet_rank(5)[0]
    assert kernel_rank < 30
    report = verify_basis_F(5)
    assert not report.passed
    assert report.details == (
        f"vanishing span has rank {kernel_rank}, expected 30",)


def test_basis_F_domain():
    with pytest.raises(ValueError):
        verify_basis_F(4)


def test_witness_realizations_build_no_arrangement(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the witness must not build this")

    monkeypatch.setattr(arrangements, "rank_function", forbidden)
    monkeypatch.setattr(arrangements, "Arrangement", forbidden)
    monkeypatch.setattr(certs, "rank_function", forbidden, raising=False)
    monkeypatch.setattr(certs, "Arrangement", forbidden, raising=False)
    assert verify_witness_realizations(6).passed


@pytest.mark.parametrize("n,adds", [(7, 1311), (8, 1968)])
def test_witness_realizations_insert_each_basis_row_once(monkeypatch, n, adds):
    # a W_1 that is a sum of fixed subspaces reads its ranks off the fixed
    # echelons; each other distinct W_1 is reduced once per field, and a copy
    # of a fixed sum takes only its basis rows, up to full rank: pinned, and
    # below the 3,282 and 6,072 insertions of reducing every W_1, and the
    # 14,385 and 45,198 of extending the copies by W_1's raw rows
    calls = []
    add = Echelon.add

    def spy(self, vec):
        calls.append(self.field)
        return add(self, vec)

    monkeypatch.setattr(Echelon, "add", spy)
    assert verify_witness_realizations(n).passed
    assert len(calls) == adds
    assert set(calls) == {0, 2, 3}  # exact elimination in each field


def test_witness_arrangement_field_independent():
    # the explicit realizations produce the same rank function over the
    # rationals, GF(2) and GF(3); spot-check one substitution directly
    from rankineq.arrangements import Arrangement
    from rankineq.certificates import _choose_w1, _witness_blocks
    n = 5
    blocks = _witness_blocks(n)
    fixed = [blocks["W"][i] for i in range(2, n)]
    for cmask in (0, 0b1, 0b10, 0b101, 0b1100):
        w1 = _choose_w1(n, cmask, blocks, witness_T(n))
        ranks = [rank_function(Arrangement(f, blocks["dim"], [w1] + fixed))
                 for f in (0, 2, 3)]
        assert ranks[0] == ranks[1] == ranks[2]


def test_report_json_shape():
    report = verify_facet(4)
    obj = report.to_json_obj()
    assert set(obj) == {"check", "n", "outcome", "details"}
    assert obj["check"] == "facet_rank"
    assert obj["outcome"] == "pass"
    parsed = json.loads(report.dumps())
    assert parsed == obj
    # determinism for fixed inputs
    assert verify_facet(4) == report


@pytest.mark.parametrize("name", list(certs.CERTIFICATES))
def test_each_certificate_rejects_n_outside_its_table_range(name):
    # the function, run_certificates and, for the facet, facet_rank all read
    # the one range in CERTIFICATES and give the message the CLI prints
    check, valid = certs.CERTIFICATES[name]
    message = f"certificate {name!r} requires n in {valid.start}..{valid.stop - 1}"
    callers = [check, lambda n: run_certificates(n, name)]
    if name == "facet":
        callers.append(facet_rank)
    for bad in (valid.start - 1, valid.stop, True, "5", float(valid.start)):
        for call in callers:
            with pytest.raises(ValueError) as exc:
                call(bad)
            assert str(exc.value) == message


def test_certificate_public_functions_are_the_table_entries():
    assert {name: check for name, (check, _) in certs.CERTIFICATES.items()} == {
        "hierarchy": verify_hierarchy, "witness": verify_witness_realizations,
        "vanishing": verify_vanishing, "identities": verify_line_identities,
        "facet": verify_facet, "basis": verify_basis_F}


def test_functions_obey_a_narrower_range_in_the_table(monkeypatch):
    for name, (check, valid) in list(certs.CERTIFICATES.items()):
        monkeypatch.setitem(certs.CERTIFICATES, name,
                            (check, range(valid.start, valid.start + 1)))
    for name, (check, valid) in certs.CERTIFICATES.items():
        with pytest.raises(ValueError) as exc:
            check(valid.start + 1)
        assert str(exc.value) == (
            f"certificate '{name}' requires n in {valid.start}..{valid.start}")
    with pytest.raises(ValueError, match=r"certificate 'facet' requires n in 4\.\.4"):
        facet_rank(5)
    assert verify_vanishing(4).passed and facet_rank(4) == (14, 15)


@pytest.mark.parametrize("name", ["witness", "identities", "facet"])
def test_raised_certificates_pass_at_the_top_of_their_range(name):
    assert certs.CERTIFICATES[name][1] == range(4, 11)
    (report,) = run_certificates(10, name)
    assert report.passed, report.details


def test_run_certificates_all_and_named():
    reports = run_certificates(5, "all")
    assert {r.check for r in reports} == {
        "hierarchy", "witness_realizations", "vanishing", "line_identities",
        "facet_rank", "basis_F"}
    assert all(r.passed for r in reports)
    only = run_certificates(8, "vanishing")
    assert len(only) == 1 and only[0].check == "vanishing"
    with pytest.raises(ValueError, match="unknown certificate"):
        run_certificates(5, "bogus")
    with pytest.raises(ValueError, match="requires n"):
        run_certificates(4, "basis")


def test_run_certificates_at_4_skips_inapplicable():
    reports = run_certificates(4, "all")
    names = {r.check for r in reports}
    assert "hierarchy" not in names and "basis_F" not in names
    assert {"witness_realizations", "vanishing", "line_identities",
            "facet_rank"} <= names
    assert all(r.passed for r in reports)
