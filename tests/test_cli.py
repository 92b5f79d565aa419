"""Command-line interface: exit codes, JSON output, round-trips."""

import json
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from rankineq.arrangements import derive_seed, random_arrangement, rank_function
from rankineq.certificates import CERTIFICATES, witness_T
from rankineq.cli import _relabellings, main
from rankineq.functionals import (Functional, basic_functionals, kinser, pair,
                                  permute_functional, permute_mask)
from rankineq.maps import UnionMap, hierarchy_map
from rankineq import setfunctions
from rankineq.setfunctions import SetFunction


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)
    return write


def test_eval_witness_violation(files, capsys):
    f = files("kinser4.json", kinser(4).to_json_obj())
    p = files("witness4.json", witness_T(4).to_json_obj())
    code = main(["eval", "--functional", f, "--point", p])
    assert code == 1  # negative pairing gates shell pipelines
    assert capsys.readouterr().out.strip() == "-1"


def test_eval_nonnegative_exits_zero(files, capsys):
    f = files("f.json", Functional.from_coeffs(4, {(1,): 1}).to_json_obj())
    p = files("p.json", witness_T(4).to_json_obj())
    assert main(["eval", "--functional", f, "--point", p]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_gen_kinser_round_trip(files, tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert main(["gen-kinser", "--n", "5", "-o", out]) == 0
    with open(out) as handle:
        assert Functional.from_json_obj(json.load(handle)) == kinser(5)
    assert main(["gen-kinser", "--n", "4", "--permute", "2,1,3,4"]) == 0
    text = capsys.readouterr().out
    assert Functional.loads(text) == permute_functional(kinser(4), [2, 1, 3, 4])


def test_gen_kinser_domain_error(capsys):
    assert main(["gen-kinser", "--n", "3"]) == 2
    assert "n >= 4" in capsys.readouterr().err


def test_gen_kinser_bad_permutation(capsys):
    assert main(["gen-kinser", "--n", "4", "--permute", "1,1,2,3"]) == 2
    assert main(["gen-kinser", "--n", "4", "--permute", "a,b"]) == 2


def test_gen_kinser_empty_permutation(capsys):
    # an empty value is a malformed permutation, not a missing option
    assert main(["gen-kinser", "--n", "4", "--permute", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed permutation ''\n"


@pytest.mark.parametrize("permute", [" 2,1,3,4", "+2,1,3,4", "02,1,3,4",
                                     "2, 1,3,4", "2,1,3,\u0664", " 2,+1,3,\u0664"])
def test_gen_kinser_rejects_non_canonical_permutation(capsys, permute):
    # each reads as 2,1,3,4 under int(); images take the subset-key grammar
    assert main(["gen-kinser", "--n", "4", "--permute", permute]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed permutation {permute!r}\n"


def test_gen_kinser_canonical_permutation_output(capsys):
    assert main(["gen-kinser", "--n", "4", "--permute", "2,1,3,4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == permute_functional(kinser(4), [2, 1, 3, 4]).dumps() + "\n"
    assert captured.err == ""


def test_check_polymatroid(files, capsys):
    p = files("w.json", witness_T(4).to_json_obj())
    assert main(["check", p]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result == {"n": 4, "integral": True, "in_cone": True,
                      "polymatroid": True, "matroid": False,
                      "connected": True}


@pytest.mark.parametrize("P,code", [
    (witness_T(4), 0),
    (SetFunction.from_values(2, {(1,): 2, (2,): 1, (1, 2): 1}), 1),
    (SetFunction.from_values(1, {(1,): Fraction(1, 2)}), 1),
], ids=["polymatroid", "outside", "non-integral"])
def test_check_runs_one_cone_test(files, capsys, monkeypatch, P, code):
    # the matroid and connected predicates reuse the one basic-inequality
    # test, whatever its outcome
    calls = []
    cone = setfunctions.in_polymatroid_cone

    def spy(Q):
        calls.append(Q)
        return cone(Q)

    monkeypatch.setattr(setfunctions, "in_polymatroid_cone", spy)
    assert main(["check", files("p.json", P.to_json_obj())]) == code
    assert calls == [P]
    result = json.loads(capsys.readouterr().out)
    assert result == {"n": P.n, "integral": setfunctions.is_integral(P),
                      "in_cone": cone(P), "polymatroid": code == 0,
                      "matroid": setfunctions.is_matroid(P),
                      "connected": setfunctions.is_connected(P) if code == 0 else None}


def test_check_non_polymatroid_exits_one(files, capsys):
    bad = SetFunction.from_values(2, {(1,): 2, (2,): 1, (1, 2): 1})
    p = files("bad.json", bad.to_json_obj())
    assert main(["check", p]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["polymatroid"] is False
    assert result["connected"] is None


def test_realize_round_trip(files, capsys):
    V = random_arrangement(4, 3, 101, seed=42)
    arr = files("arr.json", V.to_json_obj())
    assert main(["realize", arr]) == 0
    from rankineq.arrangements import rank_function
    assert SetFunction.loads(capsys.readouterr().out) == rank_function(V)


def test_realize_rational_arrangement(files, capsys):
    arr = files("q.json", {"field": 0, "ambient_dim": 2,
                           "subspaces": [[["1/2", "1/3"]], [[2, 1]], []]})
    assert main(["realize", arr]) == 0
    P = SetFunction.loads(capsys.readouterr().out)
    assert [P.value_at(m) for m in (1, 2, 3, 4, 7)] == [1, 1, 2, 0, 2]


def test_pullback_and_pushforward(files, capsys):
    phi = UnionMap(2, 3, [[1], [2, 3]])
    m = files("map.json", phi.to_json_obj())
    P = SetFunction.from_values(
        3, {k: len(k) for k in
            [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]})
    p = files("p.json", P.to_json_obj())
    assert main(["pullback", "--map", m, "--input", p]) == 0
    back = SetFunction.loads(capsys.readouterr().out)
    assert back.value_at(0b11) == 3

    f = files("f.json",
              Functional.from_coeffs(2, {(1,): 1, (2,): 1, (1, 2): -1})
              .to_json_obj())
    assert main(["pushforward", "--map", m, "--input", f]) == 0
    fwd = Functional.loads(capsys.readouterr().out)
    assert fwd == Functional.from_coeffs(3, {(1,): 1, (2, 3): 1, (1, 2, 3): -1})


def test_pushforward_hierarchy_example(files, capsys):
    m = files("h.json", hierarchy_map(5).to_json_obj())
    f = files("k5.json", kinser(5).to_json_obj())
    assert main(["pushforward", "--map", m, "--input", f]) == 0
    assert Functional.loads(capsys.readouterr().out) == kinser(4)


def test_ground_set_mismatch_is_usage_error(files, capsys):
    f = files("f4.json", kinser(4).to_json_obj())
    p = files("p5.json", witness_T(5).to_json_obj())
    assert main(["eval", "--functional", f, "--point", p]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_malformed_json_is_usage_error(files, capsys):
    bad = files("bad.json", "{not json")
    assert main(["eval", "--functional", bad, "--point", bad]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [1_000, 200_000])
@pytest.mark.parametrize("bracket", ["[", '{"n": '])
def test_deeply_nested_json_is_usage_error(files, capsys, bracket, depth):
    deep = files("deep.json", bracket * depth)
    assert main(["check", deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize("key", ["01,2", " 1,2", "+1,2", "1,2 ", "\u0661,2",
                                 "1, 2", "1_0"])
def test_non_canonical_subset_key_is_rejected(files, capsys, key):
    # each spelling reads as {1,2} or {10} under int(), which once let
    # '{"1,2": "1", "01,2": "-1"}' load as -1*{1,2} with a term dropped
    functional = {"n": 3, "coeffs": {"1,2": "1", key: "-1"}}
    point = {"n": 2, "values": {"1": 1, "2": 1, key: 2}}
    with pytest.raises(ValueError, match="malformed subset key"):
        Functional.loads(json.dumps(functional))
    with pytest.raises(ValueError, match="malformed subset key"):
        SetFunction.loads(json.dumps(point))
    f, p = files("f.json", functional), files("p.json", point)
    zero = files("zero.json", SetFunction.zero(3).to_json_obj())
    for argv in (["eval", "--functional", f, "--point", zero], ["check", p]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "malformed subset key" in err and err.count("\n") == 1


def test_bool_map_image_is_rejected(files, capsys):
    bad = {"k": 1, "n": 2, "images": [[True]]}
    with pytest.raises(ValueError, match="out of range: True"):
        UnionMap.loads(json.dumps(bad))
    m = files("m.json", bad)
    p = files("p.json", SetFunction.zero(2).to_json_obj())
    assert main(["pullback", "--map", m, "--input", p]) == 2
    err = capsys.readouterr().err
    assert "out of range: True" in err and err.count("\n") == 1
    assert UnionMap.loads('{"k": 1, "n": 2, "images": [[1]]}').images == (1,)


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/x.json"]) == 2


def _eval_nines_squared(files):
    # (10^4000 - 1)^2 has 8,000 digits, past Python's default str() limit
    nines = "9" * 4000
    f = files("f.json", '{"n": 1, "coeffs": {"1": "%s"}}' % nines)
    p = files("p.json", '{"n": 1, "values": {"1": %s}}' % nines)
    return main(["eval", "--functional", f, "--point", p])


def test_eval_prints_results_longer_than_the_literal_cap(files, capsys):
    assert _eval_nines_squared(files) == 0
    captured = capsys.readouterr()
    assert captured.out == "9" * 3999 + "8" + "0" * 3999 + "1\n"
    assert captured.err == ""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str limit before Python 3.10.7")
def test_eval_restores_the_int_to_str_limit(files, capsys):
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert _eval_nines_squared(files) == 0
        limit = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(outer)
    assert capsys.readouterr().out == "9" * 3999 + "8" + "0" * 3999 + "1\n"
    assert limit == 4300  # main restores the caller's limit


@pytest.mark.parametrize("which,text", [
    ("point", '{"n": 1, "values": {"1": %s}}' % ("9" * 5000)),
    ("point", '{"n": 1, "values": {"1": -%s}}' % ("9" * 5000)),
    ("point", '{"n": 1, "values": {"1": "%s/7"}}' % ("9" * 5000)),
    ("point", '{"n": 1, "values": {"%s": 1}}' % ("9" * 5000)),
    ("functional", '{"n": 1, "coeffs": {"1": "7/%s"}}' % ("9" * 5000)),
    # Fraction reads "9_9" as 99: the underscores do not split a literal
    ("point", '{"n": 1, "values": {"1": "%s/7"}}' % ("9_" * 5000 + "9")),
    ("functional", '{"n": 1, "coeffs": {"1": "7/%s"}}' % ("9_" * 5000 + "9")),
], ids=["json-int", "negative-json-int", "numerator", "subset-key", "denominator",
        "underscored-numerator", "underscored-denominator"])
def test_over_long_literal_is_usage_error(files, capsys, which, text):
    paths = {"functional": files("f.json", Functional.unit(1, [1]).to_json_obj()),
             "point": files("p.json", SetFunction.zero(1).to_json_obj())}
    paths[which] = files("bad.json", text)
    assert main(["eval", "--functional", paths["functional"],
                 "--point", paths["point"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: number literal longer than 4300 digits\n"


def test_literal_of_4300_digits_is_read(files, capsys):
    big = "9" * 4300
    f = files("f.json", '{"n": 1, "coeffs": {"1": "-%s/7"}}' % big)
    p = files("p.json", '{"n": 1, "values": {"1": %s}}' % big)
    assert main(["eval", "--functional", f, "--point", p]) == 1
    out = capsys.readouterr().out.strip()
    assert out.startswith("-") and len(out) == 1 + 8600 + 2  # "-p/7"


def test_exponent_is_not_an_exact_rational(files, capsys):
    # "1e9999999" once built a ten-million-digit integer before any check
    f = files("f.json", '{"n": 1, "coeffs": {"1": "1e9999999"}}')
    p = files("p.json", SetFunction.zero(1).to_json_obj())
    assert main(["eval", "--functional", f, "--point", p]) == 2
    assert capsys.readouterr().err == "error: not an exact rational: '1e9999999'\n"


def test_bad_value_names_offending_key(files, capsys):
    p = files("p.json", {"n": 1, "values": {"1": 1.25}})
    assert main(["check", p]) == 2
    assert "1.25" in capsys.readouterr().err


def test_verify_all_at_5(capsys):
    assert main(["verify", "--n", "5", "--cert", "all"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["check"] for r in reports} == {
        "hierarchy", "witness_realizations", "vanishing", "line_identities",
        "facet_rank", "basis_F"}
    assert all(r["outcome"] == "pass" for r in reports)


def test_verify_single_cert(capsys):
    assert main(["verify", "--n", "6", "--cert", "hierarchy"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1 and reports[0]["n"] == 6


def test_verify_unknown_cert_rejected(capsys):
    assert main(["verify", "--n", "5", "--cert", "bogus"]) == 2


def test_verify_out_of_range_n(capsys):
    assert main(["verify", "--n", "4", "--cert", "basis"]) == 2
    assert "requires n" in capsys.readouterr().err
    assert main(["verify", "--n", "3", "--cert", "all"]) == 2
    assert "applicable" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_random_test_deterministic_and_clean(capsys):
    argv = ["random-test", "--n", "4", "--trials", "5", "--prime", "7",
            "--dim", "3", "--seed", "31337"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    report = json.loads(first)
    assert report["trials"] == 5
    assert report["violations"] == []
    assert report["inequalities_checked"] == 56 + 6


def test_random_test_requires_n_at_least_4(capsys):
    assert main(["random-test", "--n", "3", "--trials", "1"]) == 2


def test_random_test_rejects_negative_trials(capsys):
    assert main(["random-test", "--n", "4", "--trials", "-3"]) == 2
    err = capsys.readouterr().err
    assert "--trials" in err and err.count("\n") == 1


def test_random_test_rejects_n_above_8(capsys, monkeypatch):
    # the orbit has n!/2 members; it must not be built before rejecting
    import rankineq.cli as cli

    def no_orbit(*args):
        raise AssertionError("orbit built before the range check")

    monkeypatch.setattr(cli, "permutations", no_orbit)
    assert main(["random-test", "--n", "9", "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert "n <= 8" in err and "181440" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag,value,message", [
    ("--prime", "4", "p must be prime, got 4"),
    ("--dim", "-1", "bad dimension -1"),
    ("--prime", str(2 ** 64 + 13), "field must be 0 (rationals) or a prime "
     f"below 2^64, got {2 ** 64 + 13}"),
    ("--dim", "65", "--dim <= 64 required, got 65: a trial row-reduces up to "
     "d vectors of length d per subspace"),
])
def test_random_test_rejects_bad_field_and_dimension_up_front(
        capsys, monkeypatch, flag, value, message):
    # the same messages random_arrangement raises, before the orbit is
    # built, and also when no trial would ever draw an arrangement
    import rankineq.cli as cli

    def no_orbit(*args):
        raise AssertionError("orbit built before the argument check")

    monkeypatch.setattr(cli, "permutations", no_orbit)
    for trials in ("0", "3"):
        argv = ["random-test", "--n", "7", "--trials", trials, flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_random_test_accepts_dim_64(capsys):
    argv = ["random-test", "--n", "4", "--trials", "1", "--dim", "64"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


@pytest.mark.parametrize("count", [21, 64])
def test_realize_rejects_too_many_subspaces_up_front(files, capsys, monkeypatch,
                                                     count):
    # the 2^n rank table must not be built: at 64 it cannot be, at 21 it
    # took seconds and hundreds of MiB before the ground-set check
    import rankineq.cli as cli

    def no_ranks(V):
        raise AssertionError("rank table built before the count check")

    monkeypatch.setattr(cli, "rank_function", no_ranks)
    arr = files("big.json", {"field": 2, "ambient_dim": 1,
                             "subspaces": [[] for _ in range(count)]})
    assert main(["realize", arr]) == 2
    assert capsys.readouterr().err == \
        f"error: ground-set size must be in 1..20, got {count}\n"


def test_verify_cert_choices_are_the_certificate_names(capsys):
    assert main(["verify", "--n", "5", "--cert", "bogus"]) == 2
    err = capsys.readouterr().err
    choices = ", ".join(repr(name) for name in ["all", *CERTIFICATES])
    assert f"(choose from {choices})" in err


def test_random_test_reports_what_plain_pairing_finds(capsys, monkeypatch):
    # negative control: the generator -e*_1 - 3 e*_[n] has the basics'
    # weight W = 4, and each orbit member -e*_i - 3 e*_[n] pairs to exactly
    # -M*W = -4*dim where V_i and the whole sum both fill the space
    import rankineq.cli as cli
    n, trials, prime, dim, master = 5, 4, 7, 3, 5
    generator = Functional(n, {1: -1, (1 << n) - 1: -3})
    monkeypatch.setattr(cli, "kinser", lambda _: generator)
    argv = ["random-test", "--n", str(n), "--trials", str(trials), "--prime",
            str(prime), "--dim", str(dim), "--seed", str(master)]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    orbit = sorted({permute_functional(generator, sigma)
                    for sigma in permutations(range(1, n + 1))},
                   key=lambda f: f.items())
    basics = basic_functionals(n)
    expected = []
    for trial in range(trials):
        seed = derive_seed(master, trial)
        V = random_arrangement(n, dim, prime, seed)
        P = rank_function(V)
        for kind, family in (("basic", basics), ("generator-orbit", orbit)):
            for f in family:
                value = pair(f, P)
                if value < 0:
                    expected.append({
                        "trial": trial, "seed": seed, "kind": kind,
                        "functional": f.to_json_obj(), "value": str(value),
                        "arrangement": V.to_json_obj()})
    assert report["violations"] == expected
    assert any(v["value"] == str(-4 * dim) for v in expected)
    assert report["inequalities_checked"] == len(basics) + len(orbit)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_orbit_from_bit_permutations_matches_permute_mask(n):
    generator = kinser(n)
    terms = generator.items()
    want = sorted({tuple(sorted((permute_mask(mask, sigma), c) for mask, c in terms))
                   for sigma in permutations(range(1, n + 1))})
    orbit = _relabellings(generator)
    assert [copy for copy, _ in orbit] == want
    assert len(orbit) == (6 if n == 4 else factorial(n) // 2)
    for copy, sigma in orbit:
        assert permute_functional(generator, sigma).items() == list(copy)


@pytest.mark.parametrize("n,coeffs", [
    (4, {1: 3, 6: -2, 7: Fraction(1, 2), 12: 1}),
    (5, {3: -1, 4: 5, 17: -1, 31: 2}),
    (4, {}),
])
def test_orbit_of_other_functionals(n, coeffs):
    f = Functional(n, coeffs)
    orbit = _relabellings(f)
    want = sorted({permute_functional(f, sigma)
                   for sigma in permutations(range(1, n + 1))},
                  key=lambda g: g.items())
    assert [list(copy) for copy, _ in orbit] == [g.items() for g in want]
    assert [permute_functional(f, sigma) for _, sigma in orbit] == want


def test_internal_error_exits_3(capsys, monkeypatch):
    import rankineq.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_gen_kinser", broken)
    assert main(["gen-kinser", "--n", "4"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_random_test_large_prime(capsys):
    argv = ["random-test", "--n", "4", "--trials", "1", "--dim", "3",
            "--prime", str(2 ** 61 - 1)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


def test_check_rejects_oversized_ground_set(files, capsys):
    p = files("big.json", {"n": 64, "values": {}})
    assert main(["check", p]) == 2
    err = capsys.readouterr().err
    assert "ground-set size" in err and err.count("\n") == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
