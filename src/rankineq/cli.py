"""Command-line front end: evaluate, generate, verify, random-test.

Exit codes: 0 success / all checks pass, 1 a check failed or an inequality
was violated, 2 usage or parse error, 3 internal error (an unexpected
exception in a command, reported as one line).  All numeric output is exact
(integers or "p/q" strings); reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import permutations, repeat
from math import factorial
from operator import add

from .arrangements import (Arrangement, check_dim_and_prime, derive_seed,
                           random_arrangement, rank_function)
from .certificates import CERTIFICATES, run_certificates
from .functionals import (Functional, PairingTable, basic_functionals, kinser,
                          pair, permute_functional)
from .maps import UnionMap, pullback, pushforward
from .setfunctions import SetFunction, polymatroid_checks
from .subsets import check_digits, parse_int_list


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_int=lambda s: int(check_digits(s)))
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: the input is nested too deeply to decode
            raise ValueError(f"{path}: malformed JSON: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_check(args: argparse.Namespace) -> int:
    P = SetFunction.from_json_obj(_load_json(args.setfunction))
    result = {"n": P.n, **polymatroid_checks(P)}
    print(json.dumps(result))
    return 0 if result["polymatroid"] else 1


def cmd_eval(args: argparse.Namespace) -> int:
    f = Functional.from_json_obj(_load_json(args.functional))
    P = SetFunction.from_json_obj(_load_json(args.point))
    value = pair(f, P)
    print(value)
    return 1 if value < 0 else 0


def cmd_gen_kinser(args: argparse.Namespace) -> int:
    f = kinser(args.n)
    if args.permute is not None:
        f = permute_functional(f, parse_int_list(args.permute, "permutation"))
    _emit(f.dumps(), args.output)
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    V = Arrangement.from_json_obj(_load_json(args.arrangement))
    _emit(rank_function(V).dumps(), args.output)
    return 0


def cmd_pullback(args: argparse.Namespace) -> int:
    phi = UnionMap.from_json_obj(_load_json(args.map))
    P = SetFunction.from_json_obj(_load_json(args.input))
    _emit(pullback(phi, P).dumps(), args.output)
    return 0


def cmd_pushforward(args: argparse.Namespace) -> int:
    phi = UnionMap.from_json_obj(_load_json(args.map))
    f = Functional.from_json_obj(_load_json(args.input))
    _emit(pushforward(phi, f).dumps(), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_certificates(args.n, args.cert)
    print(json.dumps([r.to_json_obj() for r in reports], indent=2))
    return 0 if all(r.passed for r in reports) else 1


def _relabellings(f: Functional) -> list[tuple[tuple[tuple[int, int], ...],
                                               tuple[int, ...]]]:
    """The distinct relabelled copies of f, in ascending order of their terms.

    Each copy is given by its sorted (mask, coefficient) terms and by the
    images sigma (sigma[i-1] = image of i) of one relabelling that yields
    it, so permute_functional(f, sigma) rebuilds it as a Functional; no
    Functional is built here.  The relabellings are the permutations of
    the n single-bit masks, and a term's image is the OR, here the sum, of
    its elements' images, added up one term at a time across all the
    relabellings.  A term (mask, c) is coded as mask * k + (rank of c among
    f's k distinct coefficients).  The masks of one copy are distinct, so
    the codes sort as the pairs do, and equal codes decode to one shared
    pair.
    """
    n = f.n
    terms = f.items()
    if not terms:
        return [((), tuple(range(1, n + 1)))]
    values = sorted({c for _, c in terms})
    k = len(values)
    rank = {c: r for r, c in enumerate(values)}
    # codes[i][s]: k times the image of element i + 1 under relabelling s
    codes = [[x * k for x in column]
             for column in zip(*permutations([1 << i for i in range(n)]))]
    columns = []
    for mask, c in terms:
        column = repeat(rank[c])
        for i in range(n):
            if mask >> i & 1:
                column = map(add, column, codes[i])
        columns.append(list(column))
    copies = dict(zip(map(tuple, map(sorted, zip(*columns))),
                      permutations(range(1, n + 1))))
    pairs = [(x // k, values[x % k]) for x in range(k << n)]
    return [(tuple(map(pairs.__getitem__, key)), sigma)
            for key, sigma in sorted(copies.items())]


def cmd_random_test(args: argparse.Namespace) -> int:
    if args.n < 4:
        raise ValueError("n >= 4 required (the generator is undefined below 4)")
    if args.n > 8:
        raise ValueError(f"n <= 8 required: the kinser(n) orbit has n!/2 = "
                         f"{factorial(args.n) // 2} members at n={args.n}")
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    check_dim_and_prime(args.dim, args.prime)
    if args.dim > 64:
        raise ValueError(f"--dim <= 64 required, got {args.dim}: a trial "
                         "row-reduces up to d vectors of length d per subspace")
    # Only the relabellings outlive the packing: a member's Functional is
    # built when a trial violates it.  Ranks in GF(p)^d are at most d.
    generator = kinser(args.n)
    basics = basic_functionals(args.n)
    orbit = _relabellings(generator)
    table = PairingTable(args.n, [f.items() for f in basics]
                         + [terms for terms, _ in orbit], bound=args.dim)
    sigmas = [sigma for _, sigma in orbit]
    del orbit
    violations = []
    for trial in range(args.trials):
        seed = derive_seed(args.seed, trial)
        V = random_arrangement(args.n, args.dim, args.prime, seed)
        P = rank_function(V)
        for i in table.negatives(P):
            if i < len(basics):
                kind, f = "basic", basics[i]
            else:
                kind = "generator-orbit"
                f = permute_functional(generator, sigmas[i - len(basics)])
            violations.append({
                "trial": trial, "seed": seed, "kind": kind,
                "functional": f.to_json_obj(), "value": str(pair(f, P)),
                "arrangement": V.to_json_obj(),
            })
    report = {"n": args.n, "trials": args.trials, "prime": args.prime,
              "dim": args.dim, "seed": args.seed,
              "inequalities_checked": len(basics) + len(sigmas),
              "violations": violations}
    print(json.dumps(report, indent=2))
    return 1 if violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankineq",
        description="Exact rank inequalities for subspace arrangements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="polymatroid/matroid/connected predicates")
    p.add_argument("setfunction", help="set function JSON file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("eval", help="exact pairing of a functional with a point")
    p.add_argument("--functional", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gen-kinser", help="generate the n-th hierarchy inequality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--permute", help='index images, e.g. "2,1,3,4"')
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_gen_kinser)

    p = sub.add_parser("realize", help="rank function of an arrangement")
    p.add_argument("arrangement", help="arrangement JSON file")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("pullback", help="pull a set function back along a map")
    p.add_argument("--map", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_pullback)

    p = sub.add_parser("pushforward", help="push a functional forward along a map")
    p.add_argument("--map", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_pushforward)

    p = sub.add_parser("verify", help="run certificate checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cert", default="all", choices=["all", *CERTIFICATES])
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("random-test",
                       help="check basic + permuted hierarchy inequalities "
                            "on random arrangements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--prime", type=int, default=101)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_random_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    # Exact results print in full; the input literals are capped when parsed.
    # Python before 3.10.7 has no limit on int-to-str conversion to lift.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a failed check: keep it off code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
