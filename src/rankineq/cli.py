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
from itertools import permutations
from math import factorial

from .arrangements import (Arrangement, check_dim_and_prime, derive_seed,
                           random_arrangement, rank_function)
from .certificates import CERTIFICATES, run_certificates
from .functionals import (Functional, PairingTable, basic_functionals,
                          check_permutation, kinser, pair, permute_functional,
                          permute_mask)
from .maps import UnionMap, pullback, pushforward
from .setfunctions import (SetFunction, in_polymatroid_cone, is_connected,
                           is_integral, is_matroid)


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_check(args: argparse.Namespace) -> int:
    P = SetFunction.from_json_obj(_load_json(args.setfunction))
    integral = is_integral(P)
    in_cone = in_polymatroid_cone(P)
    poly = integral and in_cone
    result = {
        "n": P.n,
        "integral": integral,
        "in_cone": in_cone,
        "polymatroid": poly,
        "matroid": is_matroid(P),
        "connected": is_connected(P) if poly else None,
    }
    print(json.dumps(result))
    return 0 if poly else 1


def cmd_eval(args: argparse.Namespace) -> int:
    f = Functional.from_json_obj(_load_json(args.functional))
    P = SetFunction.from_json_obj(_load_json(args.point))
    value = pair(f, P)
    print(value)
    return 1 if value < 0 else 0


def cmd_gen_kinser(args: argparse.Namespace) -> int:
    f = kinser(args.n)
    if args.permute is not None:
        try:
            images = [int(x) for x in args.permute.split(",")]
        except ValueError:
            raise ValueError(f"malformed permutation {args.permute!r}") from None
        f = permute_functional(f, check_permutation(images, args.n))
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
    # Distinct relabelled term tuples, in f.items() order; one expression,
    # so the tuples are freed before the trials start.
    generator = kinser(args.n).items()
    orbit = [Functional(args.n, dict(terms)) for terms in sorted(
        {tuple(sorted((permute_mask(mask, sigma), c) for mask, c in generator))
         for sigma in permutations(range(1, args.n + 1))})]
    basics = basic_functionals(args.n)
    table = PairingTable(args.n, basics + orbit)
    violations = []
    for trial in range(args.trials):
        seed = derive_seed(args.seed, trial)
        V = random_arrangement(args.n, args.dim, args.prime, seed)
        P = rank_function(V)
        for i in table.negatives(P):
            f = table.functionals[i]
            violations.append({
                "trial": trial, "seed": seed,
                "kind": "basic" if i < len(basics) else "generator-orbit",
                "functional": f.to_json_obj(), "value": str(pair(f, P)),
                "arrangement": V.to_json_obj(),
            })
    report = {"n": args.n, "trials": args.trials, "prime": args.prime,
              "dim": args.dim, "seed": args.seed,
              "inequalities_checked": len(basics) + len(orbit),
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
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a failed check: keep it off code 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
