"""Seeded end-to-end benchmark of the ``rankineq`` command-line tool.

Run from the repository root::

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 40 --trace 0

Every command runs as ``python3 -m rankineq.cli ...`` in a fresh process,
with ``src`` on ``PYTHONPATH`` and one child at a time, the way a user runs
the tool.  A fresh process per command also keeps the ``lru_cache`` in
``certificates`` from carrying state from one command to the next, and counts
the import once per command.  A run does this:

1. It alternates set-up rounds and passes while they fit in ``--seconds``,
   and makes at least one of each.  A set-up round runs every command's
   zero-work twin: ``--trials 0`` for ``random-test``, ``--help`` for any
   other subcommand.  A pass runs the workload's commands.
2. ``setup_s`` is the median over rounds of the summed twin wall times.
   ``wall_s`` is the mean over passes of the summed command wall time, spawn
   to reap.  The mean, not the median: the host's speed drifts by up to 2x
   within seconds, and the median of a few passes jumps with it.
   ``peak_rss_mb`` is the median over passes of the largest child
   ``ru_maxrss``.  ``trials_per_s`` is the trials of one pass divided by
   ``wall_s - setup_s``.  A trial is one random arrangement in ``search``,
   one certificate report in ``certify`` and one command in ``files``.
3. It checks every output.  A non-zero exit, a wrong output or a timeout
   counts as a failed command.  ``failed / attempted`` is the fail ratio.
4. With ``--trace 1`` it runs one more pass through ``traced_child.py``.  That
   pass wraps the package's public functions in spans and reports the
   per-layer numbers.  ``trace.overhead_s`` is that pass's wall time minus the
   untraced ``wall_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric with its unit.  The run record goes to ``benchmarks/results/``.  It
holds the environment, the load average, and every command line with its
exit code and wall time.  A traced run also writes the per-layer table there.

Workloads.  BENCHMARK.json records the one-line reason for each.

* ``certify`` runs ``verify --n 7 --cert all`` and
  ``verify --n 9 --cert vanishing``.  It uses no seed.
* ``search`` runs ``random-test`` at n=7 over GF(101) and at n=6 over
  GF(2^31-1).  Both get ``--seed`` = the workload seed.
* ``files`` is a pipeline at n=12 that both writes and reads files:
  ``realize`` (twice), ``check``, ``gen-kinser`` (twice), ``pullback``,
  ``pushforward`` and two ``eval`` commands.  Its inputs are two arrangements,
  a permutation and a union map, drawn from ``random.Random(seed)``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
TRACED_CHILD = BENCH / "traced_child.py"

RUN_LIMIT_S = 170.0  # a run must end within 180 s; no command starts after this
LAYERS = ("subsets", "linalg", "setfunctions", "functionals", "maps",
          "arrangements", "certificates", "cli")
CERTIFICATE_SPANS = ("witness", "vanishing", "identities", "facet", "basis",
                     "hierarchy")


class WrongOutput(Exception):
    """A command exited but its output is not what the workload expects."""


@dataclass
class Command:
    args: list[str]                 # arguments after ``rankineq``
    twin: list[str]                 # the zero-work twin
    check: Callable[[str], None]    # raises WrongOutput on a wrong stdout
    inputs: tuple[Path, ...] = ()
    output: Path | None = None
    trials: int = 1


@dataclass
class Outcome:
    argv: list[str]
    exit: int | None
    wall_s: float
    rss_mb: float
    error: str | None
    stdout: str
    bytes_in: int = 0
    bytes_out: int = 0

    def record(self) -> dict:
        return {"argv": self.argv, "exit": self.exit, "wall_s": self.wall_s,
                "rss_mb": self.rss_mb, "error": self.error}


# ---------------------------------------------------------------------------
# Output checks: they hold for every seed and never read free-text details.


def _json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongOutput(f"stdout is not JSON: {exc}") from None


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def check_reports(pairs: set[tuple[str, int]]) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        reports = _json(stdout)
        expect(isinstance(reports, list)
               and all(isinstance(r, dict) for r in reports),
               "verify must print a list of reports")
        got = {(r.get("check"), r.get("n")) for r in reports}
        expect(got == pairs and len(reports) == len(pairs),
               f"reports {sorted(got)}, expected {sorted(pairs)}")
        expect(all(r.get("outcome") == "pass" for r in reports),
               "a certificate did not pass")
    return check


def check_random_test(n: int, trials: int, seed: int,
                      inequalities: int) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        report = _json(stdout)
        expect(isinstance(report, dict), "random-test must print an object")
        expect(report.get("violations") == [], "violations reported")
        expect(report.get("inequalities_checked") == inequalities,
               f"inequalities_checked {report.get('inequalities_checked')}, "
               f"expected {inequalities}")
        expect((report.get("n"), report.get("trials"), report.get("seed"))
               == (n, trials, seed), "report does not echo n, trials and seed")
    return check


def read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise WrongOutput(f"{path.name}: {exc}") from None


# ---------------------------------------------------------------------------
# Workloads


def certify(seed: int, work: Path) -> list[Command]:
    del seed, work  # the certificates are fixed statements; no input is drawn
    # n=7 is the top of the basis range; n=8 and n=10 would make one pass
    # take 12-25 s, too long to take a median inside one run.
    at7 = {(c, 7) for c in ("hierarchy", "witness_realizations", "vanishing",
                            "line_identities", "facet_rank", "basis_F")}
    return [
        Command(["verify", "--n", "7", "--cert", "all"], ["verify", "--help"],
                check_reports(at7), trials=len(at7)),
        Command(["verify", "--n", "9", "--cert", "vanishing"],
                ["verify", "--help"], check_reports({("vanishing", 9)})),
    ]


def search(seed: int, work: Path) -> list[Command]:
    del work
    cmds = []
    # (n, trials, prime, inequalities checked): the large prime makes the
    # trial-division primality test dominate the second command.
    for n, trials, prime, inequalities in ((7, 150, 101, 3640),
                                           (6, 15, 2147483647, 792)):
        args = ["random-test", "--n", str(n), "--trials", str(trials),
                "--prime", str(prime), "--dim", "5", "--seed", str(seed)]
        twin = args.copy()
        twin[twin.index("--trials") + 1] = "0"
        cmds.append(Command(args, twin,
                            check_random_test(n, trials, seed, inequalities),
                            trials=trials))
    return cmds


FILES_N = 12
FILES_DIM = 6


def _arrangement(rng: random.Random, field: int) -> dict:
    def entry() -> int:
        return rng.randrange(field) if field else rng.randint(-3, 3)
    return {"field": field, "ambient_dim": FILES_DIM,
            "subspaces": [[[entry() for _ in range(FILES_DIM)]
                           for _ in range(rng.randint(1, 3))]
                          for _ in range(FILES_N)]}


def files(seed: int, work: Path) -> list[Command]:
    rng = random.Random(seed)
    n = FILES_N
    inputs = {
        "gf101.json": _arrangement(rng, 101),
        "qq.json": _arrangement(rng, 0),
        "map.json": {"k": n, "n": n,
                     "images": [sorted(rng.sample(range(1, n + 1),
                                                  rng.randint(1, 3)))
                                for _ in range(n)]},
    }
    for name, obj in inputs.items():
        (work / name).write_text(json.dumps(obj), encoding="utf-8")
    perm = ",".join(str(i) for i in rng.sample(range(1, n + 1), n))
    p = {name: work / name for name in (
        "gf101.json", "qq.json", "map.json", "rank101.json", "rankqq.json",
        "kinser.json", "kinser_perm.json", "pulled.json", "pushed.json")}
    evals: dict[str, Fraction] = {}

    def rank_function(path: Path) -> Callable[[str], None]:
        def check(stdout: str) -> None:
            obj = read_json(path)
            expect(isinstance(obj, dict) and obj.get("n") == n
                   and isinstance(obj.get("values"), dict)
                   and len(obj["values"]) == (1 << n) - 1,
                   f"{path.name}: not a set function on {n} elements")
            vals = obj["values"]
            expect(all(isinstance(v, int) and 0 <= v <= FILES_DIM
                       for v in vals.values()),
                   f"{path.name}: a rank lies outside 0..{FILES_DIM}")
        return check

    def check_check(stdout: str) -> None:
        report = _json(stdout)
        expect(isinstance(report, dict)
               and all(report.get(k) is True
                       for k in ("integral", "in_cone", "polymatroid")),
               f"check on a realized rank function reported {report}")

    def functional(path: Path, ground: int) -> Callable[[str], None]:
        def check(stdout: str) -> None:
            obj = read_json(path)
            expect(isinstance(obj, dict) and obj.get("n") == ground
                   and isinstance(obj.get("coeffs"), dict) and obj["coeffs"],
                   f"{path.name}: not a functional on {ground} elements")
        return check

    def check_permuted(stdout: str) -> None:
        functional(p["kinser_perm.json"], n)(stdout)
        permuted = read_json(p["kinser_perm.json"])["coeffs"]
        plain = read_json(p["kinser.json"])["coeffs"]
        expect(sorted(permuted.values()) == sorted(plain.values()),
               "a permutation changed the coefficients of kinser(n)")

    def pairing(key: str, functional_path: Path,
                point_path: Path) -> Callable[[str], None]:
        def check(stdout: str) -> None:
            evals.pop(key, None)
            try:
                value = Fraction(stdout.strip())
                coeffs = read_json(functional_path)["coeffs"]
                values = read_json(point_path)["values"]
                expected = sum(Fraction(c) * Fraction(values[a])
                               for a, c in coeffs.items())
            except (KeyError, TypeError, ValueError) as exc:
                raise WrongOutput(f"eval: {exc!r}") from None
            expect(value == expected, f"eval printed {value}, the files "
                   f"pair to {expected}")
            expect(value >= 0, f"eval printed a negative value {value}")
            evals[key] = value
            if key == "pulled":
                expect(evals.get("pushed") == value,
                       "pushforward and pullback are not adjoint: "
                       f"{evals.get('pushed')} != {value}")
        return check

    def cmd(args, check, inputs=(), output=None) -> Command:
        if output is not None:
            args = [*args, "-o", output]
        args = [str(a.relative_to(ROOT)) if isinstance(a, Path) else str(a)
                for a in args]
        return Command(args, [args[0], "--help"], check, tuple(inputs), output)

    return [
        cmd(["realize", p["gf101.json"]], rank_function(p["rank101.json"]),
            [p["gf101.json"]], p["rank101.json"]),
        cmd(["realize", p["qq.json"]], rank_function(p["rankqq.json"]),
            [p["qq.json"]], p["rankqq.json"]),
        cmd(["check", p["rank101.json"]], check_check, [p["rank101.json"]]),
        cmd(["gen-kinser", "--n", n], functional(p["kinser.json"], n),
            (), p["kinser.json"]),
        cmd(["gen-kinser", "--n", n, "--permute", perm], check_permuted,
            (), p["kinser_perm.json"]),
        cmd(["pullback", "--map", p["map.json"], "--input", p["rank101.json"]],
            rank_function(p["pulled.json"]),
            [p["map.json"], p["rank101.json"]], p["pulled.json"]),
        cmd(["pushforward", "--map", p["map.json"], "--input",
             p["kinser.json"]], functional(p["pushed.json"], n),
            [p["map.json"], p["kinser.json"]], p["pushed.json"]),
        cmd(["eval", "--functional", p["pushed.json"], "--point",
             p["rank101.json"]],
            pairing("pushed", p["pushed.json"], p["rank101.json"]),
            [p["pushed.json"], p["rank101.json"]]),
        cmd(["eval", "--functional", p["kinser.json"], "--point",
             p["pulled.json"]],
            pairing("pulled", p["kinser.json"], p["pulled.json"]),
            [p["kinser.json"], p["pulled.json"]]),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Command]]] = {
    "certify": certify, "search": search, "files": files}
SEEDED = {"certify": False, "search": True, "files": True}


# ---------------------------------------------------------------------------
# Running children


class Runner:
    """Spawns one child at a time and keeps every outcome for the record."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.outcomes: list[Outcome] = []

    def spawn(self, argv: list[str]) -> Outcome:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            outcome = Outcome(argv, None, 0.0, 0.0, "run time limit reached", "")
            self.outcomes.append(outcome)
            return outcome
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            timed_out = threading.Event()
            timer = threading.Timer(timeout, lambda: (timed_out.set(),
                                                      proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        error = None
        if timed_out.is_set():
            error = f"timed out after {timeout:.0f} s"
        elif proc.returncode != 0:
            lines = err_path.read_text(errors="replace").strip().splitlines()
            error = f"exit {proc.returncode}: {lines[-1] if lines else ''}"
        outcome = Outcome(argv, proc.returncode, wall, usage.ru_maxrss / 1024,
                          error, out_path.read_text(errors="replace"))
        self.outcomes.append(outcome)
        return outcome

    def run(self, command: Command, argv_prefix: list[str]) -> Outcome:
        if command.output is not None:
            command.output.unlink(missing_ok=True)
        outcome = self.spawn([*argv_prefix, *command.args])
        if outcome.error is None:
            try:
                command.check(outcome.stdout)
            except WrongOutput as exc:
                outcome.error = f"wrong output: {exc}"
        outcome.bytes_in = sum(p.stat().st_size for p in command.inputs
                               if p.exists())
        outcome.bytes_out = len(outcome.stdout.encode()) + (
            command.output.stat().st_size
            if command.output is not None and command.output.exists() else 0)
        return outcome


def cli_argv() -> list[str]:
    return [sys.executable, "-m", "rankineq.cli"]


def measure(runner: Runner, commands: list[Command],
            until: float) -> tuple[list[float], list[list[Outcome]]]:
    """Alternate set-up rounds and passes while the next pair ends by until.

    The host's speed drifts by up to 2x within seconds, so set-up rounds and
    passes are interleaved to see the same drift.
    """
    setups: list[float] = []
    passes: list[list[Outcome]] = []
    while True:
        setups.append(sum(runner.spawn([*cli_argv(), *c.twin]).wall_s
                          for c in commands))
        passes.append([runner.run(c, cli_argv()) for c in commands])
        typical = statistics.median(s + sum(o.wall_s for o in p)
                                    for s, p in zip(setups, passes))
        now = time.perf_counter()
        if now + typical > until or now >= runner.deadline:
            return setups, passes


# ---------------------------------------------------------------------------
# Traced pass and per-layer metrics


def traced_pass(runner: Runner, commands: list[Command],
                workload: str) -> tuple[list[Outcome], list[dict]]:
    outcomes, summaries = [], []
    for i, command in enumerate(commands):
        summary_path = RESULTS / f"{workload}.{i}.summary.json"
        spans_path = RESULTS / f"{workload}.{i}.spans"
        summary_path.unlink(missing_ok=True)
        outcome = runner.run(command, [sys.executable, str(TRACED_CHILD),
                                       str(summary_path), str(spans_path)])
        outcomes.append(outcome)
        summaries.append(json.loads(summary_path.read_text())
                         if summary_path.exists() else {})
    return outcomes, summaries


def per_layer(commands: list[Command], outcomes: list[Outcome],
              summaries: list[dict], untraced_wall_s: float) -> dict:
    spans: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, agg in summary.get("spans", {}).items():
            into = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]

    def calls(*names: str) -> int:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def secs(*names: str) -> float:
        return sum(spans.get(n, {}).get("s", 0.0) for n in names)

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(a["self_s"] for n, a in spans.items()
                                    if n.split(".", 1)[0] == layer), "s")
    for name in ("subsets.parse_subset", "subsets.format_subset",
                 "linalg.rref", "linalg.check_field", "linalg.is_prime",
                 "setfunctions.init", "functionals.pair",
                 "functionals.permute", "maps.pullback", "maps.pushforward",
                 "arrangements.rank_function", "arrangements.uniform_U",
                 "arrangements.random_arrangement"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    add_qq, add_gfp = "linalg.echelon_add.qq", "linalg.echelon_add.gfp"
    m["linalg.echelon_add.calls"] = (calls(add_qq, add_gfp), "count")
    m["linalg.echelon_add.qq_s"] = (secs(add_qq), "s")
    m["linalg.echelon_add.gfp_s"] = (secs(add_gfp), "s")
    full, local = "setfunctions.cone.full", "setfunctions.cone.local"
    m["setfunctions.cone.calls"] = (calls(full, local), "count")
    m["setfunctions.cone.full_calls"] = (calls(full), "count")
    m["setfunctions.cone.s"] = (secs(full, local), "s")
    m["setfunctions.json.s"] = (secs("setfunctions.json"), "s")
    for cert in CERTIFICATE_SPANS:
        m[f"certificates.{cert}.s"] = (secs(f"certificates.{cert}"), "s")
    witness_cases = sum(3 << n for n in map(witness_n, (c.args for c in commands))
                        if n is not None)
    witness_ranks = sum(s.get("witness_rank_function_calls", 0)
                        for s in summaries)
    m["certificates.witness.retry_ratio"] = (
        witness_ranks / witness_cases - 1 if witness_cases else 0.0, "ratio")
    m["cli.import_s"] = (sum(s.get("import_s", 0.0) for s in summaries), "s")
    m["cli.bytes_in"] = (sum(o.bytes_in for o in outcomes), "bytes")
    m["cli.bytes_out"] = (sum(o.bytes_out for o in outcomes), "bytes")
    traced_wall = sum(o.wall_s - s.get("post_s", 0.0)
                      for o, s in zip(outcomes, summaries))
    m["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")
    return {"metrics": m, "spans": spans}


def witness_n(args: list[str]) -> int | None:
    """The n of the witness certificate a command runs, if it runs one."""
    if args[0] != "verify" or args[args.index("--cert") + 1] not in (
            "all", "witness"):
        return None
    n = int(args[args.index("--n") + 1])
    return n if 4 <= n <= 8 else None


# ---------------------------------------------------------------------------
# The run record


def environment() -> dict:
    sha = ""
    if (ROOT / ".git").exists():  # a plain source checkout has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 timeout=10, capture_output=True,
                                 text=True).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha or None,
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankineq" / "cli.py").is_file():
        print(f"error: no rankineq sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    load_before = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{args.workload}"
    work.mkdir(exist_ok=True)
    commands = WORKLOADS[args.workload](args.seed, work)
    runner = Runner(work, started + RUN_LIMIT_S)

    # Compile the package's bytecode once, as an installed package would.
    runner.spawn([*cli_argv(), "--help"])
    runner.outcomes.clear()

    setup_rounds, passes = measure(runner, commands,
                                   time.perf_counter() + args.seconds)
    walls = [sum(o.wall_s for o in p) for p in passes]
    peaks = [max(o.rss_mb for o in p) for p in passes]
    wall_s, setup_s = statistics.mean(walls), statistics.median(setup_rounds)
    trials = sum(c.trials for c in commands)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "trials_per_s": (trials / (wall_s - setup_s), "1/s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }
    layers = None
    if args.trace:
        outcomes, summaries = traced_pass(runner, commands, args.workload)
        layers = per_layer(commands, outcomes, summaries, wall_s)

    attempted = len(runner.outcomes)
    failed = sum(o.error is not None for o in runner.outcomes)
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    samples = {"wall_s": len(walls), "setup_s": len(setup_rounds),
               "trials_per_s": len(walls), "peak_rss_mb": len(peaks),
               "fail_ratio": attempted}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8} {name:34} {value:14.6g} {unit:6} "
              f"n={samples[name]}")
    if layers is not None:
        for name, (value, unit) in layers["metrics"].items():
            print(f"{args.workload:8} {name:34} {value:14.6g} {unit}")
    for o in runner.outcomes:
        if o.error is not None:
            print(f"FAILED {' '.join(o.argv[1:])}: {o.error}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed if SEEDED[args.workload] else None,
        "seed_used": SEEDED[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
        "pass_wall_s": walls,
        "setup_round_s": setup_rounds,
        "commands": [o.record() for o in runner.outcomes],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    if layers is not None:
        table = {
            "workload": args.workload,
            "counts": {n: a["calls"] for n, a in sorted(layers["spans"].items())},
            "times_s": {n: {"s": a["s"], "self_s": a["self_s"]}
                        for n, a in sorted(layers["spans"].items())},
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in layers["metrics"].items()},
        }
        (RESULTS / f"{args.workload}-layers.json").write_text(
            json.dumps(table, indent=1) + "\n")

    shown = layers["metrics"] if layers is not None else {
        k: metrics[k] for k in ("wall_s", "setup_s", "trials_per_s",
                                "peak_rss_mb")}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
