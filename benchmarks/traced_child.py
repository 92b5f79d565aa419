"""Run one ``rankineq`` CLI command with a span around each public call.

Usage::

    python3 traced_child.py SUMMARY_JSON SPANS_FILE CLI_ARGS...

The script imports ``rankineq.cli`` and times the import.  It then wraps the
package's public functions and methods, in every ``rankineq`` namespace that
holds them, and calls ``rankineq.cli.main(CLI_ARGS)``.  Spans (name, start,
end, parent) are kept in memory in flat arrays.  When the command ends they
are written to SPANS_FILE: one JSON header line, then the arrays in the order
it names.  A summary goes to SUMMARY_JSON.  For each span name it holds the
calls, the time of the outermost spans, and the self time: span time minus
the time its child spans cover.  The CLI's exit code is passed through.

"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

MODULES = ("subsets", "linalg", "setfunctions", "functionals", "maps",
           "arrangements", "certificates", "cli")
# Value types and per-element accessors of the inner loops.  A span costs
# about a microsecond, which would swamp them; their cost stays in the
# caller's self time.
UNWRAPPED = {
    "subsets.SubsetRef", "linalg.normalize_scalar", "linalg.Echelon.reduce",
    "setfunctions.parse_value", "setfunctions.format_value",
    "setfunctions.SetFunction.value", "setfunctions.SetFunction.value_at",
    "setfunctions.SetFunction.values_by_mask", "functionals.permute_mask",
    "functionals.Functional.coeff", "functionals.Functional.coeff_at",
    "functionals.Functional.items", "maps.UnionMap.apply_mask",
}
# Span names that differ from "<module>.<qualname>".  Several functions may
# share a name; the benchmark's per-layer metrics are read off these names.
RENAMED = {
    "linalg.ExactMatrix.rref": "linalg.rref",
    "setfunctions.SetFunction.__init__": "setfunctions.init",
    "setfunctions.SetFunction.from_json_obj": "setfunctions.json",
    "setfunctions.SetFunction.to_json_obj": "setfunctions.json",
    "setfunctions.SetFunction.dumps": "setfunctions.json",
    "setfunctions.SetFunction.loads": "setfunctions.json",
    "functionals.permute_functional": "functionals.permute",
    "certificates.verify_witness_realizations": "certificates.witness",
    "certificates.verify_vanishing": "certificates.vanishing",
    "certificates.verify_line_identities": "certificates.identities",
    "certificates.verify_facet": "certificates.facet",
    "certificates.verify_basis_F": "certificates.basis",
    "certificates.verify_hierarchy": "certificates.hierarchy",
}
WITNESS, RANK_FUNCTION = "certificates.witness", "arrangements.rank_function"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # no enclosing span has the same name
        self.depth: list[int] = []
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.ids[name]

    def wrap(self, fn, name: str, split=None):
        """Wrap fn in a span named name, or split(args, kwargs)'s name id."""
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        outer, depth, stack = self.outer, self.depth, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = nid if split is None else split(args, kwargs)
            i = len(end)
            name_of.append(sid)
            parent.append(stack[-1])
            outer.append(depth[sid] == 0)
            end.append(0.0)
            depth[sid] += 1
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                depth[sid] -= 1
        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the package's modules."""
        qq_add = self.name_id("linalg.echelon_add.qq")
        gfp_add = self.name_id("linalg.echelon_add.gfp")
        full_cone = self.name_id("setfunctions.cone.full")
        local_cone = self.name_id("setfunctions.cone.local")
        # Functions whose span name depends on the call's arguments.
        splits = {
            "linalg.Echelon.add":
                lambda a, k: qq_add if a[0].field == 0 else gfp_add,
            "setfunctions.in_polymatroid_cone":
                lambda a, k: full_cone if (a[1] if len(a) > 1
                                           else k.get("mode")) == "full"
                else local_cone,
        }
        modules = [importlib.import_module(f"rankineq.{m}") for m in MODULES]
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                key = f"{short}.{attr}"
                if attr.startswith("_") or key in UNWRAPPED:
                    continue
                if isinstance(value, type):
                    self._wrap_class(value, short, splits)
                elif callable(value):
                    replaced[id(value)] = self.wrap(
                        value, RENAMED.get(key, key), splits.get(key))
        # Rebind every reference the package holds: imported names in each
        # namespace, and function tables such as certificates.CERTIFICATES.
        for mod in [importlib.import_module("rankineq"), *modules]:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if isinstance(entry, tuple):
                            value[key] = tuple(replaced.get(id(x), x)
                                               for x in entry)

    def _wrap_class(self, cls: type, short: str, splits: dict) -> None:
        for attr, value in list(vars(cls).items()):
            key = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") and attr != "__init__" or key in UNWRAPPED:
                continue
            name, split = RENAMED.get(key, key), splits.get(key)
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self.wrap(value.__func__, name,
                                                         split)))
            elif callable(value) and not isinstance(value, type):
                setattr(cls, attr, self.wrap(value, name, split))

    def summary(self) -> dict:
        n = len(self.end)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        agg = [[0, 0.0, 0.0] for _ in self.names]
        for i in range(n):
            a = agg[self.name_of[i]]
            a[0] += 1
            if self.outer[i]:
                a[1] += self.end[i] - self.start[i]
            a[2] += self.end[i] - self.start[i] - covered[i]
        # rank_function calls made inside the witness certificate
        witness, rank = self.ids.get(WITNESS, -1), self.ids.get(RANK_FUNCTION, -1)
        witness_ranks = 0
        for i in range(n):
            if self.name_of[i] == rank:
                p = self.parent[i]
                while p >= 0 and self.name_of[p] != witness:
                    p = self.parent[p]
                witness_ranks += p >= 0
        return {
            "spans": {name: {"calls": c, "s": s, "self_s": self_s}
                      for name, (c, s, self_s) in zip(self.names, agg) if c},
            "witness_rank_function_calls": witness_ranks,
        }

    def write_spans(self, path: str) -> None:
        arrays = ("name_of", "parent", "start", "end")
        header = {"names": self.names, "count": len(self.end),
                  "arrays": {a: getattr(self, a).typecode for a in arrays}}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                getattr(self, a).tofile(handle)


def main() -> int:
    summary_path, spans_path, *cli_args = sys.argv[1:]
    t0 = time.perf_counter()
    from rankineq import cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        t1 = time.perf_counter()
        summary = tracer.summary()
        tracer.write_spans(spans_path)
        summary["import_s"] = import_s
        summary["post_s"] = time.perf_counter() - t1
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
