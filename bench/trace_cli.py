"""Run one evasive CLI call with its layers timed from outside the program.

Usage (PYTHONPATH must reach the package, as for ``python -m evasive``):

    python bench/trace_cli.py SPANS_JSON CALL_ID CLI_ARG...

The script imports ``evasive.cli``, wraps the public functions of each layer
in a timing span, runs ``evasive.cli.main(CLI_ARG...)`` and exits with its
code.  Modules that bound a function with ``from ... import`` hold their own
reference to it, so every module of the package holding the original object
is rebound to the wrapper.  Spans are kept in memory and written to
SPANS_JSON when the call ends, as a list of objects with the keys ``call``,
``name``, ``start``, ``end`` and ``parent`` (index of the enclosing span,
-1 at the top) plus the counters of that span.  If the package no longer
has a target, the script names it on stderr and exits MISSING_TARGET without
running the call or writing SPANS_JSON, so the benchmark counts the call as
failed instead of reading that target's metrics as 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time

MISSING_TARGET = 3


def _shape_cells(args, kwargs, result):
    mats, points = args[1], args[3]
    return {"cells": int(mats.shape[0] * points.shape[0] * mats.shape[2])}


def _rref_matrices(args, kwargs, result):
    return {"matrices": int(args[1].shape[0])}


def _early_exit(args, kwargs, result):
    return {"early_exit": int(result is not None)}


def _points_removed(args, kwargs, result):
    return {"removed": len(args[0]) - len(result)}


def _parse_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _write_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (module, attribute, span name, counter).  Span names are <layer>.<what>.
FUNCTIONS = [
    ("evasive.gf", "make_field", "gf.make_field", None),
    ("evasive.gf", "make_extension", "gf.make_field", None),
    ("evasive.linalg", "batch_rref", "linalg.batch_rref", _rref_matrices),
    ("evasive.linalg", "batch_span_members", "linalg.span_members", _shape_cells),
    ("evasive.projgeom", "span_count", "projgeom.span_count", None),
    ("evasive.verifier", "is_rs_set", "verifier.check", None),
    ("evasive.verifier", "find_violation", "verifier.scan", _early_exit),
    ("evasive.verifier", "max_in_s_space", "verifier.scan", None),
    ("evasive.randomized", "cleanup", "randomized.cleanup", _points_removed),
    ("evasive.randomized", "gv_construction", "randomized.construction", None),
    ("evasive.randomized", "quadric_42_construction", "randomized.construction", None),
    ("evasive.randomized", "cubic_92_construction", "randomized.construction", None),
    ("evasive.constructions", "monomial_curve", "constructions.build", None),
    ("evasive.constructions", "monomial_curve_affine_variant", "constructions.build", None),
    ("evasive.constructions", "rational_normal_curve", "constructions.build", None),
    ("evasive.constructions", "elliptic_ovoid", "constructions.build", None),
    ("evasive.constructions", "graph_curve_for_prime_power", "constructions.build", None),
    ("evasive.constructions", "graph_curve_32", "constructions.build", None),
    ("evasive.constructions", "product_construction", "constructions.build", None),
    ("evasive.jsonio", "pointset_from_json_bytes", "jsonio.parse", _parse_bytes),
    ("evasive.jsonio", "pointset_to_json_bytes", "jsonio.write", _write_bytes),
    ("evasive.bounds", "best_upper_bound", "bounds.bound", None),
    ("evasive.bounds", "gv_lower_size", "bounds.bound", None),
    ("evasive.bounds", "exponent_table", "bounds.bound", None),
]

# (module, class, method, span name).  Methods are wrapped on the class.
METHODS = [
    ("evasive.gf", "_TableMixin", "tables", "gf.tables"),
    ("evasive.randomized", "HomogeneousForm", "evaluate", "randomized.form_eval"),
]


class Tracer:
    def __init__(self, call_id: str):
        self.call_id = call_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._tables_seen: set[int] = set()

    def record(self, name: str, start: float, end: float | None = None) -> dict:
        span = {"call": self.call_id, "name": name, "start": start, "end": end,
                "parent": self._stack[-1] if self._stack else -1}
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.record(name, time.perf_counter())
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.update(counter(args, kwargs, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
        return traced

    def _table_bytes(self, args, kwargs, result):
        # tables() returns the same cached object on every later call
        if id(result) in self._tables_seen:
            return {"bytes": 0}
        self._tables_seen.add(id(result))
        return {"bytes": sum(int(a.nbytes) for a in result)}

    def install(self) -> list[str]:
        """Wrap every target; return the targets the package does not have."""
        missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "evasive" or n.startswith("evasive."))]
        for modname, attr, name, counter in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            traced = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            original = getattr(cls, attr, None)
            if original is None:
                missing.append(f"{modname}.{clsname}.{attr}")
                continue
            counter = self._table_bytes if name == "gf.tables" else None
            setattr(cls, attr, self.wrap(original, name, counter))
        return missing


def main(argv: list[str]) -> int:
    spans_path, call_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(call_id)
    start = time.perf_counter()
    import evasive.cli

    tracer.record("cli.import", start, time.perf_counter())
    missing = tracer.install()
    if missing:
        print(f"trace targets missing: {', '.join(missing)}", file=sys.stderr)
        return MISSING_TARGET
    try:
        return evasive.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
