"""Command-line front end: construct, verify, bounds, table.

Exit codes: 0 success / valid, 1 verification failure, 2 usage or parse
error, 3 enumeration budget exceeded.  Every randomized construction
requires an explicit --seed; given the same arguments the tool writes
byte-identical files.

``construct`` reads each kind from one table, ``KINDS``: the options the
kind needs and the (r, s) it is certified as.  A product's X and Y factors
are built by the same family helper as the top-level monomial, rnc and
ovoid kinds.  Every option a kind needs, the product's --x-* and --y-*
options included, is checked before any field or point set is built.

Each handler imports the modules its verb uses when it runs, so ``bounds``
and ``table`` load no numpy and ``verify`` loads no construction module.
gv, quadrics and cubics take their field from ``gf`` and load no
construction module either, nor ``logging``, ``fractions``, ``decimal`` or
``dataclasses``, unless gv warns that it is outside its regime.  A
product certifies X before it builds Y over Y's field.
``python -m evasive`` and the ``evasive`` console script both run ``main``.
"""

from __future__ import annotations

import argparse
import math
import sys

from .arith import DEFAULT_BUDGET
from .errors import BudgetExceeded, ParameterError

# kind -> (the options it needs, the (r, s) it is certified as).  A term of
# (r, s) is a number or an option, and "c-1" is one less than --c.  A
# product factor of a family kind needs that kind's options but q, under
# its --x- or --y- name.
KINDS = {
    "monomial": (("n", "q"), ("n", "1")),
    "monomial-affine": (("n", "q"), ("n", "1")),
    "rnc": (("c", "q"), ("c", "c-1")),
    "ovoid": (("q",), ("2", "1")),
    "graph32": (("q0",), ("3", "2")),
    "gv": (("n", "q", "r", "s"), ("r", "s")),
    "quadrics": (("m", "q"), ("4", "2")),
    "cubics": (("q",), ("9", "2")),
    "product": (("q", "r", "s"), ("r", "s")),
}
# the kinds built over a given field, by the name of their builder in
# constructions, looked up at each call: a tracer that rebinds module
# attributes (bench/trace_cli.py) would miss functions held in a table
FAMILIES = {"monomial": "monomial_curve", "monomial-affine": "monomial_curve_affine_variant",
            "rnc": "rational_normal_curve", "ovoid": "elliptic_ovoid"}
RANDOMIZED_KINDS = frozenset({"gv", "quadrics", "cubics"})


def _fmt_real(v) -> str:
    return f"{float(v):.12g}"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="evasive",
        description="Construct, verify, and bound point sets that meet every "
                    "s-space of PG(n, q) in at most r points.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a point set and write it as JSON")
    c.add_argument("kind", choices=list(KINDS))
    c.add_argument("--n", type=int, help="ambient projective dimension")
    c.add_argument("--q", type=int, help="field order (any prime power)")
    c.add_argument("--q0", type=int, help="graph32: base plane order; ambient is PG(6, q0^2)")
    c.add_argument("--c", type=int, help="rnc: curve degree; ambient is PG(c, q)")
    c.add_argument("--m", type=int, help="quadrics: number of quadrics; ambient is PG(2m-1, q)")
    c.add_argument("--r", type=int)
    c.add_argument("--s", type=int)
    c.add_argument("--seed", type=int, help="decimal 64-bit seed (required for gv/quadrics/cubics)")
    c.add_argument("--x-kind", choices=["ovoid", "rnc", "monomial"], default="ovoid",
                   help="product: the small proper factor over GF(q)")
    c.add_argument("--x-n", type=int, help="product: ambient dimension of a monomial factor")
    c.add_argument("--x-c", type=int, help="product: degree of an rnc factor")
    c.add_argument("--y-kind", choices=["rnc", "ovoid"], default="rnc",
                   help="product: the factor over the extension field")
    c.add_argument("--y-c", type=int, help="product: degree of the rnc second factor")
    c.add_argument("--y-trunc", type=int, help="product: keep only the first so-many points of Y")
    c.add_argument("--out", help="output file (default: a name derived from the parameters)")
    c.add_argument("--no-verify", action="store_true",
                   help="skip the final verification pass of a deterministic kind; "
                        "gv, quadrics and cubics are still certified by cleanup's "
                        "scan, so for them only the printed word changes to 'skipped'")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    v = sub.add_parser("verify", help="check a point-set file against (r, s)")
    v.add_argument("file")
    v.add_argument("--r", type=int, help="default: the r recorded in the file")
    v.add_argument("--s", type=int, help="default: the s recorded in the file")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    b = sub.add_parser("bounds", help="report size bounds for (r, s)-sets in PG(n, q)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--s", type=int, required=True)
    b.add_argument("--format", choices=["text", "json"], default="text")

    t = sub.add_parser("table", help="tabulate best upper-bound exponents")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--smax", type=int, required=True)
    t.add_argument("--gapmax", type=int, required=True)
    t.add_argument("--format", choices=["text", "json"], default="text")
    return top


def _options(kind: str, prefix: str = "") -> list[str]:
    """The options a family needs besides q, under a product factor's prefix."""
    return [prefix + name for name in KINDS[kind][0] if name != "q"]


def _need(args, names: tuple[str, ...], kind: str) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names
               if getattr(args, name) is None]
    if missing:
        raise ParameterError(f"construct {kind} requires {', '.join(missing)}")


def _term(args, term: str) -> int:
    name, _, less = term.partition("-")
    return (int(name) if name.isdigit() else getattr(args, name)) - int(less or 0)


def _family(kind: str, field, args, prefix: str = ""):
    """A family kind over ``field``, its options read under ``prefix``."""
    from . import constructions

    values = [getattr(args, name) for name in _options(kind, prefix)]
    return getattr(constructions, FAMILIES[kind])(*values, field, budget=args.budget)


def _build(args):
    from .gf import field_of_order

    kind = args.kind
    if kind in RANDOMIZED_KINDS:
        from . import randomized

        field = field_of_order(args.q)
        prng = randomized.Prng(args.seed)
        if kind == "gv":
            return randomized.gv_construction(args.n, field, args.r, args.s, prng,
                                              budget=args.budget)
        if kind == "quadrics":
            return randomized.quadric_42_construction(args.m, field, prng, budget=args.budget)
        return randomized.cubic_92_construction(field, prng, budget=args.budget)
    from . import constructions

    if kind == "graph32":
        return constructions.graph_curve_for_prime_power(args.q0, budget=args.budget)
    field = field_of_order(args.q)
    if kind in FAMILIES:
        return _family(kind, field, args)

    def build_Y(ext):
        Y = _family(args.y_kind, ext, args, "y_")
        return Y if args.y_trunc is None else Y.truncated(args.y_trunc)

    X = _family(args.x_kind, field, args, "x_")
    return constructions.product_construction(X, args.r, build_Y, args.s, budget=args.budget)


def _default_out(kind: str, args, X) -> str:
    parts = [kind.replace("-", "_"), f"n{X.n}", f"q{X.field.order}"]
    if kind in RANDOMIZED_KINDS:
        parts.append(f"r{args.r}s{args.s}" if kind == "gv" else kind[0])
        parts.append(f"seed{args.seed}")
    return "-".join(parts) + ".json"


def cmd_construct(args) -> int:
    from .jsonio import pointset_to_json_bytes
    from .verifier import is_rs_set

    kind = args.kind
    if kind in RANDOMIZED_KINDS and args.seed is None:
        raise ParameterError(f"construct {kind} is randomized and requires --seed")
    needs, certified = KINDS[kind]
    if kind == "product":
        needs += (*_options(args.x_kind, "x_"), *_options(args.y_kind, "y_"))
    _need(args, needs, kind)
    X = _build(args)
    r, s = (_term(args, term) for term in certified)

    if args.no_verify:
        verified = "skipped"
    elif kind in RANDOMIZED_KINDS:
        verified = "yes"  # cleanup's last scan certified X with this budget
    else:
        ok, _ = is_rs_set(X, r, s, budget=args.budget)
        verified = "yes" if ok else "no"
    out = args.out or _default_out(kind, args, X)
    try:
        with open(out, "wb") as fh:
            fh.write(pointset_to_json_bytes(X, r, s))
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc}") from exc
    print(f"{kind} {X.n} {X.field.order} {len(X)} {r} {s} {verified}")
    return 1 if verified == "no" else 0


def cmd_verify(args) -> int:
    from .jsonio import pointset_from_json_bytes
    from .verifier import is_rs_set

    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {args.file}: {exc}") from exc
    X, file_r, file_s = pointset_from_json_bytes(data)
    r = args.r if args.r is not None else file_r
    s = args.s if args.s is not None else file_s
    if r is None or s is None:
        raise ParameterError("the file does not record (r, s); pass --r and --s")
    ok, witness = is_rs_set(X, r, s, budget=args.budget)
    if ok:
        print(f"VALID ({r},{s})-set: {len(X)} points in PG({X.n},{X.field.order})")
        return 0
    print(f"VIOLATION: a {witness.span_dim}-space holds {witness.count} points (> {r})")
    print(f"  generating points: {list(witness.generating_points)}")
    print(f"  full intersection: {list(witness.intersection)}")
    return 1


def cmd_bounds(args) -> int:
    from .bounds import best_upper_bound, gv_lower_size

    report = best_upper_bound(args.n, args.q, args.r, args.s)
    lower = gv_lower_size(args.n, args.q, args.r, args.s)
    if not all(math.isfinite(e.value_float())
               for e in (*report.entries, lower) if e.applicable):
        raise ParameterError("a bound exceeds the float range it is printed in")
    if args.format == "json":
        import json

        doc = report.to_json_dict()
        doc["lower"] = {
            "label": lower.label,
            "value": lower.value_float(),
            "applicable": lower.applicable,
            "reason": lower.reason,
        }
        print(json.dumps(doc, separators=(",", ":"), sort_keys=True))
        return 0
    print(f"bounds for ({args.r},{args.s})-sets in PG({args.n},{args.q})")
    best = report.best()
    rows = [("upper " + e.label,
             _fmt_real(e.value) if e.applicable else "-",
             e.reason or ("best" if e == best else ""))
            for e in report.entries]
    rows.append(("lower " + lower.label,
                 _fmt_real(lower.value) if lower.applicable else "-",
                 lower.reason or ""))
    width = max(len(r[0]) for r in rows)
    vwidth = max(len(r[1]) for r in rows)
    for label, value, note in rows:
        line = f"  {label.ljust(width)}  {value.rjust(vwidth)}"
        print(line + (f"  [{note}]" if note else ""))
    return 0


def cmd_table(args) -> int:
    from fractions import Fraction

    from .bounds import exponent_table

    table = exponent_table(args.n, args.smax, args.gapmax)
    if args.format == "json":
        import json

        doc = {
            "n": args.n,
            "entries": [
                {"s": s, "gap": gap, "exponent": str(table[(s, gap)])}
                for (s, gap) in sorted(table)
            ],
        }
        print(json.dumps(doc, separators=(",", ":"), sort_keys=True))
        return 0
    print(f"best upper-bound exponents e in O(q^e), n = {args.n}")
    cells = {key: str(Fraction(v)) for key, v in table.items()}
    width = max(max(map(len, cells.values())), len("r-s=1"))
    header = ["s\\gap"] + [f"r-s={g}" for g in range(1, args.gapmax + 1)]
    print("  " + "  ".join(h.rjust(width) for h in header))
    for s in range(1, args.smax + 1):
        row = [f"s={s}"] + [cells[(s, g)] for g in range(1, args.gapmax + 1)]
        print("  " + "  ".join(c.rjust(width) for c in row))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "bounds": cmd_bounds,
        "table": cmd_table,
    }[args.command]
    try:
        return handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
