"""Command-line front end: construct, verify, bounds, table.

Exit codes: 0 success / valid, 1 verification failure, 2 usage or parse
error, 3 enumeration budget exceeded.  Every randomized construction
requires an explicit --seed; given the same arguments the tool writes
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .bounds import best_upper_bound, exponent_table, gv_lower_size
from .constructions import (
    elliptic_ovoid,
    field_of_order,
    graph_curve_for_prime_power,
    monomial_curve,
    monomial_curve_affine_variant,
    product_construction,
    rational_normal_curve,
)
from .errors import BudgetExceeded, ParameterError
from .gf import make_extension
from .jsonio import pointset_from_json_bytes, pointset_to_json_bytes
from .projgeom import DEFAULT_BUDGET
from .randomized import (
    Prng,
    cubic_92_construction,
    gv_construction,
    quadric_42_construction,
)
from .verifier import is_rs_set

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
    c.add_argument("kind", choices=[
        "monomial", "monomial-affine", "rnc", "ovoid", "graph32",
        "gv", "quadrics", "cubics", "product",
    ])
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


def _need(args, names: list[str], kind: str) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names
               if getattr(args, name) is None]
    if missing:
        raise ParameterError(f"construct {kind} requires {', '.join(missing)}")


def _construct_product(args):
    _need(args, ["q", "r", "s"], "product")
    base = field_of_order(args.q)
    if args.x_kind == "ovoid":
        X = elliptic_ovoid(base, budget=args.budget)
    elif args.x_kind == "rnc":
        _need(args, ["x_c"], "product --x-kind rnc")
        X = rational_normal_curve(args.x_c, base, budget=args.budget)
    else:
        _need(args, ["x_n"], "product --x-kind monomial")
        X = monomial_curve(args.x_n, base, budget=args.budget)
    ext = make_extension(base, X.n + 1)
    if args.y_kind == "rnc":
        _need(args, ["y_c"], "product --y-kind rnc")
        Y = rational_normal_curve(args.y_c, ext, budget=args.budget)
    else:
        Y = elliptic_ovoid(ext, budget=args.budget)
    if args.y_trunc is not None:
        Y = Y.truncated(args.y_trunc)
    return product_construction(X, args.r, Y, args.s, budget=args.budget)


def _default_out(kind: str, args, X) -> str:
    parts = [kind.replace("-", "_"), f"n{X.n}", f"q{X.field.order}"]
    if kind in RANDOMIZED_KINDS:
        parts.append(f"r{args.r}s{args.s}" if kind == "gv" else kind[0])
        parts.append(f"seed{args.seed}")
    return "-".join(parts) + ".json"


def cmd_construct(args) -> int:
    kind = args.kind
    if kind in RANDOMIZED_KINDS and args.seed is None:
        raise ParameterError(f"construct {kind} is randomized and requires --seed")
    if kind == "monomial" or kind == "monomial-affine":
        _need(args, ["n", "q"], kind)
        field = field_of_order(args.q)
        build = monomial_curve if kind == "monomial" else monomial_curve_affine_variant
        X = build(args.n, field, budget=args.budget)
        r, s = args.n, 1
    elif kind == "rnc":
        _need(args, ["c", "q"], kind)
        X = rational_normal_curve(args.c, field_of_order(args.q), budget=args.budget)
        r, s = args.c, args.c - 1
    elif kind == "ovoid":
        _need(args, ["q"], kind)
        X = elliptic_ovoid(field_of_order(args.q), budget=args.budget)
        r, s = 2, 1
    elif kind == "graph32":
        _need(args, ["q0"], kind)
        X = graph_curve_for_prime_power(args.q0, budget=args.budget)
        r, s = 3, 2
    elif kind == "gv":
        _need(args, ["n", "q", "r", "s"], kind)
        X = gv_construction(args.n, field_of_order(args.q), args.r, args.s,
                            Prng(args.seed), budget=args.budget)
        r, s = args.r, args.s
    elif kind == "quadrics":
        _need(args, ["m", "q"], kind)
        X = quadric_42_construction(args.m, field_of_order(args.q), Prng(args.seed),
                                    budget=args.budget)
        r, s = 4, 2
    elif kind == "cubics":
        _need(args, ["q"], kind)
        X = cubic_92_construction(field_of_order(args.q), Prng(args.seed),
                                  budget=args.budget)
        r, s = 9, 2
    else:
        X = _construct_product(args)
        r, s = args.r, args.s

    if args.no_verify:
        verified = "skipped"
    elif kind in RANDOMIZED_KINDS:
        verified = "yes"  # cleanup's last scan certified X with this budget
    else:
        ok, _ = is_rs_set(X, r, s, budget=args.budget)
        verified = "yes" if ok else "no"
    out = args.out or _default_out(kind, args, X)
    with open(out, "wb") as fh:
        fh.write(pointset_to_json_bytes(X, r, s))
    print(f"{kind} {X.n} {X.field.order} {len(X)} {r} {s} {verified}")
    return 1 if verified == "no" else 0


def cmd_verify(args) -> int:
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
    report = best_upper_bound(args.n, args.q, args.r, args.s)
    lower = gv_lower_size(args.n, args.q, args.r, args.s)
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
