"""Point-set file format: one JSON object, UTF-8, newline-terminated.

Keys in fixed order: p, k, modulus, n, r, s, points.  The field is always
identified by (p, k) plus the canonical modulus; coordinates are canonical
integer encodings; points are sorted ascending lexicographically; r and s
are null when the file does not advertise parameters.  No floats anywhere,
so byte-identical round-trips are guaranteed.
"""

from __future__ import annotations

import json

from .errors import ParameterError
from .gf import make_field
from .projgeom import PointSet, normalize


def require_flat_field(field) -> None:
    """Refuse a field that (p, k, modulus) does not name: make_field(p, k) must be it."""
    if field != make_field(field.p, field.k):
        raise ParameterError(f"only flat GF(p^k) fields serialize, not {field!r}; "
                             "rebuild tower-field objects over the flat field first")


def pointset_to_json_bytes(X: PointSet, r=None, s=None) -> bytes:
    require_flat_field(X.field)
    doc = {
        "p": X.field.p,
        "k": X.field.k,
        "modulus": list(X.field.modulus),
        "n": X.n,
        "r": r,
        "s": s,
        "points": [list(pt) for pt in X.points],
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def pointset_from_json_bytes(data: bytes):
    """Parse and fully validate a point-set file.

    Returns (PointSet, r, s) with r, s possibly None.  Any deviation from
    the format contract (wrong modulus, unsorted or unnormalized points,
    out-of-range encodings) raises ParameterError.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the digit limit
        raise ParameterError(f"not a point-set file: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be a JSON object")
    for key in ("p", "k", "modulus", "n", "r", "s", "points"):
        _require(key in doc, f"missing key {key!r}")
    p, k, n = doc["p"], doc["k"], doc["n"]
    _require(_is_int(p) and _is_int(k), "p and k must be integers")
    field = make_field(p, k)
    modulus = doc["modulus"]
    _require(isinstance(modulus, list) and all(_is_int(c) for c in modulus),
             "modulus must be a list of integers")
    _require(list(field.modulus) == modulus,
             f"modulus {doc['modulus']} is not the canonical modulus "
             f"{list(field.modulus)} for GF({p}^{k})")
    _require(_is_int(n) and n >= 1, "n must be an integer >= 1")
    for name in ("r", "s"):
        _require(doc[name] is None or (_is_int(doc[name]) and doc[name] >= 0),
                 f"{name} must be null or a nonnegative integer")
    pts = doc["points"]
    _require(isinstance(pts, list), "points must be a list")
    seen = []
    for pt in pts:
        _require(isinstance(pt, list) and len(pt) == n + 1,
                 f"each point needs {n + 1} coordinates")
        _require(all(_is_int(c) and 0 <= c < field.order for c in pt),
                 f"coordinates must be encodings in [0, {field.order})")
        tpt = tuple(pt)
        _require(any(pt), "the zero vector is not a projective point")
        _require(normalize(field, tpt) == tpt, f"point {tpt} is not normalized")
        seen.append(tpt)
    _require(seen == sorted(set(seen)), "points must be strictly ascending")
    X = PointSet.from_normalized(field, n, tuple(seen))
    return X, doc["r"], doc["s"]
