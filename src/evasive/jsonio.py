"""Point-set file format: one JSON object, UTF-8, newline-terminated.

Keys in fixed order: p, k, modulus, n, r, s, points.  The field is always
identified by (p, k) plus the canonical modulus; coordinates are canonical
integer encodings; points are sorted ascending lexicographically; r and s
are null when the file does not advertise parameters.  No floats anywhere,
so byte-identical round-trips are guaranteed.

The writer keeps json.dumps for the header scalars and formats the
points straight from the set's array, ROW_CHUNK rows at a time: each
cell's digit count comes from comparing it with powers of ten, one cumsum
over the cell and row sizes gives every byte offset, and the digits,
brackets and commas are filled into a uint8 buffer at those offsets.
The bytes equal json.dumps(X.array.tolist(), separators=(",", ":")); no
Python list per point is built and the temporaries stay bounded by the
chunk, not the set.

A file is parsed in this order.  The header scalars come first, one by
one: p and k (the field must exist), the canonical modulus, n (below
MAX_N, as n+1 becomes an array dimension), r and s.  The points list is
then checked in one pass over all its coordinates: every entry is a list
of n+1 plain integers (no bool, no float) in [0, q).  Encodings become
one (N, n+1) array in the field's dtype, which holds every encoding of
every field, 20-digit ones below 2^64 included.  The parsed lists are
dropped once the array holds the points, so the parse keeps one copy of
them at a time.  The array goes to PointSet.from_rows, which refuses
zero and unnormalized rows and keeps the array, read-only, as the set's
``array``.  from_rows sorts and dedupes rows that are not already
strictly ascending, so the file is accepted only if it gives back
exactly the file's rows in the file's order: that is the strictly
ascending rule.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .arith import is_int
from .errors import ParameterError
from .gf import make_field
from .projgeom import PointSet

MAX_N = 2**31  # far above any n whose points fit in a file
ROW_CHUNK = 4096  # rows the writer formats at a time, bounding its temporaries
# a cell of d digits passes d - 1 of these; uint64 cells have at most 20 digits
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def require_flat_field(field) -> None:
    """Refuse a field that (p, k, modulus) does not name: make_field(p, k) must be it."""
    if field != make_field(field.p, field.k):
        raise ParameterError(f"only flat GF(p^k) fields serialize, not {field!r}; "
                             "rebuild tower-field objects over the flat field first")


def _json_rows(a: np.ndarray):
    """json.dumps(a.tolist(), separators=(",", ":")) as UTF-8 pieces, ROW_CHUNK rows each.

    a is a 2-D array of unsigned cells.  Each row is laid out as its
    cells, each a lead byte ("[" for the first, "," after) followed by
    its digits, then "]" and a row separator ",", which the last row
    turns into the list's closing "]".
    """
    yield b"["
    for lo in range(0, len(a), ROW_CHUNK):
        rows = a[lo:lo + ROW_CHUNK]
        m, w = rows.shape
        sizes = np.full((m, w + 1), 2, dtype=np.intp)
        sizes[:, :w] += np.searchsorted(_POWERS_OF_TEN, rows, side="right")
        ends = sizes.cumsum().reshape(m, w + 1)
        starts = ends - sizes
        text = np.empty(ends[-1, -1], dtype=np.uint8)
        text[starts[:, 0]] = ord("[")
        text[starts[:, 1:w]] = ord(",")
        text[starts[:, w]] = ord("]")
        text[ends[:, w] - 1] = ord(",")
        if lo + m == len(a):
            text[-1] = ord("]")
        # digits right to left: a cell leaves once its remaining value is 0
        pos, rest = ends[:, :w].ravel() - 1, rows.ravel()
        while pos.size:
            text[pos] = ord("0") + rest % 10
            rest = rest // 10
            more = rest > 0
            pos, rest = pos[more] - 1, rest[more]
        yield text.tobytes()
    if not len(a):
        yield b"]"


def pointset_to_json_bytes(X: PointSet, r=None, s=None) -> bytes:
    require_flat_field(X.field)
    head = json.dumps({
        "p": X.field.p,
        "k": X.field.k,
        "modulus": list(X.field.modulus),
        "n": X.n,
        "r": r,
        "s": s,
    }, separators=(",", ":"))
    return b"".join([head[:-1].encode("utf-8"), b',"points":', *_json_rows(X.array), b"}\n"])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)


def _points_array(pts, width: int, field) -> np.ndarray:
    """The points list as an (N, width) array of encodings in [0, q), in field.dtype."""
    _require(isinstance(pts, list), "points must be a list")
    _require(set(map(type, pts)) <= {list} and set(map(len, pts)) <= {width},
             f"each point needs {width} coordinates")
    flat = itertools.chain.from_iterable
    # type(c) is int rules out bool (JSON true and false) and float alike
    in_range = f"coordinates must be encodings in [0, {field.order})"
    _require(set(map(type, flat(pts))) <= {int}, in_range)
    lo, hi = (min(flat(pts)), max(flat(pts))) if pts else (0, 0)
    _require(lo >= 0 and hi < field.order, in_range)
    return np.fromiter(flat(pts), dtype=field.dtype, count=len(pts) * width).reshape(-1, width)


def pointset_from_json_bytes(data: bytes):
    """Parse and fully check a point-set file.

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
    _require(is_int(p) and is_int(k), "p and k must be integers")
    field = make_field(p, k)
    modulus = doc["modulus"]
    _require(isinstance(modulus, list) and all(is_int(c) for c in modulus),
             "modulus must be a list of integers")
    _require(list(field.modulus) == modulus,
             f"modulus {doc['modulus']} is not the canonical modulus "
             f"{list(field.modulus)} for GF({p}^{k})")
    _require(is_int(n) and 1 <= n < MAX_N, f"n must be an integer in [1, {MAX_N})")
    for name in ("r", "s"):
        _require(doc[name] is None or (is_int(doc[name]) and doc[name] >= 0),
                 f"{name} must be null or a nonnegative integer")
    # popped, so the parsed lists are freed once the array holds the points
    rows = _points_array(doc.pop("points"), n + 1, field)
    X = PointSet.from_rows(field, n, rows)
    _require(np.array_equal(X.array, rows), "points must be strictly ascending")
    return X, doc["r"], doc["s"]
