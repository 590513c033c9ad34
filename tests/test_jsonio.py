"""Wire format round-trips and rejection of malformed files."""

import json
import tracemalloc

import numpy as np
import pytest
from oracle import normalize

from evasive.arith import _is_prime
from evasive.constructions import elliptic_ovoid, monomial_curve, rational_normal_curve
from evasive.errors import ParameterError
from evasive.gf import make_extension, make_field
from evasive.jsonio import ROW_CHUNK, pointset_from_json_bytes, pointset_to_json_bytes
from evasive.projgeom import PointSet
from evasive.verifier import is_rs_set


def _require(cond, message):
    if not cond:
        raise ParameterError(message)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def reference_parse(data: bytes):
    """The file contract checked point by point in plain scalar code.

    An independent statement of what the parser accepts: header scalars,
    then each point's width, range, nonzero and normalized form, then the
    strictly ascending order of the whole list.  Only the parser bounds n
    (by jsonio.MAX_N), so callers compare the two at small n.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
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
    _require(list(field.modulus) == modulus, "modulus is not canonical")
    _require(_is_int(n) and n >= 1, "n must be an integer >= 1")
    for name in ("r", "s"):
        _require(doc[name] is None or (_is_int(doc[name]) and doc[name] >= 0),
                 f"{name} must be null or a nonnegative integer")
    pts = doc["points"]
    _require(isinstance(pts, list), "points must be a list")
    seen = []
    for pt in pts:
        _require(isinstance(pt, list) and len(pt) == n + 1, "wrong width")
        _require(all(_is_int(c) and 0 <= c < field.order for c in pt), "out of range")
        tpt = tuple(pt)
        _require(any(pt), "the zero vector")
        _require(normalize(field, tpt) == tpt, "not normalized")
        seen.append(tpt)
    _require(seen == sorted(set(seen)), "points must be strictly ascending")
    rows = np.array(seen, dtype=np.int64).reshape(len(seen), n + 1)
    return PointSet(field, n, rows), doc["r"], doc["s"]


def reference_write(X, r=None, s=None) -> bytes:
    """The file as json.dumps writes it, with every point as a Python list."""
    doc = {"p": X.field.p, "k": X.field.k, "modulus": list(X.field.modulus), "n": X.n,
           "r": r, "s": s, "points": X.array.tolist()}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def assert_parsed_array(X):
    assert X.array.shape == (len(X), X.n + 1)
    assert X.array.dtype == X.field.dtype and not X.array.flags.writeable


FROZEN = (b'{"p":3,"k":1,"modulus":[0,1],"n":3,"r":3,"s":1,'
          b'"points":[[1,1,1,1],[1,1,2,2],[1,2,1,2],[1,2,2,1]]}\n')


def test_serialize_frozen_bytes():
    X = monomial_curve(3, make_field(3, 1))
    assert pointset_to_json_bytes(X, 3, 1) == FROZEN
    # r and s are optional and serialize as null
    blob = pointset_to_json_bytes(X)
    assert b'"r":null,"s":null' in blob
    assert blob.endswith(b"}\n")


def test_round_trip_identity():
    for X, r, s in [
        (monomial_curve(3, make_field(3, 1)), 3, 1),
        (elliptic_ovoid(make_field(2, 2)), 2, 1),
        (elliptic_ovoid(make_field(5, 1)), None, None),
        (elliptic_ovoid(make_field(2, 5)), 2, 1),
        (rational_normal_curve(3, make_field(3, 2)), 3, 2),
    ]:
        blob = pointset_to_json_bytes(X, r, s)
        Y, r2, s2 = pointset_from_json_bytes(blob)
        assert Y == X and (r2, s2) == (r, s)
        assert (Y, r2, s2) == reference_parse(blob)
        assert_parsed_array(Y)
        assert pointset_to_json_bytes(Y, r2, s2) == blob


def test_parse_frozen_bytes():
    X, r, s = pointset_from_json_bytes(FROZEN)
    assert (r, s) == (3, 1)
    assert X.field.order == 3 and X.n == 3
    assert X.array.tolist() == [[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]]


def corrupt(key, value):
    data = json.loads(FROZEN)
    data[key] = value
    return json.dumps(data).encode()


@pytest.mark.parametrize("blob", [
    b"not json",
    b"[1,2,3]\n",
    b'{"p":3}\n',
    b"\xff\xfe",
    corrupt("p", 6),                       # not a prime
    corrupt("modulus", [1, 1]),            # wrong prime-field modulus
    corrupt("k", 2),                       # modulus length no longer matches
    corrupt("n", 0),
    corrupt("n", 2),                       # point width disagrees
    corrupt("r", -1),
    corrupt("s", "two"),
    corrupt("points", [[1, 1, 1, 3]]),     # encoding out of range
    corrupt("points", [[0, 0, 0, 0]]),     # the zero vector
    corrupt("points", [[2, 2, 2, 2]]),     # not normalized
    corrupt("points", [[1, 1, 2, 2], [1, 1, 1, 1]]),  # not ascending
    corrupt("points", [[1, 1, 1, 1], [1, 1, 1, 1]]),  # duplicate
    corrupt("p", True),                    # JSON booleans are not integers
    corrupt("k", True),
    corrupt("r", True),
    corrupt("s", False),
    corrupt("points", [[True, 1, 1, 1]]),
    corrupt("modulus", [False, 1]),        # equals [0, 1] only under bool == int
    corrupt("modulus", [0.0, 1]),
    b'{"p":3,"k":1,"modulus":[0,1],"n":true,"r":null,"s":null,"points":[[0,1]]}\n',
    # k >= 64 is refused before p**k is computed
    b'{"p":2,"k":100000000,"modulus":[],"n":1,"r":null,"s":null,"points":[]}\n',
    corrupt("p", 2**64 + 13),
    corrupt("points", [[1, 1, 1, -1]]),
    corrupt("points", [[1, 1, 1, 2**70]]),  # past 64 bits as well as the field
    corrupt("points", [[1, 1, 1, 1.0]]),
    corrupt("points", [[[1], 1, 1, 1]]),   # a nested coordinate
    corrupt("points", [[[1, 1, 1, 1]]]),   # a nested point
    corrupt("points", [[1, 1, 1]]),        # too narrow
    corrupt("points", {"0": [1, 1, 1, 1]}),
    # n + 1 is an array dimension, so n is bounded even with no points
    b'{"p":2,"k":1,"modulus":[0,1],"n":2147483648,"r":null,"s":null,"points":[]}\n',
    b'{"p":2,"k":1,"modulus":[0,1],"n":1180591620717411303424,"r":null,"s":null,"points":[]}\n',
    pytest.param(b'{"p":' + b"9" * 5000 + b"}\n", id="int-past-digit-limit"),
    pytest.param(b"[" * 100_000, id="nesting-past-recursion-limit"),
])
def test_malformed_files_rejected(blob):
    with pytest.raises(ParameterError):
        pointset_from_json_bytes(blob)


def test_noncanonical_modulus_rejected_with_both_cited():
    data = json.loads(b'{"p":2,"k":2,"modulus":[1,1,1],"n":1,"r":null,"s":null,'
                      b'"points":[[1,2]]}')
    data["modulus"] = [1, 0, 1]  # x^2 + 1 = (x+1)^2 over GF(2), not the table
    blob = json.dumps(data).encode()
    with pytest.raises(ParameterError) as exc:
        pointset_from_json_bytes(blob)
    assert "[1, 0, 1]" in str(exc.value) and "[1, 1, 1]" in str(exc.value)


def test_verifying_a_parsed_file_builds_no_point_tuples():
    F2 = make_field(2, 1)
    three_on_a_line = PointSet.from_rows(F2, 2, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)])
    X, r, s = pointset_from_json_bytes(pointset_to_json_bytes(three_on_a_line, 2, 1))
    ok, witness = is_rs_set(X, r, s)
    assert not ok and witness.intersection == ((0, 0, 1), (0, 1, 0), (0, 1, 1))
    assert PointSet.__slots__ == ("field", "n", "array")  # no tuple caches at all


def test_empty_point_list_round_trips():
    from evasive.projgeom import PointSet
    X = PointSet(make_field(2, 1), 2, np.empty((0, 3), dtype=np.int64))
    blob = pointset_to_json_bytes(X)
    Y, r, s = pointset_from_json_bytes(blob)
    assert Y == X and r is None and s is None


def test_only_flat_fields_serialize():
    from evasive.projgeom import PointSet
    for field in (make_extension(make_field(2, 2), 2), make_extension(make_field(2, 1), 1)):
        X = PointSet.from_rows(field, 1, [(1, 1)])
        with pytest.raises(ParameterError):
            pointset_to_json_bytes(X)


BIG = make_field(2, 63)  # every int64 encoding from 0 to 2^63 - 1 is one of its elements


@pytest.mark.parametrize("rows,width", [
    (0, 2), (1, 2), (1, 13), (ROW_CHUNK - 1, 2), (ROW_CHUNK, 13), (ROW_CHUNK + 1, 2),
    (ROW_CHUNK + 1, 13), (2 * ROW_CHUNK + 7, 4),
])
def test_writer_matches_json_dumps(rows, width):
    # the trusted constructor takes any int64 cells, sorted or not; the
    # writer's bytes depend only on them, so each digit count and chunk
    # boundary is hit with cells of 1 to 19 digits
    cells = np.array([0, 9, 10, 99, 100, 12345, 10**18 - 1, 10**18, 2**63 - 1], dtype=np.int64)
    pick = np.random.default_rng(rows * 31 + width).integers(0, len(cells), (rows, width))
    X = PointSet(BIG, width - 1, cells[pick])
    for r, s in [(None, None), (0, 7), (2**70, None)]:
        assert pointset_to_json_bytes(X, r, s) == reference_write(X, r, s)


def test_twenty_digit_encodings_round_trip():
    # GF(p) for a prime between 10^19 and 2^64: the field dtype is uint64,
    # encodings from 2^63 on do not fit in int64, and 10^19 on have 20 digits
    p = next(c for c in range(10**19 + 1, 2**64, 2) if _is_prime(c))
    field = make_field(p, 1)
    assert field.dtype == np.uint64
    rows = np.array([[0, 1], [1, 0], [1, 9], [1, 2**63], [1, 10**19 - 1], [1, 10**19],
                     [1, p - 1]], dtype=np.uint64)
    X = PointSet.from_rows(field, 1, rows)
    blob = pointset_to_json_bytes(X, 1, 0)
    assert blob == reference_write(X, 1, 0)
    assert b"[1,%d]]}" % (p - 1) in blob
    Y, r, s = pointset_from_json_bytes(blob)
    assert (Y, r, s) == (X, 1, 0)
    assert_parsed_array(Y)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ovoid_q128():
    X = elliptic_ovoid(make_field(2, 7))
    assert len(X) == 16385
    return X


def test_writing_16k_points_bounds_its_temporaries(ovoid_q128):
    # 0.21 MiB of text; one list per point and the whole text built by
    # json.dumps peaked at 4.3 MiB, ROW_CHUNK rows at a time stay near 1.1
    blob = pointset_to_json_bytes(ovoid_q128, 2, 1)
    assert blob == reference_write(ovoid_q128, 2, 1)
    assert _traced_peak(pointset_to_json_bytes, ovoid_q128, 2, 1) < 1.5 * 2**20


def test_parsing_16k_points_holds_one_copy(ovoid_q128):
    # json.loads' lists of lists set the floor near 2 MiB; they are freed
    # once the int64 array exists, and no flat list or sorted copy is made
    blob = pointset_to_json_bytes(ovoid_q128, 2, 1)
    assert pointset_from_json_bytes(blob) == (ovoid_q128, 2, 1)
    assert _traced_peak(pointset_from_json_bytes, blob) < 2.5 * 2**20
