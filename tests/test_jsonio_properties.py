"""Property test: the array parser against the scalar reference on mutated files.

Needs hypothesis (the `test` extra); skipped without it, so the fixed
format tests in test_jsonio.py never depend on it.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracle import normalize  # noqa: E402
from test_jsonio import assert_parsed_array, reference_parse, reference_write  # noqa: E402

from evasive.errors import ParameterError  # noqa: E402
from evasive.gf import make_field  # noqa: E402
from evasive.jsonio import pointset_from_json_bytes, pointset_to_json_bytes  # noqa: E402
from evasive.projgeom import PointSet  # noqa: E402

FUZZ_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(5, 1),
               make_field(3, 2)]
MUTATIONS = ["none", "swap", "duplicate", "scale", "coordinate", "retype", "width", "nest",
             "row"]


@st.composite
def point_sets(draw):
    field = draw(st.sampled_from(FUZZ_FIELDS))
    n = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.lists(st.integers(0, field.order - 1), min_size=n + 1,
                                     max_size=n + 1).filter(any), max_size=8))
    rows = [normalize(field, v) for v in vectors]
    return PointSet.from_rows(field, n, np.array(rows, dtype=np.int64).reshape(-1, n + 1))


@st.composite
def mutated_files(draw):
    X = draw(point_sets())
    field = X.field
    rows = X.array.tolist()
    kind = draw(st.sampled_from(MUTATIONS)) if rows else "none"
    i = draw(st.integers(0, len(rows) - 1)) if rows else 0
    if kind == "swap":
        j = draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "duplicate":
        rows.insert(i, list(rows[i]))
    elif kind == "scale":
        c = draw(st.integers(1, field.order - 1))
        rows[i] = [field.mul(c, x) for x in rows[i]]
    elif kind == "coordinate":
        j = draw(st.integers(0, X.n))
        rows[i][j] = draw(st.sampled_from(
            [-1, field.order, field.order + 1, 2**70, True, False, 0.0, 1.0]))
    elif kind == "retype":
        # the same number as a bool or a float
        j = draw(st.integers(0, X.n))
        c = rows[i][j]
        rows[i][j] = draw(st.sampled_from([float(c)] + ([bool(c)] if c < 2 else [])))
    elif kind == "width":
        if draw(st.booleans()):
            rows[i].append(0)
        else:
            rows[i].pop()
    elif kind == "nest":
        if draw(st.booleans()):
            rows[i] = [rows[i]]
        else:
            j = draw(st.integers(0, X.n))
            rows[i][j] = [rows[i][j]]
    elif kind == "row":
        rows[i] = draw(st.sampled_from([1, "1" * (X.n + 1), None]))
    doc = {"p": field.p, "k": field.k, "modulus": list(field.modulus), "n": X.n,
           "r": draw(st.none() | st.integers(0, 4)), "s": draw(st.none() | st.integers(0, 4)),
           "points": rows}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _outcome(parse, blob):
    try:
        return parse(blob)
    except ParameterError:
        return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_files())
def test_parser_accepts_exactly_what_the_reference_accepts(blob):
    got = _outcome(pointset_from_json_bytes, blob)
    assert got == _outcome(reference_parse, blob)
    if got is not None:
        X, r, s = got
        assert_parsed_array(X)
        assert pointset_to_json_bytes(X, r, s) == blob


@settings(max_examples=100, deadline=None, derandomize=True)
@given(point_sets(), st.none() | st.integers(0, 4))
def test_round_trip_gives_back_the_set_and_bytes(X, r):
    blob = pointset_to_json_bytes(X, r, r)
    Y, r2, s2 = pointset_from_json_bytes(blob)
    assert Y == X and (r2, s2) == (r, r)
    assert_parsed_array(Y)
    assert pointset_to_json_bytes(Y, r2, s2) == blob


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point_sets(), st.none() | st.integers(0, 2**64), st.none() | st.integers(0, 2**64))
def test_writer_matches_json_dumps(X, r, s):
    assert pointset_to_json_bytes(X, r, s) == reference_write(X, r, s)
