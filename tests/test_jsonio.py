"""Wire format round-trips and rejection of malformed files."""

import json

import pytest

from evasive.constructions import elliptic_ovoid, monomial_curve
from evasive.errors import ParameterError
from evasive.gf import make_extension, make_field
from evasive.jsonio import pointset_from_json_bytes, pointset_to_json_bytes


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
    ]:
        blob = pointset_to_json_bytes(X, r, s)
        Y, r2, s2 = pointset_from_json_bytes(blob)
        assert Y == X and (r2, s2) == (r, s)
        assert pointset_to_json_bytes(Y, r2, s2) == blob


def test_parse_frozen_bytes():
    X, r, s = pointset_from_json_bytes(FROZEN)
    assert (r, s) == (3, 1)
    assert X.field.order == 3 and X.n == 3
    assert X.points == ((1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1))


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


def test_empty_point_list_round_trips():
    from evasive.projgeom import PointSet
    X = PointSet.from_normalized(make_field(2, 1), 2, ())
    blob = pointset_to_json_bytes(X)
    Y, r, s = pointset_from_json_bytes(blob)
    assert Y == X and r is None and s is None


def test_only_flat_fields_serialize():
    from evasive.projgeom import PointSet
    for field in (make_extension(make_field(2, 2), 2), make_extension(make_field(2, 1), 1)):
        X = PointSet.from_vectors(field, 1, [(1, 1)])
        with pytest.raises(ParameterError):
            pointset_to_json_bytes(X)
