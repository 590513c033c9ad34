"""Property tests: field axioms on random towers, and GF(p)^N as GF(p^N).

Needs hypothesis (the `test` extra); skipped without it, so the fixed
field tests in test_gf.py never depend on it.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from evasive.gf import make_extension, make_field  # noqa: E402
from evasive.jsonio import pointset_to_json_bytes  # noqa: E402
from evasive.projgeom import PointSet, normalize  # noqa: E402

PRIMES = (2, 3, 5, 7, 11, 13)
ORDER_MAX = 256


@st.composite
def towers(draw):
    """GF(p), then quotients over it while the order stays <= ORDER_MAX."""
    field = make_field(draw(st.sampled_from(PRIMES)), 1)
    while draw(st.booleans()):
        degrees = [N for N in range(2, 9) if field.order**N <= ORDER_MAX]
        if not degrees:
            break
        field = make_extension(field, draw(st.sampled_from(degrees)))
    return field


@st.composite
def elements(draw):
    field = draw(towers())
    a, b, c = (draw(st.integers(0, field.order - 1)) for _ in range(3))
    return field, a, b, c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(elements())
def test_scalar_ops_are_field_ops_and_match_tables(case):
    F, a, b, c = case
    add, mul = F.add, F.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, F.neg(a)) == 0 and add(F.sub(a, b), b) == a
    if a:
        assert mul(a, F.inv(a)) == 1
    assert F.pow(a, F.order) == a
    assert F.from_coords(F.coords(a)) == a
    t = F.tables()
    assert (t.add[a, b], t.add[a, t.neg[b]], t.mul[a, b]) == (add(a, b), F.sub(a, b), mul(a, b))
    assert t.neg[a] == F.neg(a) and t.inv[a] == (F.inv(a) if a else 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(PRIMES), st.data())
def test_extension_of_prime_field_is_flat_field(p, data):
    # N = 1 is left out: GF(p)[X]/(X) is a quotient over GF(p), GF(p) has no base
    N = data.draw(st.sampled_from([N for N in range(2, 9) if p**N <= ORDER_MAX]))
    ext, flat = make_extension(make_field(p, 1), N), make_field(p, N)
    assert ext == flat and hash(ext) == hash(flat)
    assert (ext.p, ext.k, ext.modulus) == (flat.p, flat.k, flat.modulus)
    vectors = data.draw(st.lists(
        st.tuples(st.integers(1, p**N - 1), st.integers(0, p**N - 1)),
        min_size=1, max_size=6))
    blobs = {pointset_to_json_bytes(
                 PointSet.from_rows(F, 1, [normalize(F, v) for v in vectors]), 2, 0)
             for F in (ext, flat)}
    assert len(blobs) == 1
