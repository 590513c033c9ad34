"""Property tests: the projection walk against references on random small sets.

The references are scalar brute force (test_verifier.py), the former
prefix-RREF scan (prefix_rref_scan.py) and the oracle.  Needs hypothesis
(the `test` extra); skipped without it, so the fixed verifier tests in
test_verifier.py never depend on it.
"""

from math import comb

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracle import (all_points, normalize, oracle_max_in_s_space, recheck,  # noqa: E402
                    scalar_span)
import prefix_rref_scan as reference  # noqa: E402
from test_verifier import assert_matches_brute_force, brute_max  # noqa: E402

from evasive.gf import make_field  # noqa: E402
from evasive.projgeom import PointSet, count_points  # noqa: E402
from evasive.verifier import (_make_witness, find_violation, is_proper,  # noqa: E402
                              max_in_s_space)

KERNEL_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(5, 1)]
ORACLE_WORK_CAP = 10_000  # (s+1)-subsets of the ambient the oracle may enumerate


@st.composite
def small_instances(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 4))
    s = draw(st.integers(0, n - 1))
    pts = list(all_points(n, field))
    idx = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=10, unique=True))
    return PointSet.from_rows(field, n, [pts[i] for i in idx]), s


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_instances(), st.integers(0, 10))
def test_kernel_matches_scalar_references(inst, limit):
    X, s = inst
    count, w = max_in_s_space(X, s)
    assert count == brute_max(X, s) == w.count
    recheck(w, X)
    if comb(count_points(X.n, X.field.order), s + 1) <= ORACLE_WORK_CAP:
        assert count == oracle_max_in_s_space(X, s)
    assert_matches_brute_force(X, s, limit)


@st.composite
def proper_instances(draw):
    """(X, r, s) with 1 <= s < n <= 4 and r - s in 1..3: points drawn from
    PG(n, q), or the span of 2 <= k <= s random points less up to three of
    its points, so that rank(X) - 1 < s occurs, with few points and many."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    in_span = draw(st.booleans())
    # rank(X) - 1 < s with two or more points needs s >= 2, so n >= 3
    n = draw(st.integers(3 if in_span else 2, 4))
    s = draw(st.integers(2 if in_span else 1, n - 1))
    r = s + draw(st.integers(1, 3))
    pts = list(all_points(n, field))
    if in_span:
        k = draw(st.integers(2, s))
        basis = draw(st.lists(st.integers(0, len(pts) - 1), min_size=k, max_size=k, unique=True))
        span = scalar_span(field, [pts[i] for i in basis], pts)
        drop = draw(st.lists(st.integers(0, len(span) - 1), max_size=min(3, len(span) - 1),
                             unique=True))
        rows = [p for i, p in enumerate(span) if i not in drop]
    else:
        idx = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=10, unique=True))
        rows = [pts[i] for i in idx]
    return PointSet.from_rows(field, n, rows), r, s


@settings(max_examples=150, deadline=None, derandomize=True)
@given(proper_instances())
def test_is_proper_matches_definition(inst):
    # the definition: no m-space holds more than m + r - s points, m in 1..s
    X, r, s = inst
    proper = is_proper(X, r, s)
    assert proper == all(find_violation(X, m, m + r - s) is None for m in range(1, s + 1))
    if comb(count_points(X.n, X.field.order), s + 1) <= ORACLE_WORK_CAP:
        assert proper == all(oracle_max_in_s_space(X, m) <= m + r - s for m in range(1, s + 1))


WALK_FIELDS = {q: make_field(*pk) for q, pk in
               {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                8: (2, 3), 9: (3, 2), 16: (2, 4)}.items()}


@st.composite
def walk_instances(draw):
    """A set X in PG(n, q) with s < n <= s + 2, and s, drawn as random points,
    a planted violation (many points of one s-space) or collinear triples
    (rank-deficient prefixes once s >= 3)."""
    field = WALK_FIELDS[draw(st.sampled_from(sorted(WALK_FIELDS)))]
    q = field.order
    s = draw(st.integers(0, 3))
    n = draw(st.integers(max(s + 1, 2), s + 2))
    element = st.integers(0, q - 1)
    vector = st.lists(element, min_size=n + 1, max_size=n + 1).filter(any)
    vectors = draw(st.lists(vector, min_size=1, max_size=8))
    kind = draw(st.sampled_from(["random", "planted", "collinear"]))
    if kind == "planted":
        basis = draw(st.lists(vector, min_size=s + 1, max_size=s + 1))
        for _ in range(draw(st.integers(1, 6))):
            coeffs = draw(st.lists(element, min_size=s + 1, max_size=s + 1))
            combo = [0] * (n + 1)
            for c, v in zip(coeffs, basis):
                combo = [field.add(x, field.mul(c, y)) for x, y in zip(combo, v)]
            vectors.append(combo)
        vectors += basis
    elif kind == "collinear":
        for _ in range(draw(st.integers(1, 3))):
            u, v = draw(vector), draw(vector)
            c = draw(element)
            vectors += [u, v, [field.add(x, field.mul(c, y)) for x, y in zip(u, v)]]
    rows = {normalize(field, v) for v in vectors if any(v)}
    return PointSet.from_rows(field, n, sorted(rows)), s


@settings(max_examples=200, deadline=None, derandomize=True)
@given(walk_instances(), st.integers(0, 12))
def test_walk_matches_prefix_rref_scan_and_oracle(inst, limit):
    X, s = inst
    count, w = max_in_s_space(X, s)
    ref_count, ref_idx = reference.max_subset(X, s)
    assert count == ref_count
    assert w == _make_witness(X, ref_idx)  # the lex-first maximal subset, byte for byte
    if comb(count_points(X.n, X.field.order), s + 1) <= ORACLE_WORK_CAP:
        assert count == oracle_max_in_s_space(X, s)
    for lim in {limit, count - 1, count}:
        ref = reference.first_violation(X, s, lim)
        got = find_violation(X, s, lim)
        assert got == (None if ref is None else _make_witness(X, ref))
