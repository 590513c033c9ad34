"""Projective points, subspaces, counting, and products by field reduction."""

import itertools
import math

import numpy as np
import pytest

from evasive import projgeom
from evasive.constructions import elliptic_ovoid, product_construction, rational_normal_curve
from evasive.errors import BudgetExceeded, ParameterError
from evasive.gf import array_pow, make_extension, make_field
from evasive.projgeom import (
    PointSet,
    _log10_power,
    _scientific,
    _shown,
    all_points,
    count_points,
    gaussian_binomial,
    normalize,
    rank,
    require_points,
    rref,
    span_count,
    span_mask,
)
from evasive.randomized import Prng
from evasive.verifier import _scalar_rref


def test_normalize_frozen_examples():
    assert normalize(make_field(5, 1), (0, 2, 4)) == (0, 1, 2)
    assert normalize(make_field(3, 1), (2, 1, 0)) == (1, 2, 0)
    assert normalize(make_field(2, 2), (3, 3, 0)) == (1, 1, 0)
    with pytest.raises(ParameterError):
        normalize(make_field(3, 1), (0, 0, 0))


@pytest.mark.parametrize("q,p,k,n", [
    (2, 2, 1, 4), (3, 3, 1, 4), (4, 2, 2, 3), (5, 5, 1, 3),
    (7, 7, 1, 2), (8, 2, 3, 2), (9, 3, 2, 4),
])
def test_normalize_scale_invariant_exhaustive(q, p, k, n):
    # vectorized over every nonzero vector of GF(q)^(n+1) and every scalar
    field = make_field(p, k)
    t = field.tables()
    w = n + 1
    count = q**w
    vecs = (np.arange(count, dtype=np.int64)[:, None]
            // q ** np.arange(w, dtype=np.int64)[None, :]) % q
    vecs = vecs[1:]  # drop the zero vector
    first_nz = (vecs != 0).argmax(axis=1)
    lead = vecs[np.arange(len(vecs)), first_nz]
    normed = t.mul[array_pow(field, lead, -1)[:, None], vecs]
    for lam in range(1, q):
        scaled = t.mul[lam, vecs]
        s_first = (scaled != 0).argmax(axis=1)
        s_lead = scaled[np.arange(len(scaled)), s_first]
        s_normed = t.mul[array_pow(field, s_lead, -1)[:, None], scaled]
        assert np.array_equal(normed, s_normed)
    # scalar implementation agrees with the vectorized oracle on a sample
    rng = Prng(q * n)
    for _ in range(50):
        i = rng.below(len(vecs))
        assert normalize(field, tuple(vecs[i].tolist())) == tuple(normed[i].tolist())


@pytest.mark.parametrize("n,q,p,k", [
    (1, 3, 3, 1), (2, 2, 2, 1), (2, 3, 3, 1), (3, 2, 2, 1),
    (3, 4, 2, 2), (4, 3, 3, 1), (2, 9, 3, 2),
])
def test_all_points_sorted_normalized_counted(n, q, p, k):
    field = make_field(p, k)
    pts = list(all_points(n, field))
    assert len(pts) == gaussian_binomial(n + 1, 1, q) == count_points(n, q)
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)
    for pt in pts:
        assert pt[(np.array(pt) != 0).argmax()] == 1


def test_all_points_budget():
    with pytest.raises(BudgetExceeded):
        list(all_points(9, make_field(5, 1), budget=1000))


def test_require_points_at_the_budget():
    # the logarithm refuses only counts ten times past the budget, so a
    # count at or just above it is still compared exactly
    for n, q in [(59, 2), (20, 7), (1000, 3)]:
        total = count_points(n, q)
        assert require_points(n, q, total) == total
        for budget in (total - 1, total // 10, 1, 0):
            with pytest.raises(BudgetExceeded, match=f"PG\\({n},{q}\\) has"):
                require_points(n, q, budget)


def test_huge_counts_are_written_short():
    # str() of an int past 4300 digits raises, so counts past 15 digits are
    # written from their logarithm, and a logarithm past 15 digits likewise
    assert _shown(10**15 - 1) == "999999999999999"
    assert _shown(10**15) == "1.0e+15" and _shown(4 * 10**4300 + 1) == "4.0e+4300"
    assert _scientific(math.log10(38146972656)) == "3.8e+10"
    assert _scientific(math.log10(9.96)) == "1.0e+1"
    assert _scientific(3.0103e15) == "10^3.0e+15"
    assert _scientific(math.inf) == "10^10^308 or more"
    assert _log10_power(3, 10**8) == 10**8 * math.log10(3)
    assert _log10_power(3, 10**4299) == math.inf
    assert _log10_power(1, 10**4299) == 0.0


def test_rank_examples():
    F3 = make_field(3, 1)
    assert rank(F3, [(1, 0, 0), (1, 1, 0), (1, 2, 0)]) == 2
    F5 = make_field(5, 1)
    vand = [tuple(F5.pow(t, e) for e in range(4)) for t in range(4)]
    assert rank(F5, vand) == 4
    assert rank(F3, [(1, 2, 0), (1, 2, 0)]) == 1
    assert rank(F3, []) == 0


def test_rank_permutation_invariant_and_monotone():
    field = make_field(2, 2)
    rng = Prng(5)
    pts = [tuple(rng.below(4) for _ in range(4)) for _ in range(6)]
    base = rank(field, pts)
    for _ in range(5):
        perm = sorted(range(6), key=lambda _: rng.below(1000))
        assert rank(field, [pts[i] for i in perm]) == base
    for extra in [(1, 0, 0, 0), (0, 1, 2, 3)]:
        assert rank(field, pts + [extra]) >= base


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 1, 4) == 341
    for a in range(6):
        assert gaussian_binomial(a, 0, 3) == 1
        assert gaussian_binomial(a, a, 5) == 1


def test_gaussian_binomial_recurrence_and_q1_limit():
    # [a b]_q = [a-1 b-1]_q + q^b [a-1 b]_q; at q = 1 the same recurrence
    # generates Pascal's triangle, so the formal limit is the binomial
    for q in (2, 3, 4, 5):
        for a in range(1, 9):
            for b in range(1, a):
                assert gaussian_binomial(a, b, q) == (
                    gaussian_binomial(a - 1, b - 1, q)
                    + q**b * gaussian_binomial(a - 1, b, q)
                )

    def rec(a, b, q):
        if b in (0, a):
            return 1
        return rec(a - 1, b - 1, q) + q**b * rec(a - 1, b, q)

    for a in range(9):
        for b in range(a + 1):
            assert rec(a, b, 1) == math.comb(a, b)


def test_lines_of_pg32_enumerated():
    # 35 distinct lines, counted through their canonical RREF rows
    field = make_field(2, 1)
    pts = list(all_points(3, field))
    lines = {rref(field, pair) for pair in itertools.combinations(pts, 2)}
    assert len(lines) == gaussian_binomial(4, 2, 2) == 35


def test_rref_span_contains_and_dim():
    field = make_field(3, 1)
    rows, pivots = rref(field, [(1, 0, 1), (0, 1, 1)])
    assert len(rows) - 1 == 1 and pivots == (0, 1)  # a line
    X = PointSet.from_rows(field, 2, [(1, 0, 0), (1, 1, 2)])
    assert span_mask(rows, X).tolist() == [False, True]
    # canonical form ignores generator order and scaling
    assert rref(field, [(0, 2, 2), (1, 1, 2)]) == (rows, pivots)


def test_span_count_examples():
    F3 = make_field(3, 1)
    line = PointSet.from_rows(F3, 2, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)])
    count, members = span_count([(0, 0, 1), (0, 1, 0)], line)
    assert count == 4
    assert set(members) == set(map(tuple, line.array.tolist()))

    single, members = span_count([(0, 1, 2)], line)
    assert single == 1 and members == ((0, 1, 2),)

    curve = rational_normal_curve(4, make_field(5, 1))
    for triple in itertools.combinations(curve.array.tolist(), 3):
        assert span_count(list(triple), curve)[0] == 3


def test_pointset_construction_and_queries():
    field = make_field(3, 1)
    X = PointSet.from_rows(field, 2, [(1, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 1)])
    assert X.array.tolist() == [[0, 0, 1], [1, 1, 0]]  # deduped, sorted
    assert len(X) == 2
    assert [1, 1, 0] in X.array.tolist() and [1, 0, 0] not in X.array.tolist()
    assert X.truncated(1).array.tolist() == [[0, 0, 1]]
    assert len(X.truncated(5)) == 2 and len(X.truncated(0)) == 0
    with pytest.raises(ParameterError):
        X.truncated(-1)
    assert X == PointSet(field, 2, np.array([[0, 0, 1], [1, 1, 0]], dtype=np.int64))
    assert X != PointSet(field, 2, np.array([[0, 0, 1]], dtype=np.int64))


def test_from_rows_matches_sorted_set_of_rows():
    field = make_field(5, 1)
    pts = np.array(list(all_points(2, field)), dtype=np.int64)
    rng = np.random.default_rng(7)
    inputs = [pts, pts[::-1], pts[rng.permutation(len(pts))], pts[rng.integers(0, 31, 60)],
              np.sort(rng.integers(0, 31, 40)), pts[[0, 1, 1]], pts[[3, 2]], pts[:1], pts[:0]]
    for rows in inputs:
        if rows.ndim == 1:  # sorted indices with repeats: ascending, not strictly
            rows = pts[rows]
        want = sorted(set(map(tuple, rows.tolist())))
        X = PointSet.from_rows(field, 2, rows)
        assert X.array.tolist() == [list(pt) for pt in want]


def test_pointsets_keep_the_field_dtype():
    F3 = make_field(3, 1)
    wide = np.array([[1, 2, 0], [0, 0, 1]], dtype=np.int64)
    for X in (PointSet.from_rows(F3, 2, wide), PointSet.from_rows(F3, 2, wide.tolist()),
              PointSet(F3, 2, wide[::-1])):
        for Y in (X, X.truncated(1)):
            assert Y.array.dtype == F3.dtype == np.uint8 and not Y.array.flags.writeable
    assert wide.flags.writeable  # the trusted constructor cast a copy
    narrow = wide[::-1].astype(np.uint8)
    assert PointSet(F3, 2, narrow).array is narrow  # already in the field dtype: no copy


def test_from_rows_does_not_sort_strictly_ascending_rows(monkeypatch):
    field = make_field(5, 1)
    pts = np.array(list(all_points(2, field)), dtype=np.int64)

    def no_sort(keys):
        raise AssertionError("sorted")

    monkeypatch.setattr(projgeom, "sort_runs", no_sort)
    assert np.array_equal(PointSet.from_rows(field, 2, pts).array, pts)
    assert len(PointSet.from_rows(field, 2, pts[:1])) == 1
    for rows in (pts[::-1], pts[[0, 0]]):
        with pytest.raises(AssertionError, match="sorted"):
            PointSet.from_rows(field, 2, rows)


def scalar_spread(point, ext):
    """The rows beta^i * y, 0 <= i < N, by per-element field calls, reduced
    by the oracle's scalar Gauss-Jordan."""
    rows, scale = [], 1
    for _ in range(ext.N):
        rows.append([d for c in point for d in ext.coords(ext.mul(scale, c))])
        scale = ext.mul(scale, ext.beta)
    return _scalar_rref(ext.base, rows)[0]


def every_point(field, n):
    return PointSet.from_rows(field, n, list(all_points(n, field)))


def thinned(points: PointSet, most: int) -> PointSet:
    """Every k-th point, k chosen so that at most `most` remain."""
    return PointSet(points.field, points.n, points.array[::-(-len(points) // most)])


@pytest.mark.parametrize("p,k,N", [
    (2, 1, 2), (3, 1, 2), (2, 2, 3), (2, 2, 4), (2, 3, 4), (3, 1, 4), (5, 1, 3), (2, 1, 4),
])
def test_product_matches_scalar_reference(p, k, N):
    # each copy of x is sum x_i R_i over the scalar spread rows R of y,
    # formed by scalar base-field calls and normalized
    base = make_field(p, k)
    ext = make_extension(base, N)
    X = thinned(every_point(base, N - 1), 12)
    Y = thinned(every_point(ext, 1), 40)
    expected = []
    for y in Y.array.tolist():
        spread = scalar_spread(y, ext)
        assert len(spread) == N
        for x in X.array.tolist():
            image = [0] * (2 * N)
            for xi, row in zip(x, spread):
                image = [base.add(a, base.mul(xi, b)) for a, b in zip(image, row)]
            expected.append(normalize(base, image))
    assert product_construction(X, 2, Y, 1, validate=False) == \
        PointSet.from_rows(base, 2 * N - 1, expected)


@pytest.mark.parametrize("p,k,N", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_spread_partitions_space(p, k, N):
    # PG(1, q^N) -> q^N+1 pairwise disjoint (N-1)-spaces covering PG(2N-1, q):
    # the copies of all of PG(N-1, q) are all of PG(2N-1, q), none twice
    base = make_field(p, k)
    Z = product_construction(every_point(base, N - 1), 2,
                             every_point(make_extension(base, N), 1), 1, validate=False)
    assert Z == every_point(base, 2 * N - 1)


def test_product_degenerate_shapes():
    base = make_field(2, 1)
    # M = 1: the single point of PG(0, q^N) fills all of PG(N-1, q)
    ext = make_extension(base, 3)
    plane = every_point(base, 2)
    assert product_construction(plane, 2, PointSet.from_rows(ext, 0, [(1,)]), 1,
                                validate=False) == plane
    # N = 1: points map to themselves
    ident = make_extension(base, 1)
    one = PointSet.from_rows(base, 0, [(1,)])
    Y = PointSet.from_rows(ident, 2, [(1, 0, 1)])
    assert product_construction(one, 2, Y, 1, validate=False).array.tolist() == [[1, 0, 1]]
    # no points, no copies
    empty = PointSet.from_rows(ext, 1, np.zeros((0, 2), dtype=np.int64))
    Z = product_construction(plane, 2, empty, 1, validate=False)
    assert Z.n == 5 and Z.array.shape == (0, 6)


def test_product_refuses_zero_rows_and_prime_fields():
    base = make_field(3, 1)
    ext = make_extension(base, 2)
    X = every_point(base, 1)
    # the trusted constructor lets a zero row through; its copies are zero
    zero = PointSet(ext, 1, np.array([[0, 0], [1, 4]], dtype=np.int64))
    with pytest.raises(ParameterError, match="nonzero"):
        product_construction(X, 2, zero, 1, validate=False)
    with pytest.raises(ParameterError, match="extension"):
        product_construction(X, 2, PointSet.from_rows(base, 1, [(1, 2)]), 1, validate=False)


def test_product_copies_fill_their_spread_elements():
    base = make_field(2, 1)
    ext = make_extension(base, 4)
    Y = PointSet.from_rows(ext, 1, [(1, 3)])
    rows = scalar_spread(Y.array.tolist()[0], ext)  # a 3-space of PG(7, 2)
    ovoid = elliptic_ovoid(base)
    copy = product_construction(ovoid, 2, Y, 1, validate=False)
    assert len(copy) == len(ovoid)
    assert copy.n == 7
    assert span_mask(rows, copy).all()
    # the first unit vector lands on the first basis row
    e0 = PointSet.from_rows(base, 3, [(1, 0, 0, 0)])
    img = product_construction(e0, 2, Y, 1, validate=False)
    assert img.array.tolist() == [list(rows[0])]


@pytest.mark.parametrize("field", [make_field(2, 8), make_field(257, 1), make_field(2, 13),
                                   make_field(5003, 1)], ids=repr)
def test_rref_rank_and_basis_match_scalar_reference(field):
    # the kernel-backed paths against the oracle's scalar Gauss-Jordan;
    # 255 fills pivots and whole rows, and would wrap under uint8 arithmetic;
    # GF(2^13) and GF(5003) are past the 4096 elimination once stopped at
    rng = Prng(field.order)
    cases = [[], [(0, 0, 0, 0)], [(255, 255, 255, 255)], [(0, 255, 0, 1), (0, 0, 0, 0)]]
    for m in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [tuple(rng.below(field.order) for _ in range(4)) for _ in range(m)]
            rows[0] = (255,) + rows[0][1:]
            cases.append(rows)
            cases.append(rows + [rows[0]])  # rank-deficient
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for rows in cases:
        ref = _scalar_rref(field, rows)
        assert rref(field, rows) == ref
        assert rank(field, rows) == len(ref[0])
        X = PointSet.from_rows(field, 3, [normalize(field, v) for v in rows + units if any(v)])
        if ref[0]:
            inside = [pt for pt in X.array.tolist()
                      if len(_scalar_rref(field, (*ref[0], pt))[0]) == len(ref[0])]
            assert X.array[span_mask(rows, X)].tolist() == [list(pt) for pt in inside]
        else:
            with pytest.raises(ParameterError):
                span_mask(rows, X)
    assert rank(field, []) == 0 and rref(field, []) == ((), ())


def test_malformed_vectors_refused_before_elimination():
    F3 = make_field(3, 1)
    bad = {
        "ragged": [(1, 0, 0), (0, 1)],
        "out of range": [(0, 5, 0)],
        "negative": [(1, -1, 0)],
    }
    plane = PointSet.from_rows(F3, 2, [(0, 0, 1)])
    for rows in bad.values():
        for call in (lambda: rref(F3, rows), lambda: rank(F3, rows),
                     lambda: span_mask(rows, plane)):
            with pytest.raises(ParameterError):
                call()
    with pytest.raises(ParameterError):
        PointSet.from_rows(F3, 2, bad["ragged"])
    X = PointSet.from_rows(F3, 3, [(0, 0, 0, 1), (1, 0, 0, 0)])
    for rows in [[(1, 0, 0)], [(1, 0, 0, 0), (0, 1, 0)], [(1, 0, 0, 3)], []]:
        with pytest.raises(ParameterError):
            span_mask(rows, X)
    assert span_mask([(1, 0, 0, 0)], X).tolist() == [False, True]


def test_non_integer_coordinates_refused_not_truncated():
    # an int64 cast would read (1.5, 0, 0) as (1, 0, 0)
    F3 = make_field(3, 1)
    for rows in ([(1.5, 0, 0)], [(1.0, 0, 0)], np.array([[1.7, 2.2, 0]]),
                 np.array([[True, False, False]]), [(1, 0, 2.0**70)], [(True, 0, 2**70)],
                 np.array([[1.5, 0, 0]], dtype=object), np.array([[True, 0, 0]], dtype=object),
                 np.array([[1, "0", 0]], dtype=object)):
        for call in (lambda: rank(F3, rows), lambda: rref(F3, rows),
                     lambda: PointSet.from_rows(F3, 2, rows)):
            with pytest.raises(ParameterError, match="integer rows"):
                call()
    # any integer dtype is taken, and an empty float array is just empty
    assert rank(F3, np.array([[1, 2, 0]], dtype=np.uint8)) == 1
    assert len(PointSet.from_rows(F3, 2, np.zeros((0, 3)))) == 0


@pytest.mark.parametrize("field,row", [
    (make_field(2, 8), (1, -1, 0)),
    (make_field(2, 8), (1, 256, 0)),
    (make_field(3, 1), (1, 7, 0)),
    (make_field(7, 1), (1, 2**70, 0)),  # numpy infers object for it
    (make_field(7, 1), (1, 2**63, 0)),  # and float64 for this one
])
def test_from_rows_refuses_out_of_range_encodings(field, row):
    with pytest.raises(ParameterError, match="encodings in"):
        PointSet.from_rows(field, 2, [(0, 0, 1), row])


def test_from_rows_reads_python_ints_past_int64():
    # beside a small int, numpy infers float64 for 2^63, which cannot hold
    # 2^63 + 1; the rows are read as exact ints instead
    field = make_field(18446744073709551557, 1)  # the largest prime below 2^64
    for big in (2**63, 2**63 + 1, field.order - 1):
        X = PointSet.from_rows(field, 1, [[1, big], [0, 1]])
        assert X.array.dtype == np.uint64 and X.array.tolist() == [[0, 1], [1, big]]
