"""Projective points, subspaces, counting, and field reduction."""

import itertools
import math

import numpy as np
import pytest

from evasive.constructions import elliptic_ovoid, rational_normal_curve
from evasive.errors import BudgetExceeded, ParameterError
from evasive.gf import make_extension, make_field
from evasive.projgeom import (
    PointSet,
    SubspaceBasis,
    all_points,
    count_points,
    embed_copy,
    field_reduction_spread,
    gaussian_binomial,
    normalize,
    rank,
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
    normed = t.mul[t.inv[lead][:, None], vecs]
    for lam in range(1, q):
        scaled = t.mul[lam, vecs]
        s_first = (scaled != 0).argmax(axis=1)
        s_lead = scaled[np.arange(len(scaled)), s_first]
        s_normed = t.mul[t.inv[s_lead][:, None], scaled]
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
    # 35 distinct lines, counted through canonical SubspaceBasis forms
    field = make_field(2, 1)
    pts = list(all_points(3, field))
    lines = {SubspaceBasis.from_vectors(field, 3, pair)
             for pair in itertools.combinations(pts, 2)}
    assert len(lines) == gaussian_binomial(4, 2, 2) == 35


def test_subspace_basis_contains_and_dim():
    field = make_field(3, 1)
    basis = SubspaceBasis.from_vectors(field, 2, [(1, 0, 1), (0, 1, 1)])
    assert basis.dim == 1
    X = PointSet.from_rows(field, 2, [(1, 0, 0), (1, 1, 2)])
    assert span_mask(basis.rows, X).tolist() == [False, True]
    # canonical form ignores generator order and scaling
    same = SubspaceBasis.from_vectors(field, 2, [(0, 2, 2), (1, 1, 2)])
    assert basis == same


def test_span_count_examples():
    F3 = make_field(3, 1)
    line = PointSet.from_rows(F3, 2, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)])
    count, members = span_count([(0, 0, 1), (0, 1, 0)], line)
    assert count == 4
    assert set(members) == set(line.points)

    single, members = span_count([(0, 1, 2)], line)
    assert single == 1 and members == ((0, 1, 2),)

    curve = rational_normal_curve(4, make_field(5, 1))
    for triple in itertools.combinations(curve.points, 3):
        assert span_count(list(triple), curve)[0] == 3


def test_pointset_construction_and_queries():
    field = make_field(3, 1)
    X = PointSet.from_rows(field, 2, [(1, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 1)])
    assert X.points == ((0, 0, 1), (1, 1, 0))  # deduped, sorted
    assert len(X) == 2
    assert (1, 1, 0) in X and (1, 0, 0) not in X
    assert X.truncated(1).points == ((0, 0, 1),)
    assert len(X.truncated(5)) == 2 and len(X.truncated(0)) == 0
    with pytest.raises(ParameterError):
        X.truncated(-1)
    assert X == PointSet(field, 2, np.array([[0, 0, 1], [1, 1, 0]], dtype=np.int64))
    assert X != PointSet(field, 2, np.array([[0, 0, 1]], dtype=np.int64))


@pytest.mark.parametrize("p,k,N", [(2, 1, 2), (3, 1, 2)])
def test_spread_partitions_space(p, k, N):
    # PG(1, q^2) -> q^2+1 pairwise disjoint lines covering PG(3, q)
    base = make_field(p, k)
    ext = make_extension(base, N)
    elements = [field_reduction_spread(pt, ext) for pt in all_points(1, ext)]
    q = base.order
    assert len(elements) == q**2 + 1
    seen = set()
    space = PointSet.from_rows(base, 2 * N - 1, list(all_points(2 * N - 1, base)))
    for el in elements:
        assert el.dim == N - 1
        pts = space.array[span_mask(el.rows, space)]
        pts = list(map(tuple, pts.tolist()))
        assert len(pts) == q + 1
        assert not seen & set(pts)
        seen.update(pts)
    assert len(seen) == count_points(2 * N - 1, q)


def test_spread_degenerate_shapes():
    base = make_field(2, 1)
    # M = 1: the single point of PG(0, q^N) fills all of PG(N-1, q)
    ext = make_extension(base, 3)
    el = field_reduction_spread((1,), ext)
    assert el.dim == 2
    # N = 1: points map to themselves
    ident = make_extension(base, 1)
    el = field_reduction_spread((1, 0, 1), ident)
    assert el.dim == 0 and el.rows == ((1, 0, 1),)


def test_embed_copy_shapes_and_membership():
    base = make_field(2, 1)
    ext = make_extension(base, 4)
    spread_el = field_reduction_spread((1, 3), ext)  # a 3-space of PG(7,2)
    ovoid = elliptic_ovoid(base)
    copy = embed_copy(ovoid, spread_el)
    assert len(copy) == len(ovoid)
    assert copy.n == 7
    assert span_mask(spread_el.rows, copy).all()
    # the first unit vector lands on the first basis row
    e0 = PointSet.from_rows(base, 3, [(1, 0, 0, 0)])
    img = embed_copy(e0, spread_el)
    assert img.points == (spread_el.rows[0],)


@pytest.mark.parametrize("field", [make_field(2, 8), make_field(257, 1)], ids=repr)
def test_rref_rank_and_basis_match_scalar_reference(field):
    # the kernel-backed paths against the oracle's scalar Gauss-Jordan;
    # 255 fills pivots and whole rows, and would wrap under uint8 arithmetic
    rng = Prng(field.order)
    cases = [[], [(0, 0, 0, 0)], [(255, 255, 255, 255)], [(0, 255, 0, 1), (0, 0, 0, 0)]]
    for m in (1, 2, 3, 4, 5):
        for _ in range(6):
            rows = [tuple(rng.below(field.order) for _ in range(4)) for _ in range(m)]
            rows[0] = (255,) + rows[0][1:]
            cases.append(rows)
            cases.append(rows + [rows[0]])  # rank-deficient
    for rows in cases:
        ref = _scalar_rref(field, rows)
        assert rref(field, rows) == ref
        assert rank(field, rows) == len(ref[0])
        if ref[0]:
            basis = SubspaceBasis.from_vectors(field, 3, rows)
            assert (basis.rows, basis.pivots) == ref
        else:
            with pytest.raises(ParameterError):
                SubspaceBasis.from_vectors(field, 3, rows)
    assert rank(field, []) == 0 and rref(field, []) == ((), ())


def test_elimination_refused_above_table_limit():
    field = make_field(2, 13)  # 8192 > TABLE_LIMIT
    rows = [(1, 0, 0), (0, 1, 8191)]
    for call in (lambda: rref(field, rows), lambda: rank(field, rows),
                 lambda: SubspaceBasis.from_vectors(field, 2, rows)):
        with pytest.raises(ParameterError, match="TABLE_LIMIT"):
            call()


def test_malformed_vectors_refused_before_elimination():
    F3 = make_field(3, 1)
    bad = {
        "ragged": [(1, 0, 0), (0, 1)],
        "out of range": [(0, 5, 0)],
        "negative": [(1, -1, 0)],
    }
    for rows in bad.values():
        for call in (lambda: rref(F3, rows), lambda: rank(F3, rows),
                     lambda: SubspaceBasis.from_vectors(F3, 2, rows)):
            with pytest.raises(ParameterError):
                call()
    with pytest.raises(ParameterError):
        SubspaceBasis.from_vectors(F3, 3, [(1, 0, 0)])  # wrong width
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
                 np.array([[True, False, False]]), [(1, 0, 2**70)]):
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
])
def test_from_rows_refuses_out_of_range_encodings(field, row):
    with pytest.raises(ParameterError, match="encodings in"):
        PointSet.from_rows(field, 2, [(0, 0, 1), row])
