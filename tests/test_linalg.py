"""Batched elimination cross-checked against the scalar implementation."""

import itertools

import numpy as np
import pytest

from evasive.gf import make_extension, make_field
from evasive.linalg import (
    batch_rref,
    batch_span_members,
    combination_batches,
    span_batch_size,
)
from evasive.projgeom import rank, rref
from evasive.randomized import Prng

FIELDS = [
    make_field(2, 1),
    make_field(3, 1),
    make_field(7, 1),
    make_field(2, 2),
    make_field(3, 2),
    pytest.param(make_extension(make_field(2, 1), 4), id="GF(2)^4"),  # equals GF(2^4)
]


def random_batch(field, B, m, w, seed):
    rng = Prng(seed)
    return np.array(
        [[[rng.below(field.order) for _ in range(w)] for _ in range(m)]
         for _ in range(B)],
        dtype=np.int64,
    )


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(40, 2, 4), (40, 3, 5), (25, 4, 4), (25, 5, 7)])
def test_batch_rank_matches_scalar(field, shape):
    B, m, w = shape
    mats = random_batch(field, B, m, w, seed=B * m * w)
    ranks = batch_rref(field, mats.copy())[0]
    for i in range(B):
        assert ranks[i] == rank(field, [tuple(r) for r in mats[i].tolist()])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_batch_rref_matches_scalar_rref(field):
    mats = random_batch(field, 60, 3, 5, seed=field.order)
    work = mats.copy()
    ranks, pivot_cols = batch_rref(field, work)
    for i in range(60):
        rows, pivots = rref(field, [tuple(r) for r in mats[i].tolist()])
        assert ranks[i] == len(rows)
        got = [tuple(r) for r in work[i, : ranks[i]].tolist()]
        assert got == list(rows)
        assert list(pivot_cols[i, : ranks[i]]) == list(pivots)
        assert (pivot_cols[i, ranks[i]:] == -1).all()
        # rows past the rank were eliminated to zero
        assert not work[i, ranks[i]:].any()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_batch_span_members_matches_scalar_membership(field):
    rng = Prng(99)
    q = field.order
    w = 5
    pts = np.array(
        [[rng.below(q) for _ in range(w)] for _ in range(12)], dtype=np.int64
    )
    pts[0, :] = 0
    pts[0, 0] = 1  # keep one known-nonzero row
    bases = random_batch(field, 30, 2, w, seed=7)
    work = bases.copy()
    ranks, pivot_cols = batch_rref(field, work)
    members = batch_span_members(field, work, pivot_cols, pts)
    assert members.shape == (30, 12)
    for i in range(30):
        basis_rows = [tuple(r) for r in bases[i].tolist()]
        base_rank = rank(field, basis_rows)
        for j in range(12):
            expect = rank(field, basis_rows + [tuple(pts[j].tolist())]) == base_rank
            assert members[i, j] == expect, (i, j)


def test_batch_rref_empty_and_zero_matrices():
    field = make_field(3, 1)
    mats = np.zeros((4, 3, 3), dtype=np.int64)
    mats[1] = np.eye(3, dtype=np.int64)
    mats[2, 0, 1] = 2
    ranks, pivot_cols = batch_rref(field, mats)
    assert list(ranks) == [0, 3, 1, 0]
    assert list(pivot_cols[2]) == [1, -1, -1]
    # pivot row was normalized to leading 1
    assert mats[2, 0, 1] == 1


def test_combination_batches_covers_lex_order():
    batches = list(combination_batches(6, 3, batch_size=7))
    assert all(b.shape[1] == 3 for b in batches)
    assert [len(b) for b in batches] == [1, 2, 4, 7, 6]  # doubling up to the cap
    flat = [tuple(row) for b in batches for row in b.tolist()]
    assert flat == list(itertools.combinations(range(6), 3))


def test_combination_batches_degenerate():
    assert [b.tolist() for b in combination_batches(3, 5, 10)] == []
    only = list(combination_batches(4, 4, 10))
    assert len(only) == 1 and only[0].tolist() == [[0, 1, 2, 3]]


def test_span_batch_size_bounds():
    assert 1 <= span_batch_size(10, 4) <= 4096
    assert span_batch_size(100000, 50, cell_budget=100) == 1
    # never exceeds the cell budget except at the floor of one subset
    b = span_batch_size(1000, 8, cell_budget=50_000)
    assert b * 1000 * 8 <= 50_000 or b == 1
