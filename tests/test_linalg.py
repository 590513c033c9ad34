"""Batched elimination cross-checked against the oracle's scalar Gauss-Jordan.

verifier._scalar_rref is the package's one elimination by per-element
field calls and shares no code with linalg, so these references never
check the kernels against themselves (projgeom's rank and rref run
batch_rref).
"""

import itertools

import numpy as np
import pytest

from evasive.gf import make_extension, make_field
from evasive.linalg import (
    batch_residues,
    batch_rref,
    batch_span_members,
    combination_batches,
    span_batch_size,
)
from evasive.randomized import Prng
from evasive.verifier import _scalar_rref

FIELDS = [
    make_field(2, 1),
    make_field(3, 1),
    make_field(7, 1),
    make_field(2, 2),
    make_field(3, 2),
    pytest.param(make_extension(make_field(2, 1), 4), id="GF(2)^4"),  # equals GF(2^4)
]


def scalar_rank(field, vectors):
    return len(_scalar_rref(field, vectors)[0])


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
        assert ranks[i] == scalar_rank(field, mats[i].tolist())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_batch_rref_matches_scalar_rref(field):
    mats = random_batch(field, 60, 3, 5, seed=field.order)
    work = mats.copy()
    ranks, pivot_cols = batch_rref(field, work)
    for i in range(60):
        rows, pivots = _scalar_rref(field, mats[i].tolist())
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
        base_rank = scalar_rank(field, basis_rows)
        for j in range(12):
            expect = scalar_rank(field, basis_rows + [tuple(pts[j].tolist())]) == base_rank
            assert members[i, j] == expect, (i, j)


@pytest.mark.parametrize("field", [make_field(2, 8), make_field(257, 1)], ids=repr)
def test_kernels_agree_across_input_dtypes(field):
    # uint8 tables at q = 256, uint16 at 257; encoding 255 would wrap under
    # uint8 arithmetic, so it fills pivots, whole rows and points
    dtype = field.tables().add.dtype
    assert dtype == (np.uint8 if field.order == 256 else np.uint16)
    mats = random_batch(field, 40, 3, 5, seed=field.order)
    mats[::4, 0, 0] = 255
    mats[1::4, 1] = 255
    mats[2::4, 2] = mats[2::4, 0]  # rank-deficient
    mats[3::8] = 0
    pts = random_batch(field, 1, 30, 5, seed=3)[0]
    pts[:3] = 255
    pts[3] = mats[0, 1]  # inside the first row space
    wide, narrow = mats.copy(), mats.astype(dtype)
    ranks, pivots = batch_rref(field, wide)
    narrow_ranks, narrow_pivots = batch_rref(field, narrow)
    assert narrow.dtype == dtype
    assert np.array_equal(ranks, narrow_ranks) and np.array_equal(pivots, narrow_pivots)
    assert np.array_equal(wide, narrow)
    residues = batch_residues(field, wide, pivots, pts)
    narrow_residues = batch_residues(field, narrow, narrow_pivots, pts.astype(dtype))
    assert residues.dtype == narrow_residues.dtype == dtype
    assert np.array_equal(residues, narrow_residues)
    assert not residues[0, 3].any()
    for i in range(len(mats)):
        rows, piv = _scalar_rref(field, mats[i].tolist())
        assert [tuple(r) for r in wide[i, :ranks[i]].tolist()] == list(rows)
        assert pivots[i, :ranks[i]].tolist() == list(piv)
        for j, point in enumerate(pts.tolist()):
            # the residue is the one vector congruent to the point modulo
            # the row space that vanishes on every pivot column
            residue = residues[i, j].tolist()
            assert all(residue[c] == 0 for c in piv)
            diff = tuple(field.sub(a, b) for a, b in zip(point, residue))
            assert scalar_rank(field, rows + (diff,)) == len(rows)


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
