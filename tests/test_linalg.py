"""Batched elimination cross-checked against the oracle's scalar Gauss-Jordan.

oracle.scalar_rref (tests/oracle.py) eliminates by per-element field
calls and shares no code with linalg or projgeom, so these references
never check the kernels against themselves (projgeom's rank and rref run
batch_rref).
"""

import numpy as np
import pytest
from oracle import scalar_rref

from evasive import linalg
from evasive.gf import make_extension, make_field
from evasive.linalg import (
    batch_residues,
    batch_rref,
    batch_span_members,
)
from evasive.projgeom import rank
from evasive.randomized import Prng

FIELDS = [
    make_field(2, 1),
    make_field(3, 1),
    make_field(7, 1),
    make_field(2, 2),
    make_field(3, 2),
    pytest.param(make_extension(make_field(2, 1), 4), id="GF(2)^4"),  # equals GF(2^4)
]


def scalar_rank(field, vectors):
    return len(scalar_rref(field, vectors)[0])


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
        rows, pivots = scalar_rref(field, mats[i].tolist())
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


@pytest.mark.parametrize("chunk_bytes", [1, 2 * 96, 5 * 96, 2**30])
def test_batch_span_members_chunks_agree_with_one_pass(monkeypatch, chunk_bytes):
    # 3 row spaces of width 4 take 96 intp bytes a point: chunks of 1, 2,
    # 5 and all 23 points
    field = make_field(7, 1)
    bases = random_batch(field, 3, 2, 4, seed=5)
    _, pivot_cols = batch_rref(field, bases)
    pts = random_batch(field, 1, 23, 4, seed=6)[0]
    pts[::4] = bases[0, 0]  # members of the first row space
    expect = (batch_residues(field, bases, pivot_cols, pts) == 0).all(axis=2)
    monkeypatch.setattr(linalg, "MEMBER_CHUNK_BYTES", chunk_bytes)
    members = batch_span_members(field, bases, pivot_cols, pts)
    assert members.shape == (3, 23) and members[0, ::4].all()
    assert np.array_equal(members, expect)
    assert batch_span_members(field, bases[:0], pivot_cols[:0], pts).shape == (0, 23)


@pytest.mark.parametrize("field", [make_field(2, 8), make_field(257, 1)], ids=repr)
def test_kernels_agree_across_input_dtypes(field):
    # uint8 encodings at q = 256, uint16 at 257; encoding 255 would wrap
    # under uint8 arithmetic, so it fills pivots, whole rows and points
    dtype = field.dtype
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
        rows, piv = scalar_rref(field, mats[i].tolist())
        assert [tuple(r) for r in wide[i, :ranks[i]].tolist()] == list(rows)
        assert pivots[i, :ranks[i]].tolist() == list(piv)
        for j, point in enumerate(pts.tolist()):
            # the residue is the one vector congruent to the point modulo
            # the row space that vanishes on every pivot column
            residue = residues[i, j].tolist()
            assert all(residue[c] == 0 for c in piv)
            diff = tuple(field.sub(a, b) for a, b in zip(point, residue))
            assert scalar_rank(field, rows + (diff,)) == len(rows)


# above the uint8 boundary products read the logs and sums the digits (or
# XOR): primes, odd prime powers, characteristic 2 and a tower over GF(9)
ABOVE_UINT8 = [make_field(257, 1), make_field(4093, 1), make_field(17, 2), make_field(3, 6),
               make_field(2, 10), make_extension(make_field(3, 2), 3)]


@pytest.mark.parametrize("field", ABOVE_UINT8, ids=repr)
def test_kernels_above_uint8_match_scalar(field):
    q = field.order
    mats = random_batch(field, 24, 3, 5, seed=q)
    mats[::3, 0, 0] = 0  # a zero where a pivot would be
    mats[1::3, 2] = mats[1::3, 0]  # rank-deficient
    mats[2::6, 1] = [[field.mul(q - 1, x) for x in row] for row in mats[2::6, 0].tolist()]
    mats[4::6, :, 1] = q - 1
    mats[5::6] = 0
    work = mats.copy()
    ranks, pivot_cols = batch_rref(field, work)
    pts = random_batch(field, 1, 12, 5, seed=q + 1)[0]
    pts[0] = 0
    pts[1] = mats[0, 1]  # inside the first row space
    members = batch_span_members(field, work, pivot_cols, pts)
    assert sorted(set(ranks.tolist())) == [0, 2, 3]
    for i in range(len(mats)):
        rows, pivots = scalar_rref(field, mats[i].tolist())
        assert rank(field, mats[i]) == ranks[i] == len(rows)
        assert [tuple(r) for r in work[i, :ranks[i]].tolist()] == list(rows)
        assert pivot_cols[i, :ranks[i]].tolist() == list(pivots)
        assert not work[i, ranks[i]:].any()
        for j, point in enumerate(pts.tolist()):
            assert members[i, j] == (scalar_rank(field, rows + (tuple(point),)) == len(rows))
    assert members[:, 0].all() and members[0, 1]


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



def test_tall_and_dependent_rows_take_one_pass_per_pivot(monkeypatch):
    # a single matrix takes one full-array pass per pivot, however many
    # rows it has: 4097 rows of width 4, of rank 3, the last row needed
    # for the span; and residues stop at the largest rank of the batch
    field = make_field(2, 6)
    rng = np.random.default_rng(1)
    mats = rng.integers(1, 64, (1, 4097, 4))
    mats[0, :, 2:] = 0
    mats[0, -1] = (0, 0, 1, 5)
    expect = scalar_rref(field, [tuple(mats[0, i].tolist()) for i in (0, 1, -1)])
    passes = []
    sub_mul = linalg.array_sub_mul
    monkeypatch.setattr(linalg, "array_sub_mul",
                        lambda *args: passes.append(args[1].shape) or sub_mul(*args))
    ranks, pivot_cols = batch_rref(field, mats)
    assert passes == [(1, 4097, 4)] * 3
    assert list(ranks) == [3] and pivot_cols[0, :4].tolist() == [0, 1, 2, -1]
    assert mats[0, :3].tolist() == [list(row) for row in expect[0]]
    assert not mats[0, 3:].any()
    passes.clear()
    residues = batch_residues(field, mats[:, :40], pivot_cols[:, :40], np.eye(4, dtype=np.int64))
    assert len(passes) == 3
    assert residues[0].tolist() == [[0] * 4, [0] * 4, [0, 0, 0, 5], [0, 0, 0, 1]]
