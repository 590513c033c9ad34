"""Batched exact Gaussian elimination over finite fields of any order.

Matrices are numpy arrays of field-element encodings in any integer dtype,
and every arithmetic step goes through gf's elementwise ops, so the same
code path serves prime fields, prime-power fields, and towers.  Products
go through gf.array_mul, each x - f*y through gf.array_sub_mul and pivot
inverses through gf.array_pow(field, pivots, -1): up to q = 256 products
read q x q tables, above it the field's O(q) logs, which inverses read at
every order, and in characteristic 2 the subtraction is an XOR.  Like
gf's ops, these functions build the field's logs with no limit on q, so
callers bound q first.  Results, residues included, come out in the
field's dtype.  Batches are eliminated in lock step: one pass over the
columns, with per-matrix pivot bookkeeping carried in index arrays.
"""

from __future__ import annotations

import numpy as np

from .gf import array_mul, array_pow, array_sub_mul


def batch_rref(field, mats: np.ndarray):
    """Reduce a batch of matrices to reduced row echelon form in place.

    mats has shape (B, m, w).  Returns (ranks, pivot_cols) where ranks is
    (B,) and pivot_cols is (B, m) holding the pivot column of each nonzero
    row in order, -1 past the rank.
    """
    B, m, w = mats.shape
    row = np.zeros(B, dtype=np.int64)
    pivot_cols = np.full((B, m), -1, dtype=np.int64)
    rows_idx = np.arange(m, dtype=np.int64)
    batch_idx = np.arange(B, dtype=np.int64)
    for col in range(w):
        active = row < m
        cand = (mats[:, :, col] != 0) & (rows_idx[None, :] >= row[:, None]) & active[:, None]
        has = cand.any(axis=1)
        if not has.any():
            continue
        sel = batch_idx[has]
        prow = cand[has].argmax(axis=1)
        rsel = row[has]
        swap = prow != rsel
        if swap.any():
            ssel, sr, sp = sel[swap], rsel[swap], prow[swap]
            tmp = mats[ssel, sr].copy()
            mats[ssel, sr] = mats[ssel, sp]
            mats[ssel, sp] = tmp
        pv = mats[sel, rsel, col]
        mats[sel, rsel] = array_mul(field, array_pow(field, pv, -1)[:, None], mats[sel, rsel])
        factors = mats[sel, :, col]
        factors[np.arange(len(sel)), rsel] = 0  # leave the pivot row itself alone
        mats[sel] = array_sub_mul(field, mats[sel], factors[:, :, None],
                                  mats[sel, rsel][:, None, :])
        pivot_cols[sel, rsel] = col
        row[has] += 1
        if (row == m).all():
            break
    return row, pivot_cols


def batch_residues(field, rref_mats, pivot_cols, points):
    """Residue of each point modulo each row space of an RREF batch.

    rref_mats (B, m, w) must be output of batch_rref; points (N, w).
    Returns a (B, N, w) array, in the field's dtype, holding each point
    minus its combination of the RREF rows that clears the pivot columns.
    The residue is zero exactly when the point lies in the row space, and
    two points have proportional residues exactly when they span the same
    space together with the rows.
    """
    B, m, w = rref_mats.shape
    N = points.shape[0]
    V = np.empty((B, N, w), dtype=field.dtype)
    V[...] = points
    for step in range(m):
        cols = pivot_cols[:, step]
        live = cols >= 0
        if not live.any():
            break
        c = np.where(live, cols, 0)
        f = np.take_along_axis(V, c[:, None, None], axis=2)[:, :, 0]
        rrow = np.where(live[:, None], rref_mats[:, step, :], 0)
        V = array_sub_mul(field, V, f[:, :, None], rrow[:, None, :])
    return V


# batch_span_members reduces points in chunks of B x chunk x w residue
# cells that take at most this many bytes as intp, the gathers' index dtype
MEMBER_CHUNK_BYTES = 2**17


def batch_span_members(field, rref_mats, pivot_cols, points):
    """Membership of each point in each row space of an RREF batch.

    rref_mats (B, m, w) must be output of batch_rref; points (N, w).
    Returns a boolean (B, N) array, reducing the points in chunks.
    """
    B, _, w = rref_mats.shape
    step = max(1, MEMBER_CHUNK_BYTES // max(1, B * w * np.dtype(np.intp).itemsize))
    out = np.empty((B, len(points)), dtype=bool)
    for i in range(0, len(points), step):
        residues = batch_residues(field, rref_mats, pivot_cols, points[i:i + step])
        out[:, i:i + step] = (residues == 0).all(axis=2)
    return out
