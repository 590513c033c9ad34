"""Batched exact Gaussian elimination over small finite fields.

Matrices are numpy arrays of field-element encodings in any integer dtype,
and every arithmetic step goes through the field's lookup tables, so the
same code path serves prime fields, prime-power fields, and towers.
Lookups, residues included, come out in the tables' dtype (see gf).
x - f*y is computed as x + (-f)*y, negating the small factor array through
the neg table.  Batches are eliminated in lock step: one pass over the
columns, with per-matrix pivot bookkeeping carried in index arrays.
"""

from __future__ import annotations

import itertools

import numpy as np


def batch_rref(field, mats: np.ndarray):
    """Reduce a batch of matrices to reduced row echelon form in place.

    mats has shape (B, m, w).  Returns (ranks, pivot_cols) where ranks is
    (B,) and pivot_cols is (B, m) holding the pivot column of each nonzero
    row in order, -1 past the rank.
    """
    t = field.tables()
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
        mats[sel, rsel] = t.mul[mats[sel, rsel], t.inv[pv][:, None]]
        factors = mats[sel, :, col]
        factors[np.arange(len(sel)), rsel] = 0  # leave the pivot row itself alone
        delta = t.mul[t.neg[factors][:, :, None], mats[sel, rsel][:, None, :]]
        mats[sel] = t.add[mats[sel], delta]
        pivot_cols[sel, rsel] = col
        row[has] += 1
        if (row == m).all():
            break
    return row, pivot_cols


def batch_residues(field, rref_mats, pivot_cols, points):
    """Residue of each point modulo each row space of an RREF batch.

    rref_mats (B, m, w) must be output of batch_rref; points (N, w).
    Returns a (B, N, w) array, in the tables' dtype, holding each point
    minus its combination of the RREF rows that clears the pivot columns.
    The residue is zero exactly when the point lies in the row space, and
    two points have proportional residues exactly when they span the same
    space together with the rows.
    """
    t = field.tables()
    B, m, w = rref_mats.shape
    N = points.shape[0]
    V = np.empty((B, N, w), dtype=t.add.dtype)
    V[...] = points
    for step in range(m):
        cols = pivot_cols[:, step]
        live = cols >= 0
        if not live.any():
            break
        c = np.where(live, cols, 0)
        f = np.take_along_axis(V, c[:, None, None], axis=2)[:, :, 0]
        rrow = np.where(live[:, None], rref_mats[:, step, :], 0)
        V = t.add[V, t.mul[t.neg[f][:, :, None], rrow[:, None, :]]]
    return V


def batch_span_members(field, rref_mats, pivot_cols, points):
    """Membership of each point in each row space of an RREF batch.

    rref_mats (B, m, w) must be output of batch_rref; points (N, w).
    Returns a boolean (B, N) array.
    """
    return (batch_residues(field, rref_mats, pivot_cols, points) == 0).all(axis=2)


def combination_batches(n: int, m: int, batch_size: int):
    """Index arrays (B, m) covering C(n, m) in lexicographic order.

    Batches grow 1, 2, 4, ... up to batch_size, so a scan that stops at
    its first hit pays for little more work than it needed.
    """
    it = itertools.combinations(range(n), m)
    size = 1
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield np.asarray(chunk, dtype=np.int64)
        size = min(2 * size, batch_size)


def span_batch_size(num_points: int, width: int, cell_budget: int = 4_000_000) -> int:
    """Batch size keeping the (B, N, w) residue workspace near cell_budget."""
    return max(1, min(4096, cell_budget // max(1, num_points * width)))
