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
field's dtype.

The package has one elimination step, and the verifier's walk takes it
too: unit_pivots scales a row to 1 at its first nonzero column, and that
column is cleared from the other rows.  batch_rref takes the rows of a
matrix one at a time, for every matrix of the batch in lock step, and
then sorts the rows by pivot column.  A row that is zero in every matrix
takes no step, so one matrix takes at most its rank in full-array
passes, however tall it is.  batch_residues clears the points with the
finished rows the same way, up to the largest rank.
"""

from __future__ import annotations

import numpy as np

from .gf import array_mul, array_pow, array_sub_mul


def unit_pivots(field, rows: np.ndarray):
    """The pivot of each row of a (K, w) array, w >= 1: (cols, nonzero, units).

    cols[i] is the first nonzero column of row i (0 for a zero row),
    nonzero[i] whether the row has one, and units[i] the row scaled to 1
    at cols[i]; zero rows stay zero.
    """
    cols = (rows != 0).argmax(axis=1)
    lead = rows[np.arange(len(rows)), cols]
    return cols, lead != 0, array_mul(field, array_pow(field, lead, -1)[:, None], rows)


def batch_rref(field, mats: np.ndarray):
    """Reduce a batch of matrices to reduced row echelon form in place.

    mats has shape (B, m, w).  Returns (ranks, pivot_cols) where ranks is
    (B,) and pivot_cols is (B, m) holding the pivot column of each nonzero
    row in order, -1 past the rank.

    Row i, which the pivots of rows 0..i-1 have already cleared, is scaled
    to 1 at its first nonzero column, and that column is cleared from
    every other row.  A zero row clears nothing and takes no step.  The
    nonzero rows then go in pivot-column order, and the zero rows after
    them.
    """
    B, m, w = mats.shape
    pivot_cols = np.full((B, m), w, dtype=np.int64)  # w marks a zero row, which sorts last
    i = 0
    while True:
        # skip the rows that are zero in every matrix: they clear nothing,
        # so a single matrix takes at most min(m, w) steps
        nonzero_rows = mats[:, i:].any(axis=(0, 2))
        if not nonzero_rows.any():
            break
        i += int(nonzero_rows.argmax())
        cols, nonzero, units = unit_pivots(field, mats[:, i])
        f = np.take_along_axis(mats, cols[:, None, None], axis=2)
        mats[...] = array_sub_mul(field, mats, f, units[:, None, :])
        mats[:, i] = units
        pivot_cols[nonzero, i] = cols[nonzero]
        i += 1
    order = np.argsort(pivot_cols, axis=1)
    mats[...] = np.take_along_axis(mats, order[:, :, None], axis=1)
    pivot_cols = np.take_along_axis(pivot_cols, order, axis=1)
    ranks = (pivot_cols < w).sum(axis=1)
    pivot_cols[pivot_cols == w] = -1
    return ranks, pivot_cols


def batch_residues(field, rref_mats, pivot_cols, points):
    """Residue of each point modulo each row space of an RREF batch.

    rref_mats (B, m, w) must be output of batch_rref; points (N, w).
    Returns a (B, N, w) array, in the field's dtype, holding each point
    minus its combination of the RREF rows that clears the pivot columns.
    The residue is zero exactly when the point lies in the row space, and
    two points have proportional residues exactly when they span the same
    space together with the rows.
    """
    B, _, w = rref_mats.shape
    V = np.empty((B, points.shape[0], w), dtype=field.dtype)
    V[...] = points
    # a row past its matrix's rank is zero, so its pivot column -1 clears
    # nothing; the steps stop at the largest rank
    for step in range(int((pivot_cols >= 0).sum(axis=1).max(initial=0))):
        f = np.take_along_axis(V, pivot_cols[:, step, None, None], axis=2)
        V = array_sub_mul(field, V, f, rref_mats[:, step, None, :])
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
