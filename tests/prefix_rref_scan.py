"""The verifier's former scan, kept as a test reference: one RREF per prefix.

For every prefix P (the first m-1 points of an m-subset, in lex order) it
eliminates P with linalg.batch_rref, reduces all N points modulo <P> with
linalg.batch_residues, and groups the residues of all N points by a
lexsort.  Then |X ∩ <P, p_j>| = |X ∩ <P>| + |class of j| for p_j ∉ <P>.
Since batch_rref takes its rows one at a time with the walk's step, the
two share linalg.unit_pivots, which picks and scales each pivot; the
scan's prefix bookkeeping, its layer counts and its grouping share
nothing with the walk, so the walk's maxima, witnesses and first
violations can be compared with it on the same inputs.  The independent
reference for the elimination itself stays oracle.scalar_rref, which
test_linalg and test_linalg_properties check batch_rref and
batch_residues against.
"""

import itertools

import numpy as np

from evasive import linalg
from evasive.gf import array_mul, array_pow

BATCH = 64  # prefixes per batch


def class_sizes(field, R):
    """For residues R (B, N, w): how many rows of R[b] are proportional to R[b, j]."""
    B, N, _ = R.shape
    lead = np.take_along_axis(R, (R != 0).argmax(axis=2)[:, :, None], axis=2)
    R = array_mul(field, R, array_pow(field, lead, -1))
    order = np.lexsort(np.moveaxis(R, 2, 0))
    sR = np.take_along_axis(R, order[:, :, None], axis=1)
    new = np.ones((B, N), dtype=bool)
    new[:, 1:] = (sR[:, 1:] != sR[:, :-1]).any(axis=2)
    run = np.cumsum(new.ravel()) - 1
    sizes = np.empty((B, N), dtype=np.int64)
    np.put_along_axis(sizes, order, np.bincount(run)[run].reshape(B, N), axis=1)
    return sizes


def span_counts(X, m):
    """Yield (prefixes (B, m-1), counts (B, N)); counts is -1 where j <= max(P)."""
    N = len(X)
    field = X.field
    arr = X.array
    cols = np.arange(N)
    combos = itertools.combinations(range(N - 1), m - 1)
    while chunk := list(itertools.islice(combos, BATCH)):
        P = np.asarray(chunk, dtype=np.int64).reshape(len(chunk), m - 1)
        mats = arr[P]
        _, pivots = linalg.batch_rref(field, mats)
        R = linalg.batch_residues(field, mats, pivots, arr)
        inside = ~R.any(axis=2)
        counts = inside.sum(axis=1)[:, None] + np.where(inside, 0, class_sizes(field, R))
        last = P[:, -1] if m > 1 else np.full(len(P), -1)
        counts[cols[None, :] <= last[:, None]] = -1
        yield P, counts


def max_subset(X, s):
    """(max |X ∩ <B>| over m-subsets B, the lex-first B attaining it)."""
    best, best_idx = -1, None
    for P, counts in span_counts(X, min(s + 1, len(X))):
        b, j = divmod(int(counts.argmax()), len(X))
        if counts[b, j] > best:
            best, best_idx = int(counts[b, j]), (*P[b].tolist(), j)
    return best, best_idx


def first_violation(X, dim, limit):
    """The lex-first m-subset whose span holds more than limit points, or None."""
    if len(X) <= limit:
        return None
    for P, counts in span_counts(X, min(dim + 1, len(X))):
        hits = np.flatnonzero(counts > limit)
        if len(hits):
            b, j = divmod(int(hits[0]), len(X))
            return (*P[b].tolist(), j)
    return None
