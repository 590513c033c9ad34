"""Property test: batch_rref and batch_residues against the oracle's scalar Gauss-Jordan.

Batches of random shape, with more rows than columns, no matrices or no
rows, zero and repeated rows, and later rows whose pivot lies left of an
earlier row's, which batch_rref's final reordering puts first.  Needs
hypothesis (the `test` extra); skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracle import scalar_rref  # noqa: E402

from evasive.gf import make_field  # noqa: E402
from evasive.linalg import batch_residues, batch_rref  # noqa: E402

# characteristic 2 and odd, prime and prime power, and one order above
# uint8, whose products read the logs
FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(7, 1),
          make_field(3, 2), make_field(257, 1)]


@st.composite
def rows_of(draw, field, count, width, earlier=()):
    """count rows of width entries: random, zero, a multiple of an earlier
    row, or a nonzero entry after a drawn number of leading zeros."""
    q = field.order
    entry = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1]))
    rows = list(earlier)
    for _ in range(count):
        kind = draw(st.sampled_from(["random", "zero", "multiple", "shifted"]))
        if kind == "zero" or not width:
            row = [0] * width
        elif kind == "multiple" and rows:
            c = draw(st.integers(1, q - 1))
            row = [field.mul(c, x) for x in draw(st.sampled_from(rows))]
        elif kind == "shifted":
            z = draw(st.integers(0, width - 1))
            row = [0] * z + [draw(st.integers(1, q - 1))] + \
                draw(st.lists(entry, min_size=width - z - 1, max_size=width - z - 1))
        else:
            row = draw(st.lists(entry, min_size=width, max_size=width))
        rows.append(row)
    return rows[len(earlier):]


@st.composite
def batches(draw):
    """(field, mats (B, m, w), points (N, w)); some points lie in the first row space."""
    field = draw(st.sampled_from(FIELDS))
    B, m, w = draw(st.integers(0, 4)), draw(st.integers(0, 6)), draw(st.integers(0, 5))
    mats = [draw(rows_of(field, m, w)) for _ in range(B)]
    points = draw(rows_of(field, draw(st.integers(0, 5)), w, mats[0] if B else ()))
    dtype = draw(st.sampled_from([np.int64, field.dtype]))
    return (field, np.array(mats, dtype=dtype).reshape(B, m, w),
            np.array(points, dtype=dtype).reshape(len(points), w))


# pivots at columns 2, 1, 0 in row order, and a zero row between them
@example(case=(make_field(3, 1),
               np.array([[[0, 0, 1, 2], [0, 1, 2, 0], [0, 0, 0, 0], [2, 1, 0, 1]]]),
               np.array([[1, 1, 1, 1], [0, 0, 1, 2]])))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=batches())
def test_batch_rref_and_residues_match_scalar_rref(case):
    field, mats, points = case
    B, m, w = mats.shape
    work = mats.copy()
    ranks, pivot_cols = batch_rref(field, work)
    assert ranks.shape == (B,) and pivot_cols.shape == (B, m)
    residues = batch_residues(field, work, pivot_cols, points)
    assert residues.shape == (B, len(points), w) and residues.dtype == field.dtype
    for b in range(B):
        rows, pivots = scalar_rref(field, mats[b].tolist())
        r = len(rows)
        assert ranks[b] == r
        assert [tuple(row) for row in work[b, :r].tolist()] == list(rows)
        assert pivot_cols[b, :r].tolist() == list(pivots)
        assert (pivot_cols[b, r:] == -1).all() and not work[b, r:].any()
        for point, residue in zip(points.tolist(), residues[b].tolist()):
            # the residue is the one vector congruent to the point modulo
            # the row space that vanishes on every pivot column
            assert all(residue[c] == 0 for c in pivots)
            diff = [field.sub(x, y) for x, y in zip(point, residue)]
            assert len(scalar_rref(field, (*rows, diff))[0]) == r
