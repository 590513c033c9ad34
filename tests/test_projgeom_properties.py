"""Property test: the packed row key orders and groups rows as their columns do.

Needs hypothesis (the `test` extra); skipped without it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from evasive.projgeom import _rises, row_keys, sort_runs  # noqa: E402

# (base, dtype, width, words without a lead): every field dtype, one cell
# a word at p = 2^64 - 59, a PG(8, 256) row, which takes 72 bits, and the
# int64 edge labels of a graph, whose one-word keys pass 2^53
KEY_CASES = [
    (2, np.uint8, 9, 1),
    (3, np.uint8, 5, 1),
    (16, np.uint8, 4, 1),
    (256, np.uint8, 4, 1),
    (256, np.uint8, 9, 2),
    (65521, np.uint16, 4, 1),
    (4294967291, np.uint32, 3, 2),
    (2**64 - 59, np.uint64, 3, 3),
    (2**32 - 1, np.int64, 2, 1),
]


@st.composite
def keyed_rows(draw, base, width):
    """(rows, lead or None): rows of entries in [0, base), some repeated."""
    entry = st.one_of(st.integers(0, base - 1), st.sampled_from([0, 1, base - 1]))
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    lead = None
    if draw(st.booleans()):
        top = draw(st.sampled_from([1, 5, 2**40]))
        lead = [draw(st.integers(0, top - 1)) for _ in rows]
    return rows, lead


@pytest.mark.parametrize("base,dtype,width,words", KEY_CASES,
                         ids=[f"q{b}-w{w}" for b, _, w, _ in KEY_CASES])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_row_keys_order_and_group_rows_as_their_columns(base, dtype, width, words, data):
    rows, lead = data.draw(keyed_rows(base, width))
    arr = np.array(rows, dtype=dtype).reshape(len(rows), width)
    lead_arr = None if lead is None else np.array(lead, dtype=np.uint64)
    keys = row_keys(arr, base, lead=lead_arr)
    if lead is None:
        assert len(keys) == words
    assert all(k.dtype == np.uint64 and k.shape == (len(rows),) for k in keys)
    # (lead, row) as Python tuples, the order the key must reproduce
    full = [((lead[i],) if lead is not None else ()) + tuple(r) for i, r in enumerate(rows)]
    table = np.array(full, dtype=np.uint64).reshape(len(rows), width + (lead is not None))
    order, first = sort_runs(keys)
    expect = np.lexsort(table.T[::-1])
    assert np.array_equal(table[order], table[expect])
    ranked = [full[i] for i in order.tolist()]
    assert first.tolist() == [i == 0 or ranked[i] != ranked[i - 1] for i in range(len(rows))]
    # equal keys exactly when equal rows, and rises exactly where the rows rise
    words_of = [tuple(int(k[i]) for k in keys) for i in range(len(rows))]
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (words_of[i] == words_of[j]) == (full[i] == full[j])
    assert _rises(keys).tolist() == [full[i] > full[i - 1] for i in range(1, len(rows))]
