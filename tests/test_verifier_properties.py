"""Property test: the projection kernel against scalar references on random small sets.

Needs hypothesis (the `test` extra); skipped without it, so the fixed
verifier tests in test_verifier.py never depend on it.
"""

from math import comb

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_verifier import assert_matches_brute_force, brute_max  # noqa: E402

from evasive.gf import make_field  # noqa: E402
from evasive.projgeom import PointSet, all_points, count_points  # noqa: E402
from evasive.verifier import max_in_s_space, oracle_max_in_s_space  # noqa: E402

KERNEL_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(5, 1)]
ORACLE_WORK_CAP = 10_000  # (s+1)-subsets of the ambient the oracle may enumerate


@st.composite
def small_instances(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 4))
    s = draw(st.integers(0, n - 1))
    pts = list(all_points(n, field))
    idx = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=10, unique=True))
    return PointSet.from_rows(field, n, [pts[i] for i in idx]), s


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_instances(), st.integers(0, 10))
def test_kernel_matches_scalar_references(inst, limit):
    X, s = inst
    count, w = max_in_s_space(X, s)
    assert count == brute_max(X, s) == w.count
    w.recheck(X)
    if comb(count_points(X.n, X.field.order), s + 1) <= ORACLE_WORK_CAP:
        assert count == oracle_max_in_s_space(X, s)
    assert_matches_brute_force(X, s, limit)
