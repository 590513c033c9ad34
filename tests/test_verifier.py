"""Subspace intersection verifier, frozen witnesses, and the brute-force oracle."""

import itertools

import numpy as np
import pytest

from evasive.constructions import (
    elliptic_ovoid,
    graph_curve_for_prime_power,
    monomial_curve,
    rational_normal_curve,
)
from evasive.errors import BudgetExceeded, ParameterError
from evasive.gf import make_field
from evasive.projgeom import PointSet, all_points, normalize
from evasive.randomized import Prng
from evasive.verifier import (
    _scalar_rref,
    find_violation,
    is_proper,
    is_rs_set,
    max_in_s_space,
    oracle_max_in_s_space,
)


F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)

LINE_IN_PLANE = PointSet.from_rows(
    F3, 2, [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)])
THREE_COLLINEAR = PointSet.from_rows(F3, 2, [(0, 0, 1), (0, 1, 0), (0, 1, 1)])


def test_max_frozen_examples():
    count, w = max_in_s_space(LINE_IN_PLANE, 1)
    assert count == 4
    assert set(w.intersection) == set(LINE_IN_PLANE.points)
    assert max_in_s_space(rational_normal_curve(4, F5), 2)[0] == 3
    assert max_in_s_space(monomial_curve(3, F3), 1)[0] <= 3
    full_plane = PointSet.from_rows(F2, 2, list(all_points(2, F2)))
    assert max_in_s_space(full_plane, 1)[0] == 3
    one = PointSet.from_rows(F2, 2, [(1, 0, 1)])
    count, w = max_in_s_space(one, 1)
    assert count == 1 and w.intersection == ((1, 0, 1),)


def test_is_rs_set_frozen_examples():
    ok, w = is_rs_set(THREE_COLLINEAR, 2, 1)
    assert not ok and w.count == 3
    assert is_rs_set(THREE_COLLINEAR, 3, 1) == (True, None)
    assert is_rs_set(rational_normal_curve(4, F5), 3, 2) == (True, None)
    ok, w = is_rs_set(rational_normal_curve(4, F5), 2, 2)
    assert not ok and w.count == 3 and w.span_dim == 2
    assert is_rs_set(graph_curve_for_prime_power(2), 3, 2)[0]
    # r at least |X| holds trivially, no scan needed
    assert is_rs_set(monomial_curve(3, F3), 4, 2) == (True, None)


def test_small_sets_trivially_valid():
    X = PointSet.from_rows(F3, 2, [(0, 0, 1), (0, 1, 0)])
    assert is_rs_set(X, 2, 1) == (True, None)
    assert find_violation(X, 1, 2) is None


def test_witness_structure_and_recheck():
    w = find_violation(THREE_COLLINEAR, 1, 2)
    assert w is not None
    assert w.span_dim <= 1
    assert w.count == 3
    w.recheck(THREE_COLLINEAR)

    curve = rational_normal_curve(4, F5)
    w2 = find_violation(curve, 2, 2)
    assert w2 is not None and w2.count == 3
    w2.recheck(curve)


def test_witness_is_lex_first():
    # scanning the full Fano-like plane over GF(2) for (r,s) = (2,1):
    # the first pair in lex order already spans a full line
    full_plane = PointSet.from_rows(F2, 2, list(all_points(2, F2)))
    w = find_violation(full_plane, 1, 2)
    assert w.generating_points == ((0, 0, 1), (0, 1, 0))
    assert w.intersection == ((0, 0, 1), (0, 1, 0), (0, 1, 1))
    assert w.span_dim == 1


def test_is_proper_examples():
    # ovoid: a cap, and no point repeats, so both m = 0 and m = 1 hold
    assert is_proper(elliptic_ovoid(F3), 2, 1)
    # three collinear points hit the m = 1 ceiling 1 + 3 - 1 exactly
    assert is_proper(THREE_COLLINEAR, 3, 1)
    # but fail (2, 1): the line holds 3 > 1 + 2 - 1
    assert not is_proper(THREE_COLLINEAR, 2, 1)
    assert is_proper(monomial_curve(3, F3), 3, 1)


def test_parameter_validation():
    # s = 0 is legal: a point holds at most one point of X
    assert max_in_s_space(LINE_IN_PLANE, 0)[0] == 1
    with pytest.raises(ParameterError):
        max_in_s_space(LINE_IN_PLANE, -1)
    with pytest.raises(ParameterError):
        max_in_s_space(LINE_IN_PLANE, 2)  # s must stay below n
    with pytest.raises(ParameterError):
        is_rs_set(LINE_IN_PLANE, 0, 1)
    empty = PointSet.from_rows(F3, 2, np.empty((0, 3), dtype=np.int64))
    with pytest.raises(ParameterError):
        max_in_s_space(empty, 1)


def test_budget_guard():
    big = PointSet.from_rows(F5, 2, list(all_points(2, F5)))
    with pytest.raises(BudgetExceeded):
        max_in_s_space(big, 1, budget=10)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2])
def test_oracle_agreement_random_sets(seed, s):
    pts = list(all_points(3, F2))
    rng = Prng(seed)
    chosen = set()
    while len(chosen) < 8:
        chosen.add(pts[rng.below(len(pts))])
    X = PointSet.from_rows(F2, 3, sorted(chosen))
    count, w = max_in_s_space(X, s)
    assert count == oracle_max_in_s_space(X, s)
    w.recheck(X)


def test_oracle_agreement_structured_sets():
    full_plane = PointSet.from_rows(F2, 2, list(all_points(2, F2)))
    assert oracle_max_in_s_space(full_plane, 1) == 3
    one = PointSet.from_rows(F2, 2, [(1, 1, 1)])
    assert oracle_max_in_s_space(one, 1) == 1
    curve = rational_normal_curve(3, F3)  # small enough for full enumeration
    assert oracle_max_in_s_space(curve, 2) == max_in_s_space(curve, 2)[0] == 3


def test_max_monotone_under_adding_points():
    rng = Prng(77)
    pts = list(all_points(3, F3))
    chosen = []
    prev = 0
    for _ in range(10):
        pt = pts[rng.below(len(pts))]
        if pt in chosen:
            continue
        chosen.append(pt)
        X = PointSet.from_rows(F3, 3, sorted(chosen))
        cur = max_in_s_space(X, 2)[0]
        assert cur >= prev
        prev = cur


# ---------------------------------------------------------------------------
# The projection kernel against scalar references built on the oracle's
# Gauss-Jordan, which shares no code with linalg.

def scalar_span(X, sub):
    """The points of X in the span of sub: those that leave the rank unchanged."""
    rows, _ = _scalar_rref(X.field, sub)
    return tuple(p for p in X.points if len(_scalar_rref(X.field, (*rows, p))[0]) == len(rows))


def brute_first_violation(X, dim, limit):
    """First subset in lex order whose span holds > limit points, scalar code."""
    for sub in itertools.combinations(X.points, min(dim + 1, len(X))):
        inside = scalar_span(X, sub)
        if len(inside) > limit:
            return sub, inside
    return None


def brute_max(X, s):
    return max(len(scalar_span(X, sub))
               for sub in itertools.combinations(X.points, min(s + 1, len(X))))


def assert_matches_brute_force(X, s, limit):
    w = find_violation(X, s, limit)
    ref = brute_first_violation(X, s, limit)
    if ref is None:
        assert w is None
    else:
        assert (w.generating_points, w.intersection) == ref
        w.recheck(X)


def test_kernel_points_as_0_spaces():
    X = graph_curve_for_prime_power(2)
    assert max_in_s_space(X, 0)[0] == 1
    assert find_violation(X, 0, 1) is None
    w = find_violation(X, 0, 0)
    assert w.generating_points == w.intersection == (X.points[0],)
    assert w.span_dim == 0


def test_kernel_fewer_points_than_subset_size():
    X = PointSet.from_rows(F3, 3, [(0, 0, 1, 2), (1, 2, 0, 0)])
    count, w = max_in_s_space(X, 2)
    assert count == 2 and w.generating_points == w.intersection == X.points
    assert_matches_brute_force(X, 2, 1)
    one = PointSet.from_rows(F3, 3, [(1, 1, 1, 1)])
    assert max_in_s_space(one, 2)[0] == 1 and find_violation(one, 2, 0).count == 1


def test_kernel_degenerate_subsets():
    # s = 2: the collinear triple is a 3-subset whose last point lies on the
    # line its first two span, so it spans only that line
    line = [(0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)]
    X = PointSet.from_rows(F3, 3, line + [(1, 0, 0, 0), (1, 1, 1, 1)])
    for limit in range(1, 5):
        assert_matches_brute_force(X, 2, limit)
    assert max_in_s_space(X, 2)[0] == brute_max(X, 2) == 4
    # s = 3: the prefix itself is three collinear points of rank 2
    Y = PointSet.from_rows(F2, 4, [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 0, 1, 1),
                                      (0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 1, 1, 1)])
    for limit in range(1, 6):
        assert_matches_brute_force(Y, 3, limit)
    assert max_in_s_space(Y, 3)[0] == brute_max(Y, 3)


def test_kernel_in_pg_8_256():
    # wide residues over a large field: two collinear triples among seven points
    field = make_field(2, 8)
    rng = Prng(5)
    base = [tuple(rng.below(256) for _ in range(9)) for _ in range(4)]
    combos = [tuple(field.add(a, field.mul(c, b)) for a, b in zip(base[0], base[1]))
              for c in (3, 200)]
    combos.append(tuple(field.add(a, field.mul(7, b)) for a, b in zip(base[2], base[3])))
    X = PointSet.from_rows(field, 8, [normalize(field, v) for v in base + combos])
    for s in (0, 1, 2):
        assert max_in_s_space(X, s)[0] == brute_max(X, s)
        for limit in range(1, 5):
            assert_matches_brute_force(X, s, limit)
    assert max_in_s_space(X, 1)[0] == 4
