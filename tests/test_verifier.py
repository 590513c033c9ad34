"""Subspace intersection verifier, frozen witnesses, and the brute-force oracle."""

import itertools
import tracemalloc

import numpy as np
import prefix_rref_scan as reference
import pytest

from evasive import verifier
from evasive.constructions import (
    elliptic_ovoid,
    graph_curve_for_prime_power,
    monomial_curve,
    rational_normal_curve,
)
from evasive.errors import BudgetExceeded, ParameterError
from evasive.gf import FieldSpec, array_mul, array_pow, make_extension, make_field
from evasive.projgeom import PointSet, all_points, normalize, row_keys
from evasive.randomized import Prng, cubic_92_construction
from evasive.verifier import (
    _make_witness,
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


def points(X):
    """The points of X as tuples, in order, as witnesses hold them."""
    return tuple(map(tuple, X.array.tolist()))


def test_max_frozen_examples():
    count, w = max_in_s_space(LINE_IN_PLANE, 1)
    assert count == 4
    assert set(w.intersection) == set(points(LINE_IN_PLANE))
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
    return tuple(p for p in points(X) if len(_scalar_rref(X.field, (*rows, p))[0]) == len(rows))


def brute_first_violation(X, dim, limit):
    """First subset in lex order whose span holds > limit points, scalar code."""
    for sub in itertools.combinations(points(X), min(dim + 1, len(X))):
        inside = scalar_span(X, sub)
        if len(inside) > limit:
            return sub, inside
    return None


def brute_max(X, s):
    return max(len(scalar_span(X, sub))
               for sub in itertools.combinations(points(X), min(s + 1, len(X))))


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
    assert w.generating_points == w.intersection == points(X)[:1]
    assert w.span_dim == 0


def test_kernel_fewer_points_than_subset_size():
    X = PointSet.from_rows(F3, 3, [(0, 0, 1, 2), (1, 2, 0, 0)])
    count, w = max_in_s_space(X, 2)
    assert count == 2 and w.generating_points == w.intersection == points(X)
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


# one field of each kind above the uint8 boundary, where the kernels
# multiply through the logs: primes, odd prime powers, characteristic 2
# and a tower over GF(9)
ABOVE_UINT8 = [make_field(257, 1), make_field(4093, 1), make_field(17, 2), make_field(3, 6),
               make_field(2, 10), make_extension(make_field(3, 2), 3)]


@pytest.mark.parametrize("field", ABOVE_UINT8, ids=repr)
def test_kernel_above_uint8(field):
    # PG(3, q) has too many lines for oracle_max_in_s_space's enumeration
    # at q > 256, so the references are the brute-force scans on the
    # oracle's scalar elimination: four points on one line and four more
    # on one plane through it, among random points
    q = field.order
    rng = Prng(q)

    def combo(c, u, v):
        return tuple(field.add(a, field.mul(c, b)) for a, b in zip(u, v))

    base = [(1,) + tuple(rng.below(q) for _ in range(3)) for _ in range(5)]
    on_line = [combo(3, base[0], base[1]), combo(q - 1, base[0], base[1])]
    on_plane = [combo(2, base[0], base[2]), combo(q - 2, on_line[0], base[2])]
    X = PointSet.from_rows(field, 3, [normalize(field, v) for v in base + on_line + on_plane])
    assert len(X) == 9
    for s, most in [(1, 4), (2, 7)]:
        # brute_max and brute_first_violation in one pass: scalar spans are slow in towers
        spans = [(sub, scalar_span(X, sub)) for sub in itertools.combinations(points(X), s + 1)]
        assert max_in_s_space(X, s)[0] == max(len(inside) for _, inside in spans) == most
        for limit in (1, most - 1, most):
            w = find_violation(X, s, limit)
            ref = next(((sub, inside) for sub, inside in spans if len(inside) > limit), None)
            assert (w is None) if ref is None else (w.generating_points, w.intersection) == ref


@pytest.mark.parametrize("field", [make_field(2, 13), make_field(5003, 1)], ids=repr)
def test_walk_matches_prefix_rref_scan_past_4096(field):
    # elimination once stopped at order 4096; a collinear triple planted
    # among random points of PG(3, q) is the maximum over lines, and both
    # scans find the same lex-first witness for it
    q = field.order
    rng = Prng(q)
    base = [(1,) + tuple(rng.below(q) for _ in range(3)) for _ in range(6)]
    third = tuple(field.add(a, field.mul(7, b)) for a, b in zip(base[1], base[4]))
    X = PointSet.from_rows(field, 3, [normalize(field, v) for v in base + [third]])
    count, w = max_in_s_space(X, 1)
    ref_count, ref_idx = reference.max_subset(X, 1)
    assert count == ref_count == 3
    assert w == _make_witness(X, ref_idx)
    for limit in (1, 2, 3):
        ref = reference.first_violation(X, 1, limit)
        assert find_violation(X, 1, limit) == (None if ref is None else _make_witness(X, ref))


@pytest.mark.parametrize("field", [make_field(257, 1), make_field(2, 10)], ids=repr)
def test_monomial_curve_above_uint8(field):
    # the n = 2 monomial curve is a (2, 1)-set: no three of its q - 1 points collinear
    X = monomial_curve(2, field)
    assert is_rs_set(X, 2, 1) == (True, None)
    ok, w = is_rs_set(X, 1, 1)
    assert not ok and w.count == 2
    w.recheck(X)


def test_early_exit_at_q2048_stays_small():
    # a fresh spec equal to GF(2^11) has no logs yet, so the traced call
    # builds them: above q = 256 the ops read those O(q) logs and build no
    # table, where the mul table alone took 8 MiB
    cached = make_field(2, 11)
    field = FieldSpec(cached.base, cached.N, cached.modulus)
    X = monomial_curve(2, field)
    tracemalloc.start()
    try:
        ok, w = is_rs_set(X, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field._logs is not None and field._tables is None
    assert not ok and w.count == 2
    assert peak <= 2**20


# ---------------------------------------------------------------------------
# The walk's grouping, its workspace and is_proper's scans.

def test_class_sizes_counts_equal_rows_of_each_prefix():
    rng = Prng(3)
    rows = np.array([[rng.below(3) for _ in range(3)] for _ in range(120)], dtype=np.uint8)
    node = np.repeat(np.arange(4), 30)
    expect = [sum(int(node[k] == node[i]) * int((rows[k] == rows[i]).all()) for k in range(120))
              for i in range(120)]
    assert verifier._class_sizes(row_keys(rows, 3, lead=node)).tolist() == expect


def traced_peak(X, r, s):
    # the logs, and the tables up to q = 256, are built once per field,
    # outside the scan: one product and one inverse build what the ops read
    array_mul(X.field, 1, array_pow(X.field, 1, -1))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ok, _ = is_rs_set(X, r, s, budget=10**10)
        return ok, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# (set, r, s, valid, MiB): the bounds are the traced peaks of the former
# prefix-RREF scan on the same calls, witness included
WORKSPACE_CASES = {
    "monomial-n2-q2048": (lambda: monomial_curve(2, make_field(2, 11)), 1, 1, False, 0.26),
    "ovoid-q128": (lambda: elliptic_ovoid(make_field(2, 7)), 1, 1, False, 1.67),
    "cubics-q7-seed2": (lambda: cubic_92_construction(make_field(7, 1), Prng(2)), 9, 2, True, 4.45),
    "graph32-q0-4": (lambda: graph_curve_for_prime_power(4), 3, 2, True, 3.95),
}


@pytest.mark.parametrize("name", sorted(WORKSPACE_CASES))
def test_scan_workspace_bound(name):
    build, r, s, valid, mib = WORKSPACE_CASES[name]
    ok, peak = traced_peak(build(), r, s)
    assert ok == valid
    assert peak <= mib * 2**20


def test_early_exit_on_16k_points_bounds_its_workspace():
    # the first child of an s = 1 scan holds all N - 1 rows and the witness
    # tests all N points for membership, so both bound their workspace
    X = elliptic_ovoid(make_field(2, 7))
    ok, peak = traced_peak(X, 1, 1)
    assert not ok and peak < 1.25 * 2**20
    # a line meets the ovoid in at most 2 points: the lex-first pair
    pair = tuple(map(tuple, X.array[:2].tolist()))
    _, w = is_rs_set(X, 1, 1, budget=10**10)
    assert (w.generating_points, w.span_dim, w.intersection) == (pair, 1, pair)


def test_is_proper_skips_the_point_scan(monkeypatch):
    cases = [(elliptic_ovoid(F3), 2, 1), (THREE_COLLINEAR, 3, 1), (THREE_COLLINEAR, 2, 1),
             (monomial_curve(3, F3), 3, 1), (rational_normal_curve(4, F5), 3, 2),
             (rational_normal_curve(4, F5), 4, 3), (graph_curve_for_prime_power(2), 3, 2)]
    # the former loop, which also scanned m = 0
    expect = [all(find_violation(X, m, m + r - s) is None for m in range(s + 1))
              for X, r, s in cases]
    dims = []
    real = verifier.find_violation
    monkeypatch.setattr(verifier, "find_violation",
                        lambda X, dim, limit, **kw: dims.append(dim) or real(X, dim, limit, **kw))
    for (X, r, s), proper in zip(cases, expect):
        dims.clear()
        assert is_proper(X, r, s) == proper
        if proper:
            assert dims == list(range(1, s + 1))
        else:
            assert dims and 0 not in dims
