"""Deterministic constructions: curves, ovoids, graphs, and products."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from oracle import all_points, is_c4_free, recheck

from evasive.constructions import (
    elliptic_ovoid,
    factor_prime_power,
    field_of_order,
    graph_curve_32,
    graph_curve_for_prime_power,
    monomial_curve,
    monomial_curve_affine_variant,
    product_construction,
    rational_normal_curve,
    trimmed_incidence_graph,
)
from evasive.constructions import _smallest_irreducible_binary_quadratic, _spread_product
from evasive.errors import BudgetExceeded, ParameterError
from evasive.gf import FieldSpec, _TableMixin, make_extension, make_field
from evasive.jsonio import pointset_to_json_bytes
from evasive.projgeom import PointSet, rank
from evasive.randomized import (Prng, cleanup, cubic_92_construction, gv_construction,
                                quadric_42_construction)
from evasive.verifier import is_proper, is_rs_set, max_in_s_space


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(49) == (7, 2)
    # large orders take exact integer roots, not trial division up to sqrt(q)
    assert factor_prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert factor_prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert factor_prime_power(3**40) == (3, 40)
    for bad in (-3, 0, 1, 6, 12, 100, (2**61 - 1) * (2**31 - 1)):
        with pytest.raises(ParameterError):
            factor_prime_power(bad)
    assert field_of_order(9).order == 9


def test_monomial_curve_frozen_points():
    X = monomial_curve(3, make_field(3, 1))
    assert X.array.tolist() == [[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]]


MONOMIAL_CASES = [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + \
                 [(3, q) for q in (2, 3, 4, 5)] + [(4, 3)]


@pytest.mark.parametrize("n,q", MONOMIAL_CASES)
def test_monomial_curve_size_and_validity(n, q):
    field = field_of_order(q)
    X = monomial_curve(n, field)
    assert len(X) == (q - 1) ** (n - 1)
    assert all(pt[0] == 1 for pt in X.array.tolist())
    if len(X) > n:
        assert is_rs_set(X, n, 1)[0]
        assert is_proper(X, n, 1)


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 3)])
def test_monomial_affine_variant_matches(n, q):
    field = field_of_order(q)
    X = monomial_curve(n, field)
    Y = monomial_curve_affine_variant(n, field)
    assert len(Y) == len(X)
    if len(Y) > n:
        assert is_rs_set(Y, n, 1)[0]


@pytest.mark.parametrize("c,q", [(2, 2), (2, 3), (2, 5), (3, 3), (3, 4),
                                 (3, 7), (4, 4), (4, 5), (4, 7)])
def test_rnc_is_an_arc(c, q):
    # with q >= c, every c+1 points of the curve are in general position
    field = field_of_order(q)
    X = rational_normal_curve(c, field)
    assert len(X) == q + 1
    assert [0] * c + [1] in X.array.tolist()
    for subset in itertools.combinations(X.array.tolist(), c + 1):
        assert rank(field, subset) == c + 1


def test_rnc_conic_and_twisted_quartic():
    conic = rational_normal_curve(2, make_field(3, 1))
    assert is_rs_set(conic, 2, 1)[0]
    quartic = rational_normal_curve(4, make_field(5, 1))
    assert max_in_s_space(quartic, 2)[0] == 3
    assert is_rs_set(quartic, 3, 2)[0]


def test_rnc_validation():
    with pytest.raises(ParameterError):
        rational_normal_curve(1, make_field(3, 1))


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2),
                                   (5, 5, 1), (7, 7, 1)])
def test_elliptic_ovoid(q, p, k):
    field = make_field(p, k)
    X = elliptic_ovoid(field)
    assert len(X) == q * q + 1
    assert [0, 1, 0, 0] in X.array.tolist()
    assert is_rs_set(X, 2, 1)[0]  # a cap: no three collinear
    assert is_proper(X, 2, 1)


def test_ovoid_peak_is_a_few_times_its_array():
    # the columns are written in place: int64 coordinates and a stacked
    # copy of them took the peak to 8.5 times the array the set keeps
    field = make_field(257, 1)
    field.logs()
    tracemalloc.start()
    try:
        X = elliptic_ovoid(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(X) == 257 * 257 + 1
    assert peak <= 7 * X.array.nbytes


@pytest.mark.parametrize("q0", [2, 3, 4])
def test_trimmed_incidence_graph(q0):
    edges = trimmed_incidence_graph(q0)
    assert edges.shape == (q0**3, 2) and edges.dtype == np.int64
    assert edges.tolist() == sorted(edges.tolist())
    assert is_c4_free(edges.tolist())
    # q0 lines through each point, q0 points on each line, labels below q0^2
    for side in edges.T:
        assert np.bincount(side).tolist() == [q0] * (q0 * q0)


def scalar_trimmed_graph(q0):
    # the reference: every point-line pair of PG(2, q0) tested with scalar calls
    field = field_of_order(q0)
    pts = list(all_points(2, field))
    lines = pts  # a line is the coefficient triple of a*x + b*y + c*z = 0

    def incident(point, line):
        acc = 0
        for u, v in zip(point, line):
            acc = field.add(acc, field.mul(u, v))
        return acc == 0

    p0 = next(p for p in pts if incident(p, lines[0]))
    keep_pts = [p for p in pts if not incident(p, lines[0])]
    keep_lines = [l for l in lines if not incident(p0, l)]
    # (point, line) pairs, found in ascending order
    return [[i, j] for i, p in enumerate(keep_pts) for j, l in enumerate(keep_lines)
            if incident(p, l)]


# from q0 = 13 the keys (u q0 + v) q0 + w no longer fit in the points' uint8
@pytest.mark.parametrize("q0", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_trimmed_incidence_graph_matches_scalar_scan(q0):
    assert trimmed_incidence_graph(q0).tolist() == scalar_trimmed_graph(q0)


def _cleaned_line_and_point():
    rows = [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0)]
    return cleanup(PointSet.from_rows(make_field(3, 1), 2, rows), 2, 1)


def _product_q2():
    # construct product --q 2 --r 2 --s 1: an ovoid over GF(2) times a conic over GF(16)
    base = make_field(2, 1)
    return product_construction(elliptic_ovoid(base), 2,
                                rational_normal_curve(2, make_extension(base, 4)), 1)


EVERY_KIND = {
    "monomial": lambda: monomial_curve(3, make_field(3, 1)),
    "monomial-affine": lambda: monomial_curve_affine_variant(3, make_field(2, 2)),
    "monomial-q257": lambda: monomial_curve(2, make_field(257, 1)),
    "monomial-q65537": lambda: monomial_curve(2, make_field(65537, 1)),
    "rnc": lambda: rational_normal_curve(3, make_field(5, 1)),
    "ovoid": lambda: elliptic_ovoid(make_field(2, 3)),
    "graph32": lambda: graph_curve_for_prime_power(3),
    "gv": lambda: gv_construction(4, make_field(2, 1), 3, 2, Prng(1)),
    "quadrics": lambda: quadric_42_construction(2, make_field(5, 1), Prng(7)),
    "cubics": lambda: cubic_92_construction(make_field(3, 1), Prng(1)),
    "product": _product_q2,
    "cleanup": _cleaned_line_and_point,
}


@pytest.mark.parametrize("kind", sorted(EVERY_KIND))
def test_every_kind_keeps_the_field_dtype(kind):
    X = EVERY_KIND[kind]()
    assert len(X) and X.array.dtype == X.field.dtype and not X.array.flags.writeable
    expected = {"monomial-q257": np.uint16, "monomial-q65537": np.uint32}.get(kind, np.uint8)
    assert X.field.dtype == expected


def complete_graph(order):
    return list(itertools.product(range(order), repeat=2))


QUADRANGLE = complete_graph(2)


def test_complete_bipartite_has_c4():
    assert not is_c4_free(QUADRANGLE)
    assert is_c4_free(complete_graph(1))
    assert is_c4_free([])


def test_bipartite_graph_validation():
    # graph_curve_32 reads its edges as point rows are read
    F3 = make_field(3, 1)
    X = graph_curve_32([(1, 0), (0, 1), (0, 0), (1, 0)], F3)
    assert len(X) == 3
    # edge order, repeats and the array's dtype do not change the points
    for edges in ([(0, 0), (0, 1), (1, 0)], np.array([[1, 0], [0, 0], [0, 1]]),
                  np.array([[0, 1], [1, 0], [0, 0], [0, 1]], dtype=np.uint8)):
        assert graph_curve_32(edges, F3) == X
    assert len(graph_curve_32(np.zeros((0, 2), dtype=np.int64), F3)) == 0
    # the largest label, q - 1, is accepted: 2^2 = 1 and 2^3 = 2 in GF(3)
    assert graph_curve_32([(2, 0)], F3).array.tolist() == [[1, 2, 1, 2, 0, 0, 0]]
    # a negative label, a label equal to q, and one past int64
    for edges in ([(0, 1), (0, 3)], [(-1, 0)], np.array([[0, 3]]), [(2**70, 0)]):
        with pytest.raises(ParameterError, match=r"encodings in \[0, 3\)"):
            graph_curve_32(edges, F3)
    # triples and bare ints are not pairs
    for edges in ([(0, 1, 2)], [(0, 1, 0, 1)], [0, 1]):
        with pytest.raises(ParameterError, match="vector length"):
            graph_curve_32(edges, F3)
    # bools and floats are not read as integers, in lists or in arrays,
    # and ragged rows are refused
    for edges in ([(True, 0), (0, 1)], [(0, 1.9)], np.array([[0.0, 1.0]]),
                  np.array([[True, False]]), [(0, 1), (1,)]):
        with pytest.raises(ParameterError, match="integer rows"):
            graph_curve_32(edges, F3)
    # a generator has no length to check against the budget: pass a list
    with pytest.raises(TypeError):
        graph_curve_32(((x, 0) for x in range(3)), F3)


@pytest.mark.parametrize("q0", [2, 3, 4])
def test_graph_curve_sizes_and_validity(q0):
    X = graph_curve_for_prime_power(q0)
    assert len(X) == q0**3
    assert X.n == 6
    assert X.field.order == q0 * q0
    assert is_rs_set(X, 3, 2)[0]


def test_graph_curve_planted_quadrangle_fails():
    # a C4 in the graph forces four curve points into a plane
    field = make_field(3, 1)
    X = graph_curve_32(QUADRANGLE, field)
    assert len(X) == 4
    assert rank(field, X.array.tolist()) <= 3
    ok, witness = is_rs_set(X, 3, 2)
    assert not ok
    assert witness.count == 4
    recheck(witness, X)


def test_graph_curve_guards():
    field = make_field(3, 1)
    assert len(graph_curve_32([], field)) == 0
    with pytest.raises(ParameterError):
        graph_curve_32([(4, 4)], field)  # labels exceed the field
    # the budget bounds the edges and the field order before the edges are read
    with pytest.raises(BudgetExceeded, match="4 edges exceed budget 3"):
        graph_curve_32([(0, 0.5)] * 4, field, budget=3)
    with pytest.raises(BudgetExceeded, match="field order 3 exceeds budget 2"):
        graph_curve_32([(0, 0.5)], field, budget=2)


def build_85_point_product():
    base = make_field(2, 1)
    X = elliptic_ovoid(base)
    ext = make_extension(base, 4)
    Y = rational_normal_curve(2, ext)
    return X, Y, product_construction(X, 2, Y, 1)


def test_product_multiplicative_sizes():
    X, Y, Z = build_85_point_product()
    assert len(Z) == len(X) * len(Y) == 85
    assert Z.n == 11
    assert Z.field == X.field

    F3 = make_field(3, 1)
    A = rational_normal_curve(4, F3)            # 4 points in PG(4,3)
    ext = make_extension(F3, 5)
    B = rational_normal_curve(4, ext).truncated(10)
    Z2 = product_construction(A, 3, B, 2)
    assert len(Z2) == len(A) * len(B) == 40
    assert Z2.n == 24


def test_product_accepts_flat_field_for_prime_base():
    # GF(2)^4 is GF(2^4), so Y may be built over either
    X, Y, Z = build_85_point_product()
    flat = make_field(2, 4)
    assert Y.field == flat
    assert product_construction(X, 2, rational_normal_curve(2, flat), 1) == Z


def test_product_validates_left_factor():
    base = make_field(2, 1)
    # a full line inside the plane: fails the line ceiling 1 + 2 - 1 = 2
    bad = PointSet.from_rows(base, 2, [(0, 0, 1), (0, 1, 0), (0, 1, 1)])
    ext = make_extension(base, 3)
    Y = rational_normal_curve(2, ext)
    with pytest.raises(ParameterError, match="not a proper"):
        product_construction(bad, 2, Y, 1)


def test_product_validates_right_factor():
    base = make_field(2, 1)
    X = elliptic_ovoid(base)
    ext = make_extension(base, 4)
    line = [(1, t) for t in range(4)]
    bad = PointSet.from_rows(ext, 2, [(1, t, 0) for t in range(4)])
    with pytest.raises(ParameterError):
        product_construction(X, 2, bad, 1)


def test_product_validates_fields():
    base = make_field(2, 1)
    X = elliptic_ovoid(base)
    wrong = make_extension(make_field(3, 1), 4)
    Y = rational_normal_curve(2, wrong)
    with pytest.raises(ParameterError, match="extension"):
        product_construction(X, 2, Y, 1)
    # degree must equal X.n + 1
    ext3 = make_extension(base, 3)
    Y3 = rational_normal_curve(2, ext3)
    with pytest.raises(ParameterError):
        product_construction(X, 2, Y3, 1)


def test_product_x_scan_past_budget_is_refused():
    # X of `construct product --q 64 --r 3 --s 2 --x-kind monomial --x-n 3`
    # has collinear triples, but is_proper scans its planes only, which is
    # past the default budget; Y is one point here, not that call's conic
    X = monomial_curve(3, field_of_order(64))
    Y = PointSet.from_rows(make_extension(X.field, 4), 3, [(1, 0, 0, 0)])
    with pytest.raises(BudgetExceeded,
                       match=r"C\(3969, 3\) = 10412708544 spans, budget is 100000000"):
        product_construction(X, 3, Y, 2)


def test_product_validate_false_skips_checks():
    base = make_field(2, 1)
    bad = PointSet.from_rows(base, 2, [(0, 0, 1), (0, 1, 0), (0, 1, 1)])
    ext = make_extension(base, 3)
    Y = rational_normal_curve(2, ext)
    Z = _spread_product(bad, Y)
    assert len(Z) == len(bad) * len(Y)


def test_product_budget_covers_coordinates():
    base = make_field(2, 1)
    Y = rational_normal_curve(2, make_extension(base, 4))  # 17 points, M = 3
    X = elliptic_ovoid(base)                               # 5 points, N = 4
    with pytest.raises(BudgetExceeded):
        product_construction(X, 2, Y, 1, budget=5 * 17 * 4 * 3 - 1)
    assert len(product_construction(X, 2, Y, 1, budget=5 * 17 * 4 * 3)) == 85
    # one point of X: 17 copies of four digits in each of three coordinates
    e0 = PointSet.from_rows(base, 3, [(1, 0, 0, 0)])
    with pytest.raises(BudgetExceeded):
        _spread_product(e0, Y, budget=1 * 17 * 4 * 3 - 1)
    assert len(_spread_product(e0, Y, budget=1 * 17 * 4 * 3)) == 17


def test_product_field_order_refused_before_logs(monkeypatch):
    # one point of X and one of Y make 4 coordinates, but multiplying in
    # GF(2)^4 takes its discrete logs, 16 entries
    base = make_field(2, 1)
    e0 = PointSet.from_rows(base, 3, [(1, 0, 0, 0)])
    Y = PointSet.from_rows(make_extension(base, 4), 0, [(1,)])
    logs = _TableMixin.logs

    def no_logs(self):
        raise AssertionError("logs were built")

    monkeypatch.setattr(_TableMixin, "logs", no_logs)
    with pytest.raises(BudgetExceeded, match="field order 16 exceeds budget 15"):
        _spread_product(e0, Y, budget=15)
    monkeypatch.setattr(_TableMixin, "logs", logs)
    assert _spread_product(e0, Y, budget=16).array.tolist() == [[1, 0, 0, 0]]


def test_product_builds_no_tables(monkeypatch):
    # above q = 256 products multiply in the extension through its discrete
    # logs alone (up to 256 through its q x q tables); product_construction
    # runs the verifier, which builds GF(7)'s tables, and _spread_product,
    # its unchecked body, does not: a conic over GF(7) times a conic over GF(7^3)
    base = make_field(7, 1)
    X = rational_normal_curve(2, base)
    Y = rational_normal_curve(2, make_extension(base, 3))
    Z = product_construction(X, 2, Y, 1)
    assert len(Z) == 8 * 344

    def no_tables(self):
        raise AssertionError("tables were built")

    monkeypatch.setattr(_TableMixin, "tables", no_tables)
    assert _spread_product(X, Y) == Z


def test_monomial_size_compared_exactly_near_the_budget():
    # only a size ten times past the budget is refused from its logarithm
    F3 = make_field(3, 1)
    with pytest.raises(BudgetExceeded, match=r"\(q-1\)\^\(n-1\) = 549755813888 exceeds"):
        monomial_curve(40, F3, budget=2**39 - 1)
    for budget in (2**59 - 1, 10**16):
        with pytest.raises(BudgetExceeded, match=r"= 5\.8e\+17 exceeds budget"):
            monomial_curve(60, F3, budget=budget)
    with pytest.raises(BudgetExceeded, match=r"\* \(n\+1\) = 3\.5e\+19 coordinates"):
        monomial_curve(60, F3, budget=2**59)


def test_product_q8_bytes_pinned():
    # 65 copies of the GF(8) ovoid in each of the 4097 spread elements of
    # the conic over GF(8)^4: 266,305 points of PG(11, 8), rows 12 wide
    base = make_field(2, 3)
    Z = _spread_product(elliptic_ovoid(base), rational_normal_curve(2, make_extension(base, 4)))
    assert len(Z) == 266305
    assert hashlib.sha256(pointset_to_json_bytes(Z, 2, 1)).hexdigest() == \
        "d8b0e67a3fce99ef63a8880e26945841de2a7c605e1ad96367e047e49c19c46a"


# ---------------------------------------------------------------------------
# The families against plain per-point scalar formulas.

def scalar_monomial(n, F, affine=False):
    pts = []
    for x in itertools.product(range(1, F.order), repeat=n - 1):
        f0 = 1
        for xi in x:
            f0 = F.mul(f0, xi)
        if affine:
            pts.append((1, F.inv(f0)) + x)
        else:
            pts.append((1, f0) + tuple(F.mul(xi, f0) for xi in x))
    return PointSet.from_rows(F, n, pts)


def scalar_rnc(c, F):
    pts = [tuple(F.pow(t, e) for e in range(c + 1)) for t in range(F.order)]
    pts.append((0,) * c + (1,))
    return PointSet.from_rows(F, c, pts)


def scalar_quadratic(F):
    for b in range(F.order):
        for c in range(F.order):
            if all(F.add(F.add(F.mul(x, x), F.mul(b, x)), c) != 0 for x in range(F.order)):
                return b, c
    raise AssertionError("no irreducible quadratic")


def scalar_ovoid(F):
    b, c = scalar_quadratic(F)
    pts = [(0, 1, 0, 0)]
    for s in range(F.order):
        for t in range(F.order):
            f = F.add(F.add(F.mul(s, s), F.mul(F.mul(b, s), t)), F.mul(c, F.mul(t, t)))
            pts.append((1, f, s, t))
    return PointSet.from_rows(F, 3, pts)


def scalar_graph32(edges, F):
    return PointSet.from_rows(F, 6, [
        (1, x, F.mul(x, x), F.pow(x, 3), y, F.mul(y, y), F.pow(y, 3))
        for x, y in np.asarray(edges).tolist()])


REFERENCE_FIELDS = [
    make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(5, 1),
    make_field(3, 2), make_field(2, 4), make_field(5, 2), make_field(3, 3),
    make_extension(make_field(2, 2), 2), make_extension(make_field(3, 2), 2),
]


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_quadratic_search_matches_scalar_reference(field):
    # odd characteristic is where -c and c differ
    assert _smallest_irreducible_binary_quadratic(field) == scalar_quadratic(field)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_ovoid_matches_scalar_reference(field):
    assert elliptic_ovoid(field) == scalar_ovoid(field)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_monomial_matches_scalar_reference(field):
    for n in (n for n in (2, 3, 4) if (field.order - 1) ** (n - 1) <= 4000):
        assert monomial_curve(n, field) == scalar_monomial(n, field)
        assert monomial_curve_affine_variant(n, field) == scalar_monomial(n, field, affine=True)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_rnc_matches_scalar_reference(field):
    for c in (2, 3, 4):
        assert rational_normal_curve(c, field) == scalar_rnc(c, field)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_graph32_matches_scalar_reference(field):
    graphs = [complete_graph(min(field.order, 5))]
    graphs += [trimmed_incidence_graph(q0) for q0 in (2, 3, 4) if q0 * q0 <= field.order]
    for graph in graphs:
        assert graph_curve_32(graph, field) == scalar_graph32(graph, field)


def test_from_rows_sorts_dedupes_and_checks_rows():
    F3 = make_field(3, 1)
    X = PointSet.from_rows(F3, 2, [(1, 2, 0), (0, 0, 1), (1, 2, 0), (0, 1, 2)])
    assert X.array.tolist() == [[0, 0, 1], [0, 1, 2], [1, 2, 0]]
    assert not X.array.flags.writeable
    assert len(PointSet.from_rows(F3, 6, np.zeros((0, 7), dtype=np.int64))) == 0
    with pytest.raises(ParameterError):
        PointSet.from_rows(F3, 2, [(1, 2, 0), (2, 1, 0)])  # leading 2
    with pytest.raises(ParameterError):
        PointSet.from_rows(F3, 2, [(0, 0, 0)])
    with pytest.raises(ParameterError):
        PointSet.from_rows(F3, 2, [(1, 2, 0, 0)])  # width 4 in PG(2, 3)


@pytest.fixture
def mul_calls(monkeypatch):
    """The number of scalar FieldSpec.mul calls the test has made so far."""
    calls = 0
    scalar_mul = FieldSpec.mul

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return scalar_mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "mul", counting_mul)
    return lambda: calls


def test_families_make_no_per_point_scalar_calls(mul_calls):
    # a fresh GF(128), equal to make_field(2, 7), so that building its
    # discrete logs (q - 1 products) falls inside the count
    field = FieldSpec(make_field(2, 1), 7, make_field(2, 7).modulus)
    assert field == make_field(2, 7)
    assert len(elliptic_ovoid(field)) == 128 * 128 + 1
    assert len(monomial_curve(3, field)) == 127 * 127
    assert mul_calls() <= 4 * field.order


def test_incidence_graph_makes_no_per_pair_scalar_calls(mul_calls):
    # the scalar scan made about 13k calls at q0 = 8, three per pair
    assert len(trimmed_incidence_graph(8)) == 8**3
    assert mul_calls() <= 4 * 8 * 8


def test_products_make_no_per_point_scalar_calls(mul_calls):
    # the pinned q=4 product, 257 copies of a 17-point ovoid; X is over a
    # fresh GF(4), so that building its tables falls inside the count
    base = FieldSpec(make_field(2, 1), 2, make_field(2, 2).modulus)
    X = elliptic_ovoid(base)
    Y = rational_normal_curve(2, make_extension(make_field(2, 2), 4))
    before = mul_calls()
    assert len(product_construction(X, 2, Y, 1)) == 17 * 257
    assert mul_calls() - before <= 4 * base.order
