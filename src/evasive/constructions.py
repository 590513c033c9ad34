"""Explicit point-set constructions with bounded subspace intersections.

Everything here is deterministic: point sets come out normalized, deduped,
and sorted, so repeated runs produce identical objects and files.

The curve, ovoid and graph families are computed as whole numpy arrays of
encodings: products and powers go through the field's discrete logs
(``gf.array_mul``), sums through ``gf.array_add``, and the rows go to
``PointSet.from_rows``.  No q x q table is built, so these work above
``TABLE_LIMIT``; each family checks its budget before it allocates.
Products run one array pass through the base field's tables: every spread
element at once (``projgeom.spread_bases``), then every copy of the small
factor in N lookup steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, ParameterError
from .gf import array_add, array_mul, factor_prime_power, lookup, make_field
from .projgeom import DEFAULT_BUDGET, PointSet, _points_array, spread_bases
from .verifier import is_proper, is_rs_set


def field_of_order(q: int):
    p, k = factor_prime_power(q)
    return make_field(p, k)


def _monomial_points(n: int, field, budget: int, columns) -> PointSet:
    # x_i = g^e_i for every exponent vector e in [0, q-1)^(n-1), g the
    # generator of field.logs(), so F_0(x) = g^S with S the sum of the e_i;
    # columns(e, S) gives the exponents of coordinates 1..n, coordinate 0 is 1
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    q = field.order
    if (q - 1) ** (n - 1) > budget:
        raise BudgetExceeded(f"(q-1)^(n-1) = {(q - 1) ** (n - 1)} exceeds budget {budget}")
    exp, _ = field.logs()
    e = np.indices((q - 1,) * (n - 1), dtype=np.int64).reshape(n - 1, -1).T
    rows = np.ones((len(e), n + 1), dtype=np.int64)
    rows[:, 1:] = exp[columns(e, e.sum(axis=1, keepdims=True)) % (q - 1)]
    return PointSet.from_rows(field, n, rows)


def monomial_curve(n: int, field, budget: int = DEFAULT_BUDGET) -> PointSet:
    """The (n, 1)-set {(1, F_0(x), x_1 F_0(x), ..., x_{n-1} F_0(x))} in PG(n, q).

    F_0(x) is the product of the affine coordinates x_1 .. x_{n-1}, which
    range over the nonzero field elements, so the set has (q-1)^(n-1) points
    and no line meets it in more than n points.
    """
    return _monomial_points(n, field, budget, lambda e, S: np.hstack([S, e + S]))


def monomial_curve_affine_variant(n: int, field, budget: int = DEFAULT_BUDGET) -> PointSet:
    """The variant {(1, 1/(x_1 ... x_{n-1}), x_1, ..., x_{n-1})}, same size."""
    return _monomial_points(n, field, budget, lambda e, S: np.hstack([-S, e]))


def rational_normal_curve(c: int, field, budget: int = DEFAULT_BUDGET) -> PointSet:
    """{(1, t, t^2, ..., t^c) : t in F_q} plus (0, ..., 0, 1), in PG(c, q).

    For q >= c this is the classical arc: any c+1 of its q+1 points have
    full rank.  The set is still well defined for smaller q (powers of t
    then repeat by Frobenius), just without the arc guarantee.  Raises
    BudgetExceeded when q + 1 exceeds the budget.
    """
    if c < 2:
        raise ParameterError(f"need c >= 2, got c={c}")
    q = field.order
    if q + 1 > budget:
        raise BudgetExceeded(f"q + 1 = {q + 1} points exceed budget {budget}")
    rows = np.zeros((q + 1, c + 1), dtype=np.int64)
    rows[:q] = array_mul(field, 1, np.arange(q)[:, None], np.arange(c + 1))
    rows[q, c] = 1
    return PointSet.from_rows(field, c, rows)


def _smallest_irreducible_binary_quadratic(field) -> tuple[int, int]:
    # lexicographically smallest (b, c) with X^2 + bX + c having no root:
    # c qualifies iff -c is none of the values x^2 + bx, i.e. iff c is none
    # of the values -(x^2 + bx); the encoding p - 1 is -1 in every field
    q = field.order
    x = np.arange(q)
    squares = array_mul(field, x, x)
    for b in range(q):
        hit = np.zeros(q, dtype=bool)
        hit[array_mul(field, field.p - 1, array_add(field, squares, array_mul(field, b, x)))] = True
        free = np.flatnonzero(~hit)
        if len(free):
            return b, int(free[0])
    raise RuntimeError("no irreducible quadratic found")  # unreachable for q >= 2


def elliptic_ovoid(field, budget: int = DEFAULT_BUDGET) -> PointSet:
    """The q^2 + 1 points of the elliptic quadric x0 x1 = f(x2, x3) in PG(3, q).

    f(u, v) = u^2 + b u v + c v^2 with (b, c) the lexicographically smallest
    pair making f irreducible.  No three of the points are collinear.
    Raises BudgetExceeded when q^2 + 1 exceeds the budget.
    """
    q = field.order
    if q * q + 1 > budget:
        raise BudgetExceeded(f"q^2 + 1 = {q * q + 1} points exceed budget {budget}")
    b, c = _smallest_irreducible_binary_quadratic(field)
    s, t = np.divmod(np.arange(q * q), q)
    # f(s, t) = s*s + (b s + c t)*t
    bs_ct = array_add(field, array_mul(field, b, s), array_mul(field, c, t))
    f = array_add(field, array_mul(field, s, s), array_mul(field, bs_ct, t))
    rows = np.empty((q * q + 1, 4), dtype=np.int64)
    rows[0] = (0, 1, 0, 0)
    rows[1:] = np.stack([np.ones_like(s), f, s, t], axis=1)
    out = PointSet.from_rows(field, 3, rows)
    assert len(out) == q * q + 1
    return out


# ---------------------------------------------------------------------------
# C4-free graphs and the curve construction over them.

@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on two label sets {0..order-1}; edges are (x, y) pairs."""

    order: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, order: int, edges) -> "BipartiteGraph":
        es = sorted(set(map(tuple, edges)))
        for x, y in es:
            if not (0 <= x < order and 0 <= y < order):
                raise ParameterError(f"edge label out of range: {(x, y)}")
        return cls(order=order, edges=tuple(es))

    @classmethod
    def complete(cls, order: int) -> "BipartiteGraph":
        return cls.from_edges(order, itertools.product(range(order), range(order)))

    def is_c4_free(self) -> bool:
        """No two left vertices share two common neighbours."""
        nbrs: dict[int, set[int]] = {}
        for x, y in self.edges:
            nbrs.setdefault(x, set()).add(y)
        for a, b in itertools.combinations(nbrs.values(), 2):
            if len(a & b) >= 2:
                return False
        return True


def trimmed_incidence_graph(q0: int) -> BipartiteGraph:
    """The point-line incidence graph of PG(2, q0), trimmed to q0^2 + q0^2 vertices.

    Removes the q0+1 points of the lexicographically smallest line L and the
    q0+1 lines through the lexicographically smallest point of L.  What
    remains has q0^2 points, q0^2 lines, and q0^3 incidences, and it stays
    C4-free because two points still lie on at most one line.  Surviving
    points and lines are labeled 0..q0^2-1 in sorted coordinate order.
    """
    field = field_of_order(q0)
    pts = _points_array(field, 2, DEFAULT_BUDGET)
    # L is z = 0, the first row, and its smallest point is (0, 1, 0): the
    # kept points have z != 0 and the kept lines (a, b, c) have b != 0
    keep_pts, keep_lines = pts[pts[:, 2] != 0], pts[pts[:, 1] != 0]
    # line j meets z = 1 in the q0 points (x, -(a x + c)/b, 1)
    a, b, c = keep_lines.T[:, :, None]
    x = np.arange(q0)
    y = array_mul(field, field.p - 1, array_add(field, array_mul(field, a, x), c))
    y = array_mul(field, y, b, -1)
    # scaled to a leading 1 by the inverse of x, else of y, else of z = 1
    w = array_mul(field, 1, np.where(x != 0, x, np.where(y != 0, y, 1)), -1)
    key = (array_mul(field, x, w) * q0 + array_mul(field, y, w)) * q0 + w
    i = np.searchsorted((keep_pts[:, 0] * q0 + keep_pts[:, 1]) * q0 + keep_pts[:, 2], key)
    j = np.broadcast_to(np.arange(q0 * q0)[:, None], i.shape)
    return BipartiteGraph.from_edges(q0 * q0, zip(i.ravel().tolist(), j.ravel().tolist()))


def graph_curve_32(graph: BipartiteGraph, field, require_c4_free: bool = False,
                   budget: int = DEFAULT_BUDGET) -> PointSet:
    """{(1, x, x^2, x^3, y, y^2, y^3) : xy an edge} in PG(6, q).

    Edge labels are read as field elements, so graph.order must not exceed
    the field order.  When the graph is C4-free the result is a (3, 2)-set:
    four of these points are coplanar only when the x's and y's each take
    exactly two values, which would be a C4.
    """
    if graph.order > field.order:
        raise ParameterError(
            f"graph labels run to {graph.order - 1} but the field has order {field.order}"
        )
    if require_c4_free and not graph.is_c4_free():
        raise ParameterError("graph contains a C4")
    if len(graph.edges) > budget:
        raise BudgetExceeded(f"{len(graph.edges)} edges exceed budget {budget}")
    # the powers come from field.logs(), which costs O(q)
    if field.order > budget:
        raise BudgetExceeded(f"field order {field.order} exceeds budget {budget}")
    edges = np.array(graph.edges, dtype=np.int64).reshape(-1, 2, 1)
    # (x, x^2, x^3, y, y^2, y^3) per edge, after a leading 1
    powers = array_mul(field, 1, edges, np.arange(1, 4)).reshape(-1, 6)
    rows = np.hstack([np.ones((len(powers), 1), dtype=np.int64), powers])
    return PointSet.from_rows(field, 6, rows)


def graph_curve_for_prime_power(q0: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """The q0^3-point (3, 2)-set in PG(6, q0^2) built on the trimmed graph."""
    p, k = factor_prime_power(q0)
    if q0**3 > budget:
        raise BudgetExceeded(f"{q0**3} edges exceed budget {budget}")
    field = make_field(p, 2 * k)
    return graph_curve_32(trimmed_incidence_graph(q0), field, budget=budget)


# ---------------------------------------------------------------------------
# Product construction via field reduction.

def product_construction(X: PointSet, r: int, Y: PointSet, s: int, *,
                         validate: bool = True,
                         budget: int = DEFAULT_BUDGET) -> PointSet:
    """Spread-product of a proper (r, r-1)-set X with an (r, s)-set Y.

    X lives in PG(N-1, q), Y in PG(M-1, q^N) over the canonical degree-N
    extension of X's field.  Every point of Y becomes a spread element of
    PG(NM-1, q) via field reduction and receives a copy of X; the union is
    an (r, s)-set of size |X| * |Y|.

    With validate=True (the default) both preconditions are checked by the
    verifier and reported with witnesses; validate=False trusts the caller.
    """
    if r < 2:
        raise ParameterError(
            f"X must be a proper ({r}, {r - 1})-set, which needs r >= 2, got r={r}"
        )
    ext = Y.field
    N = X.n + 1
    if ext.base != X.field or ext.N != N:
        raise ParameterError(
            f"Y's field must be the degree-{N} extension of X's field, got {ext!r}"
        )
    if validate:
        if not is_proper(X, r, r - 1, budget=budget):
            raise ParameterError(f"X is not a proper ({r}, {r - 1})-set")
        ok, witness = is_rs_set(Y, r, s, budget=budget)
        if not ok:
            raise ParameterError(
                f"Y is not an ({r}, {s})-set: some {witness.span_dim}-space "
                f"holds {witness.count} points"
            )
    M = Y.n + 1
    # the product's N*M coordinates per point, or the N x N*M spread bases
    # per point of Y, whichever is larger
    if len(Y) * N * M * max(len(X), N) > budget:
        raise BudgetExceeded(f"product would hold {len(X) * len(Y)} points of PG({N * M - 1}, q)")
    # the copy of X in y's element sends c to c . rows; the rows are in RREF,
    # so c's leading 1 lands on a pivot column with zeros before it
    rows = spread_bases(Y)[:, None]  # (|Y|, 1, N, N*M)
    coords = X.array.T[:, :, None]   # (N, |X|, 1)
    t = X.field.tables()
    images = lookup(t.mul, coords[0], rows[:, :, 0])
    for i in range(1, N):
        images = lookup(t.add, images, lookup(t.mul, coords[i], rows[:, :, i]))
    Z = PointSet.from_rows(X.field, N * M - 1, images.reshape(-1, N * M))
    if len(Z) != len(X) * len(Y):
        raise RuntimeError("product size is not multiplicative; spread embedding collapsed")
    return Z


@dataclass(frozen=True)
class ProductRecipe:
    """Dimensions of an iterated spread product, computed from N and M."""

    kind: str
    factors: tuple[str, ...]
    n: int                    # ambient projective dimension of the result
    r: int
    s: int
    size_exponent: Fraction   # |Z| grows like q**size_exponent


def product_recipe(kind: str, m: int, c: int = 4) -> ProductRecipe:
    """Iterated-product bookkeeping for the stock recipes.

    kind 'caps' multiplies m elliptic ovoids ((2,1)-sets, N=4 each);
    'rnc' multiplies m rational normal curves of PG(c, q) ((c-1, c-2)-sets
    read as proper factors, N=c+1 each); 'graph-rnc' starts from the graph
    curve in PG(6, q) (a (3,2)-set, N=7) and multiplies m-1 curves of
    PG(4, q^...).  Ambient dimensions follow N*M-1 at every step; sizes are
    reported as q-exponents of the leading term.
    """
    if m < 1:
        raise ParameterError("need m >= 1 factors")
    if kind == "caps":
        dims = [4] * m
        r, s = 2, 1
        exps = [Fraction(2)] * m   # an ovoid of PG(3, Q) has Q^2 + 1 points
        names = tuple(f"ovoid(PG(3, q^{4**i}))" for i in range(m))
    elif kind == "rnc":
        if c < 3:
            raise ParameterError("rnc recipe needs c >= 3")
        dims = [c + 1] * m
        r, s = c - 1, c - 2
        exps = [Fraction(1)] * m   # a rational normal curve has q + 1 points
        names = tuple(f"rnc({c}, q^{(c + 1) ** i})" for i in range(m))
    elif kind == "graph-rnc":
        dims = [7] + [5] * (m - 1)
        r, s = 3, 2
        exps = [Fraction(3, 2)] + [Fraction(1)] * (m - 1)
        names = ("graph_curve(PG(6, q))",) + tuple(
            f"rnc(4, q^{7 * 5 ** i})" for i in range(m - 1)
        )
    else:
        raise ParameterError(f"unknown recipe kind {kind!r}")
    total_dim = 1
    size_exp = Fraction(0)
    scale = 1  # current extension degree over the ground field
    for N, e in zip(dims, exps):
        total_dim *= N
        size_exp += e * scale
        scale *= N
    return ProductRecipe(
        kind=kind, factors=names, n=total_dim - 1, r=r, s=s, size_exponent=size_exp
    )
