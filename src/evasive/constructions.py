"""Explicit point-set constructions with bounded subspace intersections.

Everything here is deterministic: point sets come out normalized, deduped,
and sorted, so repeated runs produce identical objects and files.

The curve, ovoid and graph families are computed as whole numpy arrays of
encodings in the field's dtype: products go through ``gf.array_mul``,
powers and inverses through ``gf.array_pow``, sums through
``gf.array_add``, and the rows go to ``PointSet.from_rows``.  Above
q = 256 these read the field's O(q) discrete logs and no table, as the
verifier's scan does at every order; each family checks its budget
before it allocates.
Products use the same arithmetic over the extension field: field reduction
sends x to the element x~ whose base-q digits are x's coordinates, and its
copy in the spread element of y is x~ * y, coordinate by coordinate.
"""

from __future__ import annotations

import numpy as np

from .arith import factor_prime_power, is_int
from .errors import BudgetExceeded, ParameterError
from .gf import ORDER_LIMIT, array_add, array_mul, array_pow, make_field
from .projgeom import (DEFAULT_BUDGET, PointSet, _far_past, _log10_power, _matrix,
                       _points_array, _scientific, _shown, row_keys)
from .verifier import is_proper, is_rs_set


def field_of_order(q: int):
    """GF(q) for a prime power q below gf.ORDER_LIMIT, which is checked
    first: factoring costs more with q's digits."""
    if is_int(q) and q >= ORDER_LIMIT:
        raise ParameterError(f"q has {q.bit_length()} bits; field orders must fit in 64 bits")
    p, k = factor_prime_power(q)
    return make_field(p, k)


def _monomial_points(n: int, field, budget: int, columns) -> PointSet:
    # x_i = g^e_i for every exponent vector e in [0, q-1)^(n-1), g the
    # generator of field.logs(), so F_0(x) = g^S with S the sum of the e_i;
    # columns(e, S) gives the exponents of coordinates 1..n, coordinate 0 is 1
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    q = field.order
    # a size far past the budget is refused from its logarithm, as
    # require_points does: (q-1)^(n-1) takes seconds to build at n = 10^9
    log_size = _log10_power(q - 1, n - 1)
    size = None if _far_past(log_size, budget) else (q - 1) ** (n - 1)
    if size is None or size > budget:
        shown = _scientific(log_size) if size is None else _shown(size)
        raise BudgetExceeded(f"(q-1)^(n-1) = {shown} exceeds budget {budget}")
    if size * (n + 1) > budget:
        raise BudgetExceeded(f"(q-1)^(n-1) * (n+1) = {_shown(size * (n + 1))} coordinates "
                             f"exceed budget {budget}")
    exp, _ = field.logs()
    # e_i is base-(q-1) digit i of the point's index
    e = np.arange(size)[:, None] // (q - 1) ** np.arange(n - 1) % (q - 1)
    rows = np.ones((size, n + 1), dtype=field.dtype)
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
    BudgetExceeded when q + 1 points, or their (q + 1)(c + 1) coordinates,
    exceed the budget.
    """
    if c < 2:
        raise ParameterError(f"need c >= 2, got c={c}")
    q = field.order
    if q + 1 > budget:
        raise BudgetExceeded(f"q + 1 = {q + 1} points exceed budget {budget}")
    if (q + 1) * (c + 1) > budget:
        raise BudgetExceeded(f"(q + 1) * (c + 1) = {_shown((q + 1) * (c + 1))} coordinates "
                             f"exceed budget {budget}")
    # (0, ..., 0, 1) first and t ascending: from_rows finds the rows sorted
    rows = np.zeros((q + 1, c + 1), dtype=field.dtype)
    rows[0, c] = 1
    rows[1:] = array_pow(field, np.arange(q)[:, None], np.arange(c + 1))
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
    # the columns are written in place: row 1 + s q + t is (1, f(s, t), s, t)
    rows = np.empty((q * q + 1, 4), dtype=field.dtype)
    rows[0] = (0, 1, 0, 0)
    grid = rows[1:].reshape(q, q, 4)
    grid[:, :, 0] = 1
    grid[:, :, 2] = np.arange(q)[:, None]
    grid[:, :, 3] = np.arange(q)
    s, t = rows[1:, 2], rows[1:, 3]
    # f(s, t) = s*s + (b s + c t)*t
    bs_ct = array_add(field, array_mul(field, b, s), array_mul(field, c, t))
    rows[1:, 1] = array_add(field, array_mul(field, s, s), array_mul(field, bs_ct, t))
    out = PointSet.from_rows(field, 3, rows)
    assert len(out) == q * q + 1
    return out


# ---------------------------------------------------------------------------
# C4-free graphs and the curve construction over them.

def trimmed_incidence_graph(q0: int) -> np.ndarray:
    """The point-line incidence graph of PG(2, q0), trimmed to q0^2 + q0^2 vertices.

    Removes the q0+1 points of the lexicographically smallest line L and the
    q0+1 lines through the lexicographically smallest point of L.  What
    remains has q0^2 points, q0^2 lines, and q0^3 incidences, and it stays
    C4-free because two points still lie on at most one line.  Surviving
    points and lines are labeled 0..q0^2-1 in sorted coordinate order, and
    the graph is returned as its (q0^3, 2) int64 array of (point, line)
    labels, one row an incidence, sorted ascending.
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
    y = array_mul(field, y, array_pow(field, b, -1))
    # scaled to a leading 1 by the inverse of x, else of y, else of z = 1
    w = array_pow(field, np.where(x != 0, x, np.where(y != 0, y, 1)), -1)
    met = np.stack(np.broadcast_arrays(array_mul(field, x, w), array_mul(field, y, w), w), axis=-1)
    # the budget keeps q0^2 + q0 + 1 small, so q0^3 < 2^64: one word a key
    [pts_key], [met_key] = row_keys(keep_pts, q0), row_keys(met.reshape(-1, 3), q0)
    i = np.searchsorted(pts_key, met_key)
    j = np.repeat(np.arange(q0 * q0), q0)
    order = np.lexsort((j, i))
    return np.column_stack((i[order], j[order])).astype(np.int64, copy=False)


def graph_curve_32(edges, field, budget: int = DEFAULT_BUDGET) -> PointSet:
    """{(1, x, x^2, x^3, y, y^2, y^3) : xy an edge} in PG(6, q).

    ``edges`` are the graph's (x, y) rows, as a list of pairs or an (E, 2)
    integer array, in any order and with repeats.  Labels are read as
    field elements, so each must be an integer in [0, q); they are checked
    as point rows are, after the edge count and the field order are
    checked against the budget.  When the graph is C4-free the result is
    a (3, 2)-set: four of these points are coplanar only when the x's and
    y's each take exactly two values, which would be a C4.
    """
    if len(edges) > budget:
        raise BudgetExceeded(f"{len(edges)} edges exceed budget {budget}")
    # the powers come from field.logs(), which costs O(q)
    if field.order > budget:
        raise BudgetExceeded(f"field order {field.order} exceeds budget {budget}")
    # (x, x^2, x^3, y, y^2, y^3) per edge, after a leading 1
    powers = array_pow(field, _matrix(field, edges, 2)[:, :, None], np.arange(1, 4))
    rows = np.hstack([np.ones((len(powers), 1), dtype=field.dtype), powers.reshape(-1, 6)])
    return PointSet.from_rows(field, 6, rows)


def graph_curve_for_prime_power(q0: int, budget: int = DEFAULT_BUDGET) -> PointSet:
    """The q0^3-point (3, 2)-set in PG(6, q0^2) built on the trimmed graph."""
    field = field_of_order(q0 * q0)
    if q0**3 > budget:
        raise BudgetExceeded(f"{q0**3} edges exceed budget {budget}")
    return graph_curve_32(trimmed_incidence_graph(q0), field, budget=budget)


# ---------------------------------------------------------------------------
# Product construction via field reduction.

def product_construction(X: PointSet, r: int, Y: PointSet, s: int, *,
                         budget: int = DEFAULT_BUDGET) -> PointSet:
    """Spread-product of a proper (r, r-1)-set X with an (r, s)-set Y.

    X lives in PG(N-1, q), Y in PG(M-1, q^N) over the canonical degree-N
    extension of X's field.  Every point of Y becomes a spread element of
    PG(NM-1, q) via field reduction and receives a copy of X; the union is
    an (r, s)-set of size |X| * |Y|.

    r - 1 must be below X's dimension and s below Y's, which is checked
    before any scan and refused naming the factor and its space.  Then
    both preconditions are certified, X by is_proper and Y by is_rs_set;
    a failure raises ParameterError, and Y's names the size of a subspace
    and the points it holds.  BudgetExceeded is raised when either scan,
    the product's |X| * |Y| * N * M coordinates, or the order of Y's
    field, whose discrete logs the multiplication reads, exceed the budget.
    """
    if r < 2:
        raise ParameterError(
            f"X must be a proper ({r}, {r - 1})-set, which needs r >= 2, got r={r}"
        )
    if r - 1 >= X.n:
        raise ParameterError(f"X lies in PG({X.n}, {X.field.order}), where a proper "
                             f"({r}, {r - 1})-set needs r - 1 < {X.n}, got r={r}")
    if not 0 <= s < Y.n:
        raise ParameterError(f"Y lies in PG({Y.n}, {Y.field.order}), where an "
                             f"({r}, {s})-set needs 0 <= s < {Y.n}, got s={s}")
    if not is_proper(X, r, r - 1, budget=budget):
        raise ParameterError(f"X is not a proper ({r}, {r - 1})-set")
    ok, witness = is_rs_set(Y, r, s, budget=budget)
    if not ok:
        raise ParameterError(
            f"Y is not an ({r}, {s})-set: some {witness.span_dim}-space "
            f"holds {witness.count} points"
        )
    return _spread_product(X, Y, budget=budget)


def _spread_product(X: PointSet, Y: PointSet, *, budget: int = DEFAULT_BUDGET) -> PointSet:
    """product_construction's body without its checks of X and Y.

    Refuses a Y whose field is not the degree-(X.n + 1) extension of X's,
    checks both budgets, and builds no table when Y's field is above
    order 256.
    """
    ext = Y.field
    N = X.n + 1
    if ext.base != X.field or ext.N != N:
        raise ParameterError(
            f"Y's field must be the degree-{N} extension of X's field, got {ext!r}"
        )
    M = Y.n + 1
    if len(X) * len(Y) * N * M > budget:
        raise BudgetExceeded(f"product would hold {len(X) * len(Y)} points of PG({N * M - 1}, q)")
    # multiplying in ext builds ext.logs(), which costs O(ext.order)
    if ext.order > budget:
        raise BudgetExceeded(f"field order {ext.order} exceeds budget {budget}")
    # x~ = sum x_i beta^i is the element of ext whose base-q digits are x,
    # and the copy of x in y's spread element is x~ * y: coordinate c of y
    # gives the N digits of x~ * y_c, in columns c*N to c*N + N - 1
    q = X.field.order
    # widened first: a uint64 array times int64 powers would give floats
    xt = X.array.astype(np.int64) @ q ** np.arange(N)
    images = np.empty((len(X), len(Y), M, N), dtype=X.field.dtype)
    for c in range(M):
        prod = array_mul(ext, xt[:, None], Y.array[:, c])
        for j in range(N):
            prod, images[:, :, c, j] = np.divmod(prod, q)
    del prod
    Z = PointSet.from_rows(X.field, N * M - 1, images.reshape(-1, N * M))
    if len(Z) != len(X) * len(Y):
        raise RuntimeError("product size is not multiplicative; spread embedding collapsed")
    return Z

