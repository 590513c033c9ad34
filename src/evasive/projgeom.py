"""Projective geometry over finite fields: points, subspaces, field reduction.

A projective point of PG(n, q) is a normalized homogeneous coordinate tuple
of length n+1: the first nonzero coordinate equals 1.  A PointSet stores its
points as one read-only (N, n+1) int64 array of encodings, deduplicated and
sorted in ascending lexicographic order, which makes every downstream
enumeration (and every file the CLI writes) deterministic.  It has two
constructors: PointSet.from_rows checks that rows are normalized encodings
of the right width, then sorts and dedupes; PointSet(field, n, array)
trusts an array that is already all of that.  Tuples of points are built
only on request (``points``, iteration and ``in``).

Subspaces are represented by the reduced row echelon form of any spanning
set: pivots are 1 with zeros above and below, rows ordered by pivot column.
Two subspaces are equal iff their RREF rows are equal, so the basis doubles
as a canonical form.  Every rank, RREF and span test here runs
linalg.batch_rref on a batch of one matrix, and spread_bases runs it once
on one matrix per point, so they need the field's tables (orders up to
gf.TABLE_LIMIT); input vectors are checked for shape and encoding range
before they are eliminated.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import BudgetExceeded, ParameterError
from .gf import lookup
from . import linalg

DEFAULT_BUDGET = 10**8

ProjPoint = tuple[int, ...]


def normalize(field, vec) -> ProjPoint:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    vec = tuple(vec)
    for c in vec:
        if c != 0:
            if c == 1:
                return vec
            li = field.inv(c)
            return tuple(field.mul(li, x) for x in vec)
    raise ParameterError("cannot normalize the zero vector")


def all_points(n: int, field, budget: int = DEFAULT_BUDGET):
    """Every point of PG(n, field) as tuples, in ascending lexicographic order."""
    return map(tuple, _points_array(field, n, budget).tolist())


def count_points(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def _points_array(field, n: int, budget: int) -> np.ndarray:
    """PG(n, field) as an (N, n+1) int64 array, in ascending lexicographic order.

    Rows come out normalized: for each position of the leading 1, all tails
    over the field follow as base-q digits in encoding order, and later
    leading positions sort first.  The budget is checked before allocating.
    """
    q = field.order
    total = count_points(n, q)
    if total > budget:
        raise BudgetExceeded(f"PG({n},{q}) has {total} points, budget is {budget}")
    out = np.zeros((total, n + 1), dtype=np.int64)
    start = 0
    for t in range(n + 1):  # the leading 1 at n - t, then t free coordinates
        block = out[start:start + q**t]
        block[:, n - t] = 1
        k = np.arange(q**t)
        for i in range(t):  # coordinate n - i is base-q digit i of the row's rank
            block[:, n - i] = k // q**i % q
        start += q**t
    return out


def _matrix(field, vectors, width: int | None = None) -> np.ndarray:
    """vectors as a fresh (m, w) int64 array, checked before any use.

    Refuses ragged rows, entries of a non-integer dtype (floats are not
    truncated), a width other than ``width`` (when given) and encodings
    outside [0, q); no rows at all give an (0, width) array.
    """
    try:
        mat = np.array(vectors)
    except (TypeError, ValueError, OverflowError):
        mat = None
    if mat is None or mat.size and mat.dtype.kind not in "iu":
        raise ParameterError("vectors must be integer rows of one length")
    mat = mat.astype(np.int64, copy=False)
    if mat.shape == (0,):
        mat = mat.reshape(0, width or 0)
    if mat.ndim != 2 or (width is not None and mat.shape[1] != width):
        raise ParameterError("vector length does not match ambient dimension")
    if mat.size and (mat.min() < 0 or int(mat.max()) >= field.order):
        raise ParameterError(f"coordinates must be encodings in [0, {field.order})")
    return mat


def rank(field, vectors) -> int:
    """Rank of a list of coordinate vectors."""
    return len(rref(field, vectors)[0])


def rref(field, vectors):
    """Reduced row echelon form: (rows, pivot_cols), zero rows dropped."""
    mat = _matrix(field, vectors)
    if not mat.size:
        return (), ()
    ranks, pivots = linalg.batch_rref(field, mat[None])
    r = int(ranks[0])
    return tuple(map(tuple, mat[:r].tolist())), tuple(pivots[0, :r].tolist())


class PointSet:
    """The rows of ``array``: deduplicated, sorted points of PG(n, field)."""

    __slots__ = ("field", "n", "array", "_points", "_index")

    def __init__(self, field, n: int, array: np.ndarray):
        array.setflags(write=False)
        self.field = field
        self.n = n
        self.array = array
        self._points = None
        self._index = None

    @classmethod
    def from_rows(cls, field, n: int, rows) -> "PointSet":
        """Point set of an (m, n+1) integer array of normalized rows, in any order.

        Refuses ragged rows, a zero or unnormalized row, the wrong width
        and encodings outside [0, q); duplicate rows are dropped.  No
        field arithmetic is done, so it works at any field order.
        """
        rows = _matrix(field, rows, n + 1)
        nonzero = rows != 0
        lead = rows[np.arange(len(rows)), nonzero.argmax(axis=1)]
        if not (nonzero.any(axis=1) & (lead == 1)).all():
            raise ParameterError("every row must be nonzero with first nonzero entry 1")
        rows = rows[np.lexsort(rows.T[::-1])]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return cls(field, n, rows[keep])

    @property
    def points(self) -> tuple[ProjPoint, ...]:
        if self._points is None:
            self._points = tuple(map(tuple, self.array.tolist()))
        return self._points

    def truncated(self, size: int) -> "PointSet":
        """The first `size` points in lexicographic order."""
        if size < 0:
            raise ParameterError(f"cannot keep a negative number of points, got {size}")
        return PointSet(self.field, self.n, self.array[:size])

    def __len__(self):
        return len(self.array)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        if self._index is None:
            self._index = frozenset(self.points)
        return point in self._index

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and (self.field, self.n) == (other.field, other.n)
            and np.array_equal(self.array, other.array)
        )

    def __repr__(self):
        return f"PointSet(PG({self.n}, {self.field.order}), {len(self)} points)"


def _span(basis_points, X: PointSet):
    """(rank, mask): the rank of basis_points, and which rows of X.array lie in their span."""
    mats = _matrix(X.field, basis_points, X.n + 1)[None]
    ranks, pivots = linalg.batch_rref(X.field, mats)
    if not ranks[0]:
        raise ParameterError("span of an empty or zero set")
    return int(ranks[0]), linalg.batch_span_members(X.field, mats, pivots, X.array)[0]


def span_mask(basis_points, X: PointSet) -> np.ndarray:
    """Boolean mask over the rows of X.array: which lie in the span of basis_points."""
    return _span(basis_points, X)[1]


def span_count(basis_points, X: PointSet):
    """How many points of X lie in the span of basis_points.

    Returns (count, members) with members the tuple of contained points in
    lexicographic order.
    """
    members = X.array[span_mask(basis_points, X)]
    return len(members), tuple(map(tuple, members.tolist()))


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional linear subspaces of GF(q)^a, exact."""
    if b < 0 or b > a:
        return 0
    num = prod(q**(a - i) - 1 for i in range(b))
    den = prod(q**(b - i) - 1 for i in range(b))
    assert num % den == 0
    return num // den


def spread_bases(Y: PointSet) -> np.ndarray:
    """The spread element of every point of Y under field reduction, in RREF.

    Y lives in PG(M-1, q^N) over ext = base[X]/(f).  Expanding each
    coordinate into its N base-q digits maps a point y to the GF(q)-row
    space of {beta^i * y : 0 <= i < N}, an (N-1)-space of PG(NM-1, q).
    Distinct points map to disjoint spaces, and their union is the whole
    space.  Returns a (|Y|, N, N*M) array in the base tables' dtype whose
    j-th matrix holds the canonical RREF rows of y_j's element; the digits
    of coordinate c fill columns c*N to c*N + N - 1.  Each beta^i * y comes
    from beta^(i-1) * y by shifting the digits up one place and adding the
    top digit times -f, through the base field's tables, so no discrete
    logs of ext are needed.  Refuses a zero row of Y, whose matrix has
    rank 0.
    """
    ext = Y.field
    base = ext.base
    if base is None:
        raise ParameterError(f"field reduction needs an extension field, got {ext!r}")
    N, M = ext.N, Y.n + 1
    t = base.tables()
    q = base.order
    mats = np.empty((len(Y), N, M, N), dtype=t.add.dtype)
    mats[:, 0] = Y.array[:, :, None] // q ** np.arange(N) % q
    wrap = t.neg[list(ext.modulus[:N])]  # X^N = -(f_0 + f_1 X + ... + f_(N-1) X^(N-1))
    for i in range(1, N):
        prev = mats[:, i - 1]
        mats[:, i] = lookup(t.mul, prev[..., -1:], wrap)
        mats[:, i, :, 1:] = lookup(t.add, mats[:, i, :, 1:], prev[..., :-1])
    mats = mats.reshape(len(Y), N, N * M)
    ranks, _ = linalg.batch_rref(base, mats)
    if (ranks < N).any():
        raise ParameterError("spread element has wrong dimension; input was not a point")
    return mats
