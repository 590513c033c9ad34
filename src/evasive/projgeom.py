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
linalg.batch_rref on a batch of one matrix, so it needs the field's tables
(orders up to gf.TABLE_LIMIT); input vectors are checked for shape and
encoding range before they are eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import BudgetExceeded, ParameterError
from .gf import FieldSpec, array_add, array_mul
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

    Refuses ragged rows, a width other than ``width`` (when given) and
    encodings outside [0, q); no rows at all give an (0, width) array.
    """
    try:
        mat = np.array(vectors, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError("vectors must be integer rows of one length") from None
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


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a projective subspace of PG(n, field)."""

    field: object
    n: int
    rows: tuple[ProjPoint, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, field, n: int, vectors) -> "SubspaceBasis":
        rows, pivots = rref(field, _matrix(field, vectors, n + 1))
        if not rows:
            raise ParameterError("subspace needs at least one nonzero vector")
        return cls(field=field, n=n, rows=rows, pivots=pivots)

    @property
    def dim(self) -> int:
        """Projective dimension (rank - 1)."""
        return len(self.rows) - 1


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


def field_reduction_spread(point, ext: FieldSpec) -> SubspaceBasis:
    """The spread element of a point of PG(M-1, q^N) under field reduction.

    Expanding each GF(q^N) coordinate into N base-field coordinates maps a
    projective point y to the GF(q)-row space of {beta^i * y : 0 <= i < N},
    an (N-1)-dimensional subspace of PG(NM-1, q).  Distinct points map to
    disjoint subspaces and the union covers the whole space.
    """
    point = tuple(point)
    M = len(point)
    base = ext.base
    rows = []
    scale = 1
    for _ in range(ext.N):
        vec = []
        for c in point:
            vec.extend(ext.coords(ext.mul(scale, c)))
        rows.append(vec)
        scale = ext.mul(scale, ext.beta)
    basis = SubspaceBasis.from_vectors(base, ext.N * M - 1, rows)
    if basis.dim != ext.N - 1:
        raise ParameterError("spread element has wrong dimension; input was not a point")
    return basis


def embed_copy(X: PointSet, spread_element: SubspaceBasis) -> PointSet:
    """Copy X into a spread element via the basis-row linear injection.

    c maps to c · rows; as the rows are in RREF, c's leading 1 lands on a
    pivot column with zeros before it, so every image is normalized.
    """
    rows = np.asarray(spread_element.rows, dtype=np.int64)
    if X.n + 1 != len(rows):
        raise ParameterError(
            f"need a point set of PG({len(rows) - 1}, q) to embed into a "
            f"{len(rows) - 1}-row spread element, got PG({X.n}, q)"
        )
    field = spread_element.field
    images = np.zeros((len(X), rows.shape[1]), dtype=np.int64)
    for coords, row in zip(X.array.T, rows):
        images = array_add(field, images, array_mul(field, coords[:, None], row))
    result = PointSet.from_rows(field, spread_element.n, images)
    if len(result) != len(X):
        raise RuntimeError("embedding collapsed points; basis rows not independent")
    return result
