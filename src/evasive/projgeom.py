"""Projective geometry over finite fields: points, subspaces, field reduction.

A projective point of PG(n, q) is a normalized homogeneous coordinate tuple
of length n+1: the first nonzero coordinate equals 1.  Point sets keep their
points deduplicated and sorted in ascending lexicographic order of encoding
tuples, which makes every downstream enumeration (and every file the CLI
writes) deterministic.

Subspaces are represented by the reduced row echelon form of any spanning
set: pivots are 1 with zeros above and below, rows ordered by pivot column.
Two subspaces are equal iff their RREF rows are equal, so the basis doubles
as a canonical form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import BudgetExceeded, ParameterError
from .gf import FieldSpec
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
    """Every point of PG(n, field) as an iterator, in ascending lexicographic order.

    Points are generated already normalized: for each position i of the
    leading 1, all tails over the field are enumerated in encoding order.
    Later leading positions sort first, so the overall stream is sorted.
    The budget is checked at the call, before any point is produced.
    """
    q = field.order
    total = count_points(n, q)
    if total > budget:
        raise BudgetExceeded(f"PG({n},{q}) has {total} points, budget is {budget}")
    return ((0,) * i + (1,) + tail
            for i in range(n, -1, -1)
            for tail in itertools.product(range(q), repeat=n - i))


def count_points(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def _points_array(field, n: int, budget: int) -> np.ndarray:
    """PG(n, field) as an (N, n+1) int64 array, rows in all_points order."""
    return np.fromiter(
        itertools.chain.from_iterable(all_points(n, field, budget)),
        dtype=np.int64,
        count=count_points(n, field.order) * (n + 1),
    ).reshape(-1, n + 1)


def rank(field, vectors) -> int:
    """Rank of a list of coordinate vectors."""
    return len(rref(field, vectors)[0])


def rref(field, vectors):
    """Reduced row echelon form: (rows, pivot_cols), zero rows dropped."""
    rows = [list(v) for v in vectors]
    pivots = []
    if not rows:
        return (), ()
    w = len(rows[0])
    r = 0
    for col in range(w):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        li = field.inv(rows[r][col])
        rows[r] = [field.mul(li, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def reduce_vector(field, rows, pivots, vec):
    """Residual of vec after elimination against RREF rows; 0s iff in span."""
    v = list(vec)
    for row, col in zip(rows, pivots):
        f = v[col]
        if f != 0:
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return tuple(v)


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a projective subspace of PG(n, field)."""

    field: object
    n: int
    rows: tuple[ProjPoint, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, field, n: int, vectors) -> "SubspaceBasis":
        rows, pivots = rref(field, vectors)
        if not rows:
            raise ParameterError("subspace needs at least one nonzero vector")
        if len(rows[0]) != n + 1:
            raise ParameterError("vector length does not match ambient dimension")
        return cls(field=field, n=n, rows=rows, pivots=pivots)

    @property
    def dim(self) -> int:
        """Projective dimension (rank - 1)."""
        return len(self.rows) - 1

    def contains(self, point) -> bool:
        return all(c == 0 for c in reduce_vector(self.field, self.rows, self.pivots, point))


class PointSet:
    """A deduplicated, lexicographically sorted set of points of PG(n, field)."""

    __slots__ = ("field", "n", "points", "_array", "_index")

    def __init__(self, field, n: int, points: tuple[ProjPoint, ...]):
        self.field = field
        self.n = n
        self.points = points
        self._array = None
        self._index = None

    @classmethod
    def from_vectors(cls, field, n: int, vectors) -> "PointSet":
        pts = sorted({normalize(field, v) for v in vectors})
        for p in pts:
            if len(p) != n + 1:
                raise ParameterError("vector length does not match ambient dimension")
        return cls(field, n, tuple(pts))

    @classmethod
    def from_rows(cls, field, n: int, rows) -> "PointSet":
        """Point set of an (m, n+1) integer array of normalized rows, in any order.

        Duplicate rows are dropped; the sorted array is kept as ``array``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != n + 1:
            raise ParameterError("vector length does not match ambient dimension")
        nonzero = rows != 0
        lead = rows[np.arange(len(rows)), nonzero.argmax(axis=1)]
        if not (nonzero.any(axis=1) & (lead == 1)).all():
            raise ParameterError("every row must be nonzero with first nonzero entry 1")
        rows = rows[np.lexsort(rows.T[::-1])]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[keep]
        rows.setflags(write=False)
        X = cls(field, n, tuple(map(tuple, rows.tolist())))
        X._array = rows
        return X

    @classmethod
    def from_normalized(cls, field, n: int, points) -> "PointSet":
        """Trusted constructor for points already normalized, deduped, sorted."""
        return cls(field, n, tuple(points))

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            a = np.asarray(self.points, dtype=np.int64).reshape(len(self.points), self.n + 1)
            a.setflags(write=False)
            self._array = a
        return self._array

    def truncated(self, size: int) -> "PointSet":
        """The first `size` points in lexicographic order."""
        return PointSet(self.field, self.n, self.points[:size])

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point):
        if self._index is None:
            self._index = frozenset(self.points)
        return point in self._index

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and (self.field, self.n, self.points) == (other.field, other.n, other.points)
        )

    def __repr__(self):
        return f"PointSet(PG({self.n}, {self.field.order}), {len(self.points)} points)"


def span_count(basis_points, X: PointSet):
    """How many points of X lie in the span of basis_points.

    Returns (count, members) with members the tuple of contained points in
    lexicographic order.
    """
    field = X.field
    rows, pivots = rref(field, basis_points)
    if not rows:
        raise ParameterError("span of an empty or zero set")
    if len(X) == 0:
        return 0, ()
    mats = np.asarray(rows, dtype=np.int64)[None, :, :]
    pcols = np.asarray(pivots, dtype=np.int64)[None, :]
    members = linalg.batch_span_members(field, mats, pcols, X.array)[0]
    idx = np.nonzero(members)[0]
    return int(members.sum()), tuple(X.points[i] for i in idx)


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
    """Copy X into a spread element via the basis-row linear injection."""
    rows = spread_element.rows
    if X.n + 1 != len(rows):
        raise ParameterError(
            f"need a point set of PG({len(rows) - 1}, q) to embed into a "
            f"{len(rows) - 1}-row spread element, got PG({X.n}, q)"
        )
    field = spread_element.field
    w = len(rows[0])
    out = []
    for pt in X.points:
        vec = [0] * w
        for c, row in zip(pt, rows):
            if c != 0:
                vec = [field.add(v, field.mul(c, r)) for v, r in zip(vec, row)]
        out.append(normalize(field, vec))
    result = PointSet.from_vectors(field, spread_element.n, out)
    if len(result) != len(X):
        raise RuntimeError("embedding collapsed points; basis rows not independent")
    return result
