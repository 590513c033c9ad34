"""Exact verification that a point set meets every s-space in few points.

Every s-space S with |X ∩ S| = t >= 1 satisfies X ∩ S ⊆ <B> for some
B ⊆ X ∩ S with |B| <= s+1, and conversely the span of any (s+1)-subset of
X extends to an s-space.  The maximum of |X ∩ <B>| over subsets B of size
m = min(s+1, |X|) therefore equals the maximum of |X ∩ S| over all
s-spaces: a smaller subset's span count is dominated by any size-m
superset drawn from X.

The counts come from projections, not from one span test per subset.
Write a subset as B = P ∪ {p_j}, with P its first m-1 points and
j > max(P).  Projecting from <P> sends each point p to its residue modulo
<P> (see linalg.batch_residues): zero when p ∈ <P>, and otherwise a vector
r with <P, p> = <P, r>.  For p, p' outside <P>, <P, p> = <P, p'> exactly
when their residues are proportional, so after scaling every residue to
leading coordinate 1 the points of X in <P, p_j> are those in <P> plus
those whose residue equals that of p_j:

    |X ∩ <P, p_j>| = |X ∩ <P>| + |class of j|    when p_j ∉ <P>,
    |X ∩ <P, p_j>| = |X ∩ <P>|                   when p_j ∈ <P>.

A class holds points on both sides of P in the sorted order, since <P, p_j>
contains earlier points as well as later ones; only the subset's own last
point must come after max(P).  One reduction of all N points per P thus
serves every subset extending P: about C(N, s)·N·w work, against
C(N, s+1)·N·w for testing each subset's span on its own.  It is the
projection from a subspace that bounds.best_upper_bound argues with.

Subsets are enumerated in lexicographic order over the sorted point list:
prefixes P in lex order, and for each P the j > max(P) in increasing order.
Sorted tuples compare on their first m-1 entries before their last, so this
(P, j) order is the lex order of the m-subsets, and reported witnesses are
deterministic: the first qualifying subset wins.  An independent oracle
enumerates every s-space of the ambient explicitly (plain scalar code that
shares nothing with linalg) for cross-checking on tiny instances.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import linalg
from .errors import BudgetExceeded, ParameterError
from .projgeom import (
    DEFAULT_BUDGET,
    PointSet,
    _span,
    all_points,
    count_points,
    gaussian_binomial,
)

ORACLE_SPACE_CAP = 100_000
ORACLE_SUBSET_CAP = 10**7


@dataclass(frozen=True)
class ViolationWitness:
    """A subspace together with the points of X it captures.

    generating_points span the subspace (rank = span_dim + 1) and are
    contained in the intersection.  For a genuine (r, s) violation,
    span_dim <= s and the intersection holds at least r+1 points.
    """

    generating_points: tuple
    span_dim: int
    intersection: tuple

    @property
    def count(self) -> int:
        return len(self.intersection)

    def recheck(self, X: PointSet) -> None:
        """Assert consistency against X with the oracle's scalar elimination (tests)."""
        rows, _ = _scalar_rref(X.field, self.generating_points)
        assert all(p in X for p in self.generating_points)
        assert len(rows) == self.span_dim + 1
        members = tuple(p for p in X.points
                        if len(_scalar_rref(X.field, (*rows, p))[0]) == len(rows))
        assert members == self.intersection
        assert set(self.generating_points) <= set(self.intersection)


def _class_sizes(field, R):
    """For residues R (B, N, w): how many rows of R[b] are proportional to R[b, j].

    Entries for zero residues are meaningless; callers mask them.
    """
    t = field.tables()
    B, N, _ = R.shape
    lead = np.take_along_axis(R, (R != 0).argmax(axis=2)[:, :, None], axis=2)
    R = t.mul[R, t.inv[lead]]
    # sort each batch's rows lexicographically: equal residues become adjacent
    order = np.lexsort(np.moveaxis(R, 2, 0))
    sR = np.take_along_axis(R, order[:, :, None], axis=1)
    new = np.ones((B, N), dtype=bool)
    new[:, 1:] = (sR[:, 1:] != sR[:, :-1]).any(axis=2)
    run = np.cumsum(new.ravel()) - 1
    sizes = np.empty((B, N), dtype=np.int64)
    np.put_along_axis(sizes, order, np.bincount(run)[run].reshape(B, N), axis=1)
    return sizes


def _span_counts(X: PointSet, m: int, budget: int):
    """Yield (prefixes, counts) covering the m-subsets of X in lex order.

    prefixes (B, m-1) are index arrays P in lex order; counts (B, N) holds
    |X ∩ <P, p_j>| at column j when j > max(P), and -1 elsewhere.
    """
    N = len(X)
    total = comb(N, m)
    if total > budget:
        raise BudgetExceeded(
            f"subset scan needs C({N}, {m}) = {total} spans, budget is {budget}"
        )
    field = X.field
    arr = X.array.astype(field.tables().add.dtype)
    cols = np.arange(N)
    bs = linalg.span_batch_size(N, X.n + 1)
    # a prefix holding the last point has no j > max(P) to extend it
    for P in linalg.combination_batches(N - 1, m - 1, bs):
        mats = arr[P]
        _, pivots = linalg.batch_rref(field, mats)
        R = linalg.batch_residues(field, mats, pivots, arr)
        inside = ~R.any(axis=2)
        counts = inside.sum(axis=1)[:, None] + np.where(inside, 0, _class_sizes(field, R))
        last = P[:, -1] if m > 1 else np.full(len(P), -1)
        counts[cols[None, :] <= last[:, None]] = -1
        yield P, counts


def _make_witness(X: PointSet, idx) -> ViolationWitness:
    pts = X.array[list(idx)]
    rank, inside = _span(pts, X)
    return ViolationWitness(generating_points=tuple(map(tuple, pts.tolist())),
                            span_dim=rank - 1,
                            intersection=tuple(map(tuple, X.array[inside].tolist())))


def _check_dims(X: PointSet, s: int) -> None:
    if not 0 <= s < X.n:
        raise ParameterError(f"need 0 <= s < n, got s={s}, n={X.n}")


def max_in_s_space(X: PointSet, s: int, *, budget: int = DEFAULT_BUDGET):
    """Maximum of |X ∩ S| over all s-spaces S, with a witness achieving it.

    Runs the scan to completion.  The witness is built from the
    lexicographically first subset attaining the maximum.
    """
    _check_dims(X, s)
    if len(X) == 0:
        raise ParameterError("point set is empty")
    m = min(s + 1, len(X))
    best_count = -1
    best_idx = None
    for P, counts in _span_counts(X, m, budget):
        b, j = divmod(int(counts.argmax()), len(X))
        if counts[b, j] > best_count:
            best_count = int(counts[b, j])
            best_idx = (*P[b].tolist(), j)
    return best_count, _make_witness(X, best_idx)


def find_violation(X: PointSet, dim: int, limit: int, *,
                   budget: int = DEFAULT_BUDGET) -> ViolationWitness | None:
    """First subset (lex order) of size min(dim+1, |X|) spanning > limit points.

    Returns None when every dim-space meets X in at most `limit` points.
    Aborts the scan at the first violation.
    """
    _check_dims(X, dim)
    if len(X) <= limit:
        return None
    m = min(dim + 1, len(X))
    stream = _span_counts(X, m, budget)
    for P, counts in stream:
        hits = np.flatnonzero(counts > limit)
        if len(hits):
            stream.close()
            b, j = divmod(int(hits[0]), len(X))
            return _make_witness(X, (*P[b].tolist(), j))
    return None


def is_rs_set(X: PointSet, r: int, s: int, *, budget: int = DEFAULT_BUDGET):
    """Whether every s-space contains at most r points of X.

    Returns (True, None) or (False, witness); the scan aborts on the first
    violation in lexicographic order.
    """
    if r < 1:
        raise ParameterError(f"need r >= 1, got r={r}")
    _check_dims(X, s)
    if len(X) <= r:
        return True, None
    witness = find_violation(X, s, r, budget=budget)
    return witness is None, witness


def is_proper(X: PointSet, r: int, s: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """No m-space contains m + 1 + (r - s) points of X, for any m in [0, s]."""
    if not r > s >= 1:
        raise ParameterError(f"need r > s >= 1, got r={r}, s={s}")
    _check_dims(X, s)
    if len(X) == 0:
        return True
    for m_dim in range(s + 1):
        limit = m_dim + r - s
        if find_violation(X, m_dim, limit, budget=budget) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# Independent oracle: enumerate every s-space of the ambient space.  Its
# Gauss-Jordan is the package's only scalar elimination, kept apart from
# linalg on purpose; the tests' references share it.

def _scalar_rref(field, vectors):
    """Gauss-Jordan by per-element field calls: (rows, pivot_cols), zero rows dropped."""
    rows = [list(v) for v in vectors]
    pivots = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
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


@functools.lru_cache(maxsize=32)
def _all_s_spaces(field, n: int, s: int, cap: int):
    """Every s-space as a frozenset of points: the union of its spanning
    (s+1)-subsets, grouped by RREF, since each of its points lies in one."""
    q = field.order
    nspaces = gaussian_binomial(n + 1, s + 1, q)
    if nspaces > cap:
        raise BudgetExceeded(f"{nspaces} s-spaces exceed oracle cap {cap}")
    pts = list(all_points(n, field))
    if comb(len(pts), s + 1) > ORACLE_SUBSET_CAP:
        raise BudgetExceeded("oracle subset enumeration too large")
    spaces = {}
    for subset in itertools.combinations(pts, s + 1):
        rows, _ = _scalar_rref(field, subset)
        if len(rows) == s + 1:
            spaces.setdefault(rows, set()).update(subset)
    assert len(spaces) == nspaces
    assert all(len(members) == count_points(s, q) for members in spaces.values())
    return tuple(frozenset(members) for members in spaces.values())


def oracle_max_in_s_space(X: PointSet, s: int, *, cap: int = ORACLE_SPACE_CAP) -> int:
    """max |X ∩ S| by explicit enumeration of every s-space (tiny instances)."""
    _check_dims(X, s)
    if len(X) == 0:
        raise ParameterError("point set is empty")
    points = set(X.points)
    return max(len(points & space) for space in _all_s_spaces(X.field, X.n, s, cap))
