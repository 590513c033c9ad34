"""Exact verification that a point set meets every s-space in few points.

Every s-space S with |X ∩ S| = t >= 1 satisfies X ∩ S ⊆ <B> for some
B ⊆ X ∩ S with |B| <= s+1, and conversely the span of any (s+1)-subset of
X extends to an s-space.  The maximum of |X ∩ <B>| over subsets B of size
m = min(s+1, |X|) therefore equals the maximum of |X ∩ S| over all
s-spaces: a smaller subset's span count is dominated by any size-m
superset drawn from X.

Subsets are enumerated in lexicographic order over the sorted point list,
and reported witnesses are the first qualifying subset in that order.  The
independent oracle lives with the tests (tests/oracle.py): it enumerates
every s-space of the ambient explicitly, in plain scalar code that shares
nothing with projgeom, linalg or this module, to cross-check tiny
instances.

Levels
------
The scan is the paper's projection, applied point by point.  A prefix
P = (b_1 < ... < b_d) of a subset sits at level d, and it carries the
residues modulo <P> of the points after b_d: vectors of w - d coordinates,
with w = n + 1.  Level 0 is the points themselves.  Extending P by a later
point b is one elimination step on P's residues: scale b's residue r to 1
at its first nonzero column c, subtract f·r from every later residue
(f its entry at c) and drop column c.  A residue is zero exactly when its
point lies in <P, b>, and two nonzero residues are proportional exactly
when their points span the same space together with P.  No prefix is
ever eliminated from scratch.  The step's pivot comes from
linalg.unit_pivots, which batch_rref takes its row steps with too.

The greedy-basis argument
-------------------------
Let B = (b_1, ..., b_m) be the lex-first subset with |X ∩ <B>| > limit
and T = X ∩ <B>.  Every point t of T with t < b_k lies in
<b_1, ..., b_{k-1}>: otherwise swapping t for a suitable b_x, x >= k,
spans <B> again (by exchange in <B>/<b_1..b_{k-1}>, or by dropping an
element of B that the others span) and gives a lex-smaller subset with
the same count.  So the points of T that <b_1..b_k> adds to
<b_1..b_{k-1}> all come at or after b_k, and the walk counts only those:

    layer k = {t >= b_k : t in <b_1..b_k>, t not in <b_1..b_{k-1}>},

which is b_k itself plus the later points whose nonzero residues the
step from b_k turns to zero.  The last layer is the class of b_m among the residues after
b_{m-1}.  The layers are disjoint subsets of X ∩ <B>, so the count of any
subset is never too high, and the lex-first violating subset (with limit
= max - 1, the lex-first maximal one) is counted exactly.  The maxima and
the first violation are therefore those of the full count, and each
level's residues need only the points after its prefix: about
C(N, d+1)·(w-d) cells at level d, against C(N, s)·N·w for one reduction
of every point per prefix.

Rank-deficient prefixes
-----------------------
A point b whose residue is zero lies in <P> already (three collinear
points, at s >= 3).  P ∪ {b} is then a prefix of the same span: its
residues are P's, it adds no layer, and it is still walked, because the
lex-first subset may contain it (the first four points of a plane, three
of them collinear, at s = 3).  A batch holding such a prefix keeps its
width: its other children zero their pivot columns instead of dropping
them.

Grouping
--------
The last level groups each batch's residues, scaled to a leading 1, by
projgeom's packed row key: the prefix index, then the residue's digits
in base q, in as few uint64 words as hold them.  One word, as in every
benchmark scan, is sorted with one argsort; PG(8, 256) and wider need
two or more words, which are lexsorted.  The first argsort maps numpy's
SIMD sort code: beside the column lexsort it replaced, the benchmark
workloads' peak RSS measured 0.1 to 0.4 MiB higher, within the 1.6 MiB
(5%) the benchmark allows.

Workspace
---------
Children are built in batches of contiguous lex order.  A batch is sized
by the bytes its residues take, intp index temporaries included, up to
WORKSPACE_BYTES; the first batch of a scan is one prefix, and the size
doubles from there, so a scan that stops at its first subset pays for
little more than that subset.  That first batch can hold all N rows, so
per-row columns, prefix indices and zero counts take the smallest dtype
that holds them.  Rows are gathered with np.take along axis 0.  Field
arithmetic goes through gf's elementwise ops, array_mul and
array_sub_mul, in the field's dtype, and leads are inverted through
array_pow(field, leads, -1), which reads the field's O(q) logs.  So a
scan works at every field order, and it raises BudgetExceeded before it
starts when the order is above the budget, as it does when C(N, m) is.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, ParameterError
from .gf import array_mul, array_pow, array_sub_mul
from .linalg import unit_pivots
from .projgeom import DEFAULT_BUDGET, PointSet, _leads, _span, rank, row_keys, sort_runs

WORKSPACE_BYTES = 1 << 21  # residue batch of the scan, index temporaries included


class ViolationWitness(NamedTuple):
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
        """The number of points of X in the subspace; shadows tuple.count."""
        return len(self.intersection)


class _Level(NamedTuple):
    """A batch of prefixes at one level, each with the residues after it.

    Prefix k holds, as rows start[k]:start[k+1] of ``rows``, the residues
    modulo <P_k> of the points after max(P_k); its last row is point N-1.
    base[k] plus the number of zero rows of prefix k is what the walk
    counts of X ∩ <P_k> (see the layers above).
    """

    prefix: np.ndarray  # (K, d) point indices, in lex order
    base: np.ndarray    # (K,)
    start: np.ndarray   # (K+1,)
    rows: np.ndarray    # (T, width) in the field's dtype


def _subset(level: _Level, row: int, N: int) -> tuple:
    """The subset a row of a last-level batch stands for: its prefix, then its point."""
    k = int(np.searchsorted(level.start, row, side="right")) - 1
    return (*level.prefix[k].tolist(), row + N - int(level.start[k + 1]))


def _extend(field, R: np.ndarray, a: np.ndarray, L: np.ndarray):
    """One elimination step for each child: the residues of the L[i] rows
    after row a[i] of R, modulo the residue at a[i].

    Returns (start, rows, full): child i holds rows start[i]:start[i+1],
    and full[i] is False when row a[i] is zero (the point lies in <P>
    already), in which case its rows are R's unchanged.
    """
    width = R.shape[1]
    col, full, unit = unit_pivots(field, R[a])
    start = np.zeros(len(a) + 1, dtype=np.intp)
    np.cumsum(L, out=start[1:])
    src = np.repeat(a + 1 - start[:-1], L)
    src += np.arange(len(src))
    S = np.take(R, src, axis=0)
    del src
    cols = np.repeat(col.astype(np.min_scalar_type(width)), L)
    at = np.arange(0, S.size, width)
    at += cols
    f = np.take(S.ravel(), at)
    del at
    rows = array_sub_mul(field, S, f[:, None], np.repeat(unit, L, axis=0))
    del S, f
    if not full.all():
        return start, rows, full
    # drop each row's pivot column, which the step has zeroed
    out = np.empty((len(rows), width - 1), dtype=rows.dtype)
    for c in range(width - 1):
        out[:, c] = rows[:, c + 1]
        np.copyto(out[:, c], rows[:, c], where=cols > c)
    return start, out, full


def _children(field, level: _Level, m: int, N: int, limit: list):
    """The level's children that can still reach m points, in lex order,
    in batches of at most limit[0] workspace bytes (at least one child)."""
    zero = ~level.rows.any(axis=1)
    base = level.base + np.add.reduceat(zero, level.start[:-1], dtype=np.intp)
    zeros_to = np.cumsum(zero, dtype=np.min_scalar_type(len(zero)))
    del zero
    need = m - level.prefix.shape[1] - 1
    after = np.repeat(level.start[1:] - 1, np.diff(level.start))
    after -= np.arange(len(after))
    a = np.flatnonzero(after >= need)
    cost = np.cumsum(after[a], dtype=np.int64)
    del after
    # workspace of one child row: 16 bytes a cell (values and intp
    # indices) plus 96 for its index and sort arrays, among them the
    # packed key and its sorted copy, 16 bytes a uint64 word
    row_bytes = 16 * level.rows.shape[1] + 96
    lo, done = 0, 0
    while lo < len(a):
        hi = int(np.searchsorted(cost, done + limit[0] // row_bytes, side="right"))
        hi = max(hi, lo + 1)
        sel = a[lo:hi]
        start, rows, full = _extend(field, level.rows, sel, np.diff(cost[lo:hi], prepend=done))
        node = np.searchsorted(level.start, sel, side="right") - 1
        end = level.start[node + 1]
        # the child's own zero rows are added when it is walked; those
        # after row a that were zero here already are counted in base
        yield _Level(prefix=np.column_stack((level.prefix[node], sel + N - end)),
                     base=base[node] + full - (zeros_to[end - 1] - zeros_to[sel]),
                     start=start, rows=rows)
        limit[0] = min(WORKSPACE_BYTES, 2 * max(limit[0], int(cost[hi - 1] - done) * row_bytes))
        lo, done = hi, int(cost[hi - 1])


def _class_sizes(keys: list) -> np.ndarray:
    """How many rows share each row's key (a row_keys key)."""
    order, first = sort_runs(keys)
    run = np.cumsum(first)
    run -= 1
    sizes = np.empty(len(order), dtype=np.intp)
    sizes[order] = np.bincount(run)[run]
    return sizes


def _counts(field, level: _Level) -> np.ndarray:
    """The walk's count of X ∩ <P, p_j> for every row j of every prefix P."""
    R = level.rows
    K = len(level.base)
    node = np.repeat(np.arange(K, dtype=np.min_scalar_type(K)), np.diff(level.start))
    lead = _leads(R)
    zero = lead == 0
    # residues scaled to a leading 1 are equal exactly when proportional
    scaled = array_mul(field, array_pow(field, lead, -1)[:, None], R)
    keys = row_keys(scaled, field.order, lead=node)
    del scaled
    sizes = _class_sizes(keys)
    sizes[zero] = 0
    sizes += (level.base + np.add.reduceat(zero, level.start[:-1], dtype=np.intp))[node]
    return sizes


def _walk(field, level: _Level, m: int, N: int, limit: list):
    """Depth first from level, in lex order, yielding (last level, counts).

    limit[0] is the scan's current batch size in bytes, shared by every level.
    """
    if level.prefix.shape[1] == m - 1:
        yield level, _counts(field, level)
        return
    for child in _children(field, level, m, N, limit):
        yield from _walk(field, child, m, N, limit)


def _span_counts(X: PointSet, m: int, budget: int):
    """Yield (level, counts) covering the m-subsets of X in lex order.

    Row j of a last-level batch stands for the subset _subset(level, j, N);
    counts[j] is its count under the layer rule (never above |X ∩ <B>|, and
    equal to it for the lex-first subset reaching any given count).
    """
    N = len(X)
    total = comb(N, m)
    if total > budget:
        raise BudgetExceeded(
            f"subset scan needs C({N}, {m}) = {total} spans, budget is {budget}"
        )
    # the scan inverts through the field's logs, which cost O(q)
    if X.field.order > budget:
        raise BudgetExceeded(f"field order {X.field.order} exceeds budget {budget}")
    root = _Level(prefix=np.empty((1, 0), dtype=np.intp), base=np.zeros(1, dtype=np.intp),
                  start=np.array([0, N]), rows=X.array)
    return _walk(X.field, root, m, N, [0])


def _make_witness(X: PointSet, idx) -> ViolationWitness:
    pts = X.array[list(idx)]
    k, inside = _span(pts, X)
    return ViolationWitness(generating_points=tuple(map(tuple, pts.tolist())),
                            span_dim=k - 1,
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
    for level, counts in _span_counts(X, m, budget):
        j = int(counts.argmax())
        if counts[j] > best_count:
            best_count = int(counts[j])
            best_idx = _subset(level, j, len(X))
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
    for level, counts in stream:
        hits = np.flatnonzero(counts > limit)
        if len(hits):
            idx = _subset(level, int(hits[0]), len(X))
            del level, counts
            stream.close()
            return _make_witness(X, idx)
    return None


def is_rs_set(X: PointSet, r: int, s: int, *, budget: int = DEFAULT_BUDGET):
    """Whether every s-space contains at most r points of X.

    Returns (True, None) or (False, witness); the scan aborts on the first
    violation in lexicographic order.
    """
    if r < 1:
        raise ParameterError(f"need r >= 1, got r={r}")
    witness = find_violation(X, s, r, budget=budget)
    return witness is None, witness


def is_proper(X: PointSet, r: int, s: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """No m-space contains more than m + g points of X, for any m in [1, s], g = r - s.

    m = 0 needs no check: g >= 1, and a point of the ambient holds at
    most one point of X.  One scan at dimension s and the rank of X
    decide the rest.

    Lemma.  Let D = rank(X) - 1.  Suppose an m-space, 1 <= m <= s, holds
    more than m + g points of X.  Then either an s-space holds more than
    s + g = r of them, or D < s and |X| > D + g.  Proof: the points it
    holds span a t-space T ⊆ <X> with t <= m, so T holds more than
    t + g points of X.  While dim T < min(s, D), some point of X lies
    outside T; adding it raises dim T by one and the count by at least
    one, so the count stays above dim T + g.  At dim T = s that is the
    first case; at dim T = D < s, T = <X> holds all of X, the second.
    Conversely both cases break the rule: the first at m = s, the second
    at m = D, which is at least 1 since |X| > D + g >= D + 1 and a
    0-space holds one point.

    So X is proper exactly when find_violation(X, s, r) finds nothing and
    D >= s or |X| <= D + g.  The rank is taken after the scan, whose
    budget checks come first; it reads the field's O(q) logs, so it is
    refused like the scan when q is above the budget.
    """
    if not r > s >= 1:
        raise ParameterError(f"need r > s >= 1, got r={r}, s={s}")
    if find_violation(X, s, r, budget=budget) is not None:
        return False
    # the scan stops before its budget checks when |X| <= r
    if X.field.order > budget:
        raise BudgetExceeded(f"field order {X.field.order} exceeds budget {budget}")
    D = rank(X.field, X.array) - 1
    return D >= s or len(X) <= D + r - s
