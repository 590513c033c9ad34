"""Projective geometry over finite fields: points, subspaces and counting.

A projective point of PG(n, q) is a normalized homogeneous coordinate tuple
of length n+1: the first nonzero coordinate equals 1.  A PointSet stores its
points as one read-only (N, n+1) array of encodings in the field's
``dtype`` (uint8 up to q = 256, uint16 up to 65536, and so on up to
uint64), deduplicated and sorted in ascending lexicographic order, which
makes every downstream enumeration (and every file the CLI writes)
deterministic.  It has two constructors: PointSet.from_rows checks that
rows are normalized encodings of the right width, then sorts and dedupes
them unless they are already strictly ascending; PointSet(field, n, array)
trusts an array that is already all of that, and casts it to the field's
dtype (no copy when it is in it already).  Code that combines encodings
into larger integers widens them first.  A PointSet holds no tuples:
callers that want them read ``X.array.tolist()``.

Rows are ordered, deduplicated, grouped and looked up by one key:
row_keys packs each row, after an optional lead such as a prefix index,
into as few uint64 words as hold it, and sort_runs sorts those keys with
one argsort (one word) or a lexsort of the words, and marks the runs of
equal keys.

Subspaces are represented by the reduced row echelon form of any spanning
set: pivots are 1 with zeros above and below, rows ordered by pivot column.
Two subspaces are equal iff their RREF rows are equal, so the basis doubles
as a canonical form.  Every rank, RREF and span test here runs
linalg.batch_rref on a batch of one matrix, at every field order.  It
takes the rows one at a time, with the verifier walk's step: a row is
scaled to 1 at its first nonzero column, that column is cleared from the
other rows, and the nonzero rows are then put in pivot-column order.  A
span test reduces each point with the finished rows the same way, and
the point is in the span when nothing is left.  Input vectors are
checked for shape, integer type and encoding range before they are
eliminated.  Like gf's ops, elimination builds the field's O(q) logs
with no limit on q, so callers bound q first.
"""

from __future__ import annotations

from math import floor, inf, log10

import numpy as np

from .arith import DEFAULT_BUDGET, count_points, gaussian_binomial
from .errors import BudgetExceeded, ParameterError
from . import linalg


def require_points(n: int, q: int, budget: int) -> int:
    """count_points(n, q), or BudgetExceeded when it is above budget.

    A count of 16 digits or more is written as (q^(n+1) - 1)/(q - 1) and
    in scientific notation, so the message stays one short line.
    """
    log_total = _log10_power(q, n + 1) - log10(q - 1)
    # a count that far past the budget is refused from its logarithm,
    # before q^(n+1) is built: at n = 10^8 that alone takes minutes
    far = _far_past(log_total, budget)
    total = None if far else count_points(n, q)
    if far or total > budget:
        shown = str(total) if not far and total < 10**15 else \
            f"({q}^{_shown(n + 1)} - 1)/{q - 1}, about {_scientific(log_total)},"
        raise BudgetExceeded(f"PG({_shown(n)},{q}) has {shown} points, budget is {budget}")
    return total


def _log10_power(base: int, exponent: int) -> float:
    """log10(base ** exponent) without building the power; inf past the float range."""
    try:
        return exponent * log10(base)
    except OverflowError:  # the exponent itself is past the float range
        return inf if base > 1 else 0.0


def _far_past(log_count: float, budget: int) -> bool:
    """Whether a count of log10 log_count is refused before it is built."""
    return log_count >= 16 and log_count > log10(max(budget, 1)) + 1


def _shown(x: int) -> str:
    """x in full below 10^15, else as _scientific writes it."""
    return str(x) if x < 10**15 else _scientific(log10(x))


def _scientific(log_x: float) -> str:
    """The number whose log10 is log_x, as d.de+N: str() of a huge int is slow or refused.

    From N = 10^15 on the exponent is written the same way, as 10^d.de+N.
    """
    if log_x == inf:
        return "10^10^308 or more"
    if log_x >= 1e15:
        return f"10^{_scientific(log10(log_x))}"
    e = floor(log_x)
    mantissa = f"{10 ** (log_x - e):.1f}"
    if mantissa == "10.0":
        mantissa, e = "1.0", e + 1
    return f"{mantissa}e+{e}"


def _points_array(field, n: int, budget: int) -> np.ndarray:
    """PG(n, field) as an (N, n+1) array in field.dtype, in ascending lexicographic order.

    Rows come out normalized: for each position of the leading 1, all tails
    over the field follow as base-q digits in encoding order, and later
    leading positions sort first.  The budget is checked before allocating.
    """
    q = field.order
    total = require_points(n, q, budget)
    out = np.zeros((total, n + 1), dtype=field.dtype)
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
    """vectors as a fresh (m, w) array in field.dtype, checked before any use.

    Refuses ragged rows, entries that are not integers (floats are not
    truncated and bools are not read as 0 and 1, in lists or in arrays),
    a width other than ``width`` (when given) and encodings outside
    [0, q), then narrows; no rows at all give an (0, width) array.
    Python ints are compared exactly at any size.
    """
    try:
        if isinstance(vectors, np.ndarray) and vectors.dtype.kind in "iu":
            mat = np.array(vectors)
        else:
            # beside ints numpy infers int64 for bools, float64 for ints
            # from 2^63 on and object past 2^64; object keeps every entry
            # as it was given, a bool or float array's too, and holds the
            # lists of ragged rows
            mat = np.array(vectors, dtype=object)
        integers = mat.dtype.kind != "O" or all(
            type(x) is int or isinstance(x, np.integer) for x in mat.flat)
    except (TypeError, ValueError, OverflowError):
        integers = False
    if not integers:
        raise ParameterError("vectors must be integer rows of one length")
    if mat.shape == (0,):
        mat = mat.reshape(0, width or 0)
    if mat.ndim != 2 or (width is not None and mat.shape[1] != width):
        raise ParameterError("vector length does not match ambient dimension")
    if mat.size and (mat.min() < 0 or int(mat.max()) >= field.order):
        raise ParameterError(f"coordinates must be encodings in [0, {field.order})")
    return mat.astype(field.dtype, copy=False)


def row_keys(rows: np.ndarray, base: int, lead: np.ndarray | None = None) -> list:
    """One order-preserving key per row of an (m, w) array of entries in [0, base).

    The key reads ``lead`` (when given, nonnegative integers) and then the
    row's entries as the digits of one mixed-radix number, cut into uint64
    words, most significant first: a word takes digits while the product
    of their radices stays at most 2^64, so the words are as few as hold
    the row.  Comparing keys word by word is comparing (lead, row)
    lexicographically, and equal keys mean equal rows.
    """
    digits = [(rows[:, c], base) for c in range(rows.shape[1])]
    if lead is not None:
        digits.insert(0, (lead, int(lead.max()) + 1 if len(lead) else 1))
    words, span = [], 0
    for digit, radix in digits:
        if words and span * radix <= 1 << 64:
            words[-1] *= np.uint64(radix)
            # in uint64: numpy adds uint64 and int64 in float64, which rounds
            np.add(words[-1], digit, out=words[-1], dtype=np.uint64, casting="unsafe")
            span *= radix
        else:
            words.append(digit.astype(np.uint64))
            span = radix
    return words


def _rises(keys: list) -> np.ndarray:
    """Whether each row's key is above the previous row's, compared word by word."""
    head, *rest = keys
    rise = head[1:] > head[:-1]
    tie = head[1:] == head[:-1] if rest else None
    for word in rest:
        rise |= tie & (word[1:] > word[:-1])
        tie &= word[1:] == word[:-1]
    return rise


def sort_runs(keys: list):
    """(order, first): the order sorting row_keys' keys ascending, and
    whether each row in that order starts a run of equal keys."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    first = np.ones(len(order), dtype=bool)
    first[1:] = _rises([word[order] for word in keys])
    return order, first


def _leads(rows: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row, 0 for a zero row."""
    lead = rows[:, -1].copy()
    for c in range(rows.shape[1] - 2, -1, -1):
        np.copyto(lead, rows[:, c], where=rows[:, c] != 0)
    return lead


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

    __slots__ = ("field", "n", "array")

    def __init__(self, field, n: int, array: np.ndarray):
        self.array = np.asarray(array, dtype=field.dtype)
        self.array.setflags(write=False)
        self.field = field
        self.n = n

    @classmethod
    def from_rows(cls, field, n: int, rows) -> "PointSet":
        """Point set of an (m, n+1) integer array of normalized rows, in any order.

        Refuses ragged rows, a zero or unnormalized row, the wrong width
        and encodings outside [0, q); duplicate rows are dropped.  Rows
        already strictly ascending skip the sort.  No field arithmetic is
        done, so it works at any field order.
        """
        rows = _matrix(field, rows, n + 1)
        # no rows: the per-column work below would cost O(n) for nothing
        if not len(rows):
            return cls(field, n, rows)
        if not (_leads(rows) == 1).all():
            raise ParameterError("every row must be nonzero with first nonzero entry 1")
        keys = row_keys(rows, field.order)
        # rows already strictly ascending (every valid file's are) need no sort
        if _rises(keys).all():
            return cls(field, n, rows)
        order, first = sort_runs(keys)
        del keys
        return cls(field, n, rows[order[first]])

    def truncated(self, size: int) -> "PointSet":
        """The first `size` points in lexicographic order."""
        if size < 0:
            raise ParameterError(f"cannot keep a negative number of points, got {size}")
        return PointSet(self.field, self.n, self.array[:size])

    def __len__(self):
        return len(self.array)

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
