"""The tests' independent references: scalar elimination and the subspace oracle.

Nothing here runs in the package.  PG(n, q) is enumerated with itertools,
vectors are eliminated by a scalar Gauss-Jordan (one field call per
element), and the oracle lists every s-space of the ambient as the points
of its spanning subsets.  The only package code used is the field's
scalar ops, arith's counts and the error types; nothing comes from
projgeom, linalg or the verifier, so their kernels are never checked
against themselves.
"""

import functools
import itertools
from math import comb

from evasive.arith import count_points, gaussian_binomial
from evasive.errors import BudgetExceeded, ParameterError

ProjPoint = tuple[int, ...]

ORACLE_SPACE_CAP = 100_000
ORACLE_SUBSET_CAP = 10**7


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


def all_points(n: int, field):
    """Every point of PG(n, field) as tuples, in ascending lexicographic order:
    the leading 1 at position n first, then at n - 1 with every tail, and so on."""
    for lead in range(n, -1, -1):
        for tail in itertools.product(range(field.order), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def scalar_rref(field, vectors):
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


def scalar_span(field, basis, points) -> tuple:
    """The points, in order, in the span of basis: those that leave its rank unchanged."""
    rows, _ = scalar_rref(field, basis)
    return tuple(p for p in points if len(scalar_rref(field, (*rows, p))[0]) == len(rows))


def recheck(witness, X) -> None:
    """Assert that a ViolationWitness is consistent with X, by scalar elimination."""
    points = tuple(map(tuple, X.array.tolist()))
    assert set(witness.generating_points) <= set(points)
    assert len(scalar_rref(X.field, witness.generating_points)[0]) == witness.span_dim + 1
    assert scalar_span(X.field, witness.generating_points, points) == witness.intersection
    assert set(witness.generating_points) <= set(witness.intersection)


@functools.lru_cache(maxsize=32)
def _all_s_spaces(field, n: int, s: int):
    """Every s-space as a frozenset of points: the union of its spanning
    (s+1)-subsets, grouped by RREF, since each of its points lies in one."""
    q = field.order
    nspaces = gaussian_binomial(n + 1, s + 1, q)
    if nspaces > ORACLE_SPACE_CAP:
        raise BudgetExceeded(f"{nspaces} s-spaces exceed oracle cap {ORACLE_SPACE_CAP}")
    pts = list(all_points(n, field))
    if comb(len(pts), s + 1) > ORACLE_SUBSET_CAP:
        raise BudgetExceeded("oracle subset enumeration too large")
    spaces = {}
    for subset in itertools.combinations(pts, s + 1):
        rows, _ = scalar_rref(field, subset)
        if len(rows) == s + 1:
            spaces.setdefault(rows, set()).update(subset)
    assert len(spaces) == nspaces
    assert all(len(members) == count_points(s, q) for members in spaces.values())
    return tuple(frozenset(members) for members in spaces.values())


def oracle_max_in_s_space(X, s: int) -> int:
    """max |X ∩ S| over the s-spaces S, by explicit enumeration (tiny instances)."""
    if not 0 <= s < X.n or len(X) == 0:
        raise ParameterError(f"need a nonempty set and 0 <= s < n, got s={s}, n={X.n}")
    points = set(map(tuple, X.array.tolist()))
    return max(len(points & space) for space in _all_s_spaces(X.field, X.n, s))
