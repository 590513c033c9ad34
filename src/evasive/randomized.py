"""Seeded randomized constructions plus the deterministic cleanup pass.

Every operation here is a pure function of its parameters and the seed,
so repeated runs (on any platform) produce identical point sets.  The
generator is splitmix64: state advances by the golden-gamma constant
0x9E3779B97F4A7C15 and each output is finalized with the xor-shift /
multiply chain (>>30, *0xBF58476D1CE4E5B9, >>27, *0x94D049BB133111EB,
>>31).  Uniform reals take the top 53 bits; bounded integers use
rejection sampling, so no draw depends on platform word size.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import is_int
from .errors import ParameterError
from .gf import array_add, array_mul
from .projgeom import DEFAULT_BUDGET, PointSet, _points_array, rank, require_points, span_mask
from .verifier import is_rs_set

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


class Prng:
    """splitmix64 stream; see the module docstring for the exact algorithm."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def real53(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) / 9007199254740992.0

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection; n is at most 2^64."""
        if n <= 0:
            raise ParameterError(f"need n >= 1, got {n}")
        if n > 1 << 64:  # limit would be 0, and every draw rejected
            raise ParameterError("need n <= 2^64, the range of one draw")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def monomial_exponents(nvars: int, degree: int):
    """All exponent vectors of the given total degree, in a fixed order.

    The order is that of sorted variable-index multisets, e.g. for degree 2
    in 3 variables: x0^2, x0x1, x0x2, x1^2, x1x2, x2^2.  Coefficient
    sampling draws in this order, which pins down the rng stream.
    """
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


@dataclass(frozen=True)
class HomogeneousForm:
    """A homogeneous polynomial, stored as exponent-vector -> coefficient.

    Zero coefficients are dropped; at least one must remain.  Evaluation is
    well defined on projective points since F(av) = a^degree F(v).
    """

    field: object
    n: int
    degree: int
    coefficients: dict

    def __post_init__(self):
        if not (is_int(self.n) and is_int(self.degree)):
            raise ParameterError(f"n and degree must be integers, got {self.n!r}, {self.degree!r}")
        if self.degree not in (2, 3):
            raise ParameterError(f"degree must be 2 or 3, got {self.degree}")
        cleaned = {}
        for exps, c in sorted(self.coefficients.items()):
            exps = tuple(exps)
            if len(exps) != self.n + 1 or not all(is_int(e) and e >= 0 for e in exps) \
                    or sum(exps) != self.degree:
                raise ParameterError(f"bad exponent vector {exps}")
            if not (is_int(c) and 0 <= c < self.field.order):
                raise ParameterError(f"coefficient {c!r} is not an encoding in "
                                     f"[0, {self.field.order})")
            if c:
                cleaned[exps] = c
        if not cleaned:
            raise ParameterError("the zero polynomial is not a form")
        object.__setattr__(self, "coefficients", cleaned)

    def evaluate(self, vectors: np.ndarray) -> np.ndarray:
        """Values at each row of an integer-encoded (m, n+1) array, in the field's dtype."""
        F = self.field
        acc = np.zeros(len(vectors), dtype=F.dtype)
        for exps, c in sorted(self.coefficients.items()):
            term = np.full(len(vectors), c, dtype=F.dtype)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = array_mul(F, term, vectors[:, i])
            acc = array_add(F, acc, term)
        return acc


def hypersurface_points(*forms: HomogeneousForm, budget: int = DEFAULT_BUDGET) -> PointSet:
    """The common zeros in PG(n, q) of one or more forms over one field and n.

    The first form is evaluated at every point of PG(n, q), so
    BudgetExceeded is raised before anything is allocated when PG(n, q)
    has more than budget points; each later form only at the common zeros
    of the earlier ones.
    """
    if not forms:
        raise ParameterError("need at least one form")
    field, n = forms[0].field, forms[0].n
    if any(f.field != field or f.n != n for f in forms):
        raise ParameterError("the forms must share one field and one n")
    pts = _points_array(field, n, budget)
    for f in forms:
        pts = pts[f.evaluate(pts) == 0]
    return PointSet(field, n, pts)  # PG(n, q) comes out sorted


def _random_form(n: int, degree: int, field, rng: Prng) -> HomogeneousForm:
    # uniform over nonzero coefficient vectors (resample the all-zero draw)
    while True:
        coeffs = {
            exps: rng.below(field.order)
            for exps in monomial_exponents(n + 1, degree)
        }
        if any(coeffs.values()):
            return HomogeneousForm(field, n, degree, coeffs)


QUADRIC_REJECTION_CAP = 1000


def random_irreducible_quadric(n: int, field, rng: Prng) -> HomogeneousForm:
    """Uniform degree-2 form conditioned on irreducibility, odd q only.

    A quadratic form over odd characteristic factors into two linear forms
    (over the closure) exactly when its symmetric matrix has rank <= 2, so
    rejection keeps resampling until the rank reaches 3.
    """
    if field.order % 2 == 0:
        raise ParameterError("random quadrics require odd field order")
    if n < 2:
        raise ParameterError(f"need n >= 2 for an irreducible quadric, got n={n}")
    half = field.inv(2)  # encoding 2 is the scalar 1+1 whenever p is odd
    for _ in range(QUADRIC_REJECTION_CAP):
        form = _random_form(n, 2, field, rng)
        sym = [[0] * (n + 1) for _ in range(n + 1)]
        for exps, c in form.coefficients.items():
            nz = [i for i, e in enumerate(exps) if e]
            if len(nz) == 1:
                sym[nz[0]][nz[0]] = c
            else:
                i, j = nz
                sym[i][j] = sym[j][i] = field.mul(c, half)
        if rank(field, sym) >= 3:
            return form
    raise RuntimeError(f"no irreducible quadric in {QUADRIC_REJECTION_CAP} draws")


def cleanup(X: PointSet, r: int, s: int, *, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Delete violating subspace intersections until X is an (r, s)-set.

    Each round finds the first violation in lexicographic order and removes
    every point of X inside its span, so the result is deterministic and
    each round strictly shrinks X.  The returned set is exactly the one on
    which is_rs_set(X, r, s, budget=budget) last held, so it is certified
    and needs no second scan.
    """
    while True:
        ok, witness = is_rs_set(X, r, s, budget=budget)
        if ok:
            return X
        X = PointSet(X.field, X.n, X.array[~span_mask(witness.generating_points, X)])


def gv_keep_probability(n: int, q: int, r: int, s: int) -> float:
    """The deletion-method keep probability q^(-s - s(n-s)/r)."""
    exponent = Fraction(s) + Fraction(s * (n - s), r)
    return float(q) ** float(-exponent)


def gv_construction(n: int, field, r: int, s: int, rng: Prng, *,
                    budget: int = DEFAULT_BUDGET) -> PointSet:
    """Random deletion from PG(n, q) followed by cleanup.

    Keeps each point with probability q^(-s - s(n-s)/r) and removes
    violating intersections afterwards.  The expected size guarantee
    ((r!-1)/r! + o(1)) q^(n-s-s(n-s)/r) holds in the regime s+1 >= r >= 3;
    other parameters are accepted but only produce a valid (r, s)-set.
    """
    if not (r >= 2 and 1 <= s < n):
        raise ParameterError(f"need r >= 2 and 1 <= s < n, got r={r}, s={s}, n={n}")
    if not (s + 1 >= r >= 3):
        log.warning(
            "gv_construction(r=%d, s=%d) is outside the size-guarantee "
            "regime s+1 >= r >= 3; the output is still a valid (r, s)-set",
            r, s,
        )
    require_points(n, field.order, budget)  # before a huge n reaches the float exponent
    p = gv_keep_probability(n, field.order, r, s)
    pts = _points_array(field, n, budget)
    # one draw per point of PG(n, q), in its sorted order
    keep = np.fromiter((rng.real53() < p for _ in range(len(pts))), dtype=bool, count=len(pts))
    return cleanup(PointSet(field, n, pts[keep]), r, s, budget=budget)


def quadric_42_construction(m: int, field, rng: Prng, *,
                            budget: int = DEFAULT_BUDGET) -> PointSet:
    """Intersect m random irreducible quadrics in PG(2m-1, q), then clean up.

    The surviving set is a (4, 2)-set; its typical size is on the order of
    q^(m-1) (each quadric keeps about a 1/q fraction of the points).
    """
    if m < 2:
        raise ParameterError(f"need m >= 2, got m={m}")
    n = 2 * m - 1
    require_points(n, field.order, budget)  # before any form is drawn
    forms = [random_irreducible_quadric(n, field, rng) for _ in range(m)]
    return cleanup(hypersurface_points(*forms, budget=budget), 4, 2, budget=budget)


def cubic_92_construction(field, rng: Prng, *, budget: int = DEFAULT_BUDGET) -> PointSet:
    """Intersect two random cubics in PG(4, q), then clean up to a (9, 2)-set.

    Cubics are sampled uniformly; cleanup removes any plane meeting the
    intersection in 10 or more points, which covers everything a degenerate
    (reducible) cubic could contribute.
    """
    cubics = [_random_form(4, 3, field, rng) for _ in range(2)]
    return cleanup(hypersurface_points(*cubics, budget=budget), 9, 2, budget=budget)
