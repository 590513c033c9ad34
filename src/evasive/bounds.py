"""Upper and lower bounds on the size of (r, s)-sets in PG(n, q).

Three upper bounds are combined: a Rao-type bound C_{d,e} q^((n-e+1)/e) + e
available when (r, s) decomposes as r = de-1, s = d(e-1); a pigeonhole
bound r ([n-s+1 choose 1]_q + 1); and a projection recursion that trades an
(r, s)-set for an (r-m, s-m)-set in PG(n-m, q) at the cost of m points,
evaluated in one bottom-up walk over the levels, with no cache.
The lower bound is the random-deletion estimate ((r!-1)/r!) q^(n-s-s(n-s)/r).

The real values (the Rao constant and bound, the random-deletion estimate)
are computed in the standard library's decimal at _DPS = 30 digits, q-powers
as exact integers under the e-th root, comfortably above the
12-significant-digit contract.  Comparisons between bounds, and each
projection's +m, run in binary64, the precision the reports are written in.
Out-of-hypothesis requests yield entries marked inapplicable with a
reason instead of extrapolated numbers.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from decimal import Decimal, localcontext
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional

from .arith import count_points, factor_prime_power, gaussian_binomial, is_int
from .errors import ParameterError

_DPS = 30  # digits of the real values; comparisons are binary64

# exponent_table walks gap_max * s_max(s_max+1)/2 diagonal steps (1.2 million
# at s_max = 900, gap_max = 3: about 2 s on a 2-core Xeon); larger tables
# would take minutes or hold millions of cells.
TABLE_GAP_LIMIT = 1000
TABLE_STEP_LIMIT = 3 * 10**6


def _binary64(value) -> float:
    """An entry's value as the float it is compared and projected in; inf
    past the float range, where float() of an int would raise."""
    return float(Decimal(value))


def _qpow(q: int, exponent: Fraction) -> Decimal:
    """q**exponent with an exact integer power under the e-th root; a negative
    power is divided out in Decimal, where a float q**-k would underflow."""
    k, e = exponent.numerator, exponent.denominator
    power = Decimal(q ** k) if k >= 0 else 1 / Decimal(q ** -k)
    return power ** (Decimal(1) / e)


class BoundEntry(NamedTuple):
    label: str
    value: object            # int, Decimal, or float (projections); None if inapplicable
    provenance: str
    params: Mapping = MappingProxyType({})  # read-only, since every entry shares it
    applicable: bool = True
    reason: Optional[str] = None

    def value_float(self) -> Optional[float]:
        return None if self.value is None else _binary64(self.value)


class BoundsReport(NamedTuple):
    n: int
    q: int
    r: int
    s: int
    entries: tuple

    def best(self) -> BoundEntry:
        """The smallest applicable entry; ties break toward the earliest label."""
        live = [e for e in self.entries if e.applicable]
        return min(live, key=lambda e: (_binary64(e.value), e.label))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "r": self.r,
            "s": self.s,
            "best": self.best().label,
            "entries": [
                {
                    "label": e.label,
                    "value": e.value_float(),
                    "provenance": e.provenance,
                    "params": {k: str(v) if isinstance(v, Fraction) else v
                               for k, v in sorted(e.params.items())},
                    "applicable": e.applicable,
                    "reason": e.reason,
                }
                for e in self.entries
            ],
        }


def rao_decomposition(r: int, s: int):
    """The unique (d, e), both >= 2, with r = de-1 and s = d(e-1), or None.

    The two equations force d = r+1-s, so this only checks that e = (r+1)/d
    comes out a whole number of the right size.
    """
    if not r > s >= 1:
        raise ParameterError(f"need r > s >= 1, got r={r}, s={s}")
    d = r + 1 - s
    if d < 2 or (r + 1) % d:
        return None
    e = (r + 1) // d
    return (d, e) if e >= 2 else None


def rao_constant(d: int, e: int, q: int) -> Decimal:
    """C_{d,e} = (e!(d-1)(1+2/q) / (1-2e/q))^(1/e), defined for q > 2e."""
    if q <= 2 * e:
        raise ParameterError(f"need q > 2e, got q={q}, e={e}")
    with localcontext() as ctx:
        ctx.prec = _DPS
        radicand = Decimal(math.factorial(e) * (d - 1) * (q + 2)) / (q - 2 * e)
        return radicand ** (Decimal(1) / e)


def rao_bound(n: int, q: int, r: int, s: int) -> BoundEntry:
    """C_{d,e} q^((n-e+1)/e) + e, or an inapplicable entry with the reason."""
    dec = rao_decomposition(r, s)
    if dec is None:
        return BoundEntry("rao", None, "moment bound", applicable=False,
                          reason=f"no integers d,e >= 2 with r={r} = de-1, s={s} = d(e-1)")
    d, e = dec
    if q <= 2 * e:
        return BoundEntry("rao", None, "moment bound", params={"d": d, "e": e},
                          applicable=False, reason=f"hypothesis q > 2e fails (q={q}, e={e})")
    with localcontext() as ctx:
        ctx.prec = _DPS
        value = rao_constant(d, e, q) * _qpow(q, Fraction(n - e + 1, e)) + e
    return BoundEntry("rao", value, "moment bound",
                      params={"d": d, "e": e, "exponent": Fraction(n - e + 1, e)})


def _check_space(n: int, q: int) -> None:
    """Refuse a PG(n, q) with more points (the trivial bound) than a float,
    the form reports are written in, holds, and then a q that is not a prime
    power: factoring costs more with q's digits, the range check does not."""
    # n + 1 is compared as an int, which a float product could not hold
    if is_int(q) and q > 1 and n + 1 >= 1023 / math.log2(q):
        raise ParameterError("PG(n,q) has more points than a float can hold")
    factor_prime_power(q)


def pigeonhole_bound(n: int, q: int, r: int, s: int) -> int:
    """r ([n-s+1 choose 1]_q + 1): distribute X over the lines through a point
    of an (n-s)-space meeting X maximally."""
    if not (s >= 1 and n > s):
        raise ParameterError(f"need n > s >= 1, got n={n}, s={s}")
    return r * (gaussian_binomial(n - s + 1, 1, q) + 1)


def best_upper_bound(n: int, q: int, r: int, s: int) -> BoundsReport:
    """Minimum of all applicable upper bounds, including projected ones.

    Projecting from a generic m-space turns an (r, s)-set into an
    (r-m, s-m)-set in PG(n-m, q) while losing at most m points, so every
    bound for the smaller parameters lifts back up at a cost of +m.  One
    walk up the levels (n-k, r-k, s-k), from k = s-1 to 0, keeps only each
    level's best (value, label) pair; entries are built for the top level.
    """
    if not (n > s >= 1 and r > s):
        raise ParameterError(f"need n > s >= 1 and r > s, got n={n}, r={r}, s={s}")
    _check_space(n, q)
    labels = [f"projection(m={m})" for m in range(s)]
    best = [None] * s  # best[k]: the (value, label) pair that wins at level k
    for k in range(s - 1, -1, -1):
        nk, rk, sk = n - k, r - k, s - k
        direct = (BoundEntry("pigeonhole", pigeonhole_bound(nk, q, rk, sk), "line pigeonhole"),
                  rao_bound(nk, q, rk, sk),
                  BoundEntry("trivial", count_points(nk, q), "all points of PG(n,q)"))
        best[k] = min([(_binary64(e.value), e.label) for e in direct if e.applicable]
                      + [(best[k + m][0] + m, labels[m]) for m in range(1, sk)])
    projections = [  # the last pass (k = 0) left the top level's direct entries
        BoundEntry(labels[m], best[m][0] + m,
                   f"projection to ({r - m},{s - m}) in PG({n - m},{q}) via {best[m][1]}",
                   params={"m": m})
        for m in range(1, s)
    ]
    return BoundsReport(n=n, q=q, r=r, s=s,
                        entries=(direct[0], direct[1], *projections, direct[2]))


def gv_constant(r: int) -> Fraction:
    return Fraction(math.factorial(r) - 1, math.factorial(r))


def gv_exponent(n: int, r: int, s: int) -> Fraction:
    return Fraction(n - s) - Fraction(s * (n - s), r)


def gv_lower_size(n: int, q: int, r: int, s: int) -> BoundEntry:
    """Asymptotic leading term of the random-deletion lower bound."""
    if not (n > s >= 1):
        raise ParameterError(f"need n > s >= 1, got n={n}, s={s}")
    _check_space(n, q)
    if not (s + 1 >= r >= 3):
        return BoundEntry("gv", None, "random deletion", applicable=False,
                          reason=f"hypothesis s+1 >= r >= 3 fails (r={r}, s={s})")
    c = gv_constant(r)
    with localcontext() as ctx:
        ctx.prec = _DPS
        value = Decimal(c.numerator) / c.denominator * _qpow(q, gv_exponent(n, r, s))
    return BoundEntry("gv", value, "random deletion",
                      params={"constant": c,
                              "exponent": gv_exponent(n, r, s)},
                      reason="asymptotic leading term")


def _best_exponent(n: int, r: int, s: int) -> Fraction:
    # q-free version of best_upper_bound: projection adds nothing to the
    # exponent, so take the direct bounds along the diagonal (n-k, r-k, s-k),
    # where pigeonhole's q^(n-s) never changes
    best = Fraction(n - s)
    for k in range(s):
        dec = rao_decomposition(r - k, s - k)
        if dec is not None:
            best = min(best, Fraction(n - k - dec[1] + 1, dec[1]))
    return best


def exponent_table(n: int, s_max: int, gap_max: int) -> dict:
    """{(s, r-s): minimal upper-bound exponent} as exact fractions in n.

    Gates on q are ignored here: exponents describe the q -> infinity regime.
    """
    if s_max < 1 or gap_max < 1:
        raise ParameterError(f"need s_max, gap_max >= 1, got {s_max}, {gap_max}")
    if n < 2 * s_max:
        raise ParameterError(f"need n >= 2*s_max for positive entries, got n={n}")
    if gap_max > TABLE_GAP_LIMIT or gap_max * s_max * (s_max + 1) // 2 > TABLE_STEP_LIMIT:
        raise ParameterError(f"tables stop at gap_max = {TABLE_GAP_LIMIT} and "
                             f"{TABLE_STEP_LIMIT} diagonal steps")
    return {
        (s, gap): _best_exponent(n, s + gap, s)
        for s in range(1, s_max + 1)
        for gap in range(1, gap_max + 1)
    }
