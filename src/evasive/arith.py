"""Plain-integer arithmetic shared by the field, geometry and bounds modules.

Prime-power factoring, the integer checks on parameters, and the point and
subspace counts of PG(n, q).  Nothing here imports numpy, so ``bounds``
(and the ``bounds`` and ``table`` verbs) load without it.
"""

from __future__ import annotations

from math import prod

from .errors import ParameterError

DEFAULT_BUDGET = 10**8
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _iroot(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0, by Newton's method from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def is_int(value) -> bool:
    """An int and not a bool (JSON true and false load as bool, a subclass
    of int); floats and numpy scalars are refused even when whole."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_ints(**values) -> None:
    for name, value in values.items():
        if not is_int(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or ParameterError when q is not a prime power.

    Exact k-th roots for k up to log2(q): the cost grows with q's digits.
    """
    _require_ints(q=q)
    for k in range(1, max(q, 2).bit_length()):
        p = _iroot(q, k)
        if p ** k == q and _is_prime(p):
            return p, k
    raise ParameterError(f"{q} is not a prime power")


def count_points(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional linear subspaces of GF(q)^a, exact."""
    if b < 0 or b > a:
        return 0
    num = prod(q**(a - i) - 1 for i in range(b))
    den = prod(q**(b - i) - 1 for i in range(b))
    assert num % den == 0
    return num // den
