"""Exact arithmetic in GF(p^k) and in extension towers GF(q^N).

Element encoding contract
-------------------------
An element of GF(p^k) is an integer in [0, p^k).  Its base-p digits, least
significant first, are the coefficients of the element written in the power
basis 1, X, X^2, ... of GF(p)[X] modulo the field's irreducible modulus.  The
same rule applies one level up: an element of GF(q^N) built over a base field
of order q is an integer in [0, q^N) whose base-q digits are base-field
encodings.  Encodings 0 and 1 are always the additive and multiplicative
identities, and for prime fields the encoding is plain arithmetic mod p.

Canonical modulus
-----------------
``make_field(p, k)`` always selects the lexicographically smallest monic
irreducible polynomial of degree k over GF(p), comparing coefficient vectors
written constant term first, coefficients ordered by integer encoding.  For
k = 1 the convention is modulus X, i.e. coefficients (0, 1).
``make_extension(base, N)`` applies the same rule over the base field.  Two
calls with equal parameters therefore produce bit-identical field specs.

Polynomials in this module are tuples of coefficient encodings, constant term
first, with trailing (high-degree) zeros trimmed; the zero polynomial is ().

Lookup tables
-------------
``tables()`` materializes dense numpy operation tables so that bulk code can
run field arithmetic through fancy indexing.  Tables are built lazily, cached
on the spec, and only for orders up to ``TABLE_LIMIT``.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

ORDER_LIMIT = 2**64  # field orders must fit in 64 bits
TABLE_LIMIT = 4096   # largest order we materialize lookup tables for
POW_TABLE_MAX = 3    # largest exponent kept in the pow table


class FieldTables(NamedTuple):
    add: np.ndarray   # (q, q)  add[a, b] = a + b
    sub: np.ndarray   # (q, q)  sub[a, b] = a - b
    mul: np.ndarray   # (q, q)  mul[a, b] = a * b
    neg: np.ndarray   # (q,)    neg[a] = -a
    inv: np.ndarray   # (q,)    inv[a] = a**-1, with inv[0] = 0 as a sentinel
    pow: np.ndarray   # (q, POW_TABLE_MAX + 1)  pow[a, e] = a**e, 0**0 = 1


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


# ---------------------------------------------------------------------------
# Polynomial helpers over an arbitrary field spec F (scalar encodings).

def _ptrim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _padd(F, a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _ptrim(tuple(F.add(x, y) for x, y in zip(a, b)))


def _psub(F, a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _ptrim(tuple(F.sub(x, y) for x, y in zip(a, b)))


def _pmul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ptrim(tuple(out))


def _pmod(F, a, m):
    # m must be nonzero; reduces a modulo m
    dm = len(m) - 1
    lead_inv = F.inv(m[-1])
    a = list(a)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c == 0:
            continue
        f = F.mul(c, lead_inv)
        for j in range(dm + 1):
            a[i - dm + j] = F.sub(a[i - dm + j], F.mul(f, m[j]))
    return _ptrim(tuple(a))


def _pgcd(F, a, b):
    while b:
        a, b = b, _pmod(F, a, b)
    if a:
        # normalize monic so gcd output is canonical
        li = F.inv(a[-1])
        a = _ptrim(tuple(F.mul(c, li) for c in a))
    return a


def _ppowmod(F, base, e: int, m):
    result = (1,)
    base = _pmod(F, base, m)
    while e:
        if e & 1:
            result = _pmod(F, _pmul(F, result, base), m)
        base = _pmod(F, _pmul(F, base, base), m)
        e >>= 1
    return result


def _is_irreducible(F, f) -> bool:
    """Rabin's test for a monic polynomial f over the field spec F."""
    L = len(f) - 1
    if L < 1:
        return False
    if L == 1:
        return True
    Q = F.order
    x = (0, 1)
    if _ppowmod(F, x, Q**L, f) != x:
        return False
    for t in _prime_factors(L):
        xe = _ppowmod(F, x, Q ** (L // t), f)
        if len(_pgcd(F, _psub(F, xe, x), f)) != 1:
            return False
    return True


def _lex_smallest_irreducible(F, L: int) -> tuple[int, ...]:
    # itertools.product yields coefficient vectors (constant term first) in
    # lexicographic order, which is exactly the canonical ordering
    for lower in itertools.product(range(F.order), repeat=L):
        f = lower + (1,)
        if _is_irreducible(F, f):
            return f
    raise RuntimeError(f"no monic irreducible of degree {L} found")  # unreachable


# ---------------------------------------------------------------------------
# Shared lazy table construction.

def _digit_matrix(q: int, base: int, width: int) -> np.ndarray:
    a = np.arange(q, dtype=np.int64)
    return (a[:, None] // base ** np.arange(width, dtype=np.int64)[None, :]) % base


def _build_tables(F) -> FieldTables:
    q = F.order
    if q > TABLE_LIMIT:
        raise ParameterError(
            f"field order {q} exceeds TABLE_LIMIT={TABLE_LIMIT}; "
            "bulk operations are not available for fields this large"
        )
    if getattr(F, "k", None) == 1:
        p = F.p
        r = np.arange(p, dtype=np.int64)
        add = (r[:, None] + r[None, :]) % p
        mul = (r[:, None] * r[None, :]) % p
    else:
        base_order, width, digit_add = F._digit_layout()
        digits = _digit_matrix(q, base_order, width)
        pairsum = digit_add[digits[:, None, :], digits[None, :, :]]
        weights = base_order ** np.arange(width, dtype=np.int64)
        add = pairsum @ weights
        # multiplication through discrete logs over the cyclic unit group
        g = _find_generator(F)
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        for i in range(1, q - 1):
            exp[i] = F.mul(int(exp[i - 1]), g)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int64)
        idx = (log[1:, None] + log[None, 1:]) % (q - 1)
        mul[1:, 1:] = exp[idx]
    neg = np.argmax(add == 0, axis=1)
    sub = add[:, neg]
    inv = np.argmax(mul == 1, axis=1)
    inv[0] = 0
    powt = np.empty((q, POW_TABLE_MAX + 1), dtype=np.int64)
    powt[:, 0] = 1
    powt[:, 1] = np.arange(q)
    for e in range(2, POW_TABLE_MAX + 1):
        powt[:, e] = mul[powt[:, e - 1], np.arange(q)]
    return FieldTables(add=add, sub=sub, mul=mul, neg=neg, inv=inv, pow=powt)


def _find_generator(F) -> int:
    q = F.order
    factors = _prime_factors(q - 1)
    for g in range(2, q):
        if all(F.pow(g, (q - 1) // t) != 1 for t in factors):
            return g
    raise RuntimeError("multiplicative group has no generator")  # unreachable


class _TableMixin:
    _tables: FieldTables | None

    def tables(self) -> FieldTables:
        """Dense numpy operation tables (built lazily, cached, immutable)."""
        if self._tables is None:
            self._tables = _build_tables(self)
        return self._tables


# ---------------------------------------------------------------------------
# GF(p^k)

class FieldSpec(_TableMixin):
    """Arithmetic in GF(p^k) on canonical integer encodings.

    Construct through ``make_field``; instances are cached and immutable.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self._tables = None
        if k > 1:
            # X^k == xk_red modulo the (monic) modulus
            self._xk_red = tuple((-c) % p for c in modulus[:-1])

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        out = 0
        w = 1
        for _ in range(self.k):
            out += ((a + b) % p) * w
            a //= p
            b //= p
            w *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if self.k == 1:
            return (-a) % p
        out = 0
        w = 1
        for _ in range(self.k):
            out += ((-a) % p) * w
            a //= p
            w *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return a * b % p
        da = self.digits(a)
        db = self.digits(b)
        conv = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                conv[i + j] = (conv[i + j] + x * y) % p
        red = self._xk_red
        for i in range(2 * self.k - 2, self.k - 1, -1):
            c = conv[i]
            if c == 0:
                continue
            conv[i] = 0
            for j, r in enumerate(red):
                if r:
                    conv[i - self.k + j] = (conv[i - self.k + j] + c * r) % p
        return self.from_digits(conv[: self.k])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    # -- encoding helpers ----------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a, constant term first, length k."""
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

    def from_digits(self, digits) -> int:
        out = 0
        for d in reversed(tuple(digits)):
            out = out * self.p + d
        return out

    def elements(self) -> range:
        return range(self.order)

    def _digit_layout(self):
        prime = make_field(self.p, 1)
        return self.p, self.k, prime.tables().add

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((FieldSpec, self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the canonical (lex-smallest) irreducible modulus."""
    if k < 1:
        raise ParameterError(f"k={k} must be >= 1")
    # bounding p and k first keeps the primality test and the power small
    if p >= ORDER_LIMIT:
        raise ParameterError(f"p={p} does not fit in 64 bits")
    if not _is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if k >= 64 or p**k >= ORDER_LIMIT:
        raise ParameterError(f"field order {p}^{k} does not fit in 64 bits")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    prime = make_field(p, 1)
    modulus = _lex_smallest_irreducible(prime, k)
    return FieldSpec(p, k, modulus)


# ---------------------------------------------------------------------------
# GF(q^N) towers

class ExtensionSpec(_TableMixin):
    """Arithmetic in GF(q^N) over a base field, power-basis integer encoding.

    Elements are integers in [0, q^N) whose base-q digits are base-field
    encodings, constant term first.  ``embed`` maps base elements to constant
    polynomials (the encoding is unchanged), ``coords`` is the inverse
    coordinate map onto GF(q)^N.
    """

    def __init__(self, base: FieldSpec, N: int, ext_modulus: tuple[int, ...]):
        self.base = base
        self.N = N
        self.ext_modulus = ext_modulus
        self.order = base.order**N
        self._tables = None
        self._xn_red = tuple(base.neg(c) for c in ext_modulus[:-1])
        # beta is the power-basis generator (the class of X); degenerate for N=1
        self.beta = base.order if N > 1 else 1

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        base = self.base
        q = base.order
        out = 0
        w = 1
        for _ in range(self.N):
            out += base.add(a % q, b % q) * w
            a //= q
            b //= q
            w *= q
        return out

    def neg(self, a: int) -> int:
        base = self.base
        q = base.order
        out = 0
        w = 1
        for _ in range(self.N):
            out += base.neg(a % q) * w
            a //= q
            w *= q
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        base = self.base
        da = self.coords(a)
        db = self.coords(b)
        conv = [0] * (2 * self.N - 1)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                if y:
                    conv[i + j] = base.add(conv[i + j], base.mul(x, y))
        red = self._xn_red
        for i in range(2 * self.N - 2, self.N - 1, -1):
            c = conv[i]
            if c == 0:
                continue
            conv[i] = 0
            for j, r in enumerate(red):
                if r:
                    conv[i - self.N + j] = base.add(conv[i - self.N + j], base.mul(c, r))
        return self.from_coords(conv[: self.N])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    # -- coordinate maps -----------------------------------------------------

    def embed(self, a: int) -> int:
        """Base field element as a constant of the extension (same encoding)."""
        if not 0 <= a < self.base.order:
            raise ParameterError(f"{a} is not a base field encoding")
        return a

    def coords(self, x: int) -> tuple[int, ...]:
        """Power-basis coordinates of x over the base field, constant first."""
        q = self.base.order
        out = []
        for _ in range(self.N):
            out.append(x % q)
            x //= q
        return tuple(out)

    def from_coords(self, coords) -> int:
        q = self.base.order
        out = 0
        for c in reversed(tuple(coords)):
            out = out * q + c
        return out

    def elements(self) -> range:
        return range(self.order)

    def _digit_layout(self):
        return self.base.order, self.N, self.base.tables().add

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionSpec)
            and (self.base, self.N, self.ext_modulus)
            == (other.base, other.N, other.ext_modulus)
        )

    def __hash__(self):
        return hash((ExtensionSpec, self.base, self.N, self.ext_modulus))

    def __repr__(self):
        return f"{self.base!r}^{self.N}"


@functools.lru_cache(maxsize=None)
def make_extension(base: FieldSpec, N: int) -> ExtensionSpec:
    """GF(q^N) over base, canonical (lex-smallest) degree-N modulus."""
    if N < 1:
        raise ParameterError(f"N={N} must be >= 1")
    if base.order**N >= ORDER_LIMIT:
        raise ParameterError(f"extension order {base.order}^{N} does not fit in 64 bits")
    ext_modulus = _lex_smallest_irreducible(base, N)
    return ExtensionSpec(base, N, ext_modulus)
