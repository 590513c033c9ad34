"""Exact arithmetic in finite fields: GF(p) and quotients base[X]/(f).

One class, ``FieldSpec``, covers every field.  A field is either GF(p), which
has no base, or base[X]/(f) for a monic irreducible f of degree N over a base
field.  ``make_field(p, k)`` is the degree-k quotient over GF(p) and
``make_extension(base, N)`` the degree-N quotient over ``base``;
``field_of_order(q)`` factors a prime power q and makes GF(q).  Fields are
equal when their (base, N, modulus) are, plus p for GF(p), so GF(p)^N is
GF(p^N): ``make_extension(make_field(p, 1), N) == make_field(p, N)``.

Element encoding contract
-------------------------
An element of GF(p) is an integer in [0, p) under plain arithmetic mod p.
An element of base[X]/(f), with q the order of the base, is an integer in
[0, q^N) whose base-q digits, least significant first, are the base
encodings of its coefficients in the power basis 1, X, ..., X^(N-1).
Unrolled down to GF(p), the base-p digits of an encoding are its coordinates
over GF(p), so addition is digit-wise mod p in every field.  Encodings 0 and
1 are always the additive and multiplicative identities.

Canonical modulus
-----------------
Every quotient uses the lexicographically smallest monic irreducible
polynomial of degree N over its base, comparing coefficient vectors written
constant term first, coefficients ordered by integer encoding.  GF(p) carries
the modulus X, i.e. coefficients (0, 1), by convention.  Two calls with equal
parameters therefore produce bit-identical field specs.

Polynomials in this module are tuples of coefficient encodings, constant term
first, with trailing (high-degree) zeros trimmed; the zero polynomial is ().

Elementwise arithmetic
----------------------
Bulk code does field arithmetic on numpy arrays of encodings through one
function per operation, each taking the field: ``array_mul`` (a * b),
``array_add`` (a + b), ``array_sub_mul`` (x - f*y) and ``array_pow``
(b^e, inverses included).  Arguments broadcast and results come out in
the field's ``dtype``, the smallest unsigned one that holds every
encoding: uint8 for q <= 256, uint16 to 65536, and so on.  Point arrays
and point files store encodings in that same dtype at every order.

Every product derives from one log layout, ``logs()``: exp, in the
field's dtype, holds two periods of g^i and then zeros; log, in the
smallest dtype that holds 4(q-1), maps each unit to its exponent and 0 to
2(q-1), which points into the zero tail, so exp[log a + log b] is a * b
for every a and b.  ``logs()`` has no limit of its own, so callers bound
q first.  In characteristic 2 the base-2 digits of an encoding are its
coordinates, so a + b is a ^ b and -f is f at every order.  Odd p adds
digit-wise mod p over the base-p digits.

``tables()`` materializes read-only q x q lookup tables from the logs,
built lazily, cached on the spec, and only up to q = 256: the mul table
and, for odd p, the add table, which the ops read through ``lookup``, one
1-D index into the table's flat view.  Above 256 the ops read ``logs()``
or add digit-wise, so no op needs a table there.  Inverses, the
elimination kernels' pivots and leads included, go through
``array_pow(F, b, -1)``, which reads ``logs()`` at every order.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .arith import _is_prime, _prime_factors, _require_ints, factor_prime_power, is_int
from .errors import ParameterError

ORDER_LIMIT = 2**64  # field orders must fit in 64 bits
LOG_BLOCK = 1024     # rows a step of logs() or array_pow maps at a time


class FieldTables(NamedTuple):
    """Read-only uint8 q x q tables of a field of order q <= 256.

    Characteristic 2 adds by XOR, so its add slot is an empty (0, 0) array;
    every slot is an array at every such order.
    """

    add: np.ndarray   # (q, q)  add[a, b] = a + b for odd p, else (0, 0)
    mul: np.ndarray   # (q, q)  mul[a, b] = exp[log a + log b]


# ---------------------------------------------------------------------------
# Polynomial helpers over an arbitrary field spec F (scalar encodings).

def _ptrim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


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
    # reduces a modulo the monic polynomial m
    dm = len(m) - 1
    a = list(a)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c == 0:
            continue
        # subtracting c X^(i-dm) m clears a[i], which the slice below drops
        for j, mj in enumerate(m[:-1], i - dm):
            if mj:
                a[j] = F.sub(a[j], F.mul(c, mj))
    return _ptrim(tuple(a[:dm]))


def _pgcd(F, a, b):
    # monic gcd, for b != (); scaling b to be monic leaves a mod b unchanged
    while b:
        li = F.inv(b[-1])
        b = tuple(F.mul(c, li) for c in b)
        a, b = b, _pmod(F, a, b)
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
    # lexicographic order, which is exactly the canonical ordering; for L >= 2
    # X divides every candidate with a zero constant term, so those are skipped
    constant = range(F.order) if L == 1 else range(1, F.order)
    for lower in itertools.product(constant, *[range(F.order)] * (L - 1)):
        f = lower + (1,)
        if _is_irreducible(F, f):
            return f
    raise RuntimeError(f"no monic irreducible of degree {L} found")  # unreachable


# ---------------------------------------------------------------------------
# Lazy q x q tables, up to q = 256.

def _build_tables(F) -> FieldTables:
    q, p, dtype = F.order, F.p, F.dtype
    if q > 256:
        raise ParameterError(f"field order {q} has no q x q tables; they stop at 256")
    exp, log = F.logs()
    mul = exp[log[:, None] + log[None, :]]
    add = np.empty((0, 0), dtype=dtype)
    if p != 2:  # p = 2 adds by XOR
        a = np.arange(q, dtype=dtype)
        add = _digit_add(F, a[:, None], a)
    out = FieldTables(add=add, mul=mul)
    for table in out:
        table.setflags(write=False)
    return out


def lookup(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for a 2-D table of at most 2^16 cells, as one 1-D lookup.

    a and b are integer arrays (or ints) of encodings that broadcast.  The
    flat index a * width + b is built in uint16, which holds it for every
    q x q table (those stop at q = 256); taking it from table.ravel() is 2
    to 3 times faster than numpy's 2-D fancy index.
    """
    idx = np.multiply(a, table.shape[1], dtype=np.uint16, casting="unsafe")
    inplace = np.ndim(idx) and idx.shape == np.broadcast_shapes(idx.shape, np.shape(b))
    idx = np.add(idx, b, out=idx if inplace else None, dtype=np.uint16, casting="unsafe")
    return np.take(table.ravel(), idx)


def _find_generator(F) -> int:
    # 1 generates the unit group of GF(2) and fails the test everywhere else
    q = F.order
    factors = _prime_factors(q - 1)
    for g in range(1, q):
        if all(F.pow(g, (q - 1) // t) != 1 for t in factors):
            return g
    raise RuntimeError("multiplicative group has no generator")  # unreachable


class _TableMixin:
    _tables: FieldTables | None
    _logs: tuple[np.ndarray, np.ndarray] | None

    def tables(self) -> FieldTables:
        """The q x q operation tables, for q <= 256 (built lazily, cached, immutable)."""
        if self._tables is None:
            self._tables = _build_tables(self)
        return self._tables

    def logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) of the cyclic unit group, as read-only arrays.

        exp has 4q - 3 cells in the field's dtype: exp[i] = g^i for a fixed
        generator g and 0 <= i < 2(q-1), two periods, so a sum of two unit
        logs needs no reduction, and zeros from 2(q-1) on.  log[x] is the
        discrete log of x != 0, and log[0] = 2(q-1), so exp[log a + log b]
        is a * b for every a and b: a zero factor's sum lands in the zero
        tail.  log's dtype is the smallest unsigned one that holds 4(q-1),
        so such a sum never wraps.  Built by doubling with no limit on q,
        so callers bound q: multiplication by g^m is GF(p)-linear on the k
        base-p digits, so with M its k x k matrix, exp[m:2m] is M applied
        to the digits of exp[:m], and M^2 is the matrix for the next step.
        k scalar products build M for g.  Each step maps LOG_BLOCK rows at
        a time, so its (rows, k) digit temporaries stay small beside exp.
        """
        if self._logs is None:
            q, p, k = self.order, self.p, self.k
            g = _find_generator(self)
            # the digit work runs in a dtype that holds an encoding and a
            # sum of k products of digits, unsigned like exp, so that no
            # division turns to floats; uint64 holds both for every q
            # below 2^32, where exp alone would already take 32 GiB
            work = np.promote_types(self.dtype, np.min_scalar_type(k * (p - 1) ** 2))
            weights = np.array([p**j for j in range(k)], dtype=work)
            # column j holds the digits of g * p^j
            M = np.array([[self.mul(g, p**j) // p**i % p for j in range(k)]
                          for i in range(k)], dtype=work)
            exp = np.zeros(4 * q - 3, dtype=self.dtype)
            exp[0] = 1
            m = 1
            while m < q - 1:
                n = min(m, q - 1 - m)
                for lo in range(0, n, LOG_BLOCK):
                    hi = min(lo + LOG_BLOCK, n)
                    digits = exp[lo:hi, None] // weights % p
                    exp[m + lo:m + hi] = (digits @ M.T % p) @ weights
                M = M @ M % p
                m += n
            exp[q - 1:2 * (q - 1)] = exp[:q - 1]
            log = np.empty(q, dtype=np.min_scalar_type(4 * (q - 1)))
            log[0] = 2 * (q - 1)
            log[exp[:q - 1]] = np.arange(q - 1, dtype=log.dtype)
            exp.setflags(write=False)
            log.setflags(write=False)
            self._logs = (exp, log)
        return self._logs


# ---------------------------------------------------------------------------
# Elementwise arithmetic on arrays of encodings, one function per operation.
# Arguments are ints or integer arrays of encodings that broadcast, and
# results come out in the field's dtype.  The ops read a field's cached
# tables directly and call tables() only to build them, so that a wrapper
# around tables() sees each build once.

def array_mul(F, a, b) -> np.ndarray:
    """a * b elementwise: the mul table up to q = 256, else exp[log a + log b],
    where a zero factor's sentinel log lands in exp's zero tail."""
    if F.order <= 256:
        return lookup((F._tables or F.tables()).mul, a, b)
    exp, log = F.logs()
    return np.take(exp, np.take(log, a) + np.take(log, b))


def array_add(F, a, b) -> np.ndarray:
    """a + b elementwise: XOR in characteristic 2, else the add table up to
    q = 256 and the digit-wise sum above it."""
    if F.p == 2:
        return np.bitwise_xor(a, b, dtype=F.dtype, casting="unsafe")
    if F.order <= 256:
        return lookup((F._tables or F.tables()).add, a, b)
    return _digit_add(F, a, b)


def array_sub_mul(F, x, f, y) -> np.ndarray:
    """x - f*y elementwise, as x + (-f)*y with -f = (p-1)*f; in
    characteristic 2, -f is f, so that product is skipped."""
    return array_add(F, x, array_mul(F, f if F.p == 2 else array_mul(F, F.p - 1, f), y))


def array_pow(F, b, e) -> np.ndarray:
    """b^e elementwise for integer exponents e, through F.logs().

    A negative e inverts: b^-1 is ``array_pow(F, b, -1)``.  b^0 = 1 for
    every b, 0 included, and 0^e = 0 for every other e, so 0^-1 gives 0.
    """
    exp, log = F.logs()
    q1 = F.order - 1
    if np.ndim(e) == 0 and e == -1:
        # b^-1 = exp[(q-1) - log b], in a signed dtype that holds every
        # log; a zero b's sentinel 2(q-1) gives -(q-1), which counts back
        # from exp's end into its zero tail
        k = np.subtract(q1, np.take(log, b), dtype=np.min_scalar_type(-2 * F.order))
        return np.take(exp, k)
    # e * log b is reduced mod q - 1 in int64, which holds it for every q
    # whose logs fit in memory; the reduction drops a zero b's sentinel, so
    # that case is masked.  LOG_BLOCK rows at a time keep those int64
    # temporaries small beside the result
    shape = np.broadcast_shapes(np.shape(b), np.shape(e))
    b, e = (np.broadcast_to(x, shape or (1,)) for x in (b, e))
    out = np.empty(b.shape, dtype=F.dtype)
    for lo in range(0, len(out), LOG_BLOCK):
        bs, es = b[lo:lo + LOG_BLOCK], e[lo:lo + LOG_BLOCK]
        k = np.take(log, bs).astype(np.int64)
        k *= es % q1
        k %= q1
        out[lo:lo + LOG_BLOCK] = np.where((bs == 0) & (es != 0), 0, np.take(exp, k))
    return out.reshape(shape)


def _digit_add(F, a, b) -> np.ndarray:
    """a + b digit-wise mod p over the base-p digits of encodings for odd
    p, which is one remainder when q = p.

    A digit sum reaches 2p - 1, past the field's dtype when p is above
    half its range (65521 in uint16), so the sums run in a dtype that
    holds 2p.
    """
    p = F.p
    work = np.promote_types(F.dtype, np.min_scalar_type(2 * p))
    a = np.asarray(a).astype(work, copy=False)
    b = np.asarray(b).astype(work, copy=False)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=work)
    w = 1
    while w < F.order:
        out += (a // w % p + b // w % p) % p * w
        w *= p
    return out.astype(F.dtype, copy=False)


# ---------------------------------------------------------------------------
# The field class

class FieldSpec(_TableMixin):
    """GF(p) when ``base`` is None, else base[X]/(modulus), on integer encodings.

    ``p`` is the characteristic, ``k`` the degree over GF(p), ``N`` the
    degree over ``base`` and ``order`` = p^k.  ``dtype`` is the smallest
    unsigned numpy dtype that holds every encoding, the one logs, tables,
    point arrays and parsed files store encodings in.  Construct through
    ``make_field`` or ``make_extension``; instances are cached and immutable.
    """

    def __init__(self, base: FieldSpec | None, N: int, modulus: tuple[int, ...],
                 p: int | None = None):
        self.base = base
        self.N = N
        self.modulus = modulus
        self.p = p if base is None else base.p
        self.k = N if base is None else base.k * N
        self.order = self.p**self.k
        self.dtype = np.min_scalar_type(self.order - 1)
        self._q = self.p if base is None else base.order
        self._tables = None
        self._logs = None
        self._key = (self.p, base, N, modulus)
        self._hash = hash(self._key)

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
        base = self.base
        if base is None:
            return a * b % self.p
        return self.from_coords(_pmod(base, _pmul(base, self.coords(a), self.coords(b)),
                                      self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.base is None:
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

    # -- coordinate maps -----------------------------------------------------

    def coords(self, x: int) -> tuple[int, ...]:
        """Power-basis coordinates of x over the base, constant term first."""
        q = self._q
        out = []
        for _ in range(self.N):
            out.append(x % q)
            x //= q
        return tuple(out)

    def from_coords(self, coords) -> int:
        q = self._q
        out = 0
        for c in reversed(tuple(coords)):
            out = out * q + c
        return out

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.base is None:
            return f"GF({self.p})"
        if self.base.base is None:
            return f"GF({self.p}^{self.k})"
        return f"{self.base!r}^{self.N}"


def _quotient(base: FieldSpec, N: int) -> FieldSpec:
    """base[X]/(f) for the canonical degree-N modulus f, after the size check."""
    if N < 1:
        raise ParameterError(f"degree {N} must be >= 1")
    # every base has at least 2 elements, so N >= 64 overflows; checking that
    # first keeps the power small
    if N >= 64 or base.order**N >= ORDER_LIMIT:
        raise ParameterError(f"field order {base.order}^{N} does not fit in 64 bits")
    return FieldSpec(base, N, _lex_smallest_irreducible(base, N))


# typed caches: 5.0 == 5 would otherwise find, or leave behind, GF(5)'s entry
@functools.lru_cache(maxsize=None, typed=True)
def make_field(p: int, k: int) -> FieldSpec:
    """GF(p^k): GF(p) for k = 1, else the degree-k quotient over GF(p)."""
    _require_ints(p=p, k=k)
    if k != 1:
        return _quotient(make_field(p, 1), k)
    # bounding p first keeps the primality test small
    if p >= ORDER_LIMIT:
        raise ParameterError(f"p={p} does not fit in 64 bits")
    if not _is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    return FieldSpec(None, 1, (0, 1), p)


def field_of_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q below ORDER_LIMIT, which is checked
    first: factoring costs more with q's digits."""
    if is_int(q) and q >= ORDER_LIMIT:
        raise ParameterError(f"q has {q.bit_length()} bits; field orders must fit in 64 bits")
    p, k = factor_prime_power(q)
    return make_field(p, k)


@functools.lru_cache(maxsize=None, typed=True)
def make_extension(base: FieldSpec, N: int) -> FieldSpec:
    """GF(q^N): the degree-N quotient over base (canonical modulus)."""
    _require_ints(N=N)
    return _quotient(base, N)
