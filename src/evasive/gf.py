"""Exact arithmetic in finite fields: GF(p) and quotients base[X]/(f).

One class, ``FieldSpec``, covers every field.  A field is either GF(p), which
has no base, or base[X]/(f) for a monic irreducible f of degree N over a base
field.  ``make_field(p, k)`` is the degree-k quotient over GF(p) and
``make_extension(base, N)`` the degree-N quotient over ``base``.  Fields are
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

Lookup tables
-------------
``tables()`` materializes dense numpy operation tables so that bulk code can
run field arithmetic through fancy indexing; ``lookup`` reads a 2-D table
through one 1-D index into its flat view.  Tables are built lazily, cached
on the spec, read-only, and only for orders up to ``TABLE_LIMIT``.  Their
dtype is the smallest unsigned one that holds every encoding, chosen from
the order alone: uint8 for q <= 256, uint16 above.  Subtraction has no
table: x - f*y is add[x, mul[neg[f], y]].  ``logs()`` holds the
O(q) discrete-log arrays behind the mul table and behind ``array_mul`` and
``array_add``, which do elementwise arithmetic on arrays of encodings at any
order; it has no limit of its own, so callers bound q first.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

ORDER_LIMIT = 2**64  # field orders must fit in 64 bits
TABLE_LIMIT = 4096   # largest order we materialize lookup tables for
_MUL_BLOCK_CELLS = 2**16  # cells of the mul table filled per step


class FieldTables(NamedTuple):
    """Read-only tables, all uint8 for q <= 256 and uint16 above."""

    add: np.ndarray   # (q, q)  add[a, b] = a + b
    mul: np.ndarray   # (q, q)  mul[a, b] = a * b
    neg: np.ndarray   # (q,)    neg[a] = -a
    inv: np.ndarray   # (q,)    inv[a] = a**-1, with inv[0] = 0 as a sentinel


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
# Lazy table construction, one path for every field.

def _build_tables(F) -> FieldTables:
    q, p = F.order, F.p
    if q > TABLE_LIMIT:
        raise ParameterError(
            f"field order {q} exceeds TABLE_LIMIT={TABLE_LIMIT}; "
            "bulk operations are not available for fields this large"
        )
    dtype = np.dtype(np.uint8 if q <= 256 else np.uint16)
    # addition is digit-wise mod p, so the add table of the encodings below
    # p^(i+1) is p x p blocks of the table below p^i, each block shifted by
    # p^i times the sum mod p of the two new top digits; 2(p-1) fits uint16
    r = np.arange(p, dtype=np.uint16)
    digit_add = r[:, None] + r[None, :]
    np.remainder(digit_add, np.uint16(p), out=digit_add)
    digit_add = digit_add.astype(dtype, copy=False)
    add = digit_add
    for i in range(1, F.k):
        m = p**i
        shift = digit_add * dtype.type(m)
        add = (add[None, :, None, :] + shift[:, None, :, None]).reshape(m * p, m * p)
    # mul from the logs, a block of rows at a time, so no int64 array of
    # q^2 cells exists
    exp, log = F.logs()
    exp = exp.astype(dtype)
    mul = np.zeros((q, q), dtype=dtype)
    rows = max(1, _MUL_BLOCK_CELLS // q)
    for lo in range(1, q, rows):
        mul[lo:lo + rows, 1:] = exp[log[lo:lo + rows, None] + log[None, 1:]]
    a = np.arange(q)
    neg = array_mul(F, p - 1, a).astype(dtype)  # the encoding p - 1 is -1 in every field
    inv = array_mul(F, 1, a, -1).astype(dtype)
    out = FieldTables(add=add, mul=mul, neg=neg, inv=inv)
    for table in out:
        table.setflags(write=False)
    return out


def lookup(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for a 2-D table, as one 1-D lookup of a * width + b.

    a and b are integer arrays (or ints) of encodings that broadcast.  The
    flat index is built in uint16 when the table has at most 2^16 cells
    (q <= 256) and in uint32 above, which holds every table up to
    TABLE_LIMIT; taking it from table.ravel() is 2 to 3 times faster than
    numpy's 2-D fancy index.
    """
    dtype = np.uint16 if table.size <= 2**16 else np.uint32
    idx = np.multiply(a, table.shape[1], dtype=dtype, casting="unsafe")
    inplace = np.ndim(idx) and idx.shape == np.broadcast_shapes(idx.shape, np.shape(b))
    idx = np.add(idx, b, out=idx if inplace else None, dtype=dtype, casting="unsafe")
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
        """Dense numpy operation tables (built lazily, cached, immutable)."""
        if self._tables is None:
            self._tables = _build_tables(self)
        return self._tables

    def logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) of the cyclic unit group, as read-only int64 arrays.

        exp[i] = g^i for a fixed generator g and 0 <= i < 2(q-1): two periods,
        so a sum of two logs needs no reduction.  log[x] is the discrete log
        of x != 0; log[0] = 0 is a placeholder that callers mask.  Built in
        O(q) scalar multiplications with no TABLE_LIMIT, so callers bound q.
        """
        if self._logs is None:
            q = self.order
            g = _find_generator(self)
            exp = np.empty(2 * (q - 1), dtype=np.int64)
            x = 1
            for i in range(q - 1):
                exp[i] = x
                x = self.mul(x, g)
            exp[q - 1:] = exp[:q - 1]
            log = np.zeros(q, dtype=np.int64)
            log[exp[:q - 1]] = np.arange(q - 1)
            exp.setflags(write=False)
            log.setflags(write=False)
            self._logs = (exp, log)
        return self._logs


# ---------------------------------------------------------------------------
# Elementwise arithmetic on arrays of encodings, with no q x q tables.

def array_mul(F, a, b=1, e=1) -> np.ndarray:
    """a * b^e elementwise, through F.logs(); arguments broadcast.

    b^e is ``array_mul(F, 1, b, e)`` and b^-1 is ``array_mul(F, 1, b, -1)``.
    A zero factor gives 0, b^0 = 1 for every b (0 included) and, as in the
    inv table, 0^-1 gives 0.
    """
    exp, log = F.logs()
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    e = np.asarray(e, dtype=np.int64)
    out = exp[log[a] + log[b] * (e % (F.order - 1)) % (F.order - 1)]
    return np.where((a == 0) | ((b == 0) & (e != 0)), 0, out)


def array_add(F, a, b) -> np.ndarray:
    """a + b elementwise: digit-wise mod p over the k base-p digits."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    p = F.p
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    w = 1
    for _ in range(F.k):
        out += (a // w % p + b // w % p) % p * w
        w *= p
    return out


# ---------------------------------------------------------------------------
# The field class

class FieldSpec(_TableMixin):
    """GF(p) when ``base`` is None, else base[X]/(modulus), on integer encodings.

    ``p`` is the characteristic, ``k`` the degree over GF(p), ``N`` the
    degree over ``base`` and ``order`` = p^k.  Construct through
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
        self._q = self.p if base is None else base.order
        self._tables = None
        self._logs = None
        self._key = (self.p, base, N, modulus)
        self._hash = hash(self._key)
        # beta is the power-basis generator (the class of X); degenerate for N=1
        self.beta = self._q if N > 1 else 1
        # mul reads this only when the base is GF(p): X^N == sum of r X^j
        # over the (j, r) in _red
        self._red = tuple((j, (-c) % self.p) for j, c in enumerate(modulus[:-1]) if c)

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
        ca, cb = self.coords(a), self.coords(b)
        if base.base is not None:
            return self.from_coords(_pmod(base, _pmul(base, ca, cb), self.modulus))
        # coefficients in GF(p): integer convolution, reduced mod p on the way
        p, N = self.p, self.N
        conv = [0] * (2 * N - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb, i):
                    conv[j] += x * y
        for i in range(2 * N - 2, N - 1, -1):
            c = conv[i] % p
            if c:
                for j, r in self._red:
                    conv[i - N + j] += c * r
        return self.from_coords([c % p for c in conv[:N]])

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

    def elements(self) -> range:
        return range(self.order)

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


@functools.lru_cache(maxsize=None, typed=True)
def make_extension(base: FieldSpec, N: int) -> FieldSpec:
    """GF(q^N): the degree-N quotient over base (canonical modulus)."""
    _require_ints(N=N)
    return _quotient(base, N)
