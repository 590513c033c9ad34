"""Field arithmetic: canonical moduli, encodings, axioms, towers."""

import itertools
import tracemalloc

import numpy as np
import pytest

from evasive import gf
from evasive.errors import ParameterError
from evasive.gf import (
    FieldSpec,
    _is_irreducible,
    array_add,
    array_mul,
    array_pow,
    array_sub_mul,
    factor_prime_power,
    lookup,
    make_extension,
    make_field,
)


def naive_smallest_irreducible(F, degree):
    """Independent re-derivation by trial division (no Rabin machinery).

    A monic polynomial of degree L is irreducible iff no monic polynomial of
    degree 1..L//2 divides it.  Polynomials are coefficient tuples, constant
    term first; arithmetic goes through the field spec's scalar ops only.
    """
    def poly_mod(a, m):
        a = list(a)
        lead_inv = F.inv(m[-1])
        for i in range(len(a) - 1, len(m) - 2, -1):
            c = a[i]
            if c == 0:
                continue
            f = F.mul(c, lead_inv)
            for j, mc in enumerate(m):
                a[i - len(m) + 1 + j] = F.sub(a[i - len(m) + 1 + j], F.mul(f, mc))
        while a and a[-1] == 0:
            a.pop()
        return tuple(a)

    def irreducible(f):
        for d in range(1, (len(f) - 1) // 2 + 1):
            for lower in itertools.product(range(F.order), repeat=d):
                if not poly_mod(f, lower + (1,)):
                    return False
        return True

    for lower in itertools.product(range(F.order), repeat=degree):
        f = lower + (1,)
        if irreducible(f):
            return f
    raise AssertionError("no irreducible found")


# frozen outputs of naive_smallest_irreducible, constant term first
CANONICAL_MODULI = {
    (2, 2): (1, 1, 1),        # X^2 + X + 1
    (2, 3): (1, 0, 1, 1),     # X^3 + X^2 + 1
    (2, 4): (1, 0, 0, 1, 1),  # X^4 + X^3 + 1
    (3, 2): (1, 0, 1),        # X^2 + 1
    (3, 3): (1, 0, 2, 1),     # X^3 + 2X^2 + 1 (X^3+X^2+1 has root 1)
    (5, 2): (1, 1, 1),        # X^2 + X + 1 (X^2+1 factors: -1 is a square mod 5)
    (7, 2): (1, 0, 1),
}


@pytest.mark.parametrize("p,k", sorted(CANONICAL_MODULI))
def test_canonical_modulus_matches_trial_division(p, k):
    field = make_field(p, k)
    assert field.modulus == CANONICAL_MODULI[(p, k)]
    assert field.modulus == naive_smallest_irreducible(make_field(p, 1), k)


def test_prime_field_convention():
    field = make_field(2, 1)
    assert field.modulus == (0, 1)
    assert make_field(13, 1).modulus == (0, 1)


def test_extension_modulus_matches_trial_division():
    F3 = make_field(3, 1)
    ext = make_extension(F3, 5)
    assert ext.modulus == naive_smallest_irreducible(F3, 5)
    assert ext.modulus == (1, 0, 0, 0, 2, 1)

    F4 = make_field(2, 2)
    ext4 = make_extension(F4, 2)
    assert ext4.modulus == naive_smallest_irreducible(F4, 2)


def test_frozen_scalar_arithmetic():
    assert make_field(5, 1).inv(2) == 3
    # GF(4): alpha * alpha = alpha + 1 under X^2+X+1
    assert make_field(2, 2).mul(2, 2) == 3
    # GF(9) under X^2+1: alpha^2 = -1 = 2, so encoding 2 (digits (2,0));
    # encoding 8 would decode to 2*alpha + 2, and (2*alpha+2) != alpha^2
    F9 = make_field(3, 2)
    assert F9.mul(3, 3) == 2
    assert F9.mul(3, 3) == F9.neg(1)


def test_digit_round_trip():
    F8 = make_field(2, 3)
    for a in range(F8.order):
        assert F8.from_coords(F8.coords(a)) == a
    ext = make_extension(make_field(3, 1), 3)
    for a in range(ext.order):
        assert ext.from_coords(ext.coords(a)) == a


AXIOM_FIELDS = [
    make_field(2, 1), make_field(3, 1), make_field(5, 1), make_field(7, 1),
    make_field(11, 1), make_field(2, 2), make_field(2, 3), make_field(2, 4),
    make_field(3, 2), make_field(2, 6),
    # towers over a non-prime base; GF(p)^N is GF(p^N), see
    # test_extension_spec_identity
    make_extension(make_field(2, 2), 2), make_extension(make_field(2, 2), 3),
    make_extension(make_field(3, 2), 2),
]


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
def test_field_axioms_exhaustive(field):
    # table-level checks cover all q^3 triples at numpy speed; addition is
    # read through array_add and array_sub_mul, as the kernels read it, so
    # characteristic 2 (which has no add table) is covered too; negatives
    # come from the scalar op and inverses from array_pow, as the kernels
    # invert
    q = field.order
    t = field.tables()
    a = np.arange(q)
    x, y, z = a[:, None, None], a[None, :, None], a[None, None, :]
    neg = np.array([field.neg(int(v)) for v in a])

    def add(u, v):
        return array_add(field, u, v)

    assert np.array_equal(add(a[:, None], a[None, :]), add(a[None, :], a[:, None]))
    assert np.array_equal(t.mul, t.mul.T)
    assert np.array_equal(add(a, 0), a)
    assert np.array_equal(t.mul[a, 1], a)
    assert np.array_equal(t.mul[a, 0], np.zeros(q, dtype=np.int64))
    assert np.array_equal(add(a, neg), np.zeros(q, dtype=np.int64))
    assert np.array_equal(t.mul[a[1:], array_pow(field, a[1:], -1)], np.ones(q - 1, dtype=np.int64))
    assert np.array_equal(add(add(x, y), z), add(x, add(y, z)))
    assert np.array_equal(t.mul[t.mul[x, y], z], t.mul[x, t.mul[y, z]])
    assert np.array_equal(t.mul[x, add(y, z)], add(t.mul[x, y], t.mul[x, z]))
    assert np.array_equal(array_sub_mul(field, x, y, z), add(x, neg[t.mul[y, z]]))
    assert np.array_equal(add(array_sub_mul(field, a[:, None], 1, a[None, :]), a[None, :]),
                          np.broadcast_to(a[:, None], (q, q)))


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
def test_scalar_ops_agree_with_tables(field):
    q = field.order
    t = field.tables()
    elems = range(q) if q <= 16 else range(0, q, 5)
    for a in elems:
        assert field.neg(a) == array_sub_mul(field, 0, 1, a)
        for b in elems:
            assert field.add(a, b) == array_add(field, a, b)
            assert field.sub(a, b) == array_sub_mul(field, a, 1, b)
            assert field.mul(a, b) == t.mul[a, b]
    for a in range(1, q):
        assert field.inv(a) == array_pow(field, a, -1)
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
def test_frobenius_fixes_every_element(field):
    for a in range(field.order):
        assert field.pow(a, field.order) == a


def test_scalar_pow_matches_repeated_mul():
    field = make_field(3, 2)
    for a in range(field.order):
        power = 1
        for e in range(4):
            assert field.pow(a, e) == power
            power = field.mul(power, a)
    assert field.pow(0, 0) == 1


@pytest.mark.parametrize("p,k,N", [
    (2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3),
    (5, 1, 2), (7, 1, 2), (2, 3, 2), (13, 1, 2), (2, 4, 3),
])
def test_base_encodings_are_constants_of_extension(p, k, N):
    # the encoding contract: a base element keeps its encoding in the extension
    base = make_field(p, k)
    ext = make_extension(base, N)
    for a in range(base.order):
        assert ext.coords(a) == (a,) + (0,) * (N - 1)
        for b in range(base.order):
            assert ext.add(a, b) == base.add(a, b)
            assert ext.mul(a, b) == base.mul(a, b)
    # the first encoding past the base is beta, not a constant
    assert ext.coords(base.order) == (0, 1) + (0,) * (N - 2)


def test_extension_power_basis_coordinates():
    # beta, the class of X, is the first encoding past the base
    ext = make_extension(make_field(2, 1), 2)
    assert ext.coords(2) == (0, 1)
    ext9 = make_extension(make_field(3, 1), 2)
    assert ext9.coords(2) == (2, 0)
    # beta satisfies the extension modulus: beta^2 + c1 beta + c0 = 0
    c0, c1, _ = ext9.modulus
    beta = ext9.from_coords((0, 1))
    lhs = ext9.add(ext9.mul(beta, beta), ext9.add(ext9.mul(c1, beta), c0))
    assert lhs == 0


def test_identity_extension_is_degenerate():
    base = make_field(2, 1)
    ext = make_extension(base, 1)
    assert ext.order == 2
    assert [ext.coords(a) for a in range(base.order)] == [(0,), (1,)]


def test_tower_arithmetic_agrees_with_flat_field():
    # GF(2^2)^2 and GF(2^4) are isomorphic; orders of elements must match up:
    # both multiplicative groups are cyclic of order 15
    ext = make_extension(make_field(2, 2), 2)
    flat = make_field(2, 4)
    def mult_order(F, a):
        o, x = 1, a
        while x != 1:
            x = F.mul(x, a)
            o += 1
        return o
    assert sorted(mult_order(ext, a) for a in range(1, 16)) \
        == sorted(mult_order(flat, a) for a in range(1, 16))


def test_make_field_determinism():
    a = make_field(3, 2)
    make_field.cache_clear()
    b = make_field(3, 2)
    assert a is not b and a == b and a.modulus == b.modulus
    assert hash(a) == hash(b)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_field(4, 1)
    with pytest.raises(ParameterError):
        make_field(2, 0)
    with pytest.raises(ParameterError):
        make_field(2, 64)
    with pytest.raises(ParameterError):
        make_extension(make_field(3, 2), 21)
    # the degree is bounded before the order is computed
    with pytest.raises(ParameterError):
        make_extension(make_field(2, 1), 10**12)
    with pytest.raises(ParameterError):
        make_extension(make_field(2, 1), 0)
    with pytest.raises(ZeroDivisionError):
        make_field(7, 1).inv(0)
    with pytest.raises(ZeroDivisionError):
        make_extension(make_field(2, 1), 2).inv(0)


def test_field_parameters_must_be_plain_ints():
    # 5.0 == 5 and hashes alike, so an untyped cache would hand GF(5.0) to
    # every later make_field(5, 1); refusing it keeps the cache clean
    with pytest.raises(ParameterError, match="integer"):
        make_field(5.0, 1)
    F5 = make_field(5, 1)
    assert type(F5.order) is int and F5.order == 5
    assert F5.tables().add.shape == (5, 5)
    for p, k in [(5.0, 1), (5, 1.0), (True, 1), (2, True), (np.int64(5), 1), ("5", 1)]:
        with pytest.raises(ParameterError, match="integer"):
            make_field(p, k)
    for N in (3.0, True, np.int64(3)):
        with pytest.raises(ParameterError, match="integer"):
            make_extension(make_field(3, 1), N)
    for q in (4.0, True, np.int64(4)):
        with pytest.raises(ParameterError, match="integer"):
            factor_prime_power(q)
    assert factor_prime_power(4) == (2, 2)


def test_tables_refused_above_limit():
    # q x q tables stop at q = 256; above it the ops read the logs
    for big in (make_field(257, 1), make_field(5, 6)):
        with pytest.raises(ParameterError, match="256"):
            big.tables()
        # scalar and elementwise arithmetic still work
        assert big.mul(big.inv(234), 234) == 1
        assert array_mul(big, array_pow(big, 234, -1), 234) == 1


def test_extension_spec_identity():
    e1 = make_extension(make_field(2, 1), 4)
    assert isinstance(e1, FieldSpec)
    make_extension.cache_clear()
    e2 = make_extension(make_field(2, 1), 4)
    assert e1 == e2 and hash(e1) == hash(e2)
    flat = make_field(2, 4)
    assert e1 == flat and hash(e1) == hash(flat)
    assert all(np.array_equal(a, b) for a, b in zip(e1.tables(), flat.tables()))


def _prime_powers_up_to(limit):
    return [(p, k) for p in range(2, limit + 1) if all(p % d for d in range(2, p))
            for k in range(1, 9) if p**k <= limit]


@pytest.mark.parametrize("field", [make_field(p, k) for p, k in _prime_powers_up_to(256)]
                         + [make_field(2, 11), make_extension(make_field(2, 2), 2),
                            make_extension(make_field(2, 2), 3),
                            make_extension(make_field(3, 2), 2),
                            make_extension(make_field(2, 1), 1),
                            make_extension(make_field(3, 2), 1)], ids=repr)
def test_modulus_is_first_irreducible_in_product_order(field):
    # for degree >= 2 the search skips candidates with a zero constant term;
    # the reference walks every candidate in itertools.product order, and a
    # degree-1 quotient keeps the modulus X
    base = field.base or field
    L = field.N if field.base is not None else 1
    reference = next(lower + (1,) for lower in itertools.product(range(base.order), repeat=L)
                     if _is_irreducible(base, lower + (1,)))
    assert field.modulus == reference


# GF(2^8) and GF(257) sit on either side of the uint8/uint16 boundary and
# of the last order with tables; GF(2^12) is a larger uint16 field
DTYPE_BOUNDARY_FIELDS = [make_field(2, 8), make_field(257, 1), make_field(2, 12)]


@pytest.mark.parametrize("field,dtype", [
    (make_field(2, 1), np.uint8), (make_field(2, 8), np.uint8), (make_field(257, 1), np.uint16),
    (make_field(2, 16), np.uint16), (make_field(65537, 1), np.uint32),
    (make_field(2, 32), np.uint32), (make_field(2, 33), np.uint64),
    (make_field(18446744073709551557, 1), np.uint64),  # the largest prime below 2^64
], ids=repr)
def test_field_dtype_holds_every_encoding(field, dtype):
    assert field.dtype == dtype == np.min_scalar_type(field.order - 1)
    if field.order <= 256:
        assert {table.dtype for table in field.tables()} == {field.dtype}


def assert_table_layout(field):
    """q x q tables in the field's dtype up to q = 256, none above."""
    q = field.order
    if q > 256:
        with pytest.raises(ParameterError):
            field.tables()
        return
    t = field.tables()
    assert {table.dtype for table in t} == {field.dtype}
    assert t.mul.shape == (q, q) and t.add.shape == ((0, 0) if field.p == 2 else (q, q))


@pytest.mark.parametrize("field", AXIOM_FIELDS + DTYPE_BOUNDARY_FIELDS, ids=repr)
def test_logs_and_array_ops_agree_with_tables(field):
    q = field.order
    exp, log = field.logs()
    a = np.arange(q)
    assert_table_layout(field)
    # two periods of g^i, then zeros up to index 4(q-1) = log[0] + log[0],
    # which log's dtype holds
    assert exp.shape == (4 * q - 3,) and log.shape == (q,)
    assert exp.dtype == field.dtype and log.dtype == np.min_scalar_type(4 * (q - 1))
    assert np.array_equal(exp[:q - 1], exp[q - 1:2 * (q - 1)]) and not exp[2 * (q - 1):].any()
    assert sorted(exp[:q - 1]) == list(range(1, q))
    assert log[0] == 2 * (q - 1) and np.array_equal(exp[log[1:]], a[1:])
    # inverses and negatives, checked through the product and the
    # digit-wise sum, which reads no logs
    inv = array_pow(field, a, -1)
    assert inv[0] == 0 and (array_mul(field, a[1:], inv[1:]) == 1).all()
    assert not array_add(field, a, array_mul(field, field.p - 1, a)).any()


# each path of the elementwise ops: q x q tables (p = 2, odd p, a tower),
# logs and digits above q = 256, and q = p = 65521, whose digit sums pass
# uint16; then every field the axiom and dtype tests use
OP_FIELDS = [make_field(2, 1), make_field(3, 5), make_field(2, 8), make_field(257, 1),
             make_field(2, 11), make_field(4093, 1), make_field(65521, 1),
             make_extension(make_field(2, 2), 2)]
OP_FIELDS += [F for F in AXIOM_FIELDS + DTYPE_BOUNDARY_FIELDS if F not in OP_FIELDS]


def op_operands(field):
    """(a, b): every encoding up to q = 256, else 0, 1, q - 1 and a spread
    between, as an (n, 1) array in the field's dtype and an int64 row."""
    q = field.order
    a = np.arange(q) if q <= 256 else np.unique(np.r_[0, 1, 2, q - 1, np.arange(3, q, q // 61)])
    return a[:, None].astype(field.dtype), a[::-1].astype(np.int64)


def scalar_grid(op, *args):
    return np.array([[op(int(x), int(y)) for y in row_b] for x, row_b in zip(*args)])


@pytest.mark.parametrize("field", OP_FIELDS, ids=repr)
def test_mul_add_and_sub_mul_match_scalar_ops(field):
    a, b = op_operands(field)
    rows_b = np.broadcast_to(b, (len(a), len(b)))
    c = np.roll(a, 1)  # a third operand for x - f*y, one per row
    products = scalar_grid(field.mul, a[:, 0], rows_b)
    cases = [(array_mul(field, a, b), products),
             (array_add(field, a, b), scalar_grid(field.add, a[:, 0], rows_b)),
             (array_sub_mul(field, c, a, b), scalar_grid(field.sub, c[:, 0], products))]
    for got, want in cases:
        assert got.dtype == field.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    q = field.order
    for x, y in [(0, 0), (0, q - 1), (q - 1, q - 1), (1, q - 1)]:  # plain ints
        assert array_mul(field, x, y) == field.mul(x, y)
        assert array_add(field, x, y) == field.add(x, y)
        assert array_sub_mul(field, x, x, y) == field.sub(x, field.mul(x, y))


@pytest.mark.parametrize("field", OP_FIELDS, ids=repr)
def test_pow_matches_scalar_ops(field):
    a, _ = op_operands(field)
    q = field.order
    e = np.array([-2, -1, 0, 1, 2, 3, q - 1, q])
    got = array_pow(field, a, e)  # broadcast to (n, len(e))
    want = [[field.pow(int(x), int(k)) if x or k >= 0 else 0 for k in e] for x in a[:, 0]]
    assert got.dtype == field.dtype and got.tolist() == want
    assert got[0].tolist() == [0, 0, 1, 0, 0, 0, 0, 0]  # 0^-1 = 0 and 0^0 = 1
    assert (got[:, 2] == 1).all()  # b^0 = 1 for every b
    assert array_pow(field, 0, -1) == 0 and array_pow(field, q - 1, 0) == 1


def test_pow_peak_is_near_its_result():
    # e * log b is reduced in int64, LOG_BLOCK rows at a time, so the
    # temporaries stay small beside the result
    field = make_field(65537, 1)
    field.logs()
    b, e = np.arange(field.order)[:, None], np.arange(3)
    tracemalloc.start()
    try:
        out = array_pow(field, b, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (field.order, 3) and out[2].tolist() == [1, 2, 4]
    assert peak < 2 * out.nbytes


def plain_mul(field, a, b):
    """a * b on int64 operands without the field's logs or tables: mod p
    when q = p; in characteristic 2 a carry-less product reduced by the
    modulus, whose bits are the encoding's coordinates."""
    if field.k == 1:
        return a * b % field.p
    assert field.p == 2 and field.N == field.k  # a quotient of GF(2)[X]
    k = field.k
    m = sum(c << i for i, c in enumerate(field.modulus))
    out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=np.int64)
    for i in range(k):
        out ^= np.where(b >> i & 1, a << i, 0)
    for i in range(2 * k - 2, k - 1, -1):
        out ^= np.where(out >> i & 1, m << (i - k), 0)
    return out


def plain_add(field, a, b, sign=1):
    """a + sign*b on int64 operands: XOR in characteristic 2, else mod p."""
    return a ^ b if field.p == 2 else (a + sign * b) % field.p


@pytest.mark.parametrize("field", [make_field(257, 1), make_field(2, 11), make_field(2, 12),
                                   make_field(4093, 1)], ids=repr)
def test_ops_above_256_match_plain_arithmetic(field):
    # above q = 256 the scalar ops are too slow for a dense grid, so every
    # 15th row, counting back from the last, meets all q columns here, and
    # random (50, 6) grids check broadcasting, zeros and q - 1
    q = field.order
    a = np.arange(q, dtype=np.int64)
    rows = a[::-15]
    for block in np.array_split(rows, -(-len(rows) // 64)):
        x, c = block[:, None], np.roll(block, 1)[:, None]
        prod = plain_mul(field, x, a)
        for got, want in [(array_mul(field, x.astype(field.dtype), a), prod),
                          (array_add(field, x, a), plain_add(field, x, a)),
                          (array_sub_mul(field, c, x, a), plain_add(field, c, prod, -1))]:
            assert got.dtype == field.dtype and np.array_equal(got, want)
    assert array_pow(field, rows[:, None], np.arange(4)).tolist() \
        == [[field.pow(int(x), e) for e in range(4)] for x in rows]
    rng = np.random.default_rng(q)
    u = rng.integers(0, q, (50, 6))
    v = rng.integers(0, q, (50, 6))
    u[0], v[0] = q - 1, q - 1
    u[1, :3], v[2, 3:] = 0, 0
    uf = u.astype(field.dtype)
    for op, ref in [(array_mul, plain_mul), (array_add, plain_add)]:
        assert np.array_equal(op(field, uf, v), ref(field, u, v))
        assert np.array_equal(op(field, uf[:, :1], v), ref(field, u[:, :1], v))  # broadcast
        assert np.array_equal(op(field, uf, v[0]), ref(field, u, v[0]))
        assert op(field, q - 1, q - 1) == ref(field, q - 1, q - 1)
        assert op(field, 0, 0) == 0 and op(field, uf, v).dtype == field.dtype


@pytest.mark.parametrize("field", [make_field(2, 11), make_field(3, 7), make_field(5, 5),
                                   make_field(7, 1), make_field(3, 2), make_field(2, 1),
                                   make_extension(make_field(2, 3), 4)], ids=repr)
def test_logs_match_scalar_powers(field):
    # logs() fills exp by doubling; the reference is one scalar product per power
    exp, _ = field.logs()
    g = int(exp[1]) if field.order > 2 else 1
    x = 1
    for i in range(field.order - 1):
        assert exp[i] == x
        x = field.mul(x, g)
    assert x == 1


@pytest.mark.parametrize("p,k", [(7, 1), (2, 8), (257, 1), (2, 11)])
def test_lookup_matches_2d_index(p, k):
    # q = 256 is the last order with q x q tables, read through one uint16
    # flat index; above it tables() refuses
    field = make_field(p, k)
    q = field.order
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, (50, 6)).astype(field.dtype)
    b = rng.integers(0, q, (50, 6)).astype(np.int64)
    a[0], b[0] = q - 1, q - 1
    a[1, :3], b[2, 3:] = 0, 0
    if q > 256:
        with pytest.raises(ParameterError):
            field.tables()
        tables = []
    else:
        tables = [table for table in field.tables() if table.size]  # no add table for p = 2
    assert len(tables) == (0 if q > 256 else 1 if p == 2 else 2)
    for table in tables:
        assert np.array_equal(lookup(table, a, b), table[a, b])
        assert np.array_equal(lookup(table, a[:, :1], b), table[a[:, :1], b])
        assert np.array_equal(lookup(table, a, b[0]), table[a, b[0]])
        assert lookup(table, q - 1, q - 1) == table[q - 1, q - 1]
    rect = np.arange(q * 3).reshape(q, 3)  # a non-square table of distinct entries
    e = rng.integers(0, 3, (50, 6))
    assert np.array_equal(lookup(rect, b, e), rect[b, e])


def test_tables_are_read_only():
    field = make_field(3, 2)
    t = field.tables()
    assert not any(table.flags.writeable for table in t)
    with pytest.raises(ValueError):
        t.mul[1, 1] = 0
    with pytest.raises(ValueError):
        t.add[...] = 0
    assert field.tables() is t
    assert t.mul[1, 1] == 1 and t.add[1, 1] == field.add(1, 1)


def _fresh_spec(p, k):
    """A spec equal to make_field(p, k) with nothing built or cached yet."""
    cached = make_field(p, k)
    field = FieldSpec(cached.base, cached.N, cached.modulus, None if cached.base else p)
    assert field == cached
    return field


def test_logs_peak_is_near_its_kept_size():
    # one doubling step over all of GF(2^16)'s 2^15 rows would hold (2^15, 16)
    # int64 digit matrices, 5.6x the kept exp and log; LOG_BLOCK rows do not
    field = _fresh_spec(2, 16)
    tracemalloc.start()
    try:
        exp, log = field.logs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (exp.nbytes + log.nbytes)


@pytest.mark.parametrize("block", [1, 3, 100])
def test_logs_blocks_agree_with_one_pass(block, monkeypatch):
    # below q = 2 * LOG_BLOCK every doubling step is one block
    for p, k in [(2, 10), (3, 6), (5, 4)]:
        exp, log = make_field(p, k).logs()
        monkeypatch.setattr(gf, "LOG_BLOCK", block)
        got = _fresh_spec(p, k).logs()
        monkeypatch.undo()
        assert np.array_equal(got[0], exp) and np.array_equal(got[1], log)


# the (q, q) uint16 index or digit sums of the table build outweigh the
# uint8 tables themselves; above q = 256 tables() refuses the field
@pytest.mark.parametrize("p,k,ratio", [(2, 11, 3), (4093, 1, 3),
                                       (2, 8, 5), (251, 1, 5), (3, 5, 5)])
def test_table_build_peak_is_near_final_size(p, k, ratio):
    # tracemalloc sees numpy's buffers; a fresh spec equal to the cached
    # field has no tables yet, so tables() really builds them
    field = _fresh_spec(p, k)
    field.logs()
    q = field.order
    tracemalloc.start()
    try:
        if q > 256:
            with pytest.raises(ParameterError):
                field.tables()
        else:
            t = field.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if q > 256:
        # refused before anything of q cells is allocated
        assert field._tables is None and peak < q
        return
    final = sum(table.nbytes for table in t)
    # uint8 mul, and add for odd p
    assert final == (1 if p == 2 else 2) * q * q
    assert peak <= ratio * final


def test_table_memory_is_pinned():
    # above q = 256 the ops build no table at all: a q x q uint16 table of
    # GF(2^12) alone would be 32 MiB
    for p, k in [(2, 11), (2, 12), (3, 7)]:
        field = _fresh_spec(p, k)
        a = np.arange(field.order)
        array_sub_mul(field, a, array_pow(field, a, -1), a)
        assert field._tables is None
    # q = 256 keeps its q x q tables: a uint8 mul table, and add for odd p
    assert sum(table.nbytes for table in make_field(2, 8).tables()) == 256 * 256
    assert sum(table.nbytes for table in make_field(251, 1).tables()) == 2 * 251 * 251
