"""Field arithmetic: canonical moduli, encodings, axioms, towers."""

import itertools
import tracemalloc

import numpy as np
import pytest

from evasive.errors import ParameterError
from evasive.gf import (
    TABLE_LIMIT,
    FieldSpec,
    _is_irreducible,
    array_add,
    array_mul,
    factor_prime_power,
    lookup,
    make_extension,
    make_field,
)
from evasive.randomized import HomogeneousForm


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
    for a in F8.elements():
        assert F8.from_coords(F8.coords(a)) == a
    ext = make_extension(make_field(3, 1), 3)
    for a in ext.elements():
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
    # table-level checks cover all q^3 triples at numpy speed
    q = field.order
    t = field.tables()
    a = np.arange(q)
    assert np.array_equal(t.add, t.add.T)
    assert np.array_equal(t.mul, t.mul.T)
    assert np.array_equal(t.add[a, 0], a)
    assert np.array_equal(t.mul[a, 1], a)
    assert np.array_equal(t.mul[a, 0], np.zeros(q, dtype=np.int64))
    assert np.array_equal(t.add[a, t.neg[a]], np.zeros(q, dtype=np.int64))
    assert np.array_equal(t.mul[a[1:], t.inv[a[1:]]], np.ones(q - 1, dtype=np.int64))
    assert np.array_equal(t.add[t.add[a[:, None, None], a[None, :, None]], a[None, None, :]],
                          t.add[a[:, None, None], t.add[a[None, :, None], a[None, None, :]]])
    assert np.array_equal(t.mul[t.mul[a[:, None, None], a[None, :, None]], a[None, None, :]],
                          t.mul[a[:, None, None], t.mul[a[None, :, None], a[None, None, :]]])
    assert np.array_equal(t.mul[a[:, None, None], t.add[a[None, :, None], a[None, None, :]]],
                          t.add[t.mul[a[:, None, None], a[None, :, None]],
                                t.mul[a[:, None, None], a[None, None, :]]])
    assert np.array_equal(t.add[t.add[a[:, None], a[None, :]], t.neg[a][None, :]],
                          np.broadcast_to(a[:, None], (q, q)))


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
def test_scalar_ops_agree_with_tables(field):
    q = field.order
    t = field.tables()
    elems = range(q) if q <= 16 else range(0, q, 5)
    for a in elems:
        assert field.neg(a) == t.neg[a]
        for b in elems:
            assert field.add(a, b) == t.add[a, b]
            assert field.sub(a, b) == t.add[a, t.neg[b]]
            assert field.mul(a, b) == t.mul[a, b]
    for a in range(1, q):
        assert field.inv(a) == t.inv[a]
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
def test_frobenius_fixes_every_element(field):
    for a in field.elements():
        assert field.pow(a, field.order) == a


def test_scalar_pow_matches_repeated_mul():
    field = make_field(3, 2)
    for a in field.elements():
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
    for a in base.elements():
        assert ext.coords(a) == (a,) + (0,) * (N - 1)
        for b in base.elements():
            assert ext.add(a, b) == base.add(a, b)
            assert ext.mul(a, b) == base.mul(a, b)
    # the first encoding past the base is beta, not a constant
    assert ext.coords(base.order) == (0, 1) + (0,) * (N - 2)


def test_extension_power_basis_coordinates():
    ext = make_extension(make_field(2, 1), 2)
    assert ext.coords(ext.beta) == (0, 1)
    ext9 = make_extension(make_field(3, 1), 2)
    assert ext9.coords(2) == (2, 0)
    # beta satisfies the extension modulus: beta^2 + c1 beta + c0 = 0
    c0, c1, _ = ext9.modulus
    beta = ext9.beta
    lhs = ext9.add(ext9.mul(beta, beta), ext9.add(ext9.mul(c1, beta), c0))
    assert lhs == 0


def test_identity_extension_is_degenerate():
    base = make_field(2, 1)
    ext = make_extension(base, 1)
    assert ext.order == 2 and ext.beta == 1
    assert [ext.coords(a) for a in base.elements()] == [(0,), (1,)]


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
    form = {"p": 5.0, "k": 1, "n": 2, "degree": 2, "coefficients": {"2,0,0": 1}}
    with pytest.raises(ParameterError, match="integer"):
        HomogeneousForm.from_json_dict(form)
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
    big = make_field(5, 6)  # order 15625
    assert big.order > TABLE_LIMIT
    with pytest.raises(ParameterError):
        big.tables()
    # scalar arithmetic still works
    assert big.mul(big.inv(1234), 1234) == 1


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


# GF(2^8) and GF(257) sit on either side of the uint8/uint16 boundary, and
# GF(2^12) has order TABLE_LIMIT, the largest with tables
DTYPE_BOUNDARY_FIELDS = [make_field(2, 8), make_field(257, 1), make_field(2, 12)]


@pytest.mark.parametrize("field", AXIOM_FIELDS + DTYPE_BOUNDARY_FIELDS, ids=repr)
def test_logs_and_array_ops_agree_with_tables(field):
    q = field.order
    t = field.tables()
    exp, log = field.logs()
    a = np.arange(q)
    assert {table.dtype for table in t} == {np.dtype(np.uint8 if q <= 256 else np.uint16)}
    assert exp.shape == (2 * (q - 1),) and np.array_equal(exp[:q - 1], exp[q - 1:])
    assert sorted(exp[:q - 1]) == list(range(1, q))
    assert np.array_equal(exp[log[1:]], a[1:])
    # array_add takes seconds at q = 4096, so above 256 every 15th row is
    # checked, counting back from the last; blocks keep the int64 references small
    checked = a if q <= 256 else a[::-15]
    for rows in np.array_split(checked, -(-len(checked) // 256)):
        assert np.array_equal(array_mul(field, rows[:, None], a[None, :]), t.mul[rows])
        assert np.array_equal(array_add(field, rows[:, None], a[None, :]), t.add[rows])
    assert array_mul(field, 1, checked[:, None], np.arange(4)).tolist() \
        == [[field.pow(int(x), e) for e in range(4)] for x in checked]
    assert np.array_equal(array_mul(field, 1, a, -1), t.inv)
    assert np.array_equal(array_mul(field, field.p - 1, a), t.neg)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 8), (257, 1), (2, 11)])
def test_lookup_matches_2d_index(p, k):
    # q = 256 is the last order whose flat index is uint16, 257 the first uint32
    field = make_field(p, k)
    t = field.tables()
    q = field.order
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, (50, 6)).astype(t.add.dtype)
    b = rng.integers(0, q, (50, 6)).astype(np.int64)
    a[0], b[0] = q - 1, q - 1
    for table in (t.add, t.mul):
        assert np.array_equal(lookup(table, a, b), table[a, b])
        assert np.array_equal(lookup(table, a[:, :1], b), table[a[:, :1], b])  # broadcast
        assert np.array_equal(lookup(table, a, b[0]), table[a, b[0]])
        assert lookup(table, q - 1, q - 1) == table[q - 1, q - 1]
    rect = np.arange(q * 3).reshape(q, 3)  # a non-square table of distinct entries
    e = rng.integers(0, 3, (50, 6))
    assert np.array_equal(lookup(rect, b, e), rect[b, e])
    assert lookup(t.mul, a, b).dtype == t.mul.dtype


def test_tables_are_read_only():
    field = make_field(3, 2)
    t = field.tables()
    assert not any(table.flags.writeable for table in t)
    with pytest.raises(ValueError):
        t.mul[1, 1] = 0
    with pytest.raises(ValueError):
        t.neg[...] = 0
    assert field.tables() is t
    assert t.mul[1, 1] == 1 and t.neg[1] == field.neg(1)


@pytest.mark.parametrize("p,k", [(2, 11), (4093, 1)])
def test_table_build_peak_is_near_final_size(p, k):
    # tracemalloc sees numpy's buffers; a fresh spec equal to the cached
    # field has no tables yet, so tables() really builds them
    cached = make_field(p, k)
    field = FieldSpec(cached.base, cached.N, cached.modulus, None if cached.base else p)
    assert field == cached
    field.logs()
    tracemalloc.start()
    try:
        t = field.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(table.nbytes for table in t)
    q = field.order
    assert final == 2 * (2 * q * q + 2 * q)  # uint16 add, mul, neg, inv
    assert peak <= 1.5 * final + 2**20
