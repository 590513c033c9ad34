"""Field arithmetic: canonical moduli, encodings, axioms, towers."""

import itertools

import numpy as np
import pytest

from evasive.errors import ParameterError
from evasive.gf import TABLE_LIMIT, FieldSpec, make_extension, make_field


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
    # these two equal GF(2^4) and GF(3^2); the ids name how they are built
    pytest.param(make_extension(make_field(2, 1), 4), id="GF(2)^4"),
    pytest.param(make_extension(make_field(3, 1), 2), id="GF(3)^2"),
    make_extension(make_field(2, 2), 2),
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
    assert np.array_equal(t.sub[t.add[a[:, None], a[None, :]], a[None, :]],
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
            assert field.sub(a, b) == t.sub[a, b]
            assert field.mul(a, b) == t.mul[a, b]
    for a in range(1, q):
        assert field.inv(a) == t.inv[a]
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
def test_frobenius_fixes_every_element(field):
    for a in field.elements():
        assert field.pow(a, field.order) == a


def test_pow_table_matches_scalar_pow():
    field = make_field(3, 2)
    t = field.tables()
    for a in field.elements():
        for e in range(4):
            assert t.pow[a, e] == field.pow(a, e)
    assert t.pow[0, 0] == 1


@pytest.mark.parametrize("p,k,N", [
    (2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3),
    (5, 1, 2), (7, 1, 2), (2, 3, 2), (13, 1, 2), (2, 4, 3),
])
def test_embed_is_ring_homomorphism(p, k, N):
    base = make_field(p, k)
    ext = make_extension(base, N)
    for a in base.elements():
        for b in base.elements():
            assert ext.add(ext.embed(a), ext.embed(b)) == ext.embed(base.add(a, b))
            assert ext.mul(ext.embed(a), ext.embed(b)) == ext.embed(base.mul(a, b))
    # injective by construction (encoding unchanged)
    assert ext.embed(0) == 0 and ext.embed(1) == 1
    with pytest.raises(ParameterError):
        ext.embed(base.order)


def test_extension_power_basis_coordinates():
    ext = make_extension(make_field(2, 1), 2)
    assert ext.coords(ext.beta) == (0, 1)
    ext9 = make_extension(make_field(3, 1), 2)
    assert ext9.coords(ext9.embed(2)) == (2, 0)
    # beta satisfies the extension modulus: beta^2 + c1 beta + c0 = 0
    c0, c1, _ = ext9.modulus
    beta = ext9.beta
    lhs = ext9.add(ext9.mul(beta, beta),
                   ext9.add(ext9.mul(ext9.embed(c1), beta), ext9.embed(c0)))
    assert lhs == 0


def test_identity_extension_is_degenerate():
    base = make_field(2, 1)
    ext = make_extension(base, 1)
    assert ext.order == 2 and ext.beta == 1
    assert [ext.embed(a) for a in base.elements()] == [0, 1]


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
