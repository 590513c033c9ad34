"""Upper and lower size bounds, and the asymptotic exponent table."""

import functools
import gc
import inspect
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from evasive.bounds import (
    BoundEntry,
    BoundsReport,
    best_upper_bound,
    exponent_table,
    gv_constant,
    gv_exponent,
    gv_lower_size,
    pigeonhole_bound,
    rao_bound,
    rao_constant,
    rao_decomposition,
    _best_exponent,
    _binary64,
)
from evasive.errors import ParameterError
from evasive.projgeom import count_points


def test_rao_decomposition_frozen():
    assert rao_decomposition(3, 2) == (2, 2)
    assert rao_decomposition(5, 3) == (3, 2)
    assert rao_decomposition(7, 4) == (4, 2)
    assert rao_decomposition(8, 6) == (3, 3)
    assert rao_decomposition(4, 2) is None
    assert rao_decomposition(9, 2) is None
    with pytest.raises(ParameterError):
        rao_decomposition(2, 2)


def test_rao_decomposition_consistency():
    # whenever a decomposition exists it must invert the defining equations
    for r in range(2, 30):
        for s in range(1, r):
            de = rao_decomposition(r, s)
            if de is not None:
                d, e = de
                assert d >= 2 and e >= 2
                assert r == d * e - 1
                assert s == d * (e - 1)


def test_rao_constant_frozen():
    # C_{2,2}(64) = sqrt(2 * 1 * 66 / 60) = sqrt(2.2)
    c = rao_constant(2, 2, 64)
    assert abs(mpmath.mpf(str(c)) - mpmath.sqrt(Fraction(11, 5))) < 1e-12
    with pytest.raises(ParameterError):
        rao_constant(2, 2, 4)  # q = 2e


def test_rao_bound_value():
    entry = rao_bound(4, 64, 3, 2)
    assert entry.applicable
    assert entry.params["d"] == 2 and entry.params["e"] == 2
    assert entry.params["exponent"] == Fraction(3, 2)
    expect = mpmath.sqrt(Fraction(11, 5)) * mpmath.mpf(64) ** Fraction(3, 2) + 2
    assert abs(mpmath.mpf(str(entry.value)) - expect) < 1e-9


def test_rao_bound_gates():
    gate = rao_bound(4, 4, 3, 2)
    assert not gate.applicable
    assert "q > 2e" in gate.reason
    assert gate.value is None
    nodec = rao_bound(4, 9, 4, 2)
    assert not nodec.applicable
    assert "no integers" in nodec.reason


def test_rao_bound_monotone():
    # the bound grows with the ambient dimension and with q (once the
    # gate q > 2e + 2 keeps the constant from blowing up backwards)
    vals_n = [rao_bound(n, 9, 3, 2).value for n in range(3, 8)]
    assert all(a < b for a, b in zip(vals_n, vals_n[1:]))
    vals_q = [rao_bound(4, q, 3, 2).value for q in (7, 9, 11, 13, 16)]
    assert all(a < b for a, b in zip(vals_q, vals_q[1:]))


def test_pigeonhole_frozen():
    assert pigeonhole_bound(4, 3, 9, 2) == 126
    assert pigeonhole_bound(2, 2, 2, 1) == 8
    # linear in r with everything else fixed
    base = pigeonhole_bound(5, 4, 1, 2)
    for r in range(2, 9):
        assert pigeonhole_bound(5, 4, r, 2) == r * base


def test_best_upper_bound_report():
    rep = best_upper_bound(4, 3, 9, 2)
    assert (rep.n, rep.q, rep.r, rep.s) == (4, 3, 9, 2)
    labels = [e.label for e in rep.entries]
    assert "pigeonhole" in labels and "trivial" in labels
    pigeon = next(e for e in rep.entries if e.label == "pigeonhole")
    assert pigeon.value == 126
    trivial = next(e for e in rep.entries if e.label == "trivial")
    assert trivial.value == count_points(4, 3) == 121
    # the projection step m=1 costs 1 on top of the (9-1, 2-1) bound in
    # one dimension less, and wins here
    assert rep.best().label == "projection(m=1)"
    assert float(rep.best().value) == 41.0
    # the winner never beats any applicable entry
    for e in rep.entries:
        if e.applicable:
            assert float(rep.best().value) <= float(e.value) + 1e-9


def test_best_upper_bound_never_exceeds_space():
    for n, q, r, s in [(3, 2, 2, 1), (4, 3, 3, 2), (5, 4, 5, 3), (6, 5, 3, 2)]:
        rep = best_upper_bound(n, q, r, s)
        assert float(rep.best().value) <= count_points(n, q)


def test_best_tie_break_is_label_lex():
    entries = (
        BoundEntry(label="zeta", value=5, provenance="x", params={}),
        BoundEntry(label="alpha", value=5, provenance="x", params={}),
        BoundEntry(label="mid", value=7, provenance="x", params={}),
    )
    rep = BoundsReport(n=3, q=2, r=2, s=1, entries=entries)
    assert rep.best().label == "alpha"


def test_entry_default_params_are_shared_read_only():
    a, b = BoundEntry("a", 1, "x"), BoundEntry("b", 2, "x")
    assert a.params == {} and a.applicable and a.reason is None
    with pytest.raises(TypeError):
        a.params["k"] = 1
    assert b.params == {}
    # a huge int converts like a huge Decimal, to inf, where float() raises
    assert BoundEntry("big", 10**400, "x").value_float() == math.inf


def test_report_json_shape():
    rep = best_upper_bound(4, 64, 3, 2)
    data = rep.to_json_dict()
    assert data["n"] == 4 and data["q"] == 64
    by_label = {e["label"]: e for e in data["entries"]}
    assert by_label["rao"]["params"]["exponent"] == "3/2"
    assert by_label["pigeonhole"]["applicable"] is True


def test_gv_lower_frozen():
    assert gv_constant(3) == Fraction(5, 6)
    assert gv_constant(4) == Fraction(23, 24)
    assert gv_exponent(6, 3, 2) == Fraction(4, 3)
    assert gv_exponent(4, 3, 2) == Fraction(2, 3)
    entry = gv_lower_size(6, 4, 3, 2)
    assert entry.applicable
    assert entry.reason == "asymptotic leading term"
    expect = Fraction(5, 6) * mpmath.mpf(4) ** Fraction(4, 3)
    assert abs(mpmath.mpf(str(entry.value)) - expect) < 1e-9


def test_real_values_carry_30_digits():
    # binary64 values would agree to about 1e-16 only
    got = [rao_constant(2, 2, 64), rao_bound(4, 64, 3, 2).value,
           rao_bound(12, 4096, 8, 6).value, gv_lower_size(6, 4, 3, 2).value]
    with mpmath.workdps(40):
        c22 = mpmath.sqrt(mpmath.mpf(11) / 5)
        want = [c22, c22 * 512 + 2,  # 64^(3/2) = 512, 4096^(10/3) = 2^40
                mpmath.cbrt(mpmath.mpf(6 * 2 * 4098) / 4090) * 2 ** 40 + 3,
                mpmath.mpf(5) / 6 * mpmath.cbrt(4 ** 4)]
        for g, w in zip(got, want):
            assert abs(mpmath.mpf(str(g)) / w - 1) < 1e-25


@pytest.mark.parametrize("n,q,r,s", [
    (400, 2, 3, 300),  # q^-9900 is far below the float range
    (10, 3, 3, 8),     # q^(-10/3): 3^-10 is inexact in binary64
])
def test_gv_negative_exponent_keeps_30_digits(n, q, r, s):
    got = gv_lower_size(n, q, r, s).value
    assert got > 0
    x = gv_exponent(n, r, s)
    with mpmath.workdps(40):
        want = mpmath.mpf(5) / 6 * mpmath.mpf(q) ** (mpmath.mpf(x.numerator) / x.denominator)
        assert abs(mpmath.mpf(str(got)) / want - 1) < 1e-25


def test_gv_lower_gate():
    entry = gv_lower_size(6, 4, 5, 2)
    assert not entry.applicable
    assert "s+1 >= r >= 3" in entry.reason


def test_exponent_table_symbolic_rows():
    # closed forms for the best exponent at dimension gap g = r - s,
    # checked at two table sizes to rule out accidental n-dependence
    # in entries that must scale linearly with n
    for n in (20, 21):
        t = exponent_table(n, 6, 6)
        N = Fraction(n)
        assert t[(1, 1)] == N - 1
        assert t[(2, 1)] == (N - 1) / 2
        assert t[(2, 2)] == N - 2
        assert t[(3, 1)] == (N - 2) / 2
        assert t[(3, 2)] == (N - 1) / 2
        assert t[(3, 3)] == N - 3
        assert t[(4, 1)] == (N - 2) / 3
        assert t[(4, 2)] == (N - 2) / 2
        assert t[(4, 3)] == (N - 1) / 2
        assert t[(4, 4)] == N - 4
        assert t[(5, 1)] == (N - 3) / 3
        assert t[(5, 2)] == (N - 3) / 2
        assert t[(5, 3)] == (N - 2) / 2
        assert t[(5, 4)] == (N - 1) / 2
        assert t[(5, 5)] == N - 5
        assert t[(6, 1)] == (N - 3) / 4
        assert t[(6, 2)] == (N - 2) / 3
        assert t[(6, 3)] == (N - 3) / 2
        assert t[(6, 4)] == (N - 2) / 2
        assert t[(6, 5)] == (N - 1) / 2
        assert t[(6, 6)] == N - 6


def test_best_upper_bound_nests_at_most_one_level():
    # nesting one call per projection step would need about s frames; with
    # the cache filled from the deepest projection up, s = 120 fits in 60
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        report = best_upper_bound(125, 2, 123, 120)
    finally:
        sys.setrecursionlimit(limit)
    assert len(report.entries) == 120 + 2
    sub = best_upper_bound(124, 2, 122, 119).best()
    assert report.entries[2].provenance == f"projection to (122,119) in PG(124,2) via {sub.label}"


def test_bounds_refuse_spaces_that_do_not_exist_or_fit():
    for q in (-3, 0, 1, 6):
        with pytest.raises(ParameterError, match="not a prime power"):
            best_upper_bound(4, q, 9, 2)
        with pytest.raises(ParameterError, match="not a prime power"):
            gv_lower_size(4, q, 3, 2)
    # 2^1022 points still fit in a float; 7^1001 do not
    assert best_upper_bound(1021, 2, 3, 2).best().applicable
    for bound, r in ((best_upper_bound, 950), (gv_lower_size, 3)):
        with pytest.raises(ParameterError, match="float"):
            bound(1000, 7, r, 2)


def _recursive_best_exponent(n, r, s):
    # the definition: the direct exponents at (n, r, s), then every projection
    best = Fraction(n - s)
    dec = rao_decomposition(r, s)
    if dec is not None:
        best = min(best, Fraction(n - dec[1] + 1, dec[1]))
    for m in range(1, s):
        best = min(best, _recursive_best_exponent(n - m, r - m, s - m))
    return best


def test_best_exponent_matches_recursive_definition():
    for n in range(2, 15):
        for s in range(1, n):
            for r in range(s + 1, s + 10):
                assert _best_exponent(n, r, s) == _recursive_best_exponent(n, r, s)


def test_exponent_table_validation():
    with pytest.raises(ParameterError):
        exponent_table(11, 6, 6)  # n must be at least 2 * s_max
    with pytest.raises(ParameterError):
        exponent_table(20, 0, 3)
    with pytest.raises(ParameterError, match="diagonal steps"):
        exponent_table(2000, 1000, 6)  # 3,003,000 steps
    with pytest.raises(ParameterError, match="diagonal steps"):
        exponent_table(20, 1, 1001)


def test_exponent_table_monotone_in_gap():
    # a larger gap r - s at fixed s never shrinks the exponent
    t = exponent_table(20, 6, 6)
    for s in range(1, 7):
        row = [t[(s, g)] for g in range(1, 7)]
        assert all(a <= b for a, b in zip(row, row[1:]))


@functools.lru_cache(maxsize=None)
def _recursive_best_upper_bound(n, q, r, s):
    # the definition, top down: the direct entries at (n, r, s), then each
    # projection lifted by +m from the best entry of the report m levels down
    entries = [
        BoundEntry("pigeonhole", pigeonhole_bound(n, q, r, s), "line pigeonhole"),
        rao_bound(n, q, r, s),
    ]
    for m in range(1, s):
        sub = _recursive_best(n - m, q, r - m, s - m)
        entries.append(BoundEntry(
            f"projection(m={m})", _binary64(sub.value) + m,
            f"projection to ({r - m},{s - m}) in PG({n - m},{q}) via {sub.label}",
            params={"m": m},
        ))
    entries.append(BoundEntry("trivial", count_points(n, q), "all points of PG(n,q)"))
    return BoundsReport(n=n, q=q, r=r, s=s, entries=tuple(entries))


@functools.lru_cache(maxsize=None)
def _recursive_best(n, q, r, s):
    return _recursive_best_upper_bound(n, q, r, s).best()


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 64])
def test_best_upper_bound_matches_recursive_definition(q):
    # no point of this grid is refused: PG(20, 64) still fits in a float
    for s in range(1, 13):
        for r in range(s + 1, s + 7):
            for n in range(s + 1, s + 9):
                got = best_upper_bound(n, q, r, s)
                want = _recursive_best_upper_bound(n, q, r, s)
                assert got.to_json_dict() == want.to_json_dict()
                assert [e.value for e in got.entries] == [e.value for e in want.entries]
                assert [e.provenance for e in got.entries] == \
                    [e.provenance for e in want.entries]
                got_best, want_best = got.best(), want.best()
                assert (got_best.label, got_best.value) == (want_best.label, want_best.value)


def test_best_upper_bound_keeps_nothing_alive():
    # one (value, label) pair per level instead of s(s-1)/2 cached entries:
    # a top-down memo held 46.9 MiB here until the process ended
    best_upper_bound(5, 2, 4, 3)  # load whatever the first call loads
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = best_upper_bound(400, 2, 390, 380)
        assert len(report.entries) == 380 + 2
        del report
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 5 * 2**20
    assert current - before < 4096
