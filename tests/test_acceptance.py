"""End-to-end acceptance checks, one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each test states its tolerance inline; the randomized
criteria use the fixed seeds 1..5 and medians, never single draws.
"""

import itertools
import time
from fractions import Fraction
from statistics import median

import mpmath
import numpy as np
import pytest
from oracle import all_points, oracle_max_in_s_space

from evasive.bounds import (
    best_upper_bound,
    exponent_table,
    pigeonhole_bound,
    rao_constant,
)
from evasive.cli import main as cli_main
from evasive.constructions import (
    elliptic_ovoid,
    field_of_order,
    graph_curve_32,
    graph_curve_for_prime_power,
    monomial_curve,
    monomial_curve_affine_variant,
    product_construction,
    rational_normal_curve,
)
from evasive.gf import make_extension, make_field
from evasive.jsonio import pointset_from_json_bytes, pointset_to_json_bytes
from evasive.linalg import batch_rref
from evasive.projgeom import PointSet
from evasive.randomized import (
    Prng,
    cubic_92_construction,
    gv_construction,
    quadric_42_construction,
)
from evasive.verifier import is_rs_set, max_in_s_space


SEEDS = (1, 2, 3, 4, 5)

MONOMIAL_PAIRS = ((2, 5), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (4, 3))


@pytest.fixture(scope="module")
def graph_sets():
    return {q0: graph_curve_for_prime_power(q0) for q0 in (2, 3, 4)}


@pytest.fixture(scope="module")
def quadric_runs():
    out = {}
    for m, q in ((2, 7), (2, 9), (2, 11), (3, 7)):
        field = field_of_order(q)
        out[(m, q)] = [quadric_42_construction(m, field, Prng(s)) for s in SEEDS]
    return out


@pytest.fixture(scope="module")
def cubic_runs():
    return {q: [cubic_92_construction(field_of_order(q), Prng(s)) for s in SEEDS]
            for q in (5, 7)}


@pytest.fixture(scope="module")
def gv_runs():
    out = {}
    for n, r, s, q in ((3, 3, 2, 11), (4, 3, 2, 7)):
        field = field_of_order(q)
        out[(n, r, s, q)] = [gv_construction(n, field, r, s, Prng(sd))
                             for sd in SEEDS]
    return out


@pytest.fixture(scope="module")
def product_sets():
    base2 = make_field(2, 1)
    Z85 = product_construction(
        elliptic_ovoid(base2), 2,
        rational_normal_curve(2, make_extension(base2, 4)), 1)
    F3 = make_field(3, 1)
    Z40 = product_construction(
        rational_normal_curve(4, F3), 3,
        rational_normal_curve(4, make_extension(F3, 5)).truncated(10), 2)
    return Z85, Z40


def test_criterion_01_monomial_curve_exact_sizes_and_line_bound():
    t0 = time.monotonic()
    for n, q in MONOMIAL_PAIRS:
        field = field_of_order(q)
        for build in (monomial_curve, monomial_curve_affine_variant):
            X = build(n, field)
            assert len(X) == (q - 1) ** (n - 1)
            assert is_rs_set(X, n, 1)[0]
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_graph_curve_sizes_and_32_property(graph_sets):
    t0 = time.monotonic()
    for q0, X in graph_sets.items():
        assert len(X) == q0**3
        assert X.n == 6 and X.field.order == q0 * q0
        assert is_rs_set(X, 3, 2)[0]
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_quadrangle_freeness_characterizes_coplanarity():
    # the full 25-point grid over GF(5): a 4-subset of the curve drops to
    # rank <= 3 exactly when it is a combinatorial rectangle
    field = make_field(5, 2)
    labels = []
    vectors = []
    for x in range(5):
        for y in range(5):
            x2 = field.mul(x, x)
            y2 = field.mul(y, y)
            labels.append((x, y))
            vectors.append((1, x, x2, field.mul(x2, x),
                            y, y2, field.mul(y2, y)))
    arr = np.asarray(vectors, dtype=np.int64)
    checked = 0
    idx = np.array(list(itertools.combinations(range(25), 4)))
    ranks = batch_rref(field, arr[idx])[0]  # arr[idx] is a copy
    for row, rk in zip(idx.tolist(), ranks):
        xs = {labels[i][0] for i in row}
        ys = {labels[i][1] for i in row}
        assert (rk <= 3) == (len(xs) == 2 and len(ys) == 2)
        checked += 1
    assert checked == 12650

    # negative control: planting a quadrangle in the graph breaks (3,2)
    quad = [(0, 0), (0, 1), (1, 0), (1, 1)]
    planted = graph_curve_32(quad, make_field(3, 1))
    ok, witness = is_rs_set(planted, 3, 2)
    assert not ok and witness.count == 4


def test_criterion_04_random_quadric_intersections_are_42_sets(quadric_runs):
    t0 = time.monotonic()
    for (m, q), runs in quadric_runs.items():
        for X in runs:
            assert X.n == 2 * m - 1
            assert is_rs_set(X, 4, 2)[0]
        assert median(len(X) for X in runs) >= 0.5 * q ** (m - 1)
    assert time.monotonic() - t0 < 180.0


def test_criterion_05_random_cubic_intersections_are_92_sets(cubic_runs):
    t0 = time.monotonic()
    for q, runs in cubic_runs.items():
        for X in runs:
            assert X.n == 4
            assert is_rs_set(X, 9, 2)[0]
        assert median(len(X) for X in runs) >= 0.5 * q * q
    assert time.monotonic() - t0 < 180.0


def test_criterion_06_random_deletion_meets_size_floor(gv_runs):
    for (n, r, s, q), runs in gv_runs.items():
        for X in runs:
            assert is_rs_set(X, r, s)[0]
        floor = 0.25 * float(q) ** (n - s - s * (n - s) / r)
        assert median(len(X) for X in runs) >= floor


def test_criterion_07_products_multiply_sizes_and_stay_valid(product_sets):
    Z85, Z40 = product_sets
    assert len(Z85) == 85 and Z85.n == 11 and Z85.field.order == 2
    # cap check, exhaustively: every 3 of the 85 points span a plane
    triples = itertools.combinations(range(85), 3)
    while idx := list(itertools.islice(triples, 4096)):
        assert np.all(batch_rref(Z85.field, Z85.array[idx])[0] == 3)
    assert is_rs_set(Z85, 2, 1)[0]

    assert len(Z40) == 40 and Z40.n == 24 and Z40.field.order == 3
    assert is_rs_set(Z40, 3, 2)[0]


def test_criterion_08_bounds_match_closed_forms(graph_sets, quadric_runs,
                                                cubic_runs, gv_runs,
                                                product_sets):
    assert pigeonhole_bound(4, 3, 9, 2) == 126
    assert abs(mpmath.mpf(str(rao_constant(2, 2, 64))) - mpmath.sqrt(Fraction(11, 5))) < 1e-12

    for n in (20, 21):
        t = exponent_table(n, 6, 6)
        N = Fraction(n)
        expect = {
            (1, 1): N - 1,
            (2, 1): (N - 1) / 2, (2, 2): N - 2,
            (3, 1): (N - 2) / 2, (3, 2): (N - 1) / 2, (3, 3): N - 3,
            (4, 1): (N - 2) / 3, (4, 2): (N - 2) / 2,
            (4, 3): (N - 1) / 2, (4, 4): N - 4,
            (5, 1): (N - 3) / 3, (5, 2): (N - 3) / 2, (5, 3): (N - 2) / 2,
            (5, 4): (N - 1) / 2, (5, 5): N - 5,
            (6, 1): (N - 3) / 4, (6, 2): (N - 2) / 3, (6, 3): (N - 3) / 2,
            (6, 4): (N - 2) / 2, (6, 5): (N - 1) / 2, (6, 6): N - 6,
        }
        for cell, value in expect.items():
            assert t[cell] == value, f"cell {cell} at n={n}"

    # every set built for criteria 1-7 fits under its own size bound
    tagged = []
    for n, q in MONOMIAL_PAIRS:
        tagged.append((monomial_curve(n, field_of_order(q)), n, 1))
    for X in graph_sets.values():
        tagged.append((X, 3, 2))
    for runs in quadric_runs.values():
        tagged.extend((X, 4, 2) for X in runs)
    for runs in cubic_runs.values():
        tagged.extend((X, 9, 2) for X in runs)
    for (n, r, s, q), runs in gv_runs.items():
        tagged.extend((X, r, s) for X in runs)
    Z85, Z40 = product_sets
    tagged.append((Z85, 2, 1))
    tagged.append((Z40, 3, 2))
    for X, r, s in tagged:
        cap = best_upper_bound(X.n, X.field.order, r, s).best()
        assert len(X) <= float(cap.value)


def test_criterion_09_scan_agrees_with_subspace_enumeration_oracle():
    spaces = [(3, make_field(2, 1)), (3, make_field(3, 1)), (4, make_field(2, 1))]
    for seed in range(100):
        n, field = spaces[seed % 3]
        rng = Prng(seed)
        universe = list(all_points(n, field))
        size = 4 + seed % 7
        chosen = set()
        while len(chosen) < size:
            chosen.add(universe[rng.below(len(universe))])
        X = PointSet.from_rows(field, n, sorted(chosen))
        for s in (1, 2):
            assert max_in_s_space(X, s)[0] == oracle_max_in_s_space(X, s)


def test_criterion_10_seeded_commands_are_byte_reproducible(tmp_path, capsys):
    commands = [
        ["construct", "gv", "--n", "3", "--q", "11", "--r", "3", "--s", "2",
         "--seed", "4"],
        ["construct", "quadrics", "--m", "2", "--q", "7", "--seed", "2"],
        ["construct", "cubics", "--q", "5", "--seed", "1"],
    ]
    for i, argv in enumerate(commands):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        blob = a.read_bytes()
        assert blob == b.read_bytes()
        X, r, s = pointset_from_json_bytes(blob)
        assert pointset_to_json_bytes(X, r, s) == blob
