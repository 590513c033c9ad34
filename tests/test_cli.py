"""Command line driver: summaries, exit codes, files, and reruns."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import evasive
from evasive import verifier
from evasive.cli import main
from evasive.jsonio import pointset_from_json_bytes, pointset_to_json_bytes
from evasive.verifier import is_rs_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """os.environ with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(evasive.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_construct_monomial_summary(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, _ = run(capsys, "construct", "monomial",
                          "--n", "3", "--q", "3", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "monomial 3 3 4 3 1 yes"
    assert out.exists()


def test_construct_graph32_summary(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run(capsys, "construct", "graph32",
                          "--q0", "2", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "graph32 6 4 8 3 2 yes"


@pytest.mark.parametrize("out", [".", "missing/x.json"], ids=["directory", "missing-parent"])
def test_construct_unwritable_out_is_exit_2(out, tmp_path, capsys):
    code, stdout, stderr = run(capsys, "construct", "ovoid", "--q", "4",
                               "--out", str(tmp_path / out))
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: cannot write ")


def test_construct_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "construct", "rnc", "--c", "3", "--q", "4")
    assert code == 0
    assert (tmp_path / "rnc-n3-q4.json").exists()
    assert stdout.split() == ["rnc", "3", "4", "5", "3", "2", "yes"]


def test_construct_no_verify_skips(tmp_path, capsys):
    out = tmp_path / "o.json"
    code, stdout, _ = run(capsys, "construct", "ovoid", "--q", "3",
                          "--out", str(out), "--no-verify")
    assert code == 0
    assert stdout.split()[-1] == "skipped"


def test_randomized_kinds_require_seed(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "gv", "--n", "3", "--q", "2",
                          "--r", "3", "--s", "2",
                          "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "--seed" in stderr


def test_seeded_construct_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["construct", "quadrics", "--m", "2", "--q", "5", "--seed", "7"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(capsys, *args, "--out", str(b), "--seed", "8")[0] == 0
    assert a.read_bytes() != b.read_bytes()


def test_written_file_round_trips(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "construct", "cubics", "--q", "5",
                     "--seed", "3", "--out", str(out))
    assert code == 0
    blob = out.read_bytes()
    X, r, s = pointset_from_json_bytes(blob)
    assert (r, s) == (9, 2)
    assert pointset_to_json_bytes(X, r, s) == blob


def test_verify_valid_file(tmp_path, capsys):
    out = tmp_path / "m.json"
    run(capsys, "construct", "monomial", "--n", "3", "--q", "3",
        "--out", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert stdout.strip() == "VALID (3,1)-set: 4 points in PG(3,3)"


def test_verify_reports_violation(tmp_path, capsys):
    out = tmp_path / "line.json"
    out.write_bytes(b'{"p":3,"k":1,"modulus":[0,1],"n":2,"r":2,"s":1,'
                    b'"points":[[0,0,1],[0,1,0],[0,1,1]]}\n')
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 1
    assert stdout.startswith("VIOLATION: a 1-space holds 3 points (> 2)")
    assert "generating" in stdout and "intersection" in stdout


def test_verify_flag_overrides_embedded_limits(tmp_path, capsys):
    out = tmp_path / "line.json"
    out.write_bytes(b'{"p":3,"k":1,"modulus":[0,1],"n":2,"r":2,"s":1,'
                    b'"points":[[0,0,1],[0,1,0],[0,1,1]]}\n')
    code, stdout, _ = run(capsys, "verify", str(out), "--r", "3")
    assert code == 0
    assert stdout.strip() == "VALID (3,1)-set: 3 points in PG(2,3)"


def test_verify_needs_limits_from_somewhere(tmp_path, capsys):
    out = tmp_path / "n.json"
    out.write_bytes(b'{"p":2,"k":1,"modulus":[0,1],"n":2,"r":null,"s":null,'
                    b'"points":[[0,0,1],[0,1,0]]}\n')
    code, _, stderr = run(capsys, "verify", str(out))
    assert code == 2 and "error:" in stderr
    code, stdout, _ = run(capsys, "verify", str(out), "--r", "2", "--s", "1")
    assert code == 0


def test_verify_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"p":3,"k":1,"modulus":[0,1],"n":2,"r":null,"s":null,'
                    b'"points":[[2,0,1]]}\n')
    code, _, stderr = run(capsys, "verify", str(bad))
    assert code == 2
    assert "error:" in stderr


def test_verify_refuses_encodings_past_64_bits(tmp_path, capsys):
    # GF(p) for a prime above 2^63 holds encodings no int64 array can; the
    # file parses into the field's uint64 dtype, and the scan refuses it
    # with exit 3 before it builds the field's O(p) logs: the order is
    # above the budget
    p = 9223372036854775837
    big = tmp_path / "big.json"
    big.write_bytes(b'{"p":%d,"k":1,"modulus":[0,1],"n":1,"r":1,"s":0,'
                    b'"points":[[0,1],[1,%d]]}\n' % (p, p - 1))
    start = time.perf_counter()
    code, _, stderr = run(capsys, "verify", str(big))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "budget" in stderr and str(p) in stderr


def test_verify_empty_file_at_the_largest_n(tmp_path):
    # no points at n = 2^31 - 1: reading the empty set once cost Python
    # work and memory per column, hours and hundreds of GB at this n
    path = tmp_path / "empty.json"
    path.write_bytes(b'{"p":2,"k":1,"modulus":[0,1],"n":2147483647,"r":1,"s":0,'
                     b'"points":[]}\n')
    done = subprocess.run([sys.executable, "-m", "evasive", "verify", "empty.json"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                          timeout=20)
    assert done.returncode == 0
    assert done.stdout == "VALID (1,0)-set: 0 points in PG(2147483647,2)\n"


def test_construct_certifies_past_order_4096(tmp_path, capsys):
    # elimination once stopped at order 4096, and this call exited 2
    out = tmp_path / "r.json"
    code, stdout, _ = run(capsys, "construct", "rnc", "--c", "2", "--q", "4099",
                          "--out", str(out))
    assert code == 0
    assert stdout.strip() == "rnc 2 4099 4100 2 1 yes"


def test_verify_budget_exhaustion_is_exit_3(tmp_path, capsys):
    out = tmp_path / "o.json"
    run(capsys, "construct", "ovoid", "--q", "5", "--out", str(out),
        "--no-verify")
    code, _, stderr = run(capsys, "verify", str(out), "--budget", "1")
    assert code == 3
    assert "budget" in stderr


def test_construct_budget_below_space_is_exit_3(tmp_path, capsys):
    # gv draws from every point of PG(3, 7), which has 400
    out = tmp_path / "g.json"
    code, stdout, stderr = run(capsys, "construct", "gv", "--n", "3", "--q", "7",
                               "--r", "3", "--s", "2", "--seed", "1",
                               "--budget", "300", "--out", str(out))
    assert code == 3 and stdout == ""
    assert "PG(3,7) has 400 points" in stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["ovoid", "--q", "101", "--budget", "1000"],
    ["rnc", "--c", "3", "--q", "1009", "--budget", "100"],
], ids=["ovoid", "rnc"])
@pytest.mark.parametrize("no_verify", [[], ["--no-verify"]], ids=["verify", "no-verify"])
def test_construct_budget_bounds_the_family(args, no_verify, tmp_path, capsys):
    # the construction refuses before it allocates, not the verifier after
    out = tmp_path / "x.json"
    code, stdout, stderr = run(capsys, "construct", *args, *no_verify, "--out", str(out))
    assert code == 3 and stdout == ""
    assert "points exceed budget" in stderr
    assert not out.exists()


def test_construct_graph32_budget_refuses_before_the_graph(tmp_path, capsys, monkeypatch):
    # q0^3 edges are bounded before the incidence graph is built
    def no_graph(q0):
        raise AssertionError("the graph was built")

    monkeypatch.setattr("evasive.constructions.trimmed_incidence_graph", no_graph)
    out = tmp_path / "g.json"
    code, stdout, stderr = run(capsys, "construct", "graph32", "--q0", "32",
                               "--budget", "100", "--out", str(out))
    assert code == 3 and stdout == ""
    assert "32768 edges exceed budget 100" in stderr
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["rnc", "--c", "1000", "--q", "2"], "(q + 1) * (c + 1) = 3003 coordinates"),
    (["monomial", "--n", "1000", "--q", "2"], "(q-1)^(n-1) * (n+1) = 1001 coordinates"),
], ids=["rnc", "monomial"])
def test_construct_budget_counts_coordinates(args, message, tmp_path, capsys):
    # a few points can still be wide: the budget bounds points x coordinates
    out = tmp_path / "x.json"
    code, stdout, stderr = run(capsys, "construct", *args, "--budget", "100",
                               "--out", str(out))
    assert code == 3 and stdout == ""
    assert message + " exceed budget 100" in stderr
    assert not out.exists()


def test_construct_monomial_wider_than_64_dimensions(tmp_path, capsys):
    # (q-1)^(n-1) = 1 point with 69 exponents, one more than numpy allows axes
    out = tmp_path / "m.json"
    code, stdout, _ = run(capsys, "construct", "monomial", "--n", "70", "--q", "2",
                          "--out", str(out))
    assert code == 0
    assert stdout.strip() == "monomial 70 2 1 70 1 yes"
    X, _, _ = pointset_from_json_bytes(out.read_bytes())
    assert X.array.tolist() == [[1] * 71]


def test_construct_quadrics_budget_refuses_before_drawing(tmp_path, capsys, monkeypatch):
    # m = 400 would draw 400 forms in 800 variables before enumerating PG(799, 3)
    def no_form(*args):
        raise AssertionError("a form was drawn")

    monkeypatch.setattr("evasive.randomized._random_form", no_form)
    out = tmp_path / "q.json"
    code, stdout, stderr = run(capsys, "construct", "quadrics", "--m", "400", "--q", "3",
                               "--seed", "1", "--budget", "10", "--out", str(out))
    assert code == 3 and stdout == ""
    assert "PG(799,3) has" in stderr and "budget is 10" in stderr
    assert not out.exists()


@pytest.mark.parametrize("args,count", [
    (["quadrics", "--m", "400", "--q", "3"],
     "PG(799,3) has (3^800 - 1)/2, about 2.5e+381, points"),
    (["quadrics", "--m", "30", "--q", "2"], "PG(59,2) has (2^60 - 1)/1, about 1.2e+18, points"),
    (["quadrics", "--m", "8", "--q", "5"], "PG(15,5) has 38146972656 points"),
    # past 4300 digits str() of the count raises ValueError
    (["gv", "--n", "100000", "--q", "3", "--r", "3", "--s", "2"],
     "PG(100000,3) has (3^100001 - 1)/2, about 2.0e+47712, points"),
], ids=["382-digits", "19-digits", "11-digits", "47713-digits"])
def test_construct_budget_message_stays_short(args, count, tmp_path, capsys):
    # a point count past 15 digits is written as a power of q and in
    # scientific notation instead of in full
    out = tmp_path / "q.json"
    code, stdout, stderr = run(capsys, "construct", *args, "--seed", "1",
                               "--budget", "10", "--out", str(out))
    assert code == 3 and stdout == ""
    assert count + ", budget is 10" in stderr
    assert len(stderr) < 120
    assert not out.exists()


def test_construct_huge_n_refused_before_counting(tmp_path):
    # 3^(10^8 + 1) as an exact int takes minutes to build, so the count is
    # compared with the budget through its logarithm first
    env = child_env()
    argv = ["construct", "gv", "--n", "100000000", "--q", "3", "--r", "3", "--s", "2",
            "--seed", "1", "--budget", "10", "--out", "gv.json"]
    done = subprocess.run([sys.executable, "-m", "evasive", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 3 and done.stdout == ""
    assert "PG(100000000,3) has (3^100000001 - 1)/2, about 4.4e+47712125, points, " \
           "budget is 10" in done.stderr
    assert not (tmp_path / "gv.json").exists()


@pytest.mark.parametrize("args,message", [
    (["monomial", "--n", "100000000", "--q", "3"], "(q-1)^(n-1) = 1.8e+30102999 exceeds"),
    (["monomial-affine", "--n", "1000000000", "--q", "3"], "(q-1)^(n-1) = 2.3e+301029995"),
    (["rnc", "--c", "9" * 4300, "--q", "3"], "(q + 1) * (c + 1) = 4.0e+4300 coordinates"),
    (["gv", "--n", "9" * 4299, "--q", "3", "--r", "3", "--s", "2", "--seed", "1"],
     "PG(1.0e+4299,3) has (3^1.0e+4299 - 1)/2, about 10^10^308 or more, points"),
    (["quadrics", "--m", "9" * 4299, "--q", "3", "--seed", "1"], "PG(2.0e+4299,3) has"),
], ids=["monomial-n1e8", "monomial-affine-n1e9", "rnc-c4300-digits", "gv-n4299-digits",
        "quadrics-m4299-digits"])
def test_construct_huge_parameter_exits_3_at_once(args, message, tmp_path, capsys):
    # counts far past the budget are refused from their logarithm, and
    # numbers past 15 digits are printed in scientific notation: str() of
    # an int past 4300 digits raises, and (q-1)^(n-1) at n = 10^9 takes seconds
    out = tmp_path / "x.json"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "construct", *args, "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and stdout == ""
    assert message in stderr
    assert stderr.count("\n") == 1 and len(stderr) < 120
    assert not out.exists()


HUGE = "9" * 4300  # the most digits int() parses


@pytest.mark.parametrize("argv,message", [
    (["construct", "monomial", "--n", "3", "--q", HUGE], "q has 14285 bits"),
    (["construct", "monomial-affine", "--n", "3", "--q", HUGE], "q has 14285 bits"),
    (["construct", "rnc", "--c", "3", "--q", HUGE], "q has 14285 bits"),
    (["construct", "ovoid", "--q", HUGE], "q has 14285 bits"),
    (["construct", "ovoid", "--q", str(2**64)], "q has 65 bits; field orders must fit in 64 bits"),
    (["construct", "graph32", "--q0", HUGE], "q has 28569 bits"),
    (["construct", "graph32", "--q0", str(2**32)], "q has 65 bits"),
    (["construct", "gv", "--n", "3", "--q", HUGE, "--r", "3", "--s", "2", "--seed", "1"],
     "q has 14285 bits"),
    (["construct", "quadrics", "--m", "2", "--q", HUGE, "--seed", "1"], "q has 14285 bits"),
    (["construct", "cubics", "--q", HUGE, "--seed", "1"], "q has 14285 bits"),
    (["construct", "product", "--q", HUGE, "--r", "2", "--s", "1", "--y-c", "2"],
     "q has 14285 bits"),
    (["bounds", "--n", "2", "--q", HUGE, "--r", "3", "--s", "1"], "than a float can hold"),
    (["bounds", "--n", "1" + "0" * 400, "--q", "2", "--r", "3", "--s", "1"],
     "than a float can hold"),
], ids=["monomial", "monomial-affine", "rnc", "ovoid", "ovoid-q2^64", "graph32",
        "graph32-q0-2^32", "gv", "quadrics", "cubics", "product", "bounds", "bounds-n1e400"])
def test_huge_field_order_exits_2_at_once(argv, message, tmp_path, capsys):
    # factoring a q of thousands of digits takes many seconds, so orders
    # from 2^64 on (and PG(n, q) past the float range) are refused first
    out = tmp_path / "x.json"
    extra = ["--out", str(out)] if argv[0] == "construct" else []
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, *argv, *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and message in stderr
    assert stderr.count("\n") == 1 and len(stderr) < 120
    assert not out.exists()


RANDOMIZED_ARGS = {
    "cubics": ["--q", "3", "--seed", "1"],
    "quadrics": ["--m", "2", "--q", "5", "--seed", "7"],
    "gv": ["--n", "3", "--q", "2", "--r", "3", "--s", "2", "--seed", "1"],
}


@pytest.mark.parametrize("kind", sorted(RANDOMIZED_ARGS))
def test_randomized_construct_is_scanned_once(kind, tmp_path, capsys, monkeypatch):
    # cleanup certifies the set it returns, so construct must not scan it again
    def second_scan(*args, **kwargs):
        raise AssertionError(f"construct {kind} scanned its set a second time")

    monkeypatch.setattr("evasive.verifier.is_rs_set", second_scan)
    out = tmp_path / "x.json"
    code, stdout, _ = run(capsys, "construct", kind, *RANDOMIZED_ARGS[kind],
                          "--out", str(out))
    assert code == 0 and stdout.split()[-1] == "yes"
    X, r, s = pointset_from_json_bytes(out.read_bytes())
    assert is_rs_set(X, r, s)[0]
    code, stdout, _ = run(capsys, "construct", kind, *RANDOMIZED_ARGS[kind],
                          "--out", str(out), "--no-verify")
    assert code == 0 and stdout.split()[-1] == "skipped"


def test_deterministic_construct_is_verified(tmp_path, capsys, monkeypatch):
    scans = []

    def counting_scan(X, r, s, **kwargs):
        scans.append((len(X), r, s))
        return is_rs_set(X, r, s, **kwargs)

    monkeypatch.setattr("evasive.verifier.is_rs_set", counting_scan)
    code, stdout, _ = run(capsys, "construct", "ovoid", "--q", "3",
                          "--out", str(tmp_path / "o.json"))
    assert code == 0 and stdout.split()[-1] == "yes"
    assert scans == [(10, 2, 1)]

def test_construct_rejects_non_prime_power(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "monomial", "--n", "3",
                          "--q", "6", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "error:" in stderr


def test_construct_lists_missing_flags(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "monomial",
                          "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "--n" in stderr and "--q" in stderr


def test_construct_product(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = run(
        capsys, "construct", "product", "--q", "2", "--r", "2", "--s", "1",
        "--x-kind", "ovoid", "--y-kind", "rnc", "--y-c", "2",
        "--out", str(out))
    assert code == 0
    assert stdout.split() == ["product", "11", "2", "85", "2", "1", "yes"]
    X, r, s = pointset_from_json_bytes(out.read_bytes())
    assert len(X) == 85 and (r, s) == (2, 1)


def test_construct_product_refuses_negative_y_trunc(tmp_path, capsys):
    # a negative size would slice Y from the end and silently drop its last point
    code, _, stderr = run(
        capsys, "construct", "product", "--q", "2", "--r", "2", "--s", "1",
        "--x-kind", "ovoid", "--y-kind", "rnc", "--y-c", "2", "--y-trunc", "-1",
        "--out", str(tmp_path / "p.json"))
    assert code == 2 and "error:" in stderr
    assert not (tmp_path / "p.json").exists()


def test_construct_product_refuses_r_below_2(tmp_path, capsys):
    # X must be a proper (r, r-1)-set; the error names that, not the s=0 of r-1
    code, _, stderr = run(
        capsys, "construct", "product", "--q", "2", "--r", "1", "--s", "1",
        "--x-kind", "rnc", "--x-c", "2", "--y-kind", "rnc", "--y-c", "2",
        "--out", str(tmp_path / "p.json"))
    assert code == 2
    assert "proper (1, 0)-set" in stderr and "r >= 2" in stderr and "s=0" not in stderr
    assert not (tmp_path / "p.json").exists()


def test_construct_product_checks_options_before_building(tmp_path, capsys, monkeypatch):
    # a missing --y-c is reported before X, a 4,012,010-point ovoid, is built
    def no_ovoid(*args, **kwargs):
        raise AssertionError("X was built before the options were checked")

    monkeypatch.setattr("evasive.constructions.elliptic_ovoid", no_ovoid)
    code, stdout, stderr = run(
        capsys, "construct", "product", "--q", "2003", "--r", "2", "--s", "1",
        "--x-kind", "ovoid", "--y-kind", "rnc", "--out", str(tmp_path / "p.json"))
    assert code == 2 and stdout == ""
    assert "requires --y-c" in stderr


@pytest.mark.parametrize("args,message", [
    (["--q", "4", "--r", "3", "--s", "2", "--x-kind", "rnc", "--x-c", "2",
      "--y-kind", "rnc", "--y-c", "3"],
     "X lies in PG(2, 4), where a proper (3, 2)-set needs r - 1 < 2, got r=3"),
    (["--q", "2", "--r", "2", "--s", "2", "--x-kind", "ovoid", "--y-kind", "rnc", "--y-c", "2"],
     "Y lies in PG(2, 16), where an (2, 2)-set needs 0 <= s < 2, got s=2"),
], ids=["x-r-past-dimension", "y-s-past-dimension"])
def test_construct_product_dimension_error_names_the_factor(args, message, tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, stderr = run(capsys, "construct", "product", *args, "--out", str(out))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {message}\n"
    assert not out.exists()


def test_construct_product_scans_x_once(tmp_path, capsys, monkeypatch):
    # is_proper certifies X with one call at dimension s: product-51's calls
    # are X's, Y's and the product's, each at (dim, limit) = (2, 3)
    calls = []
    real = verifier.find_violation

    def recording(X, dim, limit, **kwargs):
        calls.append((X.n, X.field.order, dim, limit))
        return real(X, dim, limit, **kwargs)

    monkeypatch.setattr(verifier, "find_violation", recording)
    code, stdout, _ = run(
        capsys, "construct", "product", "--q", "2", "--r", "3", "--s", "2",
        "--x-kind", "rnc", "--x-c", "3", "--y-kind", "rnc", "--y-c", "3",
        "--out", str(tmp_path / "p.json"))
    assert code == 0 and stdout.split() == ["product", "15", "2", "51", "3", "2", "yes"]
    assert calls == [(3, 2, 2, 3), (3, 16, 2, 3), (15, 2, 2, 3)]


def test_construct_product_x_scan_past_budget_is_exit_3(tmp_path, capsys):
    # the monomial curve over GF(16) has collinear triples, but is_proper
    # scans its planes only, and C(225, 3) spans are past the budget: exit 3,
    # where a scan of its lines ended in exit 2 ("not a proper (3, 2)-set")
    out = tmp_path / "p.json"
    code, stdout, stderr = run(
        capsys, "construct", "product", "--q", "16", "--r", "3", "--s", "2",
        "--x-kind", "monomial", "--x-n", "3", "--y-kind", "rnc", "--y-c", "3",
        "--budget", "1000000", "--out", str(out))
    assert code == 3 and stdout == ""
    assert "subset scan needs C(225, 3) = 1873200 spans, budget is 1000000" in stderr
    assert not out.exists()


def test_construct_product_certifies_x_before_building_y(tmp_path, capsys, monkeypatch):
    # X's scan, C(3969, 3) spans, is past the default budget, so the call
    # exits 3 before Y, a 16,777,217-point conic over GF(2^24), is built
    def no_conic(*args, **kwargs):
        raise AssertionError("Y was built before X was certified")

    monkeypatch.setattr("evasive.constructions.rational_normal_curve", no_conic)
    out = tmp_path / "p.json"
    code, stdout, stderr = run(
        capsys, "construct", "product", "--q", "64", "--r", "3", "--s", "2",
        "--x-kind", "monomial", "--x-n", "3", "--y-kind", "rnc", "--y-c", "3",
        "--out", str(out))
    assert code == 3 and stdout == ""
    assert "C(3969, 3) = 10412708544 spans" in stderr
    assert not out.exists()


# stdout, and sha256 of the files the tuple-based PointSet wrote, an
# independent reference; no benchmark call covers cleanup deletions, gv or products
PINNED_FILES = [
    pytest.param(["quadrics", "--m", "3", "--q", "5", "--seed", "3"],
                 "quadrics 5 5 34 4 2 yes",
                 "177887d14a5681031d0fc6e3fa7228b4911b2a6b33b48c1027362143b110f42c",
                 id="quadrics-cleanup-deletes-7-of-41"),
    pytest.param(["gv", "--n", "3", "--q", "5", "--r", "2", "--s", "1", "--seed", "2"],
                 "gv 3 5 3 2 1 yes",
                 "5eee5b619dbaabbd6ea27a626be2e967660e2127e97c0f30d8d55eb2ce4175a2",
                 id="gv-cleanup-6-to-3"),
    pytest.param(["product", "--q", "3", "--r", "2", "--s", "1", "--x-kind", "ovoid",
                  "--y-kind", "rnc", "--y-c", "2"],
                 "product 11 3 820 2 1 yes",
                 "75295edbccc26f95bf66a4b4743c387f635dd7ab47343a3d87222ca09710b70a",
                 id="product-820"),
    pytest.param(["product", "--q", "2", "--r", "3", "--s", "2", "--x-kind", "rnc",
                  "--x-c", "3", "--y-kind", "rnc", "--y-c", "3"],
                 "product 15 2 51 3 2 yes",
                 "0249ec348ed9044d3c02157fa024659a4870f318b79609cdbb96af0549c51178",
                 id="product-51"),
    # over the tower GF(4)^4; pinned from the per-point scalar spread code
    pytest.param(["product", "--q", "4", "--r", "2", "--s", "1", "--x-kind", "ovoid",
                  "--y-kind", "rnc", "--y-c", "2", "--no-verify"],
                 "product 11 4 4369 2 1 skipped",
                 "15e1fb9ac868f2fdf14da68a38f17b7e62da49e756cf0485658aeff187d15676",
                 id="product-4369-tower"),
    pytest.param(["monomial-affine", "--n", "3", "--q", "4"],
                 "monomial-affine 3 4 9 3 1 yes",
                 "ca19f82a691f9b01ae325a760a255908094523a0a4e43ca5e594ac9085b97efd",
                 id="monomial-affine-9"),
    pytest.param(["product", "--q", "2", "--r", "2", "--s", "1", "--x-kind", "ovoid",
                  "--y-kind", "ovoid"],
                 "product 15 2 1285 2 1 yes",
                 "c1b3e0c32d1ff654d12dfcd70bc628274db5af380f09d3566128cff036556962",
                 id="product-1285-ovoid-y"),
    pytest.param(["product", "--q", "2", "--r", "3", "--s", "1", "--x-kind", "monomial",
                  "--x-n", "3", "--y-kind", "ovoid"],
                 "product 15 2 257 3 1 yes",
                 "7016b1592acdb92996325592d9189d95e72fa3c3469e510f88dc57924e944502",
                 id="product-257-monomial-x"),
    # the ovoid's log path: above q = 256 it reads discrete logs and no table
    pytest.param(["ovoid", "--q", "257", "--no-verify"],
                 "ovoid 3 257 66050 2 1 skipped",
                 "a1cd4d3cef12513765fe0a78fb0d808ab265b702049f65ed867cc8054b59209a",
                 id="ovoid-q257"),
    # pinned from the scalar point-line incidence scan
    *(pytest.param(["graph32", "--q0", str(q0), "--no-verify"],
                   f"graph32 6 {q0 * q0} {q0**3} 3 2 skipped", sha256, id=f"graph32-q0-{q0}")
      for q0, sha256 in [
          (5, "dc0f55b454e32fa14c09f02736d6b8c64ff9ec556b3b889fcc59c8c84cf3214b"),
          (8, "a6c327e46d62014f21aa63529d8e752d501f185ae4ab30ffffac52bb02594483"),
          (9, "f667f48e24bd5250eab9a84a30bcc487be5b5aac16c9802a798a04d47c6057bb"),
      ]),
]


@pytest.mark.parametrize("args,summary,sha256", PINNED_FILES)
def test_construct_writes_pinned_bytes(args, summary, sha256, tmp_path, capsys):
    out = tmp_path / "x.json"
    code, stdout, _ = run(capsys, "construct", *args, "--out", str(out))
    assert code == 0
    assert stdout == summary + "\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_bounds_text_output(capsys):
    code, stdout, _ = run(capsys, "bounds", "--n", "4", "--q", "3",
                          "--r", "9", "--s", "2")
    assert code == 0
    assert "bounds for (9,2)-sets in PG(4,3)" in stdout
    assert "pigeonhole" in stdout and "126" in stdout
    assert "[best]" in stdout
    # inapplicable entries show a dash and the failed hypothesis
    assert " - " in stdout or " -  " in stdout


def test_bounds_json_output(capsys):
    code, stdout, _ = run(capsys, "bounds", "--n", "4", "--q", "3",
                          "--r", "9", "--s", "2", "--format", "json")
    assert code == 0
    data = json.loads(stdout)
    labels = {e["label"]: e for e in data["entries"]}
    assert labels["pigeonhole"]["value"] == 126
    assert data["lower"]["label"] == "gv"


# sha256 of bounds stdout, text then JSON, as computed with mpmath
PINNED_BOUNDS = [
    pytest.param("4 64 3 2",
                 "7c4de19de445bd42e64cbdb7f785f4c4c7b8157cd47457ca74fb1411c509e91b",
                 "7717dda1aa9df06bc9e3a261e2c7cc7bb592b915459b14019f0c50474ffeef86",
                 id="rao-best-gv-applies"),
    pytest.param("6 4 3 2",
                 "7414c181b081cc2bdcec3aa3ee90790c395a9c85bac278a7980e05752c82ea19",
                 "78d500239b7de581ae5c8a049e0028b2236199b5264846059d1064a1cbfad125",
                 id="gv-applies"),
    pytest.param("12 4096 8 6",
                 "53f0fa763ea8124b565210541ac9b94afa74d699a2c53b2ca47db0240b97c9d0",
                 "a03914345bdc3a35d9e6dd168aa991d83fc02b631cea6540f6c72eb33da960aa",
                 id="rao-e3"),
    pytest.param("30 7 5 3",
                 "6be5fea9103298852dc1067b07a4cfe1be324f2977ddb5584da348ea40db42f7",
                 "d4bac4f216721853d90e7c22e0864c205cc2a35c8b56c44de61464d69fbd3450",
                 id="projections-past-2^53"),
    pytest.param("40 4096 23 21",
                 "322c65c32b5ff263dc801d5ac0f2421ad1ad6e9d7b449ee79279be82b434275e",
                 "00e530d8db5a9192776116e7502c54250a5a907e3e5cc33fcacd8c8220c052de",
                 id="rao-and-projections-past-2^53"),
]


@pytest.mark.parametrize("nqrs,text_sha256,json_sha256", PINNED_BOUNDS)
def test_bounds_prints_pinned_bytes(nqrs, text_sha256, json_sha256, capsys):
    n, q, r, s = nqrs.split()
    for fmt, sha256 in (("text", text_sha256), ("json", json_sha256)):
        code, stdout, _ = run(capsys, "bounds", "--n", n, "--q", q, "--r", r, "--s", s,
                              "--format", fmt)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == sha256


def test_bounds_rao_inapplicable_at_small_q(capsys):
    code, stdout, _ = run(capsys, "bounds", "--n", "4", "--q", "4",
                          "--r", "3", "--s", "2", "--format", "json")
    assert code == 0
    data = json.loads(stdout)
    rao = next(e for e in data["entries"] if e["label"] == "rao")
    assert rao["applicable"] is False
    assert "q > 2e" in rao["reason"]


def test_table_text_output(capsys):
    code, stdout, _ = run(capsys, "table", "--n", "20", "--smax", "3",
                          "--gapmax", "3")
    assert code == 0
    assert "19/2" in stdout  # the (2,1) cell at n = 20
    assert "18" in stdout


def test_table_json_output(capsys):
    code, stdout, _ = run(capsys, "table", "--n", "20", "--smax", "2",
                          "--gapmax", "2", "--format", "json")
    assert code == 0
    data = json.loads(stdout)
    cells = {(e["s"], e["gap"]): e["exponent"] for e in data["entries"]}
    assert cells[(1, 1)] == "19"
    assert cells[(2, 1)] == "19/2"
    assert cells[(2, 2)] == "18"


def test_table_validation_error(capsys):
    code, _, stderr = run(capsys, "table", "--n", "10", "--smax", "6",
                          "--gapmax", "6")
    assert code == 2 and "error:" in stderr


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "4", "--q", "1", "--r", "9", "--s", "2"],  # q - 1 = 0 divides
    ["bounds", "--n", "4", "--q", "0", "--r", "9", "--s", "2"],
    ["bounds", "--n", "4", "--q", "-3", "--r", "9", "--s", "2"],
    ["bounds", "--n", "4", "--q", "6", "--r", "9", "--s", "2"],
    ["bounds", "--n", "1000", "--q", "7", "--r", "950", "--s", "900"],  # 900 projections deep
    ["bounds", "--n", "400", "--q", "7", "--r", "3", "--s", "2"],  # 7^401 points
    ["bounds", "--n", "4", "--q", "3", "--r", "1" + "0" * 400, "--s", "2"],
    ["table", "--n", "2000", "--smax", "1000", "--gapmax", "6"],
    ["table", "--n", "20", "--smax", "1", "--gapmax", "1001"],
])
def test_hostile_bounds_and_table_sizes_exit_2(argv, capsys):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ")


def test_deep_table_runs_without_recursion(capsys):
    # 900 projection levels: deeper than the interpreter's recursion limit
    code, stdout, _ = run(capsys, "table", "--n", "1800", "--smax", "900", "--gapmax", "3")
    assert code == 0
    assert stdout.splitlines()[-1].split() == ["s=900", "1350/451", "1500/301", "1575/226"]


def test_no_verb_imports_mpmath(tmp_path):
    # a fresh interpreter, since this one has loaded mpmath for the tests
    script = textwrap.dedent("""
        import sys
        from evasive import cli
        for argv in (["construct", "ovoid", "--q", "4", "--out", "o.json"],
                     ["verify", "o.json"],
                     ["table", "--n", "4", "--smax", "1", "--gapmax", "1"],
                     ["bounds", "--n", "4", "--q", "7", "--r", "9", "--s", "2"],
                     ["bounds", "--n", "4", "--q", "64", "--r", "3", "--s", "2"],
                     ["bounds", "--n", "6", "--q", "4", "--r", "3", "--s", "2",
                      "--format", "json"]):
            code = cli.main(argv)
            print("LOADED", argv[0], code, "mpmath" in sys.modules)
    """)
    env = child_env()
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    loaded = [line.split()[1:] for line in done.stdout.splitlines()
              if line.startswith("LOADED")]
    assert loaded == [["construct", "0", "False"], ["verify", "0", "False"],
                      ["table", "0", "False"], *[["bounds", "0", "False"]] * 3]
