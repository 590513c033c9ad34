"""Command line driver: summaries, exit codes, files, and reruns."""

import json

import pytest

from evasive import cli
from evasive.cli import main
from evasive.jsonio import pointset_from_json_bytes, pointset_to_json_bytes
from evasive.verifier import is_rs_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    monkeypatch.setattr(cli, "is_rs_set", second_scan)
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

    monkeypatch.setattr(cli, "is_rs_set", counting_scan)
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
