#!/usr/bin/env python3
"""End-to-end benchmark of the evasive CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Each CLI call runs in a fresh child process (``python -m evasive ...`` with
PYTHONPATH=src), because users pay interpreter start-up and field-table
builds on every call.  Calls run one at a time from this process: a closed
loop with one client and the CLI's default ``--threads 1``.  One *pass* runs
a workload's calls once, after a fresh set-up; passes repeat while the next
one is expected to end within ``--seconds``, at least MIN_PASSES of them, and
every metric is the median over passes.  The exit code, stdout and written
files of every call are checked after each pass, outside the timed region; a
call with any mismatch counts as failed.

Workloads (the seed sets the order of the call groups in a pass; the inputs
themselves are fixed, see the comment above SEARCH for why):

* certify: three valid sets from the paper, each built by ``construct``
  (which certifies it) and certified again by ``verify``: full scans with no
  early exit, at s=1 and s=2.  With ``--no-verify`` the construct calls would
  be 0.2 s of interpreter start-up each, too noisy for construct_s.
* search: seeded cubic and quadric constructions at q=7, each scanned twice
  (in cleanup and in the CLI's final verification), then certified again on
  its own by ``verify``, as a user would before keeping a set.
* witness-io: two 16k-point files (the ovoid in PG(3,128) and the monomial
  curve n=3 over GF(128)) and the monomial curve over GF(2048), each built
  and then verified as (1,1) so the scan stops at the first pair, plus
  ``table`` and ``bounds``: gf, constructions, jsonio and bounds do the
  work.  The GF(2048) verify builds about 100 MB of field tables and sets
  the pass's peak RSS (about 518 MiB; every other call stays under 140 MiB).
  The 65537-point ovoid in PG(3,256) (one pure-Python construction of 5 s)
  and GF(4096) (2 GiB, 3.1 to 5.1 s per identical call) each made one call
  carry the pass's time, and the runs spread by 0.2 to 0.3 on a shared
  2-core host.

End-to-end metrics (``--trace 0``): ``wall_s`` (one pass), ``construct_s``
and ``verify_s`` (summed wall time of that verb's calls in a pass),
``peak_rss_mb`` (largest peak RSS of any child in a pass, from the child's
own rusage) and ``setup_s`` (median over the run's set-ups, SETUP_REPEATS
before every pass: a fresh work directory under .bench_work/ and a smoke
``verify`` call, see SMOKE).

With ``--trace 1`` untraced and traced passes alternate.  Traced calls run
through bench/trace_cli.py, which wraps each layer's public functions; the
per-layer metrics are per-pass totals, median over traced passes, and
``trace.overhead_s`` is the traced minus the untraced median pass time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric's median, quartiles and pass count, and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "trace_cli.py"
WORK = ROOT / ".bench_work"

MIN_PASSES = 2
SETUP_REPEATS = 2  # before every pass
CALL_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Call:
    """One CLI call and what it must produce."""

    argv: tuple
    rc: int = 0
    stdout: str | None = None      # exact text, or
    stdout_sha: str | None = None  # sha256 of stdout, for long reports
    out_file: str | None = None
    out_sha: str | None = None

    @property
    def verb(self) -> str:
        return self.argv[0]


def _call(cmd: str, **expect) -> Call:
    return Call(argv=tuple(cmd.split()), **expect)


# Each workload is a list of call groups; a group's calls run in order.
CERTIFY = [
    (_call("construct ovoid --q 16 --out ovoid-q16.json",
           stdout="ovoid 3 16 257 2 1 yes\n", out_file="ovoid-q16.json",
           out_sha="406c733b4e7f684e834315c05423c54fa6f63a658b20294d5009d3565c7d3832"),
     _call("verify ovoid-q16.json --r 2 --s 1",
           stdout="VALID (2,1)-set: 257 points in PG(3,16)\n")),
    (_call("construct monomial --n 3 --q 16 --out monomial-n3-q16.json",
           stdout="monomial 3 16 225 3 1 yes\n", out_file="monomial-n3-q16.json",
           out_sha="43470f34f76fe17ce8ce97e9d0a5dffb3bf8a06d25340322d485387183a90d03"),
     _call("verify monomial-n3-q16.json --r 3 --s 1",
           stdout="VALID (3,1)-set: 225 points in PG(3,16)\n")),
    (_call("construct graph32 --q0 4 --out graph32-q0-4.json",
           stdout="graph32 6 16 64 3 2 yes\n", out_file="graph32-q0-4.json",
           out_sha="e1919e9ba521085be7bb44892d3f946cdbc575f771c5795d1186bcbc4e9f040c"),
     _call("verify graph32-q0-4.json --r 3 --s 2",
           stdout="VALID (3,2)-set: 64 points in PG(6,16)\n")),
]

# Construction seeds are fixed rather than drawn from --seed.  Scan cost
# grows as |X|^4 and |X| varies with the construction seed, so one seeded
# cubic construction at q=7 takes 0.85 to 5 s (coefficient of variation 0.48
# over 22 seeds); runs on different --seed values would differ by more than
# any useful regression bound.  Seeds 1 and 2 are the first two, unscreened.
SEARCH = [
    (_call("construct cubics --q 7 --seed 1 --out cubics-seed1.json",
           stdout="cubics 4 7 59 9 2 yes\n", out_file="cubics-seed1.json",
           out_sha="c8d45f5341dae746c0cb363e43df979f26bd213ff74ac9d20e5b623076af608b"),
     _call("verify cubics-seed1.json",
           stdout="VALID (9,2)-set: 59 points in PG(4,7)\n")),
    (_call("construct cubics --q 7 --seed 2 --out cubics-seed2.json",
           stdout="cubics 4 7 75 9 2 yes\n", out_file="cubics-seed2.json",
           out_sha="cfab6d8ae5b303cbc993388644b7adccabd3724c1e27930803f0ad27d3fc3f87"),
     _call("verify cubics-seed2.json",
           stdout="VALID (9,2)-set: 75 points in PG(4,7)\n")),
    (_call("construct quadrics --m 3 --q 7 --seed 1 --out quadrics-seed1.json",
           stdout="quadrics 5 7 53 4 2 yes\n", out_file="quadrics-seed1.json",
           out_sha="75656cf7bb678ec3e911da73fe6e152fa566b3de9bb9b60b1e9754200206ae69"),
     _call("verify quadrics-seed1.json",
           stdout="VALID (4,2)-set: 53 points in PG(5,7)\n")),
    (_call("construct quadrics --m 3 --q 7 --seed 2 --out quadrics-seed2.json",
           stdout="quadrics 5 7 49 4 2 yes\n", out_file="quadrics-seed2.json",
           out_sha="1724ca60d7e7b3c38a50520c0ee567770e888a8f40e50558bc80dce75ab51eb9"),
     _call("verify quadrics-seed2.json",
           stdout="VALID (4,2)-set: 49 points in PG(5,7)\n")),
]

WITNESS_IO = [
    (_call("construct ovoid --q 128 --no-verify --out ovoid-q128.json",
           stdout="ovoid 3 128 16385 2 1 skipped\n", out_file="ovoid-q128.json",
           out_sha="c1d3d0ff05efc4381d33929fe71c20199297efa3de7502ae12c367ab158c392f"),
     _call("verify ovoid-q128.json --r 1 --s 1 --budget 10000000000", rc=1,
           stdout="VIOLATION: a 1-space holds 2 points (> 1)\n"
                  "  generating points: [(0, 1, 0, 0), (1, 0, 0, 0)]\n"
                  "  full intersection: [(0, 1, 0, 0), (1, 0, 0, 0)]\n")),
    (_call("construct monomial --n 3 --q 128 --no-verify --out monomial-n3-q128.json",
           stdout="monomial 3 128 16129 3 1 skipped\n", out_file="monomial-n3-q128.json",
           out_sha="512f556513ae2a981f797874bb4dc3972c0c072433de2c7a909df92768787d11"),
     _call("verify monomial-n3-q128.json --r 1 --s 1 --budget 10000000000", rc=1,
           stdout="VIOLATION: a 1-space holds 2 points (> 1)\n"
                  "  generating points: [(1, 1, 1, 1), (1, 1, 2, 96)]\n"
                  "  full intersection: [(1, 1, 1, 1), (1, 1, 2, 96)]\n")),
    (_call("construct monomial --n 2 --q 2048 --no-verify --out monomial-n2-q2048.json",
           stdout="monomial 2 2048 2047 2 1 skipped\n", out_file="monomial-n2-q2048.json",
           out_sha="0baf4a515c39d11aa461ea43d1be174185140895ab6879deb0f973ee8ed9eff7"),
     _call("verify monomial-n2-q2048.json --r 1 --s 1", rc=1,
           stdout="VIOLATION: a 1-space holds 2 points (> 1)\n"
                  "  generating points: [(1, 1, 1), (1, 2, 4)]\n"
                  "  full intersection: [(1, 1, 1), (1, 2, 4)]\n")),
    (_call("table --n 40 --smax 20 --gapmax 20",
           stdout_sha="04583b7aced006c41b8b05af0dbc644ade9c372cc20826f6300662221ce9ef22"),),
    (_call("bounds --n 4 --q 7 --r 9 --s 2",
           stdout_sha="a0ce00ae2f1216444cbde7598f3e422e77ad774318749a85c8d86bb14a6a9b93"),),
]

WORKLOADS = {"certify": CERTIFY, "search": SEARCH, "witness-io": WITNESS_IO}

END_TO_END = {"wall_s": "s", "construct_s": "s", "verify_s": "s",
              "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "linalg.span_members_s": "s", "linalg.member_cells": "count",
    "linalg.batch_rref_s": "s", "linalg.rref_matrices": "count",
    "linalg.self_s": "s",
    "verifier.scan_s": "s", "verifier.self_s": "s", "verifier.scans": "count",
    "verifier.subsets": "count", "verifier.early_exits": "count",
    "randomized.cleanup_s": "s", "randomized.cleanup_rounds": "count",
    "randomized.points_removed": "count", "randomized.form_eval_s": "s",
    "randomized.scans_per_set": "scans/set",
    "gf.make_field_s": "s", "gf.tables_s": "s", "gf.table_bytes": "bytes",
    "constructions.build_s": "s",
    "jsonio.parse_s": "s", "jsonio.parse_bytes": "bytes",
    "jsonio.write_s": "s", "jsonio.write_bytes": "bytes",
    "projgeom.span_count_s": "s", "bounds.s": "s", "cli.import_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class ChildRun:
    seconds: float
    rc: int
    stdout: bytes
    peak_rss_mb: float
    stderr_tail: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list, cwd: Path, env: dict) -> ChildRun:
    """Run cmd to completion; time it and take its peak RSS from wait4."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(errors="replace")[-400:]
    # ru_maxrss is in KiB on Linux
    return ChildRun(seconds, proc.returncode, out, usage.ru_maxrss / 1024, tail)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(call: Call, res: ChildRun, cwd: Path) -> list:
    """Every way the call's observable output differs from the expected one."""
    problems = []
    if res.rc != call.rc:
        problems.append(f"exit code {res.rc}, expected {call.rc}")
    if call.stdout is not None and res.stdout.decode(errors="replace") != call.stdout:
        problems.append(f"stdout {res.stdout[:200]!r}")
    if call.stdout_sha is not None and _sha256(res.stdout) != call.stdout_sha:
        problems.append(f"stdout sha256 {_sha256(res.stdout)}")
    if call.out_file is not None:
        path = cwd / call.out_file
        got = _sha256(path.read_bytes()) if path.is_file() else "missing"
        if got != call.out_sha:
            problems.append(f"{call.out_file} sha256 {got}")
    if problems and res.stderr_tail:
        problems.append(f"stderr: {res.stderr_tail!r}")
    return problems


@dataclass
class PassResult:
    wall_s: float
    runs: list  # (Call, ChildRun) in call order
    failed: int
    spans: list


def run_pass(calls: list, workdir: Path, env: dict, traced: bool, pass_no: int) -> PassResult:
    results = []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        if traced:
            spans_path = workdir / f"spans-{i}.json"
            cmd = [sys.executable, str(TRACER), str(spans_path), f"{pass_no}.{i}", *call.argv]
        else:
            cmd = [sys.executable, "-m", "evasive", *call.argv]
        results.append((call, run_child(cmd, workdir, env)))
    wall = time.perf_counter() - start

    failed, spans = 0, []
    for i, (call, res) in enumerate(results):
        problems = check(call, res, workdir)
        spans_path = workdir / f"spans-{i}.json"
        if traced:
            if spans_path.is_file():
                spans.append(json.loads(spans_path.read_text()))
            else:
                problems.append("the tracer wrote no spans")
        if problems:
            failed += 1
            print(f"FAILED: evasive {' '.join(call.argv)}: {'; '.join(problems)}",
                  file=sys.stderr)
    return PassResult(wall, results, failed, spans)


def end_to_end(p: PassResult) -> dict:
    def verb_sum(verb):
        return sum(res.seconds for call, res in p.runs if call.verb == verb)
    return {"wall_s": p.wall_s, "construct_s": verb_sum("construct"),
            "verify_s": verb_sum("verify"),
            "peak_rss_mb": max(res.peak_rss_mb for _, res in p.runs)}


def per_layer(calls_spans: list) -> dict:
    """Per-layer totals over one traced pass; calls_spans holds one span list per call."""
    m = dict.fromkeys(PER_LAYER, 0)
    self_time = {"linalg": 0.0, "verifier": 0.0}
    sets = scans_in_sets = 0
    for spans in calls_spans:
        names = [s["name"] for s in spans]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] += s["end"] - s["start"]

        def ancestors(i):
            j = spans[i]["parent"]
            while j >= 0:
                yield names[j]
                j = spans[j]["parent"]

        call_scans = 0
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            layer = name.split(".")[0]
            anc = list(ancestors(i))
            # time a recursive or nested call only once
            outermost = not any(a.split(".")[0] == layer for a in anc)
            first = name not in anc
            if layer in self_time:
                self_time[layer] += dur - child_time[i]
            if name == "linalg.span_members":
                m["linalg.span_members_s"] += dur
                m["linalg.member_cells"] += s["cells"]
            elif name == "linalg.batch_rref":
                m["linalg.batch_rref_s"] += dur
                m["linalg.rref_matrices"] += s["matrices"]
                if any(a.startswith("verifier.") for a in anc):
                    m["verifier.subsets"] += s["matrices"]
            elif layer == "verifier":
                if outermost:
                    m["verifier.scan_s"] += dur
                if name == "verifier.scan":
                    call_scans += 1
                    m["verifier.early_exits"] += s.get("early_exit", 0)
                elif "randomized.cleanup" in anc:
                    m["randomized.cleanup_rounds"] += 1
            elif name == "randomized.cleanup":
                m["randomized.cleanup_s"] += dur
                m["randomized.points_removed"] += s["removed"]
            elif name == "randomized.form_eval" and first:
                m["randomized.form_eval_s"] += dur
            elif name == "gf.make_field" and first:
                m["gf.make_field_s"] += dur
            elif name == "gf.tables" and first:
                m["gf.tables_s"] += dur
                m["gf.table_bytes"] += s["bytes"]
            elif name == "constructions.build" and outermost:
                m["constructions.build_s"] += dur
            elif name in ("jsonio.parse", "jsonio.write"):
                m[name + "_s"] += dur
                m[name + "_bytes"] += s["bytes"]
            elif name == "projgeom.span_count":
                m["projgeom.span_count_s"] += dur
            elif layer == "bounds" and outermost:
                m["bounds.s"] += dur
            elif name == "cli.import":
                m["cli.import_s"] += dur
        m["verifier.scans"] += call_scans
        if "randomized.construction" in names:
            sets += names.count("randomized.construction")
            scans_in_sets += call_scans
    for layer, seconds in self_time.items():
        m[layer + ".self_s"] = seconds
    m["randomized.scans_per_set"] = scans_in_sets / sets if sets else 0
    return m


def summarize(values: list) -> dict:
    """Median, quartiles and count; a tail percentile only with ten samples beyond it."""
    row = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        row["q1"], _, row["q3"] = statistics.quantiles(values, n=4)
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            row[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return row


# Four points of the GF(1024) monomial curve.  Verifying them imports the
# CLI and builds the field's tables, so set-up is mostly program work rather
# than interpreter start-up alone, whose time swings by 40% on a shared host.
SMOKE = Call(argv=("verify", "smoke.json"),
             stdout="VALID (2,1)-set: 4 points in PG(2,1024)\n")
SMOKE_FILE = ('{"p":2,"k":10,"modulus":[1,0,0,0,0,0,0,1,0,0,1],"n":2,"r":2,"s":1,'
              '"points":[[1,1,1],[1,2,4],[1,3,5],[1,4,16]]}\n')


def setup(workdir: Path, env: dict) -> float:
    """A fresh work directory and a smoke call that must succeed; seconds taken."""
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "smoke.json").write_text(SMOKE_FILE)
    res = run_child([sys.executable, "-m", "evasive", *SMOKE.argv], workdir, env)
    problems = check(SMOKE, res, workdir)
    if problems:
        raise SystemExit(f"set-up call failed: {'; '.join(problems)}")
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "evasive" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'evasive'} is missing", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = _child_env()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    groups = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(groups)
    calls = [call for group in groups for call in group]

    try:
        setup_times, untraced, traced = [], [], []
        start = time.perf_counter()
        while True:
            setup_times += [setup(workdir, env) for _ in range(SETUP_REPEATS)]
            want_trace = args.trace == 1 and len(traced) < len(untraced)
            p = run_pass(calls, workdir, env, want_trace, len(untraced) + len(traced))
            (traced if want_trace else untraced).append(p)
            done = len(untraced) + len(traced)
            elapsed = time.perf_counter() - start
            # start no set-up and pass that would end after --seconds
            if done >= MIN_PASSES and elapsed * (done + 1) / done > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    passes = untraced + traced
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace:
        layers = [per_layer(p.spans) for p in traced]
        rows = {name: [row[name] for row in layers] for name in PER_LAYER}
        rows["trace.overhead_s"] = [statistics.median(p.wall_s for p in traced)
                                    - statistics.median(p.wall_s for p in untraced)]
        units = PER_LAYER
    else:
        e2e = [end_to_end(p) for p in untraced]
        rows = {name: [row[name] for row in e2e] for name in END_TO_END if name != "setup_s"}
        rows["setup_s"] = setup_times
        units = END_TO_END

    metrics = {}
    for name, unit in units.items():
        row = summarize(rows[name])
        metrics[name] = {"value": row["median"], "unit": unit}
        detail = "  ".join(f"{k}={v:.6g}" for k, v in row.items() if k != "median")
        print(f"{args.workload:10s} {name:28s} {row['median']:14.6g} {unit:9s} {detail}")
    if not args.trace:
        peak_call, _ = max(untraced[-1].runs, key=lambda run: run[1].peak_rss_mb)
        print(f"{args.workload:10s} {'peak_rss_mb set by':28s} evasive {' '.join(peak_call.argv)}")
    print(f"{args.workload:10s} {'error_rate':28s} {failed / attempted:14.6g} "
          f"{'ratio':9s} failed={failed} attempted={attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
