"""The benchmark's expected outputs, checked in process.

bench/run.py pins the exit code, stdout and written-file sha256 of every
CLI call it times.  Here every call group of every workload, the 16k-point
witness-io files and the GF(2048) pair included, runs through
``evasive.cli.main`` and is compared by the benchmark's own ``check``, so
the bytes the benchmark pins are tested before any benchmark run.  Nothing
is timed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from evasive.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


RUN = _bench()

def _group_id(name, i, group):
    call = group[0]
    return f"{name}-{i}-{call.argv[1]}" if call.verb == "construct" else f"{name}-{call.verb}"


GROUPS = [
    pytest.param(group, id=_group_id(name, i, group))
    for name, groups in RUN.WORKLOADS.items()
    for i, group in enumerate(groups)
]


@pytest.mark.parametrize("group", GROUPS)
def test_call_group_output(group, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for call in group:
        rc = main(list(call.argv))
        captured = capsys.readouterr()
        res = RUN.ChildRun(0.0, rc, captured.out.encode(), 0.0, captured.err[-400:])
        assert RUN.check(call, res, tmp_path) == [], " ".join(call.argv)
