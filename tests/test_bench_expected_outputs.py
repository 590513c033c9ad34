"""The benchmark's expected outputs, checked in process.

bench/run.py pins the exit code, stdout and written-file sha256 of every
CLI call it times.  Here each certify and search call group, and the
witness-io ``table`` and ``bounds`` calls, run through ``evasive.cli.main``
and are compared by the benchmark's own ``check``.  Nothing is timed; the
16k-point witness-io files stay benchmark-only.
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

GROUPS = [
    pytest.param(group, id=f"{name}-{i}-{group[0].argv[1]}")
    for name in ("certify", "search")
    for i, group in enumerate(RUN.WORKLOADS[name])
] + [
    pytest.param(group, id=f"witness-io-{group[0].verb}")
    for group in RUN.WORKLOADS["witness-io"]
    if group[0].verb in ("table", "bounds")
]


@pytest.mark.parametrize("group", GROUPS)
def test_call_group_output(group, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for call in group:
        rc = main(list(call.argv))
        captured = capsys.readouterr()
        res = RUN.ChildRun(0.0, rc, captured.out.encode(), 0.0, captured.err[-400:])
        assert RUN.check(call, res, tmp_path) == [], " ".join(call.argv)
