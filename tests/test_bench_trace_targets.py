"""Every function and method that bench/trace_cli.py wraps still exists.

If a target is renamed away, every traced benchmark call exits without
running and counts as failed.  The tracer is loaded by path and only its
target lists are read; its ``install`` is never called.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "trace_cli.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_trace_cli", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _tracer()


@pytest.mark.parametrize("modname,attr", [(m, a) for m, a, _, _ in TRACE.FUNCTIONS])
def test_function_targets_resolve(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("modname,clsname,attr", [(m, c, a) for m, c, a, _ in TRACE.METHODS])
def test_method_targets_resolve(modname, clsname, attr):
    cls = getattr(importlib.import_module(modname), clsname, None)
    assert callable(getattr(cls, attr, None))


def test_field_class_inherits_traced_tables():
    # the tracer wraps _TableMixin.tables; an override would bypass it
    from evasive.gf import FieldSpec, _TableMixin

    assert FieldSpec.tables is _TableMixin.tables


@pytest.mark.parametrize("p,k", [(2, 8), (3, 2)])
def test_tracer_counts_table_bytes(p, k):
    # the traced gf.tables span sums nbytes over FieldTables, so every slot
    # must stay an array, the empty add table of characteristic 2 included
    from evasive.gf import make_field

    tables = make_field(p, k).tables()
    counted = TRACE.Tracer("test")._table_bytes((), {}, tables)["bytes"]
    assert type(counted) is int
    assert counted == sum(table.nbytes for table in tables) > 0


def test_cli_import_loads_every_target_module():
    # install() looks targets up in sys.modules right after `import evasive.cli`,
    # so a module imported lazily later would read as a missing target
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = "import json, sys, evasive.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(json.loads(done.stdout))
    wanted = {m for m, _, _, _ in TRACE.FUNCTIONS} | {m for m, _, _, _ in TRACE.METHODS}
    assert wanted - loaded == set()
