"""Every function and method that bench/trace_cli.py wraps still exists.

If a target is renamed away, every traced benchmark call exits without
running and counts as failed.  The tracer is loaded by path and only its
target lists are read; its ``install`` is never called.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "trace_cli.py"


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
