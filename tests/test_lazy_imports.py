"""Each CLI verb loads only the modules it uses, and the package root
resolves its public names on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evasive

SRC = str(Path(evasive.__file__).resolve().parent.parent)


def _loaded(cwd, *args):
    """Exit code and imported module names of a fresh `python -X importtime ARGS`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, {line.rsplit("|", 1)[-1].strip()
                             for line in done.stderr.splitlines()
                             if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "4", "--q", "7", "--r", "9", "--s", "2"],
    ["bounds", "--n", "6", "--q", "4", "--r", "3", "--s", "2", "--format", "json"],
    ["table", "--n", "20", "--smax", "3", "--gapmax", "3"],
])
def test_bounds_and_table_load_no_numpy(argv, tmp_path):
    code, modules = _loaded(tmp_path, "-m", "evasive", *argv)
    assert code == 0
    assert "evasive.bounds" in modules
    assert "numpy" not in modules


def test_construct_and_verify_load_only_their_modules(tmp_path):
    code, modules = _loaded(tmp_path, "-m", "evasive", "construct", "ovoid", "--q", "3",
                            "--out", "o.json")
    assert code == 0
    assert "evasive.constructions" in modules
    assert {"evasive.randomized", "evasive.bounds"} & modules == set()
    code, modules = _loaded(tmp_path, "-m", "evasive", "verify", "o.json")
    assert code == 0
    assert "evasive.verifier" in modules
    assert {"evasive.constructions", "evasive.randomized", "evasive.bounds"} & modules == set()


def test_bare_import_loads_no_numpy(tmp_path):
    code, modules = _loaded(tmp_path, "-c", "import evasive")
    assert code == 0
    assert "evasive" in modules and "numpy" not in modules


def test_cli_module_runs_the_one_main():
    import evasive.__main__
    import evasive.cli

    assert evasive.cli.main is evasive.__main__.main
    assert evasive.cli.console_main is evasive.__main__.console_main


def test_public_names_resolve_to_their_definitions():
    for name in evasive.__all__:
        value = getattr(evasive, name)
        assert value.__name__ == name
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(evasive.__all__) <= set(dir(evasive))
    namespace = {}
    exec("from evasive import *", namespace)
    assert all(namespace[name] is getattr(evasive, name) for name in evasive.__all__)


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        evasive.no_such_name


@pytest.mark.parametrize("name", ["oracle_max_in_s_space", "normalize", "all_points"])
def test_test_references_are_not_exported(name):
    # the oracle and its tuple helpers live in tests/oracle.py
    assert name not in evasive.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(evasive, name)


def test_randomized_loads_no_file_format(tmp_path):
    code, modules = _loaded(tmp_path, "-c", "import evasive.randomized")
    assert code == 0
    assert "evasive.randomized" in modules and "evasive.jsonio" not in modules


@pytest.mark.parametrize("argv", [
    ["construct", "cubics", "--q", "7", "--seed", "1"],
    ["construct", "quadrics", "--m", "3", "--q", "7", "--seed", "1"],
], ids=["cubics", "quadrics"])
def test_randomized_constructs_load_only_what_they_run(argv, tmp_path):
    # the field comes from gf, and no warning, fraction or dataclass is on this path
    code, modules = _loaded(tmp_path, "-m", "evasive", *argv, "--out", "x.json")
    assert code == 0
    assert "evasive.randomized" in modules
    unused = {"evasive.constructions", "logging", "fractions", "decimal", "dataclasses"}
    assert unused & modules == set()


def test_construct_and_verify_load_no_dataclasses(tmp_path):
    for argv in (["construct", "ovoid", "--q", "3", "--out", "o.json"], ["verify", "o.json"]):
        code, modules = _loaded(tmp_path, "-m", "evasive", *argv)
        assert code == 0
        assert "evasive.verifier" in modules and "dataclasses" not in modules


def test_gv_loads_logging_only_to_warn(tmp_path):
    # r = 3, s = 2 is inside the size-guarantee regime; r = 2, s = 1 is not
    gv = ["-m", "evasive", "construct", "gv", "--n", "4", "--q", "3", "--seed", "1"]
    code, modules = _loaded(tmp_path, *gv, "--r", "3", "--s", "2", "--out", "in.json")
    assert code == 0
    assert "evasive.randomized" in modules and "logging" not in modules
    code, modules = _loaded(tmp_path, *gv, "--r", "2", "--s", "1", "--out", "out.json")
    assert code == 0 and "logging" in modules
