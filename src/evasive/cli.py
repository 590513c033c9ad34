"""Every layer of the package, imported at once, and the CLI's entry points.

The CLI itself lives in ``evasive.__main__`` and loads each verb's modules
lazily.  Importing this module loads all of them eagerly, for callers that
look layer functions up in ``sys.modules`` before running ``main``, as the
benchmark's tracer (bench/trace_cli.py) does.
"""

from . import bounds, constructions, gf, jsonio, linalg, projgeom, randomized, verifier  # noqa: F401
from .__main__ import console_main, main

__all__ = ["console_main", "main"]
