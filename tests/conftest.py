"""The tests that run `python -m bellodds` in a child process need the
package importable there too; pytest's `pythonpath` setting only reaches
this process, so the same source directory is exported to children."""

import os
from pathlib import Path

import bellodds

_SRC = str(Path(bellodds.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
