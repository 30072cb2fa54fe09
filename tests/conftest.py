"""The tests that run `python -m bellodds` in a child process need the
package importable there too; pytest's `pythonpath` setting only reaches
this process, so the same source directory is exported to children.  Every
test also checks that it leaves at most one walker fill thread behind."""

import os
import threading
from pathlib import Path

import pytest

import bellodds
from bellodds import simulate

_SRC = str(Path(bellodds.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def no_leaked_fill_thread():
    """Fails a test after which more walker fill threads are alive than the
    one behind the process's published queue, simulate._JOBS[pid]: a process's
    walks share that one, so a test that starts another under a _JOBS of its
    own must stop it again."""
    yield
    alive = sum(thread.name == "bellodds-fill" for thread in threading.enumerate())
    published = os.getpid() in simulate._JOBS
    assert alive <= published, f"{alive} bellodds-fill threads alive after the test, {int(published)} published"
