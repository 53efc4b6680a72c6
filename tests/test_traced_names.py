"""The benchmark's tracer finds every name it traces.

``perfbench/tracer.py`` wraps named hornkit functions and raises
``MissingTarget`` when one of them is gone.  Installing it here turns a
deleted or renamed traced name into a test failure instead of a failed
benchmark run.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_installs_over_every_traced_name():
    env = {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
