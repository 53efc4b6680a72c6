"""``scripts/output_digest.py`` prints a reproducible digest of the outputs."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _digest(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_digest_repeats_across_processes():
    args = ("--boxes", "4,8,3", "--rounds", "1", "--seed", "3")
    first = _digest(*args)
    assert re.fullmatch(r"[0-9a-f]{32}\n", first)
    assert _digest(*args) == first
    # a different draw gives a different digest, so it is not a constant
    assert _digest("--boxes", "4,8,3", "--rounds", "1", "--seed", "4") != first


def test_default_digest_is_pinned():
    # The default boxes and rounds at seed 0 cover every decider, the witness
    # and the CLI; a change that alters outputs on purpose updates this pin.
    assert _digest("--seed", "0") == "4a18cf6584dc777ce03a87d93faab605\n"
