"""The sweep scripts in ``scripts/`` run and report agreement."""

import importlib.util
import os
import pathlib
import subprocess
import sys

from hornkit.horn import Verdict, numeric_verdict

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_agreement_sweep_runs():
    proc = _run(
        "agreement_sweep.py", "2,4,3", "--random-shape", "3,6,4", "--samples", "40"
    )
    assert proc.returncode == 0, proc.stderr
    assert "random Gr(3,6) s=4: 40 samples" in proc.stdout
    assert proc.stdout.endswith("all verdict methods agree\n")


def test_random_witness_runs():
    proc = _run("random_witness.py", "--shape", "2,5,2", "--samples", "40")
    assert proc.returncode == 0, proc.stderr
    assert "Gr(2,5) s=2: 40 drawn" in proc.stdout
    assert "0 failed, 0 exhausted" in proc.stdout


def test_random_sweep_asks_the_numeric_decider(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "agreement_sweep", ROOT / "scripts" / "agreement_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.sweep_random(3, 6, 3, 20, 0, 3)[::2] == (20, 0)

    def flipped(lams, r, n, seed, trials):
        real = numeric_verdict(lams, r, n, seed=seed, trials=trials)
        return Verdict(not real.nonzero, "numeric")

    monkeypatch.setattr(sweep, "numeric_verdict", flipped)
    capsys.readouterr()
    assert sweep.sweep_random(3, 6, 3, 20, 0, 3)[::2] == (20, 20)
    assert capsys.readouterr().err.count("MISMATCH") == 20
