"""The sweep script in ``scripts/`` runs, reports agreement and certifies
every vanishing tuple."""

import importlib.util
import itertools
import os
import pathlib
import re
import subprocess
import sys

import pytest

from hornkit.horn import lr_oracle
from hornkit.strings import all_partitions
from hornkit.tangent import TransversalityReport, transversality_verdict
from hornkit.witness import GenericityExhausted

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


def test_random_sweep_asks_the_numeric_decider(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "agreement_sweep", ROOT / "scripts" / "agreement_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.sweep_random(3, 6, 3, 20, 0, 3)[::2] == (20, 0)

    def flipped(lams, r, n, seed, trials):
        real = transversality_verdict(lams, r, n, seed=seed, trials=trials)
        return TransversalityReport(not real.nonzero, real.achieved_dim, real.expected_dim)

    monkeypatch.setattr(sweep, "transversality_verdict", flipped)
    capsys.readouterr()
    assert sweep.sweep_random(3, 6, 3, 20, 0, 3)[::2] == (20, 20)
    assert capsys.readouterr().err.count("MISMATCH") == 20


@pytest.fixture
def sweep_main(monkeypatch, capsys):
    """``run(name, patch)`` replaces the sweep module's ``name`` by ``patch``
    and runs its ``main`` on Gr(2,4) s=2 plus a 20-sample battery on
    Gr(2,5) s=2.  It returns the exit status, stdout, stderr, and the
    exhaustive box's vanishing tuples as the sweep prints them."""
    spec = importlib.util.spec_from_file_location(
        "agreement_sweep", ROOT / "scripts" / "agreement_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    argv = ["agreement_sweep.py", "2,4,2", "--random-shape", "2,5,2", "--samples", "20"]
    monkeypatch.setattr(sys, "argv", argv)
    pool = list(all_partitions(2, 2))
    vanishing = [
        str([lam.parts for lam in lams])
        for lams in itertools.product(pool, repeat=2)
        if not lr_oracle(lams, 2, 4)
    ]

    def run(name, patch):
        monkeypatch.setattr(sweep, name, patch)
        capsys.readouterr()
        status = sweep.main()
        out, err = capsys.readouterr()
        return status, out, err, vanishing

    return run


def _vanishing_counts(out):
    counts = re.findall(r"\((\d+) vanishing, (\d+) certified\)", out)
    assert len(counts) == 2, out
    assert all(certified == "0" for _, certified in counts), out
    return [int(zero) for zero, _ in counts]


def test_sweep_fails_on_a_witness_that_does_not_verify(sweep_main):
    status, out, err, vanishing = sweep_main(
        "verify_witness", lambda trace, lams: False
    )
    assert status == 1
    named = [line for line in err.splitlines() if line.startswith("BAD WITNESS ")]
    assert len(named) == sum(_vanishing_counts(out))
    assert named[: len(vanishing)] == [f"BAD WITNESS {parts}" for parts in vanishing]
    assert f"0 disagreements, {len(named)} vanishing tuples not certified" in err


def test_sweep_fails_on_an_exhausted_descent(sweep_main):
    def exhausted(lams, r, n, seed):
        raise GenericityExhausted("no generic data")

    status, out, err, vanishing = sweep_main("find_witness", exhausted)
    assert status == 1
    named = [line for line in err.splitlines() if line.startswith("EXHAUSTED ")]
    assert len(named) == sum(_vanishing_counts(out))
    assert named[: len(vanishing)] == [
        f"EXHAUSTED {parts}: no generic data" for parts in vanishing
    ]
    assert f"0 disagreements, {len(named)} vanishing tuples not certified" in err


def test_sweep_closed_stdout_exits_141_without_traceback():
    # the read end is closed long before the sweep's first line, which
    # comes only after its imports and the whole Gr(2,4) s=3 box
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "agreement_sweep.py"), "2,4,3",
         "--samples", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""
