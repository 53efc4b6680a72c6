#!/usr/bin/env python3
"""Smoke test of the benchmark itself: the smallest rung of each workload.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the result schema, runs every workload once
untraced and twice traced on its smallest rung, and checks each result
line: exactly the keys correct/attempted/failed/metrics, every metric the
mode promises with its unit, no failed query, and per-layer counts that
repeat exactly between the two traced runs.  Takes about 15 seconds.
Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    errs = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errs.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errs += [f"bad or repeated name {n!r}" for n in names
             if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errs.append(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errs.append(f"bound out of range in {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errs.append("setup_s must have the largest bound")
    return errs


def run(workload: str, trace: int) -> tuple[dict | None, str]:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(lines[-1]), ""


def check_result(res: dict, wanted: list[dict]) -> list[str]:
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        errs.append(f"correct={res.get('correct')} attempted={res.get('attempted')} "
                    f"failed={res.get('failed')}")
    metrics = res.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errs.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errs.append(f"{m['name']}: {got}")
    return errs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = check_spec(spec)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for wl in [w["name"] for w in spec["workloads"]]:
        traced = []
        for trace in (0, 1, 1):
            res, err = run(wl, trace)
            if res is None:
                errs.append(f"{wl} trace={trace}: {err}")
                continue
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            errs += [f"{wl} trace={trace}: {e}" for e in check_result(res, wanted)]
            if trace:
                traced.append({k: res["metrics"][k]["value"] for k in counts
                               if k in res["metrics"]})
        if len(traced) == 2 and traced[0] != traced[1]:
            errs.append(f"{wl}: traced counts differ between runs")
        print(f"{wl}: checked")
    for e in errs:
        print(f"FAIL {e}")
    print("smoke: ok" if not errs else f"smoke: {len(errs)} failures")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
