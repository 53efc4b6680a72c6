#!/usr/bin/env python3
"""Print every metric of a result file, or compare two result files.

    python3 perfbench/compare.py BASE.json [NEW.json]

Result files are written by ``run.py --out``.  With one file, prints the
environment, manifest, and each metric by name with its unit.  With two,
prints both values, the relative change, and for the end-to-end metrics
in BENCHMARK.json whether NEW is worse than BASE by more than the bound.
One pair of runs is not evidence of a gain: compare medians over many
alternating runs before claiming one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    for key in ("workload", "env", "manifest", "metrics"):
        if key not in doc:
            raise SystemExit(f"{path}: not a result file (no {key!r})")
    return doc


def header(doc: dict, path: str) -> None:
    env, man = doc["env"], doc["manifest"]
    print(f"{path}: {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"attempted={doc['attempted']} failed={doc['failed']}")
    print(f"  env: nproc={env['nproc']} python={env['python']} "
          f"numpy_importable={env['numpy_importable']}")
    boxes = ", ".join(f"Gr({b['r']},{b['n']}) s={b['s']} x{b['tuples']}"
                      for b in man["boxes"])
    print(f"  inputs: {man['tuples']} tuples ({boxes}); vanishing share "
          f"{man['vanishing_share']}; C(n,r) <= 1000 share {man['share_C_le_1000']}")


def describe(m: dict) -> str:
    extra = "".join(f" {k}={v:g}" for k, v in m.items() if k not in ("value", "unit"))
    return f"{m['value']:.6g} {m['unit']}{extra}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    docs = [load(p) for p in argv]
    for doc, path in zip(docs, argv):
        header(doc, path)
    if len(docs) == 1:
        for name, m in docs[0]["metrics"].items():
            print(f"  {name:36s} {describe(m)}")
        return 0

    base, new = docs
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("warning: the files measure different workloads or modes")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    worse = 0
    for name in list(dict.fromkeys([*base["metrics"], *new["metrics"]])):
        a, b = base["metrics"].get(name), new["metrics"].get(name)
        if a is None or b is None:
            print(f"  {name:36s} only in {'BASE' if b is None else 'NEW'}")
            continue
        if not a["value"]:
            print(f"  {name:36s} {a['value']:>14.6g} -> {b['value']:<14.6g} {a['unit']}")
            continue
        change = b["value"] / a["value"] - 1
        note = ""
        if name in bounds:
            e = bounds[name]
            loss = change if e["better"] == "lower" else -change
            if loss > e["bound"]:
                note = f"  WORSE than bound {e['bound']}"
                worse += 1
        print(f"  {name:36s} {a['value']:>14.6g} -> {b['value']:<14.6g} "
              f"{a['unit']:6s} {change:+8.1%}{note}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
