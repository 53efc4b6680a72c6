#!/usr/bin/env python3
"""hornkit benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE] [--smoke]

Run from the root of a source checkout; hornkit is imported from ./src.
Every run is a fresh process, and every measured query runs in a fresh
child process (a stream worker, or one CLI process per query), so the
process-global Horn memo starts cold the same way each time.  Load is
closed-loop from one client: one query at a time, one child at a time.

--trace 0 measures the end-to-end metrics for S seconds of queries (whole
rounds).  Times are reported at the reference speed of speed.py: each is
scaled by the host speed probed next to it, which cancels the drift of a
shared host's CPU speed.  --trace 1 runs a fixed number of rounds twice, untraced then
traced, checks that both give the same answers, and reports the per-layer
metrics and the tracing overhead.  Human-readable detail goes to stdout
first; the last line is the JSON result.  --out also writes the full
result (environment, manifest, every metric) for perfbench/compare.py.

Exit status: 0 with a result, 1 when the benchmark itself failed (a child
crashed or timed out), 2 when the checkout has no hornkit sources.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # fresh interpreters timed before and again after measuring
TIME_LIMIT = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("HORNKIT_SEED", None)
    # Let children cache bytecode in the checkout, as an installed package
    # has it, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Children:
    """Runs child processes one at a time under the run's deadline."""

    def __init__(self) -> None:
        self.deadline = perf_counter() + TIME_LIMIT
        self.env = child_env()

    def run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("time limit reached")
        start = perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out: {' '.join(argv[:4])} ...") from None
        return proc, perf_counter() - start


# --- measurements ------------------------------------------------------------


def setup_probes(kids: Children, count: int) -> list[float]:
    """Times from a fresh interpreter to `import hornkit` returning, at the
    reference speed of the host speed probes taken between them."""
    argv = [sys.executable, "-c", "import hornkit"]
    times, ks = [], []
    for _ in range(count):
        proc, elapsed = kids.run(argv)
        if proc.returncode != 0:
            raise BenchError(f"import hornkit failed:\n{proc.stderr}")
        times.append(elapsed)
        ks.append(speed.probe())
    factor = speed.scale(ks)
    return [t * factor for t in times]


def run_stream(kids, wl_name, seed, seconds, rounds, trace, smoke):
    argv = [sys.executable, str(HERE / "stream.py"), "--workload", wl_name,
            "--seed", str(seed)]
    argv += ["--rounds", str(rounds)] if rounds is not None else ["--seconds", str(seconds)]
    argv += ["--trace"] * trace + ["--smoke"] * smoke
    proc, _ = kids.run(argv)
    if proc.returncode != 0:
        raise BenchError(f"stream worker failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    return doc["records"], doc["trace"]


def run_cli(kids, wl, seed, seconds, rounds, trace):
    """cli-cold: one fresh CLI process per query.  Inputs and their LR
    answers are drawn in this process, between queries, outside timing."""
    import workloads
    from hornkit import format_partition
    from traced_cli import MARK

    rng = workloads.rng_for(wl.name, seed)
    if trace:
        prefix = [sys.executable, str(HERE / "traced_cli.py")]
    else:
        prefix = [sys.executable, "-m", "hornkit.cli"]
    records, states = [], []
    timed = 0.0
    done = 0
    while True:
        for q in workloads.draw_round(rng, wl):
            rung = wl.rungs[q.rung]
            classes = " ; ".join(format_partition(lam) for lam in q.classes(rung))
            proc, elapsed = kids.run(prefix + ["check", classes])
            timed += elapsed
            err = proc.stderr
            if trace:
                err, sep, state = err.rpartition(MARK)
                if not sep:
                    raise BenchError(f"traced CLI child gave no trace:\n{proc.stderr}")
                states.append(json.loads(state))
            ok = proc.returncode in (0, 10) and (proc.returncode == 0) == q.nonzero
            try:
                ok = ok and json.loads(proc.stdout)["nonzero"] == q.nonzero
            except (json.JSONDecodeError, KeyError, TypeError):
                ok = False
            rec = {"q": q.to_json(), "round": done, "ok": ok, "s": elapsed, "parts": {},
                   "answer": [proc.returncode, proc.stdout], "k": speed.probe()}
            if not ok:
                rec["error"] = f"exit {proc.returncode}: {err.strip()[-500:]}"
            records.append(rec)
        done += 1
        if rounds is not None:
            if done == rounds:
                break
        elif timed >= seconds and len(records) >= workloads.MIN_QUERIES:
            break
    return records, (states if trace else None)


def measure(kids, wl, seed, seconds, rounds, trace, smoke):
    """Run the workload; each record's "s" and "parts" are then taken to
    the reference speed with the median host speed probe of its round."""
    if wl.name == "cli-cold":
        from tracer import merge

        records, states = run_cli(kids, wl, seed, seconds, rounds, trace)
        state = merge(states) if trace else None
    else:
        records, state = run_stream(kids, wl.name, seed, seconds, rounds, trace, smoke)
    probes: dict[int, list[float]] = {}
    for r in records:
        probes.setdefault(r["round"], []).append(r["k"])
    for r in records:
        r["speed"] = speed.scale(probes[r["round"]])
        r["s"] *= r["speed"]
        r["parts"] = {k: v * r["speed"] for k, v in r["parts"].items()}
    return records, state


# --- statistics --------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it
    (nearest rank): (value, percentile, sample count)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def timing_metrics(prefix: str, seconds: list[float], with_tail: bool = True) -> dict:
    ms = [x * 1e3 for x in seconds]
    out = {f"{prefix}_p50_ms": metric(statistics.median(ms), "ms", samples=len(ms))}
    if with_tail:
        value, pct, n = tail(ms)
        out[f"{prefix}_tail_ms"] = metric(value, "ms", percentile=pct, samples=n)
    return out


def end_to_end(records, setup_s) -> dict:
    good = [r for r in records if r["ok"]]
    m = {"setup_s": metric(setup_s, "s")}
    if good:
        m["queries_per_s"] = metric(len(good) / sum(r["s"] for r in records), "1/s")
        m.update(timing_metrics("query", [r["s"] for r in good]))
        for part in ("horn", "lr", "numeric", "witness", "verify"):
            xs = [r["parts"][part] for r in good if part in r["parts"]]
            if xs:
                m.update(timing_metrics(part, xs, with_tail=part != "verify"))
    m["host_speed"] = metric(statistics.median(r["speed"] for r in records), "ratio")
    m["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    m["failed_ratio"] = metric((len(records) - len(good)) / len(records), "ratio")
    return m


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "platform": platform.platform(),
    }


# --- main --------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="hornkit benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the full result document here")
    ap.add_argument("--smoke", action="store_true",
                    help="smallest rung only, one round when traced")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hornkit" / "__init__.py").is_file():
        print(f"error: no hornkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import MissingTarget, layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    kids = Children()
    try:
        if args.trace:
            rounds = wl.trace_rounds
            base, _ = measure(kids, wl, args.seed, None, rounds, False, args.smoke)
            traced, state = measure(kids, wl, args.seed, None, rounds, True, args.smoke)
            records = traced
            mismatched = [i for i, (a, b) in enumerate(zip(base, traced))
                          if a["answer"] != b["answer"] or not a["ok"]]
            for i in mismatched:
                traced[i]["ok"] = False
                traced[i].setdefault("error", "traced answer differs from untraced")
            metrics = {k: metric(v, u) for k, (v, u) in layer_metrics(state).items()}
            metrics["trace.overhead_ratio"] = metric(
                sum(r["s"] for r in traced) / sum(r["s"] for r in base), "ratio")
            wanted = spec["per_layer"]
        else:
            # One untimed import first leaves the bytecode cache warm.
            # Probing before and after the measured phase samples the
            # machine's speed at both ends.
            setup = setup_probes(kids, SETUP_PROBES + 1)[1:]
            records, _ = measure(kids, wl, args.seed, args.seconds, None, False, args.smoke)
            setup += setup_probes(kids, SETUP_PROBES)
            metrics = end_to_end(records, statistics.median(setup))
            wanted = spec["end_to_end"]
    except (BenchError, MissingTarget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    queries = [workloads.Query.from_json(r["q"]) for r in records]
    failures = [r for r in records if not r["ok"]]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": environment(),
        "manifest": workloads.manifest(wl, queries, [r["s"] for r in records]),
        "metrics": metrics,
        "attempted": len(records),
        "failed": len(failures),
        "errors": [r.get("error", "wrong answer") for r in failures[:5]],
    }
    print(json.dumps({k: doc[k] for k in ("env", "manifest")}, indent=1))
    for name, m in metrics.items():
        extra = "".join(f" {k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:36s} {m['value']!r:>24} {m['unit']}{extra}")
    for err in doc["errors"]:
        print(f"  failed: {err}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    # A layer this workload did not exercise measured zero.
    result_metrics = {
        e["name"]: {"value": metrics[e["name"]]["value"] if e["name"] in metrics else 0,
                    "unit": e["unit"]}
        for e in wanted
    }
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
