"""Child process for the in-process workloads (check-stream, witness-stream).

Runs whole rounds of queries, one at a time, until the timed total reaches
--seconds (or for exactly --rounds rounds), and writes one JSON document to
stdout: per-query records and, with --trace, the tracer state.  Between
queries, outside the timed region, the host speed probe runs once and the
next round's inputs are drawn.  With --rounds all inputs are drawn before
the tracer is installed, so input generation never shows in the spans, and
each record carries the query's answer for comparison.

Usage: stream.py --workload NAME --seed N (--seconds S | --rounds R)
                 [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from hornkit import GenericityExhausted, NonVanishingProduct, horn, witness

import speed
import workloads
from tracer import Tracer


def check_query(lams, r, n):
    """All three deciders with their defaults; they must agree."""
    t0 = perf_counter()
    h = horn.horn_verdict(lams, r, n)
    t1 = perf_counter()
    lr = horn.lr_oracle(lams, r, n)
    t2 = perf_counter()
    num = horn.numeric_verdict(lams, r, n)
    t3 = perf_counter()
    times = {"horn": t1 - t0, "lr": t2 - t1, "numeric": t3 - t2}
    answer = [h.to_json_dict(), lr, num.nonzero]
    return h.nonzero == lr == num.nonzero, h.nonzero, answer, times


def witness_query(lams, r, n):
    """find_witness then verify_witness; the trace must verify with
    negative slack, which certifies the product as zero."""
    t0 = perf_counter()
    try:
        trace = witness.find_witness(lams, r, n, seed=0)
    except (GenericityExhausted, NonVanishingProduct) as exc:
        nonzero = True if isinstance(exc, NonVanishingProduct) else None
        return False, nonzero, [type(exc).__name__, str(exc)], {"witness": perf_counter() - t0}
    t1 = perf_counter()
    ok = witness.verify_witness(trace, lams) and trace.final_slack < 0
    t2 = perf_counter()
    return ok, False, trace.to_json_dict(), {"witness": t1 - t0, "verify": t2 - t1}


def run(wl, rng, rounds, seconds):
    query = check_query if wl.name == "check-stream" else witness_query
    records = []
    timed = 0.0
    done = 0
    while True:
        batch = rounds[done] if rounds is not None else workloads.draw_round(rng, wl)
        for q in batch:
            rung = wl.rungs[q.rung]
            lams = q.classes(rung)
            start = perf_counter()
            try:
                ok, nonzero, answer, times = query(lams, rung.r, rung.n)
                error = None
            except Exception as exc:  # a crash counts as a failed query
                ok, nonzero, answer, times = False, None, None, {}
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            timed += elapsed
            rec = {"q": q.to_json(), "round": done, "ok": ok and nonzero == q.nonzero,
                   "s": elapsed, "parts": times, "k": speed.probe()}
            if error:
                rec["error"] = error
            if rounds is not None:
                rec["answer"] = answer
            records.append(rec)
        done += 1
        if rounds is not None:
            if done == len(rounds):
                return records
        elif timed >= seconds and len(records) >= workloads.MIN_QUERIES:
            return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("check-stream", "witness-stream"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    rng = workloads.rng_for(wl.name, args.seed)
    rounds = None
    if args.rounds is not None:
        rounds = [workloads.draw_round(rng, wl) for _ in range(args.rounds)]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    records = run(wl, rng, rounds, args.seconds)
    json.dump({"records": records, "trace": tracer.state() if tracer else None},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
