#!/usr/bin/env python3
"""Stress the witness pipeline on random vanishing products.

Samples random class tuples in a given rectangle, keeps the ones whose
product vanishes (per the Horn recursion), runs the kernel descent on
each, and re-verifies every certificate independently.  Optionally dumps
each trace as one JSON line.

Exit status 0 when every witness verifies, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from hornkit.horn import horn_verdict
from hornkit.strings import Partition
from hornkit.witness import GenericityExhausted, find_witness, verify_witness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", default="3,7,2", help="r,n,s (default 3,7,2)")
    parser.add_argument("--samples", type=int, default=200,
                        help="random tuples to draw")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump", action="store_true",
                        help="print each trace as a JSON line")
    args = parser.parse_args()

    try:
        r, n, s = (int(x) for x in args.shape.split(","))
    except ValueError:
        raise SystemExit(f"bad shape {args.shape!r}: expected r,n,s") from None
    if not 0 < r < n or s < 2:
        raise SystemExit(f"bad shape {args.shape!r}: need 0 < r < n and s >= 2")
    cap = n - r

    rng = random.Random(args.seed)
    start = time.perf_counter()
    drawn = vanishing = verified = failed = exhausted = 0
    depth_hist: dict[int, int] = {}
    for _ in range(args.samples):
        lams = tuple(
            Partition(tuple(sorted(rng.randint(0, cap) for _ in range(r))), cap)
            for _ in range(s)
        )
        drawn += 1
        if horn_verdict(lams, r, n).nonzero:
            continue
        vanishing += 1
        try:
            trace = find_witness(lams, r, n, seed=args.seed)
        except GenericityExhausted as exc:
            exhausted += 1
            print(f"EXHAUSTED {[lam.parts for lam in lams]}: {exc}", file=sys.stderr)
            continue
        if verify_witness(trace, lams):
            verified += 1
            depth_hist[len(trace.levels)] = depth_hist.get(len(trace.levels), 0) + 1
            if args.dump:
                print(json.dumps(trace.to_json_dict(), separators=(",", ":")))
        else:
            failed += 1
            print(f"BAD WITNESS {[lam.parts for lam in lams]}", file=sys.stderr)

    elapsed = time.perf_counter() - start
    print(
        f"Gr({r},{n}) s={s}: {drawn} drawn, {vanishing} vanishing, "
        f"{verified} verified, {failed} failed, {exhausted} exhausted, "
        f"{elapsed:.2f}s",
        file=sys.stderr if args.dump else sys.stdout,
    )
    print(
        "descent depths: "
        + ", ".join(f"{k} level(s): {v}" for k, v in sorted(depth_hist.items())),
        file=sys.stderr if args.dump else sys.stdout,
    )
    return 1 if failed or exhausted else 0


if __name__ == "__main__":
    sys.exit(main())
