#!/usr/bin/env python3
"""Cross-check the three vanishing verdicts over whole boxes of classes.

Exhaustively sweeps every s-tuple of partitions in the given rectangles
(plus an optional random battery on a larger box) and insists that the
Horn recursion, the Littlewood-Richardson oracle, and the randomized
exact tangent intersection agree on every single tuple.

Exit status 0 when all verdicts agree, 1 on the first recorded mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time

from hornkit.horn import horn_verdict, lr_oracle, numeric_verdict
from hornkit.strings import Partition, all_partitions

DEFAULT_SHAPES = ("2,4,2", "2,4,3", "2,5,2", "3,6,2")


def parse_shape(text: str) -> tuple[int, int, int]:
    try:
        r, n, s = (int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"bad shape {text!r}: expected r,n,s") from None
    if not 0 < r < n or s < 2:
        raise SystemExit(f"bad shape {text!r}: need 0 < r < n and s >= 2")
    return r, n, s


def agree(
    lams: tuple[Partition, ...], r: int, n: int, seed: int, trials: int
) -> tuple[bool, bool]:
    """The LR answer for one tuple, and whether all three deciders give it.
    A disagreement is printed on stderr."""
    h = horn_verdict(lams, r, n).nonzero
    l = lr_oracle(lams, r, n)
    m = numeric_verdict(lams, r, n, seed=seed, trials=trials).nonzero
    if not (h == l == m):
        print(
            f"MISMATCH {[lam.parts for lam in lams]} in Gr({r},{n}): "
            f"horn={h} lr={l} numeric={m}",
            file=sys.stderr,
        )
    return l, h == l == m


def sweep_exhaustive(r: int, n: int, s: int, seed: int, trials: int) -> tuple[int, int, int]:
    pool = list(all_partitions(r, n - r))
    total = zero = bad = 0
    for lams in itertools.product(pool, repeat=s):
        nonzero, same = agree(lams, r, n, seed, trials)
        total += 1
        zero += not nonzero
        bad += not same
    return total, zero, bad


def sweep_random(
    r: int, n: int, s: int, samples: int, seed: int, trials: int
) -> tuple[int, int, int]:
    rng = random.Random(seed)
    cap = n - r
    total = zero = bad = 0
    for _ in range(samples):
        lams = tuple(
            Partition(tuple(sorted(rng.randint(0, cap) for _ in range(r))), cap)
            for _ in range(s)
        )
        nonzero, same = agree(lams, r, n, seed, trials)
        total += 1
        zero += not nonzero
        bad += not same
    return total, zero, bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "shapes",
        nargs="*",
        default=list(DEFAULT_SHAPES),
        help=f"r,n,s triples to sweep exhaustively (default: {' '.join(DEFAULT_SHAPES)})",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=3,
                        help="flag samples per numeric verdict")
    parser.add_argument("--random-shape", default="3,7,3",
                        help="r,n,s for the random battery")
    parser.add_argument("--samples", type=int, default=200,
                        help="random battery size (0 disables it)")
    args = parser.parse_args()

    failures = 0
    for text in args.shapes:
        r, n, s = parse_shape(text)
        start = time.perf_counter()
        total, zero, bad = sweep_exhaustive(r, n, s, args.seed, args.trials)
        failures += bad
        print(
            f"Gr({r},{n}) s={s}: {total} tuples ({zero} vanishing), "
            f"{bad} mismatches, {time.perf_counter() - start:.2f}s"
        )
    if args.samples:
        r, n, s = parse_shape(args.random_shape)
        start = time.perf_counter()
        total, zero, bad = sweep_random(r, n, s, args.samples, args.seed, args.trials)
        failures += bad
        print(
            f"random Gr({r},{n}) s={s}: {total} samples ({zero} vanishing), "
            f"{bad} mismatches, {time.perf_counter() - start:.2f}s"
        )
    if failures:
        print(f"FAILED: {failures} disagreements", file=sys.stderr)
        return 1
    print("all verdict methods agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
