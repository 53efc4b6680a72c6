#!/usr/bin/env python3
"""Cross-check the three vanishing verdicts and certify every vanishing tuple.

Exhaustively sweeps every s-tuple of partitions in the given rectangles
(plus an optional random battery on a larger box) and insists that the
Horn recursion, the Littlewood-Richardson oracle, and the randomized
exact tangent intersection agree on every single tuple.  Each tuple the
three call vanishing must also yield a kernel-descent witness
(``find_witness`` at the sweep's seed) that ``verify_witness`` accepts.

Exit status 0 when all verdicts agree and every vanishing tuple is
certified, 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from collections.abc import Iterable

from hornkit.horn import horn_verdict, lr_oracle
from hornkit.strings import Partition, all_partitions
from hornkit.tangent import transversality_verdict
from hornkit.witness import GenericityExhausted, find_witness, verify_witness

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
    m = transversality_verdict(lams, r, n, seed=seed, trials=trials).nonzero
    if not (h == l == m):
        print(
            f"MISMATCH {[lam.parts for lam in lams]} in Gr({r},{n}): "
            f"horn={h} lr={l} numeric={m}",
            file=sys.stderr,
        )
    return l, h == l == m


def certify(lams: tuple[Partition, ...], r: int, n: int, seed: int) -> bool:
    """Whether the kernel descent certifies a vanishing tuple.  A failure is
    printed on stderr."""
    try:
        trace = find_witness(lams, r, n, seed=seed)
    except GenericityExhausted as exc:
        print(f"EXHAUSTED {[lam.parts for lam in lams]}: {exc}", file=sys.stderr)
        return False
    if not verify_witness(trace, lams):
        print(f"BAD WITNESS {[lam.parts for lam in lams]}", file=sys.stderr)
        return False
    return True


def sweep(
    tuples: Iterable[tuple[Partition, ...]], r: int, n: int, seed: int, trials: int
) -> tuple[int, int, int, int]:
    """(tuples, vanishing, mismatches, certified) over the tuples.  A
    vanishing tuple is certified only when all three deciders agree on it;
    a mismatch is a failure already."""
    total = zero = bad = certified = 0
    for lams in tuples:
        nonzero, same = agree(lams, r, n, seed, trials)
        total += 1
        bad += not same
        if not nonzero:
            zero += 1
            certified += same and certify(lams, r, n, seed)
    return total, zero, bad, certified


def sweep_exhaustive(
    r: int, n: int, s: int, seed: int, trials: int
) -> tuple[int, int, int, int]:
    pool = list(all_partitions(r, n - r))
    return sweep(itertools.product(pool, repeat=s), r, n, seed, trials)


def sweep_random(
    r: int, n: int, s: int, samples: int, seed: int, trials: int
) -> tuple[int, int, int, int]:
    rng = random.Random(seed)
    cap = n - r
    tuples = (
        tuple(
            Partition(tuple(sorted(rng.randint(0, cap) for _ in range(r))), cap)
            for _ in range(s)
        )
        for _ in range(samples)
    )
    return sweep(tuples, r, n, seed, trials)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "shapes",
        nargs="*",
        default=list(DEFAULT_SHAPES),
        help=f"r,n,s triples to sweep exhaustively (default: {' '.join(DEFAULT_SHAPES)})",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the battery, numeric verdicts and witnesses")
    parser.add_argument("--trials", type=int, default=3,
                        help="flag samples per numeric verdict")
    parser.add_argument("--random-shape", default="3,7,3",
                        help="r,n,s for the random battery")
    parser.add_argument("--samples", type=int, default=200,
                        help="random battery size (0 disables it)")
    args = parser.parse_args()

    runs = [(parse_shape(text), None) for text in args.shapes]
    if args.samples:
        runs.append((parse_shape(args.random_shape), args.samples))
    mismatches = uncertified = 0
    for (r, n, s), samples in runs:
        start = time.perf_counter()
        if samples is None:
            label, unit = f"Gr({r},{n})", "tuples"
            counts = sweep_exhaustive(r, n, s, args.seed, args.trials)
        else:
            label, unit = f"random Gr({r},{n})", "samples"
            counts = sweep_random(r, n, s, samples, args.seed, args.trials)
        total, zero, bad, certified = counts
        mismatches += bad
        uncertified += zero - certified
        print(
            f"{label} s={s}: {total} {unit} ({zero} vanishing, {certified} certified), "
            f"{bad} mismatches, {time.perf_counter() - start:.2f}s"
        )
    if mismatches or uncertified:
        print(
            f"FAILED: {mismatches} disagreements, {uncertified} vanishing tuples "
            "not certified",
            file=sys.stderr,
        )
        return 1
    print("all verdict methods agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
