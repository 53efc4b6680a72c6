#!/usr/bin/env python3
"""One md5 over hornkit's numeric outputs on seeded dimension-tight tuples.

Two checkouts that print the same digest for the same arguments gave the
same answers on every tuple drawn: a change to the exact linear algebra
that is meant to leave outputs alone can be checked by running this at
the parent commit and at the change.

For each box Gr(r, n) with s classes it records the ``enumerate_horn``
stream, one JSON line per inequality, when r <= 5.  For each round it
then draws one vanishing and one nonzero dimension-tight tuple (sum of
weights equal to (s-1) * r * (n-r)), rejection-sampled until the LR
oracle gives the wanted answer.  It records

- the ``transversality_verdict`` report at the default prime, at p = 3,
  where rank drops are common, and at p = 2, where only about a third of
  the square matrices drawn are invertible, so most flags are refused
  and drawn again;
- for the vanishing tuple, at each prime in WITNESS_PRIMES, the
  ``find_witness`` trace as JSON and the ``verify_witness`` result (or
  the ``GenericityExhausted`` message);
- the exit status and stdout of ``hornkit check`` and ``hornkit witness``
  on the tuple, in json, text and diagram format, with the round as seed;
- the exit status and stdout of ``hornkit diagram`` on each class, on its
  01-string and, for each trace of the vanishing tuple, on each witness
  level's lifted 012-strings, which prints the full two-step grid and its
  three blocks.

Last, it records the ``lr_oracle`` answer on LR_TUPLES tuples per round
that are not dimension-tight: s = 2..5 classes on Gr(r, r+cap) with
r, cap <= 6, each part uniform between a per-tuple floor and cap, so
both answers and every depth of the LR walk occur.

Then, per round and per prime in KERNEL_PRIMES, it records ``rref``,
``Mat.rank``, ``Mat.nullspace`` and ``Mat.inverse`` (or its error) on
seeded matrices up to 100 columns wide: a dense random one, a square
one, a low-rank product and a square of entries p - 1.  That covers the
elimination core at widths and primes the tuples above never reach.

    PYTHONPATH=src python3 scripts/output_digest.py [--seed N] [--rounds K]
        [--boxes r,n,s;r,n,s;...] [--dump]

stdout is the digest alone (32 hex digits); --dump prints each record on
stderr first.  Exit status 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys

from hornkit import cli
from hornkit.exactla import DEFAULT_PRIME, Mat, derive_seed, rref
from hornkit.horn import enumerate_horn, lr_oracle
from hornkit.strings import Partition, partition_to_string
from hornkit.tangent import transversality_verdict
from hornkit.witness import GenericityExhausted, find_witness, verify_witness

# Gr(4,8) to Gr(8,16), s = 2..4
DEFAULT_BOXES = (
    (4, 8, 2), (4, 8, 3), (4, 8, 4),
    (5, 10, 2), (5, 10, 3), (5, 10, 4),
    (6, 12, 3), (7, 14, 2), (7, 14, 3), (8, 16, 2), (8, 16, 3),
)

# the verdict at the default prime, at 3 and at 2 (see the module docstring)
VERDICT_PRIMES = (DEFAULT_PRIME, 3, 2)

# the descent at the default prime, at 97, where it mostly completes, and at
# 3, where it mostly ends in GenericityExhausted
WITNESS_PRIMES = (DEFAULT_PRIME, 97, 3)

LR_TUPLES = 100

# 2**61 - 1 and 2**64 - 59 put p**2 past 64 bits, so the elimination's
# unreduced updates run on multi-word integers
KERNEL_PRIMES = (2, 3, 97, DEFAULT_PRIME, 2**61 - 1, 2**64 - 59)


def parse_boxes(text: str) -> tuple[tuple[int, int, int], ...]:
    boxes = []
    for item in text.split(";"):
        try:
            r, n, s = (int(x) for x in item.split(","))
        except ValueError:
            raise SystemExit(f"bad box {item!r}: expected r,n,s") from None
        if not 0 < r < n or s < 2:
            raise SystemExit(f"bad box {item!r}: need 0 < r < n and s >= 2")
        boxes.append((r, n, s))
    return tuple(boxes)


def draw_tight(rng: random.Random, r: int, n: int, s: int) -> tuple[Partition, ...]:
    """s part lists, uniform in [0, n-r], then nudged one unit at a time at
    random places until their weights sum to (s-1) * r * (n-r)."""
    cap = n - r
    target = (s - 1) * r * cap
    parts = [[rng.randint(0, cap) for _ in range(r)] for _ in range(s)]
    total = sum(map(sum, parts))
    while total != target:
        step = 1 if total < target else -1
        row = parts[rng.randrange(s)]
        k = rng.randrange(r)
        if 0 <= row[k] + step <= cap:
            row[k] += step
            total += step
    return tuple(Partition(tuple(sorted(row)), cap) for row in parts)


def draw_loose(rng: random.Random) -> tuple[tuple[Partition, ...], int, int]:
    """s = 2..5 classes on Gr(r, r+cap), r and cap in 1..6, with every part
    uniform in [floor, cap] for one floor drawn per tuple."""
    s, r, cap = rng.randint(2, 5), rng.randint(1, 6), rng.randint(1, 6)
    floor = rng.randint(0, cap)
    lams = tuple(
        Partition(tuple(sorted(rng.randint(floor, cap) for _ in range(r))), cap)
        for _ in range(s)
    )
    return lams, r, r + cap


def kernel_matrices(rng: random.Random, p: int):
    """Yield (kind, rows, ncols): dense random up to 100 x 100, square up
    to 60 x 60, a product of rank at most 20 (its dependent rows clear to
    multiples of p) and a square of entries p - 1."""
    nrows, ncols = rng.randint(1, 100), rng.randint(1, 100)
    yield "dense", [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], ncols
    n = rng.randint(1, 60)
    yield "square", [[rng.randrange(p) for _ in range(n)] for _ in range(n)], n
    nrows, ncols, k = rng.randint(1, 100), rng.randint(1, 100), rng.randint(0, 20)
    a = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
    b = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    cols = [[row[j] for row in b] for j in range(ncols)]
    rows = [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]
    yield f"rank<={k}", rows, ncols
    n = rng.randint(1, 60)
    yield "p-1", [[p - 1] * n for _ in range(n)], n


def kernel_records(seed: int, rounds: int):
    """Yield one text record per kernel output, in a fixed order."""
    for p in KERNEL_PRIMES:
        rng = random.Random(derive_seed(seed, "output-digest", "kernel", p))
        for t in range(rounds):
            for kind, rows, ncols in kernel_matrices(rng, p):
                label = f"kernel p={p} round {t} {kind} {len(rows)}x{ncols}"
                m = Mat(rows, p)
                yield f"{label} rref: {rref(rows, ncols, p)!r}"
                yield f"{label} rank: {m.rank()}"
                yield f"{label} nullspace: {m.nullspace().basis!r}"
                if len(rows) == ncols:
                    try:
                        yield f"{label} inverse: {m.inverse().data!r}"
                    except ValueError as exc:
                        yield f"{label} inverse: ValueError: {exc}"


def run_cli(argv: list[str]) -> str:
    """Exit status and stdout of one in-process ``hornkit`` run; stderr is
    dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def records(seed: int, rounds: int, boxes: tuple[tuple[int, int, int], ...]):
    """Yield one text record per output, in a fixed order."""
    for r, n, s in boxes:
        if r <= 5:
            for no, ineq in enumerate(enumerate_horn(r, n, s)):
                doc = json.dumps(ineq.to_json_dict(), separators=(",", ":"))
                yield f"Gr({r},{n}) s={s} inequality {no}: {doc}"
        rng = random.Random(derive_seed(seed, "output-digest", r, n, s))
        for t in range(rounds):
            for want in (False, True):
                while True:
                    lams = draw_tight(rng, r, n, s)
                    if lr_oracle(lams, r, n) == want:
                        break
                label = f"Gr({r},{n}) s={s} round {t} {[lam.parts for lam in lams]}"
                for p in VERDICT_PRIMES:
                    report = transversality_verdict(lams, r, n, seed=t, p=p)
                    yield f"{label} verdict p={p}: {report!r}"
                classes = " ; ".join(str(lam) for lam in lams)
                for command in ("check", "witness"):
                    for fmt in ("json", "text", "diagram"):
                        argv = [command, classes, "--seed", str(t), "--format", fmt]
                        yield f"{label} {command} {fmt}: {run_cli(argv)}"
                for lam in lams:
                    for pattern in (str(lam), partition_to_string(lam).word):
                        yield f"{label} diagram {pattern}: {run_cli(['diagram', pattern])}"
                if want:
                    continue
                for p in WITNESS_PRIMES:
                    try:
                        trace = find_witness(lams, r, n, seed=t, p=p)
                    except GenericityExhausted as exc:
                        yield f"{label} witness p={p}: GenericityExhausted: {exc}"
                        continue
                    doc = json.dumps(trace.to_json_dict(), sort_keys=True, separators=(",", ":"))
                    yield f"{label} witness p={p}: {doc}"
                    yield f"{label} verified p={p}: {verify_witness(trace, lams)}"
                    for level in trace.levels:
                        for word in level.lifted_strings:
                            yield f"{label} diagram {word}: {run_cli(['diagram', word])}"
    rng = random.Random(derive_seed(seed, "output-digest", "lr"))
    for t in range(rounds * LR_TUPLES):
        lams, r, n = draw_loose(rng)
        yield f"lr {t} Gr({r},{n}) {[lam.parts for lam in lams]}: {lr_oracle(lams, r, n)}"
    yield from kernel_records(seed, rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=2, help="tuple pairs per box")
    parser.add_argument("--boxes", type=parse_boxes, default=DEFAULT_BOXES,
                        help="r,n,s;r,n,s;... (default Gr(4,8)..Gr(8,16), s = 2..4)")
    parser.add_argument("--dump", action="store_true", help="print each record on stderr")
    args = parser.parse_args()

    digest = hashlib.md5()
    for record in records(args.seed, args.rounds, args.boxes):
        if args.dump:
            print(record, file=sys.stderr)
        digest.update(record.encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
