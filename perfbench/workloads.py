"""Workload definitions and seeded input generation.

A workload is a ladder of boxes (rungs).  Each round draws, for every rung,
``copies`` dimension-tight tuples per stratum, where a stratum is the LR
answer the tuple must have (True = nonzero).  Drawing whole rounds with a fixed composition
keeps the mix of hard and easy cases the same from seed to seed, so the
run-to-run spread reflects the program rather than the luck of the draw.

"Dimension-tight" means sum |lam^i| = (s-1) * r * (n-r): the top-level
dimension count holds with equality, so every decider has to do real work.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

from hornkit import Partition, lr_oracle

# find_witness and verify_witness switch their vanishing precheck at this
# many r-subsets of n (LR at or below, Horn above); the manifest reports
# the share of queries on each side.
PRECHECK_SCALE = 1000

# A timed run keeps going past its seconds until it has this many queries:
# the tail percentile needs ten samples beyond it.
MIN_QUERIES = 11


@dataclass(frozen=True)
class Rung:
    r: int
    n: int
    s: int
    copies: int = 1
    strata: tuple[bool, ...] = (False, True)


@dataclass(frozen=True)
class Workload:
    name: str
    rungs: tuple[Rung, ...]
    trace_rounds: int  # fixed round count of a traced run
    why: str

    def smoke(self) -> "Workload":
        """The smallest rung only, one copy: for the schema smoke test."""
        small = min(self.rungs, key=lambda g: (math.comb(g.n, g.r), g.s))
        return Workload(self.name, (Rung(small.r, small.n, small.s, 1, small.strata),),
                        1, self.why)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check-stream",
            (Rung(4, 8, 3), Rung(5, 10, 3), Rung(6, 12, 3), Rung(7, 14, 3),
             Rung(5, 10, 4)),
            6,
            "the sweep user: one long-lived process asks all three deciders "
            "about each tuple, so the Horn memo warms across the stream and "
            "the numeric decider exercises tangent and exactla",
        ),
        Workload(
            "cli-cold",
            # Gr(7,14) draws nonzero tuples only: cold, each runs the whole
            # Horn recursion, the same work for every tuple.  A vanishing
            # one stops at its first violation, anywhere from 1 ms to 5 s
            # in; with only a few of them in a run, the draw set the spread
            # between runs.
            (Rung(5, 10, 3, copies=3), Rung(6, 12, 3, copies=3),
             Rung(7, 14, 3, strata=(True,))),
            1,
            "the single-question user: a fresh CLI process per query, so "
            "every Horn call is cold and import and CLI costs are paid "
            "each time",
        ),
        Workload(
            "witness-stream",
            tuple(Rung(r, n, s, copies, strata=(False,)) for r, n, s, copies in (
                (5, 10, 3, 1), (6, 12, 3, 1), (7, 14, 2, 1), (7, 14, 3, 2),
                (7, 15, 3, 2), (8, 16, 2, 1))),
            8,
            "certifying vanishing: kernel descent with larger and more "
            "eliminations than the numeric decider, on both sides of the "
            "C(n,r) = 1000 precheck switch",
        ),
    )
}


@dataclass(frozen=True)
class Query:
    rung: int  # index into the workload's rungs
    parts: tuple[tuple[int, ...], ...]
    nonzero: bool  # the LR answer, computed before timing

    def classes(self, rung: Rung) -> tuple[Partition, ...]:
        return tuple(Partition(p, rung.n - rung.r) for p in self.parts)

    def to_json(self) -> list:
        return [self.rung, [list(p) for p in self.parts], self.nonzero]

    @classmethod
    def from_json(cls, data: list) -> "Query":
        rung, parts, nonzero = data
        return cls(rung, tuple(tuple(p) for p in parts), nonzero)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _draw_tight(rng: random.Random, rung: Rung) -> tuple[tuple[int, ...], ...]:
    """s part lists, uniform in [0, n-r], then nudged one unit at a time at
    random places until their weights sum to (s-1) * r * (n-r)."""
    cap = rung.n - rung.r
    target = (rung.s - 1) * rung.r * cap
    parts = [[rng.randint(0, cap) for _ in range(rung.r)] for _ in range(rung.s)]
    total = sum(map(sum, parts))
    while total != target:
        step = 1 if total < target else -1
        row = parts[rng.randrange(rung.s)]
        k = rng.randrange(rung.r)
        if 0 <= row[k] + step <= cap:
            row[k] += step
            total += step
    return tuple(tuple(sorted(row)) for row in parts)


def draw_round(rng: random.Random, workload: Workload) -> list[Query]:
    """One round: for each rung and copy, one tuple per stratum, each
    rejection-sampled until the LR oracle gives the stratum's answer."""
    out = []
    for i, rung in enumerate(workload.rungs):
        cap = rung.n - rung.r
        for _ in range(rung.copies):
            for want in rung.strata:
                while True:
                    parts = _draw_tight(rng, rung)
                    lams = tuple(Partition(p, cap) for p in parts)
                    if lr_oracle(lams, rung.r, rung.n) == want:
                        break
                out.append(Query(i, parts, want))
    return out


def manifest(workload: Workload, queries: list[Query], seconds: list[float]) -> dict:
    """What was measured: boxes, tuple counts, the input properties that
    later claims may need to quote as shares, and each box's median query
    time."""
    total = len(queries)
    per_rung: list[list[float]] = [[] for _ in workload.rungs]
    for q, t in zip(queries, seconds):
        per_rung[q.rung].append(t)
    small = sum(
        1 for q in queries
        if math.comb(workload.rungs[q.rung].n, workload.rungs[q.rung].r)
        <= PRECHECK_SCALE
    )
    return {
        "workload": workload.name,
        "why": workload.why,
        "boxes": [
            {"r": g.r, "n": g.n, "s": g.s, "C(n,r)": math.comb(g.n, g.r),
             "per_round": g.copies * len(g.strata), "tuples": len(ts),
             "p50_ms": statistics.median(ts) * 1e3 if ts else None}
            for g, ts in zip(workload.rungs, per_rung)
        ],
        "tuples": total,
        "vanishing_share": sum(not q.nonzero for q in queries) / total if total else None,
        "share_C_le_1000": small / total if total else None,
        "share_C_gt_1000": (total - small) / total if total else None,
    }
