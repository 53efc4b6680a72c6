"""Horn inequalities, the recursive vanishing criterion, and an
independent Littlewood-Richardson oracle.

A product of Schubert classes on Gr(r, n) is nonzero exactly when every
Horn inequality holds: for each level d in [1, r] and each s-tuple of
partitions mu^i in Lambda(d, r-d) whose own product on Gr(d, r) is
nonzero,

    sum_i sum_k  lam^i_{mu^i_k + k}  >=  (s-1) * d * (n-r).

The level-d tuples are certified by the same criterion one ambient lower,
so the whole test is a recursion grounded at d = r (where the
inequality is the pure dimension count sum |lam^i| >= (s-1) r (n-r)).

The search tests the cheap condition first: violated first, certified
second.  Candidates are the mu-tuples that pass the level-d dimension
count sum |mu^i| >= (s-1) d (r-d), level by level and in lexicographic
order within a level; the first violation is the first candidate that is
both violated at lam and certified.  Asking "violated?" before
"certified?" picks out the same candidate, so the recursion runs only on
the few candidates whose inequality actually fails.  A depth-first search
over one table of Lambda(d, r-d) per level skips every subtree in which
the partial left-hand side, plus the least the remaining factors can add
while still passing the dimension count, reaches the right-hand side.
Certificates are memoized for the duration of one call.

The LR oracle decides the same question by brute force: expand the
product of the complementary Schur polynomials inside the r x (n-r) box
by the Littlewood-Richardson rule and ask whether anything survives.  It
shares no code with the recursion and serves as ground truth in tests.

Inequalities, violations and verdicts are immutable value records
(``hornkit._record``) with a ``to_json_dict`` form.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Mapping, NamedTuple, Sequence

from ._record import Record, setfield
from .exactla import DEFAULT_PRIME
from .strings import Partition
from .tangent import TransversalityReport, transversality_verdict

__all__ = [
    "HornInequality",
    "Violation",
    "Verdict",
    "enumerate_horn",
    "evaluate",
    "horn_verdict",
    "lr_oracle",
    "schur_expand",
    "numeric_verdict",
]


class HornInequality(Record):
    """One Horn inequality: level d, the certifying tuple mus, the index
    sets {mu^i_k + k}, and the right-hand side (s-1) * d * (n-r)."""

    __slots__ = ("d", "mus", "indices", "rhs")

    def __init__(
        self,
        d: int,
        mus: tuple[Partition, ...],
        indices: tuple[tuple[int, ...], ...],
        rhs: int,
    ) -> None:
        if d < 1:
            raise ValueError("level d must be positive")
        if len(mus) != len(indices):
            raise ValueError("one index set per mu required")
        for mu, idx in zip(mus, indices):
            if mu.r != d or len(idx) != d:
                raise ValueError("index sets must have size d")
            expected = tuple(part + k for k, part in enumerate(mu.parts, start=1))
            if idx != expected:
                raise ValueError(f"indices {idx} do not match mu {mu.parts}")
        setfield(self, "d", d)
        setfield(self, "mus", mus)
        setfield(self, "indices", indices)
        setfield(self, "rhs", rhs)
        setfield(self, "_key", (d, mus, indices, rhs))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "cap": self.mus[0].cap if self.mus else 0,
            "mus": [list(mu.parts) for mu in self.mus],
            "indices": [list(idx) for idx in self.indices],
            "rhs": self.rhs,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "HornInequality":
        mus = tuple(Partition(tuple(parts), data["cap"]) for parts in data["mus"])
        indices = tuple(tuple(idx) for idx in data["indices"])
        return cls(data["d"], mus, indices, data["rhs"])


class Violation(Record):
    __slots__ = ("inequality", "slack")

    def __init__(self, inequality: HornInequality, slack: int) -> None:
        setfield(self, "inequality", inequality)
        setfield(self, "slack", slack)
        setfield(self, "_key", (inequality, slack))

    def to_json_dict(self) -> dict:
        return {**self.inequality.to_json_dict(), "slack": self.slack}


class Verdict(Record):
    """Outcome of one vanishing decision; ``violated`` is set when the Horn
    recursion found a failing inequality."""

    __slots__ = ("nonzero", "method", "violated")

    def __init__(
        self, nonzero: bool, method: str, violated: Violation | None = None
    ) -> None:
        if not nonzero and method == "horn-recursion":
            if violated is None or violated.slack >= 0:
                raise ValueError("a zero horn verdict must carry a violation")
        setfield(self, "nonzero", nonzero)
        setfield(self, "method", method)
        setfield(self, "violated", violated)
        setfield(self, "_key", (nonzero, method, violated))

    def to_json_dict(self) -> dict:
        return {
            "nonzero": self.nonzero,
            "method": self.method,
            "violated": self.violated.to_json_dict() if self.violated else None,
        }


def _check_box(lams: Sequence[Partition], r: int, n: int) -> None:
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got ({r}, {n})")
    for lam in lams:
        if lam.r != r or lam.cap != n - r:
            raise ValueError(f"{lam} does not lie in Lambda({r}, {n - r})")


class _Row(NamedTuple):
    """One mu in Lambda(d, r-d): its parts, its weight, and its 0-based
    index set {mu_k + k - 1}."""

    parts: tuple[int, ...]
    weight: int
    index: tuple[int, ...]


# The recursion on Gr(r, n) reads the tables of every (d, r') with
# d <= r' <= r: 36 of them for r = 8, 253 for r = 22.
@functools.lru_cache(maxsize=256)
def _level_table(d: int, r: int) -> tuple[_Row, ...]:
    """Lambda(d, r-d) in lexicographic order of the part tuples."""
    return tuple(
        _Row(parts, sum(parts), tuple(part + k for k, part in enumerate(parts)))
        for parts in itertools.combinations_with_replacement(range(r - d + 1), d)
    )


def _inequality(d: int, r: int, rows: Sequence[int], rhs: int) -> HornInequality:
    table = _level_table(d, r)
    return HornInequality(
        d,
        tuple(Partition(table[i].parts, r - d) for i in rows),
        tuple(tuple(pos + 1 for pos in table[i].index) for i in rows),
        rhs,
    )


# A memo maps (d, r, sorted row numbers) to whether that mu-tuple has a
# nonzero product on Gr(d, r); products are symmetric in their factors.
_Memo = dict[tuple[int, int, tuple[int, ...]], bool]


def _nonzero(rows: tuple[int, ...], d: int, r: int, memo: _Memo) -> bool:
    """Does the mu-tuple (row numbers of the level-d table) certify?"""
    if len(rows) <= 1 or d == r:
        return True
    key = (d, r, tuple(sorted(rows)))
    cached = memo.get(key)
    if cached is None:
        table = _level_table(d, r)
        mus = tuple(table[i].parts for i in rows)
        cached = _first_violation(mus, d, r, memo) is None
        memo[key] = cached
    return cached


def _violated_candidates(
    table: Sequence[_Row], scores: Sequence[Sequence[int]], need: int, rhs: int
) -> Iterator[tuple[int, ...]]:
    """Row numbers, one per factor and in lexicographic order, whose weights
    sum to at least ``need`` and whose scores sum to less than ``rhs``.

    ``floors[j][w]`` is the least score that factors j, ..., s-1 can add
    when their weights must sum to at least w.  A subtree is entered only
    when its partial score plus that floor stays below ``rhs``, so every
    subtree entered holds at least one of the tuples sought.
    """
    s = len(scores)
    weights = [row.weight for row in table]
    floor = [0] + [math.inf] * need  # no factors left: they add weight 0
    floors = [floor]
    for row_scores in reversed(scores):
        least: dict[int, int] = {}  # weight -> least score of a row that heavy
        for w, sc in zip(weights, row_scores):
            if sc < least.get(w, math.inf):
                least[w] = sc
        floor = [
            min(sc + floor[max(0, short - w)] for w, sc in least.items())
            for short in range(need + 1)
        ]
        floors.append(floor)
    floors.reverse()
    if floors[0][need] >= rhs:
        return
    picked: list[int] = []

    def descend(j: int, weight: int, score: int) -> Iterator[tuple[int, ...]]:
        if j == s:
            yield tuple(picked)
            return
        after = floors[j + 1]
        for i, (w, sc) in enumerate(zip(weights, scores[j])):
            if score + sc + after[max(0, need - weight - w)] >= rhs:
                continue
            picked.append(i)
            yield from descend(j + 1, weight + w, score + sc)
            picked.pop()

    yield from descend(0, 0, 0)


def _first_violation(
    lams: tuple[tuple[int, ...], ...], r: int, n: int, memo: _Memo
) -> tuple[int, tuple[int, ...], int] | None:
    """(level, row numbers, slack) of the first violated Horn inequality for
    the part tuples ``lams`` on Gr(r, n), or None when every one holds."""
    s = len(lams)
    for d in range(1, r + 1):
        table = _level_table(d, r)
        rhs = (s - 1) * d * (n - r)
        scores = [[sum(lam[i] for i in row.index) for row in table] for lam in lams]
        for rows in _violated_candidates(table, scores, (s - 1) * d * (r - d), rhs):
            if _nonzero(rows, d, r, memo):
                slack = sum(sc[i] for sc, i in zip(scores, rows)) - rhs
                return d, rows, slack
    return None


def enumerate_horn(r: int, n: int, s: int) -> Iterator[HornInequality]:
    """All Horn inequalities for s classes on Gr(r, n), one per level d and
    per certified mu-tuple; d ascending, mu-tuples in lexicographic order."""
    if not 0 < r < n:
        raise ValueError(f"need 0 < r < n, got ({r}, {n})")
    if s < 1:
        raise ValueError("need at least one class")
    memo: _Memo = {}
    for d in range(1, r + 1):
        table = _level_table(d, r)
        rhs = (s - 1) * d * (n - r)
        need = (s - 1) * d * (r - d)
        for rows in itertools.product(range(len(table)), repeat=s):
            # Dimension prune (the level-d top-degree bound): cheaper than,
            # and implied by, the recursive certificate below.
            if sum(table[i].weight for i in rows) < need:
                continue
            if _nonzero(rows, d, r, memo):
                yield _inequality(d, r, rows, rhs)


def evaluate(ineq: HornInequality, lams: Sequence[Partition]) -> int:
    """Slack of the inequality at the given classes; negative means violated."""
    if len(lams) != len(ineq.mus):
        raise ValueError("one class per index set required")
    total = 0
    for lam, idx in zip(lams, ineq.indices):
        for pos in idx:
            if not 1 <= pos <= lam.r:
                raise ValueError(f"index {pos} out of range for {lam.r} parts")
            total += lam.parts[pos - 1]
    return total - ineq.rhs


def horn_verdict(lams: Sequence[Partition], r: int, n: int) -> Verdict:
    """Nonzero iff every Horn inequality holds; reports the first violation
    in enumeration order otherwise."""
    lams = tuple(lams)
    _check_box(lams, r, n)
    if len(lams) <= 1 or r == 0 or r == n:
        return Verdict(True, "horn-recursion")
    found = _first_violation(tuple(lam.parts for lam in lams), r, n, {})
    if found is None:
        return Verdict(True, "horn-recursion")
    d, rows, slack = found
    ineq = _inequality(d, r, rows, (len(lams) - 1) * d * (n - r))
    return Verdict(False, "horn-recursion", Violation(ineq, slack))


# --- Littlewood-Richardson oracle -------------------------------------------
#
# Partitions here are in the classical weakly *decreasing* convention: the
# complement a_k = cap - lam_k of a weakly increasing class label is already
# sorted, and Schur polynomial products are computed on these complements.


def _complement(lam: Partition) -> tuple[int, ...]:
    parts = tuple(lam.cap - x for x in lam.parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def schur_expand(
    a: Sequence[int], b: Sequence[int], max_rows: int, max_cols: int
) -> dict[tuple[int, ...], int]:
    """Littlewood-Richardson expansion of s_a * s_b truncated to a box.

    Both inputs are weakly decreasing; the result maps weakly decreasing
    partitions with at most max_rows rows and max_cols columns to their LR
    coefficients.  Letters of b are added as horizontal strips subject to
    the lattice-word condition: in every row prefix, letter j may not
    outnumber letter j-1 placed one row higher.
    """
    a = tuple(a)
    b = tuple(b)
    for parts in (a, b):
        if any(x < y for x, y in zip(parts, parts[1:])) or any(x < 0 for x in parts):
            raise ValueError(f"{parts} is not weakly decreasing and nonnegative")
    if len(a) > max_rows or (a and a[0] > max_cols):
        return {}
    shape0 = a + (0,) * (max_rows - len(a))
    # states: (shape, previous strip row counts or None) -> multiplicity
    states: dict[tuple[tuple[int, ...], tuple[int, ...] | None], int] = {
        (shape0, None): 1
    }
    for size in b:
        new_states: dict[tuple[tuple[int, ...], tuple[int, ...] | None], int] = {}
        for (shape, prev), mult in states.items():
            for new_shape, strip in _horizontal_strips(shape, size, max_cols, prev):
                key = (new_shape, strip)
                new_states[key] = new_states.get(key, 0) + mult
        states = new_states
        if not states:
            return {}
    result: dict[tuple[int, ...], int] = {}
    for (shape, _), mult in states.items():
        trimmed = shape
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        result[trimmed] = result.get(trimmed, 0) + mult
    return result


def _horizontal_strips(
    shape: tuple[int, ...],
    size: int,
    max_cols: int,
    prev: tuple[int, ...] | None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ways to grow ``shape`` by a horizontal strip of ``size`` boxes,
    respecting the box bound and (when ``prev`` is given) the lattice-word
    prefix condition against the previous strip's row counts."""
    rows = len(shape)

    def rec(
        i: int, remaining: int, cur: list[int], prev_prefix: int, cur_prefix: int
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if i == rows:
            if remaining == 0:
                yield (
                    tuple(s + c for s, c in zip(shape, cur)),
                    tuple(cur),
                )
            return
        ceiling = max_cols if i == 0 else shape[i - 1]
        most = min(remaining, ceiling - shape[i])
        if prev is not None:
            most = min(most, prev_prefix - cur_prefix)
        for c in range(most + 1):
            cur.append(c)
            next_prev = prev_prefix + (prev[i] if prev is not None else 0)
            yield from rec(i + 1, remaining - c, cur, next_prev, cur_prefix + c)
            cur.pop()

    yield from rec(0, size, [], 0, 0)


def lr_oracle(lams: Sequence[Partition], r: int, n: int) -> bool:
    """Ground truth by brute force: expand the product of complementary
    Schur polynomials inside the r x (n-r) box; nonzero iff anything
    survives.  Independent of the Horn recursion."""
    lams = tuple(lams)
    _check_box(lams, r, n)
    if not lams:
        raise ValueError("need at least one class")
    cap = n - r
    comps = [_complement(lam) for lam in lams]
    acc: dict[tuple[int, ...], int] = {comps[0]: 1}
    for nxt in comps[1:]:
        grown: dict[tuple[int, ...], int] = {}
        for shape, mult in acc.items():
            for res, m in schur_expand(shape, nxt, r, cap).items():
                grown[res] = grown.get(res, 0) + mult * m
        acc = grown
        if not acc:
            return False
    return bool(acc)


def numeric_verdict(
    lams: Sequence[Partition],
    r: int,
    n: int,
    seed: int = 0,
    trials: int = 3,
    p: int = DEFAULT_PRIME,
) -> Verdict:
    """Randomized exact transversality test, re-tagged as a Verdict."""
    lams = tuple(lams)
    _check_box(lams, r, n)
    report: TransversalityReport = transversality_verdict(lams, seed, trials, p)
    return Verdict(report.nonzero, "numeric")
