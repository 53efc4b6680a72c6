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
Those least values, the floors, are rebuilt at every level of every
recursive call, factor by factor from the last: a factor's floor is the
entrywise minimum of one shifted copy of the next factor's floor per
weight in the table, and the first factor's floor is needed at one
entry only.
That search (``_violated_candidates``) is the one walk over candidates:
``enumerate_horn`` runs it too, with every score 0 against an infinite
right-hand side, so it yields every candidate and certifies each in turn.
Certificates are memoized for the duration of one call.

The LR oracle decides the same question from the classical side.  By
Poincare duality the product is nonzero iff the product of all but the
last complementary Schur polynomial has a term inside the dual shape of
the last complement.  Multiplying by a Schur polynomial only adds boxes,
so the oracle grows the first complement by the Littlewood-Richardson
strips of the others inside that shape alone: one depth-first walk over
the strips of every middle complement in turn, with one memo of the
states that failed, which stops at the first filling that completes.
Before the walk it refuses a product with one vanishing pair of classes
(the two-class rule, checked on every pair), and it orients the walk:
the largest complement first, the second largest last, the rest between,
largest first, in the box as given or in its transpose, whichever asks
the middle complements for less work.  Both rewrites rest only on the
symmetries of LR coefficients (the ring is commutative, and
Gr(r, n) = Gr(n-r, n) transposes every partition), not on saturation, so
the oracle shares no argument with the recursion and serves as ground
truth in tests.
``schur_expand`` gives a whole expansion with its multiplicities, over
the same strip walker.

Inequalities, violations and verdicts are immutable value records
(``hornkit._record``) with a ``to_json_dict`` form.  An inequality stores
its level, mu-tuple and right-hand side and reads its index sets off the
mus; ``from_json_dict`` refuses a document whose ``cap`` or ``indices``
differ from them.  The third decider,
``hornkit.tangent.transversality_verdict``, takes the same (lams, r, n).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from collections.abc import Iterator, Mapping, Sequence

from ._record import Record, _check_derived, _int, _ints, _items, integer
from .strings import Partition, _check_box

# perfbench/stream.py still calls horn.numeric_verdict; this alias goes
# with the next change to the benchmark.
from .tangent import transversality_verdict as numeric_verdict

__all__ = [
    "HornInequality",
    "Violation",
    "Verdict",
    "enumerate_horn",
    "evaluate",
    "horn_verdict",
    "lr_oracle",
    "schur_expand",
]


class HornInequality(Record):
    """One Horn inequality: level d, the certifying tuple mus, all in one
    Lambda(d, cap), and the right-hand side (s-1) * d * (n-r).  Its index
    sets {mu^i_k + k} are read off the mus."""

    __slots__ = ("d", "mus", "rhs")

    def __init__(self, d: int, mus: tuple[Partition, ...], rhs: int) -> None:
        if d < 1:
            raise ValueError("level d must be positive")
        if any(mu.r != d for mu in mus):
            raise ValueError("index sets must have size d")
        if len({mu.cap for mu in mus}) > 1:
            raise ValueError(f"the mus must all lie in one Lambda({d}, cap)")
        Record.__init__(self, d, mus, rhs)

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(part + k for k, part in enumerate(mu.parts, start=1)) for mu in self.mus
        )

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
        """Parse ``to_json_dict`` output from its d, cap, mus and rhs;
        ValueError on a malformed field, or on a field that differs from
        what those determine."""
        try:
            cap = _int(data["cap"])
            ineq = cls(
                _int(data["d"]),
                tuple(Partition(_ints(x), cap) for x in _items(data["mus"])),
                _int(data["rhs"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed Horn inequality: {exc!r}") from None
        _check_derived(data, ineq.to_json_dict())
        return ineq


class Violation(Record):
    __slots__ = ("inequality", "slack")

    def to_json_dict(self) -> dict:
        return {**self.inequality.to_json_dict(), "slack": self.slack}


class Verdict(Record):
    """Outcome of one vanishing decision; ``violated`` is set when the Horn
    recursion found a failing inequality."""

    __slots__ = ("nonzero", "method", "violated")

    def __init__(self, nonzero: bool, method: str, violated: Violation | None = None) -> None:
        if not nonzero and method == "horn-recursion":
            if violated is None or violated.slack >= 0:
                raise ValueError("a zero horn verdict must carry a violation")
        Record.__init__(self, nonzero, method, violated)

    def to_json_dict(self) -> dict:
        return {
            "nonzero": self.nonzero,
            "method": self.method,
            "violated": self.violated.to_json_dict() if self.violated else None,
        }


# One mu in Lambda(d, r-d): its parts, its weight, and its 0-based index
# set {mu_k + k - 1}.
_Row = collections.namedtuple("_Row", ("parts", "weight", "index"))


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
    return HornInequality(d, tuple(Partition(table[i].parts, r - d) for i in rows), rhs)


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


def _least_scores(weights: Sequence[int], row_scores: Sequence[int]) -> dict[int, int]:
    """Weight -> the least score of a row that heavy, in first-seen order."""
    least: dict[int, int] = {}
    for w, sc in zip(weights, row_scores):
        if sc < least.get(w, math.inf):
            least[w] = sc
    return least


def _violated_candidates(
    table: Sequence[_Row], scores: Sequence[Sequence[int]], need: int, rhs: int
) -> Iterator[tuple[int, ...]]:
    """Row numbers, one per factor and in lexicographic order, whose weights
    sum to at least ``need`` and whose scores sum to less than ``rhs``.

    ``floors[j][w]`` is the least score that factors j, ..., s-1 can add
    when their weights must sum to at least w.  A subtree is entered only
    when its partial score plus that floor stays below ``rhs``, so every
    subtree entered holds at least one of the tuples sought.

    A floor is built from the next one, one copy per weight w in the
    table: the next floor shifted right by w (the entries below w read
    its entry 0, as a factor of weight w covers a shortfall up to w), plus
    the least score of a row of weight w.  The floor is the entrywise
    minimum of those copies.  The first factor's floor is read only at
    ``need``, so that one entry alone is computed.
    """
    s = len(scores)
    weights = [row.weight for row in table]
    floor = [0] + [math.inf] * need  # no factors left: they add weight 0
    floors = [floor]
    for row_scores in reversed(scores[1:]):
        copies = []
        for w, sc in _least_scores(weights, row_scores).items():
            w = min(w, need + 1)  # a weight past need covers every shortfall
            copies.append([sc + floor[0]] * w + [sc + x for x in floor[: need + 1 - w]])
        floor = list(map(min, zip(*copies)))
        floors.append(floor)
    floors.append(None)  # the first factor's floor: only its entry at need is read
    floors.reverse()
    least = _least_scores(weights, scores[0])
    if min(sc + floor[max(0, need - w)] for w, sc in least.items()) >= rhs:
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
        scores = [[sum(map(lam.__getitem__, row.index)) for row in table] for lam in lams]
        for rows in _violated_candidates(table, scores, (s - 1) * d * (r - d), rhs):
            if _nonzero(rows, d, r, memo):
                slack = sum(sc[i] for sc, i in zip(scores, rows)) - rhs
                return d, rows, slack
    return None


def enumerate_horn(r: int, n: int, s: int) -> Iterator[HornInequality]:
    """All Horn inequalities for s classes on Gr(r, n), one per level d and
    per certified mu-tuple; d ascending, mu-tuples in lexicographic order."""
    r, n, s = integer(r), integer(n), integer(s)
    if not 0 < r < n:
        raise ValueError(f"need 0 < r < n, got ({r}, {n})")
    if s < 1:
        raise ValueError("need at least one class")
    memo: _Memo = {}
    for d in range(1, r + 1):
        table = _level_table(d, r)
        need = (s - 1) * d * (r - d)
        # no score reaches an infinite bound: every candidate is yielded
        for rows in _violated_candidates(table, [[0] * len(table)] * s, need, math.inf):
            if _nonzero(rows, d, r, memo):
                yield _inequality(d, r, rows, (s - 1) * d * (n - r))


def evaluate(ineq: HornInequality, lams: Sequence[Partition]) -> int:
    """Slack of the inequality at the given classes; negative means violated."""
    if len(lams) != len(ineq.mus):
        raise ValueError("one class per index set required")
    total = 0
    for lam, mu in zip(lams, ineq.mus):
        parts, r = lam.parts, lam.r
        for k, part in enumerate(mu.parts, start=1):
            pos = part + k
            if not 1 <= pos <= r:
                raise ValueError(f"index {pos} out of range for {r} parts")
            total += parts[pos - 1]
    return total - ineq.rhs


def horn_verdict(lams: Sequence[Partition], r: int, n: int) -> Verdict:
    """Nonzero iff every Horn inequality holds; reports the first violation
    in enumeration order otherwise."""
    lams = tuple(lams)
    r, n = _check_box(lams, r, n)
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


def schur_expand(
    a: Sequence[int], b: Sequence[int], max_rows: int, max_cols: int
) -> dict[tuple[int, ...], int]:
    """Littlewood-Richardson expansion of s_a * s_b truncated to a box.

    Both inputs are weakly decreasing; the result maps weakly decreasing
    partitions with at most max_rows rows and max_cols columns to their LR
    coefficients.  Letters of b are added as horizontal strips subject to
    the lattice-word condition: in every row prefix, letter j may not
    outnumber letter j-1 placed one row higher.  Each strip stays inside
    the max_rows x max_cols rectangle.
    """
    a = tuple(a)
    b = tuple(b)
    for parts in (a, b):
        if any(x < y for x, y in zip(parts, parts[1:])) or any(x < 0 for x in parts):
            raise ValueError(f"{parts} is not weakly decreasing and nonnegative")
    if len(a) > max_rows or (a and a[0] > max_cols):
        return {}
    bound = (max_cols,) * max_rows
    shape0 = a + (0,) * (max_rows - len(a))
    # states: (shape, previous strip row counts or None) -> multiplicity
    states: dict[tuple[tuple[int, ...], tuple[int, ...] | None], int] = {
        (shape0, None): 1
    }
    for size in b:
        new_states: dict[tuple[tuple[int, ...], tuple[int, ...] | None], int] = {}
        for (shape, prev), mult in states.items():
            for key in _horizontal_strips(shape, size, bound, prev):
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
    bound: tuple[int, ...],
    prev: tuple[int, ...] | None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ways to grow ``shape`` by a horizontal strip of ``size`` boxes
    with row i ending at most at ``bound[i]``, respecting (when ``prev`` is
    given) the lattice-word prefix condition against the previous strip's
    row counts.  Yields (new shape, strip row counts)."""
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
        ceiling = bound[0] if i == 0 else min(bound[i], shape[i - 1])
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
    """Ground truth by the Littlewood-Richardson rule, inside the dual shape
    of the last class.

    By Poincare duality sigma_nu * sigma_c is nonzero iff nu lies inside
    beta, beta_i = (n-r) - c_{r+1-i}, for the last complement c (Fulton,
    Young Tableaux, 1997, 9.4).  Multiplying by a Schur polynomial only adds
    boxes and LR coefficients are nonnegative, so the product is nonzero iff
    some filling of the other complements, grown from the first by
    horizontal strips, stays inside beta.  Every strip is confined to beta
    row by row, and one depth-first walk adds the strips of every middle
    complement in turn until one filling completes.  Each strip adds at
    least one box inside beta, so the walk's stack holds at most
    |beta| - |c^1| <= r (n-r) strips.

    Two exact symmetries make the walk cheap without changing its answer.
    The ring is commutative and associative, so the product vanishes as
    soon as one pair of its classes does, and by the two-class rule above
    that is a_k + b_{r+1-k} > n-r for some k: every pair is checked before
    the walk, and for two classes that is the whole answer.  And the
    factors may be taken in any order, in the box as given or in its
    transpose, where each complement becomes its conjugate and r and n-r
    trade places (Gr(r,n) = Gr(n-r,n), c^{nu'}_{lam' mu'} = c^nu_{lam mu};
    Fulton 1997, 5.1 and 9.4).  The complement with the most boxes starts
    the walk and the second largest is last, so that beta is smallest;
    the rest go in between, largest first.  The transpose is taken only
    when it strictly lowers the walk's measure of work, the sum over the
    middle complements of boxes times nonzero parts (the strips each one
    adds).  Neither rewrite rests on saturation, so the oracle stays
    independent of the Horn recursion."""
    lams = tuple(lams)
    r, n = _check_box(lams, r, n)
    cap = n - r
    comps = [tuple(cap - x for x in lam.parts) for lam in lams]
    # equal classes are one pair, and a pair only if the class repeats
    counts = collections.Counter(comps)
    for a, b in itertools.combinations_with_replacement(counts, 2):
        if (a != b or counts[a] > 1) and any(
            x + y > cap for x, y in zip(a, reversed(b))
        ):
            return False
    if len(comps) <= 2:
        return True
    first, last, *middle = sorted(comps, key=sum, reverse=True)
    # a conjugate has as many nonzero parts as the complement's first part
    if sum(sum(c) * max(c, default=0) for c in middle) < sum(
        sum(c) * sum(1 for x in c if x) for c in middle
    ):
        first, last, *middle = (
            tuple(sum(1 for x in c if x > j) for j in range(cap))
            for c in (first, last, *middle)
        )
        cap = r
    beta = tuple(cap - x for x in reversed(last))
    # (size, closes) for each strip: the nonzero parts of every middle
    # complement in turn, where the last strip of a complement closes its
    # lattice word, so the next strip starts a new one
    strips = []
    for comp in middle:
        sizes = [x for x in comp if x]
        strips += [(x, i == len(sizes) - 1) for i, x in enumerate(sizes)]
    if not strips:
        return True
    # (shape, strip) states walked before, none of which completed.  Every
    # strip is nonempty, so a shape's box count tells which strip grew it.
    seen: set = set()
    # walks[j] yields the placements of strip j on the state strip j - 1
    # left; the last walk is the one being advanced, and a spent one is popped
    walks = [_horizontal_strips(first, strips[0][0], beta, None)]
    while walks:
        j = len(walks) - 1
        closes = strips[j][1]
        for grown, strip in walks[-1]:
            state = (grown, None if closes else strip)
            if state not in seen:
                seen.add(state)
                if j + 1 == len(strips):
                    return True
                walks.append(
                    _horizontal_strips(grown, strips[j + 1][0], beta, state[1])
                )
                break
        else:
            walks.pop()
    return False

