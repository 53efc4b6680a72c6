"""Partitions and step strings: the index combinatorics of Schubert positions.

A partition here is a weakly increasing tuple of parts bounded by a cap,
written Lambda(r, cap) for r parts in [0, cap].  Such a partition is
interchangeable with a 01-string of length r + cap: the k-th part equals
the number of '0's strictly before the k-th '1'.  Under this encoding the
weight of the partition is the dimension of the corresponding Schubert
cell in the Grassmannian of r-planes in (r + cap)-space.

Step strings over the alphabet {0, ..., k} index positions on multi-step
flag manifolds; k = 2 is the two-step case used by the kernel-descent
witness.  ``substring_uv`` slices a 012-string back down to a 01-string,
and ``lift`` goes the other way: it refines a 01-string by marking a
subset of its '1's as '2's.  The paper's other string identities (the
projections, the Horn index sets of a 012-string, the two-step cell
dimension) are illustrations of its proof that no decider runs; they
live with the tests that check them, in ``tests/_twostep.py``.

``Partition`` and ``StepString`` are immutable value records
(``hornkit._record``): equal when their fields are, hashable, and
validated on construction.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from ._record import Record, integer

__all__ = [
    "Partition",
    "StepString",
    "partition_to_string",
    "string_to_partition",
    "substring_uv",
    "lift",
    "all_partitions",
    "parse_partition",
    "format_partition",
]


class Partition(Record):
    """Weakly increasing integer parts in [0, cap]; their number is the rank r."""

    __slots__ = ("parts", "cap")

    def __init__(self, parts: tuple[int, ...], cap: int) -> None:
        parts = tuple(map(integer, parts))
        cap = integer(cap)
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        if any(x < 0 or x > cap for x in parts):
            raise ValueError(f"parts {parts} must lie in [0, {cap}]")
        if any(a > b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts {parts} must be weakly increasing")
        Record.__init__(self, parts, cap)

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return len(self.parts) + self.cap

    @property
    def weight(self) -> int:
        """Sum of all parts; the dimension of the associated Schubert cell."""
        return sum(self.parts)

    def __str__(self) -> str:
        return format_partition(self)


def _check_box(lams: Iterable[Partition], r: int, n: int) -> tuple[int, int]:
    """r and n read as integers, once the classes are checked to lie in
    Lambda(r, n - r): the one box check of every decider."""
    r, n = integer(r), integer(n)
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got ({r}, {n})")
    for lam in lams:
        if lam.r != r or lam.cap != n - r:
            raise ValueError(f"{lam} does not lie in Lambda({r}, {n - r})")
    return r, n


class StepString(Record):
    """A word over the alphabet {0, ..., k}, stored as contiguous digits."""

    __slots__ = ("word", "k")

    def __init__(self, word: str, k: int) -> None:
        if not isinstance(word, str):
            raise ValueError(f"word {word!r} is not a str")
        k = integer(k)
        if k < 1:
            raise ValueError(f"alphabet bound k must be >= 1, got {k}")
        if k > 9:
            raise ValueError("alphabet bound k must be a single digit")
        ok = set("0123456789"[: k + 1])
        if not set(word) <= ok:
            raise ValueError(f"word {word!r} has letters outside 0..{k}")
        Record.__init__(self, word, k)

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def counts(self) -> tuple[int, ...]:
        """Multiplicity of each letter 0..k."""
        return tuple(self.word.count(str(j)) for j in range(self.k + 1))

    def positions(self, letter: int) -> tuple[int, ...]:
        """1-based positions carrying the given letter, ascending."""
        c = str(letter)
        return tuple(i + 1 for i, ch in enumerate(self.word) if ch == c)

    def __str__(self) -> str:
        return self.word


def partition_to_string(lam: Partition) -> StepString:
    """Encode a partition as a 01-string of length r + cap.

    The k-th part counts the '0's strictly before the k-th '1', so
    (0,1,3,3) with cap 5 becomes "101001100".
    """
    out: list[str] = []
    prev = 0
    for part in lam.parts:
        out.append("0" * (part - prev))
        out.append("1")
        prev = part
    out.append("0" * (lam.cap - prev))
    return StepString("".join(out), 1)


def string_to_partition(s: StepString) -> Partition:
    """Invert :func:`partition_to_string`; the cap is the number of '0's."""
    if s.k != 1:
        raise ValueError(f"expected a 01-string, got alphabet bound {s.k}")
    parts = []
    zeros = 0
    for ch in s.word:
        if ch == "0":
            zeros += 1
        else:
            parts.append(zeros)
    return Partition(tuple(parts), s.word.count("0"))


def substring_uv(sigma: StepString, u: int, v: int) -> StepString:
    """Keep only the letters u and v, renaming u -> 0 and v -> 1."""
    if not 0 <= u < v <= sigma.k:
        raise ValueError(f"need 0 <= u < v <= {sigma.k}, got ({u}, {v})")
    cu, cv = str(u), str(v)
    word = "".join("0" if c == cu else "1" for c in sigma.word if c in (cu, cv))
    return StepString(word, 1)


def lift(tau: StepString, rho: StepString) -> StepString:
    """Refine the 01-string tau by the 01-string rho: the k-th '1' of tau
    becomes '2' exactly when the k-th letter of rho is '1'.

    rho must have one letter per '1' of tau.
    """
    if tau.k != 1 or rho.k != 1:
        raise ValueError("lift expects two 01-strings")
    ones = tau.word.count("1")
    if rho.n != ones:
        raise ValueError(
            f"fiber length {rho.n} must equal the number of '1's in the base ({ones})"
        )
    out = []
    idx = 0
    for c in tau.word:
        if c == "1":
            out.append("2" if rho.word[idx] == "1" else "1")
            idx += 1
        else:
            out.append("0")
    return StepString("".join(out), 2)


def all_partitions(r: int, cap: int) -> Iterator[Partition]:
    """All of Lambda(r, cap) in lexicographic order of the part tuples."""
    r, cap = integer(r), integer(cap)
    for parts in itertools.combinations_with_replacement(range(cap + 1), r):
        yield Partition(parts, cap)


# CLI text syntax: "0,1,3,3/4x5" is the partition (0,1,3,3) in Lambda(4,5).

def format_partition(lam: Partition) -> str:
    return ",".join(str(x) for x in lam.parts) + f"/{lam.r}x{lam.cap}"


def _digits(token: str) -> int:
    """The value of ASCII decimal digits, with spaces around them allowed;
    ``int`` would also take signs, underscores and non-ASCII digits."""
    token = token.strip()
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a run of decimal digits")
    return int(token)


def parse_partition(text: str) -> Partition:
    """Parse the comma-list-plus-rectangle syntax; raises ValueError."""
    if "/" not in text:
        raise ValueError("missing '/RxC' rectangle suffix")
    body, _, box = text.rpartition("/")
    dims = box.lower().split("x")
    if len(dims) != 2:
        raise ValueError(f"rectangle {box!r} is not of the form RxC")
    try:
        r, cap = _digits(dims[0]), _digits(dims[1])
    except ValueError:
        raise ValueError(f"rectangle {box!r} is not a pair of integers") from None
    body = body.strip()
    try:
        parts = tuple(_digits(tok) for tok in body.split(",")) if body else ()
    except ValueError:
        raise ValueError(f"part list {body!r} is not a comma list of integers") from None
    if len(parts) != r:
        raise ValueError(f"rectangle says {r} parts but {len(parts)} were given")
    return Partition(parts, cap)
