"""Partitions and step strings: the index combinatorics of Schubert positions.

A partition here is a weakly increasing tuple of parts bounded by a cap,
written Lambda(r, cap) for r parts in [0, cap].  Such a partition is
interchangeable with a 01-string of length r + cap: the k-th part equals
the number of '0's strictly before the k-th '1'.  Under this encoding the
weight of the partition is the dimension of the corresponding Schubert
cell in the Grassmannian of r-planes in (r + cap)-space.

Step strings over the alphabet {0, ..., k} index positions on multi-step
flag manifolds; k = 2 is the two-step case used by the kernel-descent
witness.  The substring and projection operators slice a 012-string back
down to 01-strings, and ``lift`` goes the other way: it refines a
01-string by marking a subset of its '1's as '2's.

``Partition``, ``StepString`` and ``LiftCertificate`` are immutable value
records (``hornkit._record``): equal when their fields are, hashable, and
validated on construction.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ._record import Record, setfield

__all__ = [
    "Partition",
    "StepString",
    "LiftCertificate",
    "partition_to_string",
    "string_to_partition",
    "substring_uv",
    "project_j",
    "cell_dimension",
    "lift",
    "lift_certificate",
    "horn_indices",
    "all_partitions",
    "all_step_words",
    "parse_partition",
    "format_partition",
]


class Partition(Record):
    """Weakly increasing parts in [0, cap]; the number of parts is the rank r."""

    __slots__ = ("parts", "cap")

    def __init__(self, parts: tuple[int, ...], cap: int) -> None:
        parts = tuple(int(x) for x in parts)
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        if any(x < 0 or x > cap for x in parts):
            raise ValueError(f"parts {parts} must lie in [0, {cap}]")
        if any(a > b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts {parts} must be weakly increasing")
        setfield(self, "parts", parts)
        setfield(self, "cap", cap)
        setfield(self, "_key", (parts, cap))

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


class StepString(Record):
    """A word over the alphabet {0, ..., k}, stored as contiguous digits."""

    __slots__ = ("word", "k")

    def __init__(self, word: str, k: int) -> None:
        if k < 1:
            raise ValueError(f"alphabet bound k must be >= 1, got {k}")
        if k > 9:
            raise ValueError("alphabet bound k must be a single digit")
        ok = set("0123456789"[: k + 1])
        if not set(word) <= ok:
            raise ValueError(f"word {word!r} has letters outside 0..{k}")
        setfield(self, "word", word)
        setfield(self, "k", k)
        setfield(self, "_key", (word, k))

    @classmethod
    def parse(cls, word: str, k: int | None = None) -> "StepString":
        """Build from a digit string, inferring k from the largest letter."""
        if k is None:
            k = max((int(c) for c in word), default=1)
            k = max(k, 1)
        return cls(word, k)

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def counts(self) -> tuple[int, ...]:
        """Multiplicity of each letter 0..k."""
        return tuple(self.word.count(str(j)) for j in range(self.k + 1))

    def letters(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.word)

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


def project_j(sigma: StepString, j: int) -> StepString:
    """Letterwise threshold: letters above k - j become '1', the rest '0'.

    project_j(sigma, k) merges every nonzero letter into '1';
    project_j(sigma, 1) isolates the largest letter.
    """
    if not 1 <= j <= sigma.k:
        raise ValueError(f"projection index must be in 1..{sigma.k}, got {j}")
    cut = sigma.k - j
    word = "".join("1" if int(c) > cut else "0" for c in sigma.word)
    return StepString(word, 1)


def cell_dimension(sigma: StepString) -> int:
    """Number of strictly increasing pairs of letters (l < l', sigma_l < sigma_l').

    For a 01-string this is the weight of the associated partition.
    """
    letters = sigma.letters()
    # counts[x] = how many copies of letter x have been seen so far
    counts = [0] * (sigma.k + 1)
    total = 0
    for x in letters:
        total += sum(counts[:x])
        counts[x] += 1
    return total


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


class LiftCertificate(Record):
    """A lift together with its two slices; validates the round trip."""

    __slots__ = ("base", "fiber", "lifted")

    def __init__(self, base: StepString, fiber: StepString, lifted: StepString) -> None:
        if project_j(lifted, 2) != base:
            raise ValueError("lifted string does not project to the base")
        if substring_uv(lifted, 1, 2) != fiber:
            raise ValueError("lifted string does not slice to the fiber")
        setfield(self, "base", base)
        setfield(self, "fiber", fiber)
        setfield(self, "lifted", lifted)
        setfield(self, "_key", (base, fiber, lifted))


def lift_certificate(tau: StepString, rho: StepString) -> LiftCertificate:
    return LiftCertificate(tau, rho, lift(tau, rho))


def horn_indices(sigma: StepString) -> tuple[int, ...]:
    """1-based positions of the '2's of a 012-string.

    Equivalently: with mu the partition of the (1,2)-substring, these are
    the positions of the (mu_k + k)-th '1's of the 01-projection.  Both
    computations are performed and must agree.
    """
    if sigma.k != 2:
        raise ValueError("horn_indices expects a 012-string")
    direct = sigma.positions(2)
    mu = string_to_partition(substring_uv(sigma, 1, 2))
    ones = project_j(sigma, 2).positions(1)
    via_mu = tuple(ones[m + k - 1] for k, m in enumerate(mu.parts, start=1))
    if direct != via_mu:
        raise RuntimeError(f"index computations disagree: {direct} vs {via_mu}")
    return direct


def all_partitions(r: int, cap: int) -> Iterator[Partition]:
    """All of Lambda(r, cap) in lexicographic order of the part tuples."""
    for parts in itertools.combinations_with_replacement(range(cap + 1), r):
        yield Partition(parts, cap)


def all_step_words(counts: tuple[int, ...]) -> Iterator[str]:
    """All words with the given letter multiplicities, lexicographically."""
    total = sum(counts)
    if total == 0:
        yield ""
        return
    for letter, c in enumerate(counts):
        if c == 0:
            continue
        rest = counts[:letter] + (c - 1,) + counts[letter + 1 :]
        for tail in all_step_words(rest):
            yield str(letter) + tail


# CLI text syntax: "0,1,3,3/4x5" is the partition (0,1,3,3) in Lambda(4,5).

def format_partition(lam: Partition) -> str:
    return ",".join(str(x) for x in lam.parts) + f"/{lam.r}x{lam.cap}"


def parse_partition(text: str) -> Partition:
    """Parse the comma-list-plus-rectangle syntax; raises ValueError."""
    if "/" not in text:
        raise ValueError("missing '/RxC' rectangle suffix")
    body, _, box = text.rpartition("/")
    dims = box.lower().split("x")
    if len(dims) != 2:
        raise ValueError(f"rectangle {box!r} is not of the form RxC")
    try:
        r, cap = int(dims[0]), int(dims[1])
    except ValueError:
        raise ValueError(f"rectangle {box!r} is not a pair of integers") from None
    body = body.strip()
    try:
        parts = tuple(int(tok.strip()) for tok in body.split(",")) if body else ()
    except ValueError:
        raise ValueError(f"part list {body!r} is not a comma list of integers") from None
    if len(parts) != r:
        raise ValueError(f"rectangle says {r} parts but {len(parts)} were given")
    return Partition(parts, cap)
