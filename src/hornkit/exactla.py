"""Exact linear algebra over a prime field, in plain Python integers.

Everything downstream (tangent-space intersections, kernel descent) needs
exact ranks and canonical subspace bases, so all arithmetic is modular with
a large default prime.  Matrices are tuples of row tuples; subspaces carry
a reduced-row-echelon basis, which makes equality of subspaces literal
equality of data.  ``Mat`` and ``Subspace`` are immutable value records
(``hornkit._record``).  ``Subspace.from_equations`` solves stacked linear
equations with one nullspace; ``intersect`` first turns bases into them.

Randomness is fed through ``random.Random`` seeded deterministically;
``derive_seed`` hashes a label tuple so independent draws inside one run
never share a stream.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

# The same object as hashlib.blake2b, without loading OpenSSL's _hashlib.
from _blake2 import blake2b

from ._record import Record, setfield

__all__ = [
    "DEFAULT_PRIME",
    "is_prime",
    "check_prime",
    "derive_seed",
    "rref",
    "Mat",
    "Subspace",
    "intersect",
    "random_invertible",
]

DEFAULT_PRIME = 2147483647  # 2^31 - 1


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if m < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m in small:
        return True
    if any(m % q == 0 for q in small):
        return False
    d, twos = m - 1, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    for a in small:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise ValueError unless p is prime: F_p must be a field."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime number")


def derive_seed(*parts: object) -> int:
    """Stable sub-seed from a tuple of labels (ints, strings, tuples...)."""
    digest = blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


Rows = tuple[tuple[int, ...], ...]


def rref(rows: Iterable[Sequence[int]], ncols: int, p: int) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    work = [list(int(x) % p for x in row) for row in rows]
    for row in work:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)}, expected {ncols}")
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                factor = work[i][col]
                work[i] = [(a - factor * b) % p for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    reduced = tuple(tuple(row) for row in work[:rank])
    return reduced, tuple(pivots)


class Mat(Record):
    """Immutable matrix over F_p: tuple of row tuples."""

    __slots__ = ("data", "p")

    def __init__(self, data: Rows, p: int) -> None:
        data = tuple(tuple(int(x) % p for x in row) for row in data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        setfield(self, "data", data)
        setfield(self, "p", p)
        setfield(self, "_key", (data, p))

    @property
    def nrows(self) -> int:
        return len(self.data)

    @property
    def ncols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @classmethod
    def identity(cls, n: int, p: int) -> "Mat":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), p)

    def mul(self, other: "Mat") -> "Mat":
        if self.p != other.p:
            raise ValueError("mixed moduli")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.ncols} vs {other.nrows}")
        cols = other.transpose().data
        p = self.p
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
            for row in self.data
        )
        return Mat(out, p)

    def transpose(self) -> "Mat":
        return Mat(tuple(zip(*self.data)) if self.data else (), self.p)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self, js: Sequence[int]) -> "Mat":
        return Mat(tuple(tuple(row[j] for j in js) for row in self.data), self.p)

    def inverse(self) -> "Mat":
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.data)]
        reduced, pivots = rref(aug, 2 * n, self.p)
        if pivots[:n] != tuple(range(n)) or len(reduced) != n:
            raise ValueError("matrix is singular")
        return Mat(tuple(row[n:] for row in reduced), self.p)

    def rank(self) -> int:
        _, pivots = rref(self.data, self.ncols, self.p)
        return len(pivots)

    def nullspace(self) -> "Subspace":
        """Right nullspace {v : M v = 0} as a canonical subspace of F_p^ncols."""
        reduced, pivots = rref(self.data, self.ncols, self.p)
        p = self.p
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for f in free:
            vec = [0] * self.ncols
            vec[f] = 1
            for i, col in enumerate(pivots):
                vec[col] = (-reduced[i][f]) % p
            basis.append(tuple(vec))
        return Subspace.from_spanning(basis, self.ncols, p)


class Subspace(Record):
    """Subspace of F_p^ambient_dim with a canonical (RREF) row basis.

    Two Subspace objects are equal exactly when they are the same subspace.
    """

    __slots__ = ("ambient_dim", "p", "basis")

    def __init__(self, ambient_dim: int, p: int, basis: Rows) -> None:
        setfield(self, "ambient_dim", ambient_dim)
        setfield(self, "p", p)
        setfield(self, "basis", basis)
        setfield(self, "_key", (ambient_dim, p, basis))

    @classmethod
    def from_spanning(
        cls, vectors: Iterable[Sequence[int]], ambient_dim: int, p: int
    ) -> "Subspace":
        reduced, _ = rref(vectors, ambient_dim, p)
        return cls(ambient_dim, p, reduced)

    @classmethod
    def from_equations(
        cls, rows: Sequence[Sequence[int]], ambient_dim: int, p: int
    ) -> "Subspace":
        """{v : row . v = 0 for every row}; the whole space when there are none."""
        if not rows:
            return cls.full(ambient_dim, p)
        return Mat(tuple(rows), p).nullspace()

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, p, ())

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, p, Mat.identity(ambient_dim, p).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[int]) -> bool:
        stacked, _ = rref(self.basis + (tuple(vector),), self.ambient_dim, self.p)
        return len(stacked) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        stacked, _ = rref(self.basis + other.basis, self.ambient_dim, self.p)
        return len(stacked) == self.dim

    def annihilator(self) -> "Subspace":
        """{f : f(v) = 0 for all v in the subspace}, via the basis nullspace."""
        return Subspace.from_equations(self.basis, self.ambient_dim, self.p)

    def random_element(self, rng: random.Random) -> tuple[int, ...]:
        vec = [0] * self.ambient_dim
        for row in self.basis:
            c = rng.randrange(self.p)
            vec = [(a + c * b) % self.p for a, b in zip(vec, row)]
        return tuple(vec)


def intersect(spaces: Sequence[Subspace]) -> Subspace:
    """Intersection via annihilators: ann(V1 cap ... cap Vs) = sum of ann(Vi)."""
    if not spaces:
        raise ValueError("need at least one subspace")
    ambient, p = spaces[0].ambient_dim, spaces[0].p
    if any(s.ambient_dim != ambient or s.p != p for s in spaces):
        raise ValueError("subspaces live in different ambient spaces")
    functionals: list[tuple[int, ...]] = []
    for s in spaces:
        functionals.extend(s.annihilator().basis)
    return Subspace.from_equations(functionals, ambient, p)


def random_matrix(nrows: int, ncols: int, rng: random.Random, p: int) -> Mat:
    return Mat(
        tuple(tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(nrows)), p
    )


def random_invertible(n: int, rng: random.Random, p: int) -> Mat:
    """Rejection-sample an invertible n x n matrix (almost surely first try)."""
    while True:
        m = random_matrix(n, n, rng, p)
        if m.rank() == n:
            return m

