"""Exact linear algebra over a prime field, in plain Python integers.

Everything downstream (tangent-space intersections, kernel descent) needs
exact ranks and canonical subspace bases, so all arithmetic is modular with
a large default prime.  Matrices are tuples of row tuples; subspaces carry
a reduced-row-echelon basis, which makes equality of subspaces literal
equality of data.  ``Mat`` and ``Subspace`` are immutable value records
(``hornkit._record``).  ``Subspace.from_equations`` solves stacked linear
equations with one nullspace; ``intersect`` first turns bases into them.

Every elimination, the Bruhat form's included, runs one
forward-elimination core, ``_echelon``: it scales each pivot row to a
leading 1 and clears the rows below, never those above.  It takes pivot
columns in pairs: one pass over the remaining rows clears both columns
of a pair, or clears the first and drops both when the second has no
pivot, so a matrix of full rank costs about half the passes of a column
at a time, and each pivot is still the first remaining row nonzero in
its column, so the echelon is that of a column at a time.  Each caller
then does only the work whose result it reads.
``Mat.rank`` counts the pivots and back-substitutes nothing; so do the
numeric decider, ``hornkit.tangent.transversality_verdict``, which reads
only the rank of its equations, ``hornkit.tangent.schubert_position``,
which reads only the pivot columns, and ``_bruhat_pivots`` (below).
The others back-substitute bottom-up with ``_back_substitute``, which
works on the pivot-free columns only (a reduced row is 1 at its own
pivot and 0 at the others) and computes each entry there as one dot
product with the rows already solved below it:

- ``rref`` (and so ``Subspace.from_spanning``) writes out the full
  reduced rows;
- ``_nullspace`` reads the pivot rows at the free columns, which is all
  a nullspace basis needs.  It takes rows already reduced mod p, so the
  kernel descent (``hornkit.witness``) calls it on its tangent systems
  and on the sampled map's rows as they are; ``Mat.nullspace`` and
  ``Subspace.from_equations`` call it too, the latter after coercing and
  reducing the equations once, on the way in;
- ``Mat.inverse`` eliminates [M | I], whose free columns are n..2n-1 when
  M is invertible, and reads the inverse from those values directly.  It
  runs as two halves: ``_start_inverse``, the echelon and the singularity
  check, and ``_finish_inverse``, the back-substitution.
  ``hornkit.tangent.FlagModel`` runs the first on construction and the
  second only when its inverse is read.

Reduced forms are canonical, so the results equal those of Gauss-Jordan
elimination with about half the element updates.

``_echelon`` reduces lazily.  Rows come in reduced mod p and tails go out
reduced, but a cleared row keeps a - f * b unreduced; only the entries
the elimination reads are reduced, namely a row's leading entry when it
is tested as a pivot and taken as the factor f, and the pivot row's
tail when it is scaled.  A paired pass subtracts two products from an
entry, a - f1 * b - f2 * c, but clears two columns, and it leaves the
very integers that two single passes would.  So after k columns every
entry is below (k + 1) * p**2 in absolute value, and Python integers do
not overflow, so every result is exact and the same as with reduction
at each update.

``_bruhat_pivots`` eliminates [x | carried | I] for an invertible square
x and reads each pivot's input row off its identity block.  Fed x's rows
or columns bottom-up, it gives the permutation of the Bruhat
decomposition GL = B W B and a triangular factor, from which
``hornkit.tangent`` reads two flag pairs' relative position.

Randomness is fed through ``random.Random`` seeded deterministically;
``derive_seed`` hashes a label tuple so independent draws inside one run
never share a stream.  ``random_matrix`` draws each entry with
``getrandbits`` under the rejection rule of ``randrange``, so it draws
the same entries as ``randrange`` would and leaves the generator in the
same state.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from operator import mul

# The same object as hashlib.blake2b, without loading OpenSSL's _hashlib.
from _blake2 import blake2b

from ._record import Record, integer

__all__ = [
    "DEFAULT_PRIME",
    "is_prime",
    "check_prime",
    "derive_seed",
    "rref",
    "Mat",
    "Subspace",
    "intersect",
]

DEFAULT_PRIME = 2147483647  # 2^31 - 1


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers; raises
    ValueError for m >= 2**64, where its fixed bases are no proof, and for
    an m that ``integer`` refuses."""
    m = integer(m)
    if m >= 1 << 64:
        raise ValueError(f"{m} is not below 2**64, where is_prime stops being exact")
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
    """Raise ValueError unless p is prime: F_p must be a field.  Beyond 64
    bits is_prime is not exact, so p must also lie below 2**64.  The
    default prime, which every default query passes, is taken without
    running the proof again."""
    p = integer(p)
    if p == DEFAULT_PRIME:
        return
    try:
        prime = is_prime(p)
    except ValueError:
        raise ValueError(
            f"p = {p} is not below 2**64, where is_prime stops being exact"
        ) from None
    if not prime:
        raise ValueError(f"p = {p} is not a prime number")


def derive_seed(*parts: object) -> int:
    """Stable sub-seed from a tuple of labels (ints, strings, tuples...)."""
    digest = blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


Rows = tuple[tuple[int, ...], ...]


def _echelon(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[tuple[int, list[int]]]:
    """Forward elimination mod p of rows already reduced mod p.

    The pivot rule is the column-at-a-time one: in each column the first
    remaining row whose entry is nonzero mod p becomes the pivot row and
    is scaled to a leading 1, the remaining rows are cleared in that
    column, and the column is then dropped from them.  Columns are taken
    in pairs.  With the pivot of column c chosen, the pivot of column
    c + 1 is the first remaining row whose c + 1 entry, less f1 times the
    first pivot's, is nonzero mod p (f1 being the row's column-c entry):
    the row a pass over column c alone would leave first nonzero there.
    One pass then clears both columns from every other row, as
    a - f1 * b - f2 * c, with a branch for each factor that is 0.  Where
    column c + 1 has no pivot, that pass clears column c alone and leaves
    column c + 1 at 0 mod p in every row, so it drops both columns.  A
    column is taken alone where it has no pivot; a pivot in the last
    column, or one that leaves no row, ends the elimination.
    Returns one (pivot column, tail) pair per pivot, top-down, where tail
    is the scaled pivot row right of its pivot, reduced mod p; the pairs
    are those of the column-at-a-time loop.  The input is not changed.

    Reduction is lazy: a cleared row keeps its update unreduced, and only
    the entries the elimination reads are reduced, namely a row's leading
    entries when they are tested for a pivot and taken as factors, and
    the pivot rows' tails when they are scaled.  Each product moves an
    entry by less than p**2 and a paired pass, with two products, clears
    two columns, so after k columns every entry is below (k + 1) * p**2
    in absolute value; Python integers do not overflow.
    """
    work = list(rows)
    echelon: list[tuple[int, list[int]]] = []
    col = 0
    while col < ncols:
        for i, row in enumerate(work):
            if row[0] % p:
                break
        else:
            work = [row[1:] for row in work]
            col += 1
            continue
        pivot = work.pop(i)
        inv = pow(pivot[0], -1, p)
        tail = [x * inv % p for x in pivot[1:]]
        echelon.append((col, tail))
        if not work or col + 1 == ncols:
            break  # no row left to clear, or no column after this one
        # the pivot of column col + 1: the first row nonzero there once the
        # first pivot has cleared it; lead ends 0 if none is
        t0, tail1 = tail[0], tail[1:]
        for i, row in enumerate(work):
            if lead := (row[1] - row[0] % p * t0) % p:
                break
        if not lead:
            # column col + 1 has no pivot: once column col is cleared it is
            # 0 mod p in every row, so the one pass drops both columns
            work = [
                [a - f * b for a, b in zip(row[2:], tail1)] if (f := row[0] % p) else row[2:]
                for row in work
            ]
            col += 2
            continue
        second = work.pop(i)
        inv, f1 = pow(lead, -1, p), second[0] % p
        tail2 = [(a - f1 * b) * inv % p for a, b in zip(second[2:], tail1)]
        echelon.append((col + 1, tail2))
        if not work:
            break
        pair = []
        for row in work:
            if f1 := row[0] % p:
                if f2 := (row[1] - f1 * t0) % p:
                    pair.append([a - f1 * b - f2 * c for a, b, c in zip(row[2:], tail1, tail2)])
                else:
                    pair.append([a - f1 * b for a, b in zip(row[2:], tail1)])
            elif f2 := row[1] % p:
                pair.append([a - f2 * c for a, c in zip(row[2:], tail2)])
            else:
                pair.append(row[2:])
        work = pair
        col += 2
    return echelon


def _back_substitute(
    echelon: list[tuple[int, list[int]]], ncols: int, p: int
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Finish ``_echelon`` to reduced form on the free columns only.

    Returns the free (pivot-free) columns and, per pivot row, its entries
    at the free columns right of its pivot; its entries at the other pivot
    columns are 0.  Bottom-up: every later pivot row is already reduced, so
    a row's entry at a later pivot column is the factor to clear it with,
    and its reduced entry at a free column is one dot product of those
    factors with that column's entries in the later rows.
    """
    pivot_set = {col for col, _ in echelon}
    free = [j for j in range(ncols) if j not in pivot_set]
    # below[k]: free column free[k] in the solved rows with a pivot left of
    # it, in pivot order, so it pairs with a prefix of the factors
    below: list[list[int]] = [[] for _ in free]
    later: list[int] = []  # pivot columns of the solved rows, ascending
    solved: list[tuple[int, list[int]]] = []
    start = len(free)
    for col, tail in reversed(echelon):
        while start and free[start - 1] > col:
            start -= 1
        factors = [tail[c - col - 1] for c in later]
        vals = []
        for f, column in zip(free[start:], below[start:]):
            x = (tail[f - col - 1] - sum(map(mul, factors, column))) % p
            vals.append(x)
            column.insert(0, x)
        later.insert(0, col)
        solved.append((col, vals))
    solved.reverse()
    return free, solved


def _nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> "Subspace":
    """{v : row . v = 0 for every row}, for rows already reduced mod p."""
    free, solved = _back_substitute(_echelon(rows, ncols, p), ncols, p)
    basis = []
    for i, f in enumerate(free):
        vec = [0] * ncols
        vec[f] = 1
        for col, vals in solved:
            k = i - len(free) + len(vals)  # vals covers the last len(vals) free columns
            if k >= 0:
                vec[col] = -vals[k] % p
        basis.append(tuple(vec))
    return Subspace.from_spanning(basis, ncols, p)


def rref(rows: Iterable[Sequence[int]], ncols: int, p: int) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    work = [[integer(x) % p for x in row] for row in rows]
    for row in work:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)}, expected {ncols}")
    echelon = _echelon(work, ncols, p)
    free, solved = _back_substitute(echelon, ncols, p)
    reduced = []
    for col, vals in solved:
        row = [0] * ncols
        row[col] = 1
        for f, x in zip(free[len(free) - len(vals):], vals):
            row[f] = x
        reduced.append(tuple(row))
    return tuple(reduced), tuple(col for col, _ in echelon)


class Mat(Record):
    """Immutable matrix over F_p: tuple of row tuples."""

    __slots__ = ("data", "p")

    def __init__(self, data: Rows, p: int) -> None:
        data = tuple(tuple(integer(x) % p for x in row) for row in data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        Record.__init__(self, data, p)

    @classmethod
    def _of_reduced(cls, data: Rows, p: int) -> "Mat":
        """A Mat of rows of equal length already reduced mod p, stored as
        given instead of reduced again."""
        m = cls.__new__(cls)
        Record.__init__(m, data, p)
        return m

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
        cols = tuple(zip(*other.data))
        p = self.p
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
            for row in self.data
        )
        return Mat._of_reduced(out, p)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def inverse(self) -> "Mat":
        return self._finish_inverse(self._start_inverse())

    def _start_inverse(self) -> list[tuple[int, list[int]]]:
        """The forward half of ``inverse``: the echelon of [M | I], which
        ``_finish_inverse`` completes.  ValueError if M is not square or
        is singular."""
        n, p = self.nrows, self.p
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.data)]
        echelon = _echelon(aug, 2 * n, p)
        if [col for col, _ in echelon] != list(range(n)):
            raise ValueError("matrix is singular")
        return echelon

    def _finish_inverse(self, echelon: list[tuple[int, list[int]]]) -> "Mat":
        """The back half of ``inverse``, on the echelon ``_start_inverse``
        returned for this matrix."""
        # The free columns are n..2n-1, and each pivot row's values there
        # are its row of the inverse, already reduced mod p.
        _, solved = _back_substitute(echelon, 2 * self.nrows, self.p)
        return Mat._of_reduced(tuple(tuple(vals) for _, vals in solved), self.p)

    def rank(self) -> int:
        return len(_echelon(self.data, self.ncols, self.p))

    def nullspace(self) -> "Subspace":
        """Right nullspace {v : M v = 0} as a canonical subspace of F_p^ncols."""
        return _nullspace(self.data, self.ncols, self.p)


class Subspace(Record):
    """Subspace of F_p^ambient_dim with a canonical (RREF) row basis.

    Two Subspace objects are equal exactly when they are the same subspace.
    """

    __slots__ = ("ambient_dim", "p", "basis")

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
        check_prime(p)
        work = []
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(f"equation of length {len(row)}, expected {ambient_dim}")
            work.append([integer(x) % p for x in row])
        if not work:
            return cls.full(ambient_dim, p)
        return _nullspace(work, ambient_dim, p)

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, p, Mat.identity(ambient_dim, p).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

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
        # ann(Vi) is the nullspace of Vi's basis rows
        functionals.extend(Subspace.from_equations(s.basis, ambient, p).basis)
    return Subspace.from_equations(functionals, ambient, p)


def _bruhat_pivots(
    rows: Sequence[Sequence[int]], carried: Sequence[Sequence[int]], p: int
) -> list[tuple[int, int, list[int]]]:
    """Pivots of the echelon of [rows | carried | I], for m rows of length m
    reduced mod p, each with a carried row of one common length.

    Returns (pivot column, input row, carried entries) per pivot, top-down.
    Each pivot is the first remaining row nonzero in its column, so a row
    gains only multiples of the rows before it: a pivot row is lambda times
    the input, with lambda (its identity block) last nonzero at its own
    input row, and its carried entries are lambda * carried.  ValueError
    if the rows are not square or are singular (the pivots are not columns
    0..m-1).
    """
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("Bruhat form of a non-square matrix")
    start = m + (len(carried[0]) if m else 0)  # first column of the identity
    aug = [
        [*row, *extra, *(int(i == j) for j in range(m))]
        for i, (row, extra) in enumerate(zip(rows, carried))
    ]
    echelon = _echelon(aug, start + m, p)
    if [col for col, _ in echelon] != list(range(m)):
        raise ValueError("matrix is singular")
    pivots = []
    for col, tail in echelon:
        ident = tail[start - col - 1:]
        source = max(i for i, x in enumerate(ident) if x)
        pivots.append((col, source, tail[m - col - 1:start - col - 1]))
    return pivots


def random_matrix(nrows: int, ncols: int, rng: random.Random, p: int) -> Mat:
    """An nrows x ncols matrix of entries uniform in 0..p-1, drawn row by
    row with exactly the calls ``rng.randrange(p)`` makes (Python 3.10 to
    3.13): ``getrandbits(p.bit_length())``, drawn again while it is >= p.
    So the matrix and the generator's final state are those of
    ``randrange``, without its per-call argument checks."""
    bits, getrandbits = p.bit_length(), rng.getrandbits
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            x = getrandbits(bits)
            while x >= p:
                x = getrandbits(bits)
            row.append(x)
        rows.append(tuple(row))
    return Mat._of_reduced(tuple(rows), p)

