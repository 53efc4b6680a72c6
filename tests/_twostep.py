"""The paper's two-step geometry, for the tests of its lemmas.

No production path reads these; the tests that check the paper's string
identities and the kernel descent's lemmas do.

- String identities: the projections of a step string (``project_j``),
  the two-step cell dimension (``cell_dimension``), the Horn index sets
  of a 012-string (``horn_indices``), and every word with given letter
  counts (``all_step_words``).
- Flags: the standard and opposite coordinate flags (``standard_flag``,
  ``opposite_flag``), a flag step as a subspace (``flag_step``), and the
  flags a flag induces on a subspace and on its quotient
  (``induced_flag``).
- A generic translate of the two-step tangent model
  (``two_step_translate``), the quotient's tangent pattern
  (``quotient_pattern``), the coordinate flag that puts the standard base
  point in a given position (``minimal_coordinate_flag``), and subspace
  containment (``contains_subspace``).
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence

from hornkit._record import integer
from hornkit.exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    check_prime,
    derive_seed,
    rref,
)
from hornkit.strings import Partition, StepString, string_to_partition, substring_uv
from hornkit.tangent import FlagModel, eta_word, hat_Y


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
    # counts[x] = how many copies of letter x have been seen so far
    counts = [0] * (sigma.k + 1)
    total = 0
    for x in map(int, sigma.word):
        total += sum(counts[:x])
        counts[x] += 1
    return total


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


def standard_flag(m: int, p: int = DEFAULT_PRIME) -> FlagModel:
    """Step l is spanned by the first l coordinate vectors."""
    return FlagModel(Mat.identity(m, p))


def opposite_flag(m: int, p: int = DEFAULT_PRIME) -> FlagModel:
    """The standard flag in reversed coordinate order."""
    return FlagModel(Mat(tuple(row[::-1] for row in Mat.identity(m, p).data), p))


def flag_step(flag: FlagModel, l: int) -> Subspace:
    """The l-th flag step as a subspace (l = 0 gives the zero space)."""
    if not 0 <= l <= flag.size:
        raise ValueError(f"flag step {l} outside 0..{flag.size}")
    vectors = [flag.matrix.column(j) for j in range(l)]
    return Subspace.from_spanning(vectors, flag.size, flag.p)


def contains_subspace(space: Subspace, other: Subspace) -> bool:
    """Whether other lies inside space."""
    if other.ambient_dim != space.ambient_dim or other.p != space.p:
        raise ValueError("subspaces live in different ambient spaces")
    stacked, _ = rref(space.basis + other.basis, space.ambient_dim, space.p)
    return len(stacked) == space.dim


def induced_flag(flag: FlagModel, v: Subspace) -> tuple[FlagModel, FlagModel]:
    """Flags induced on a subspace and on its quotient.

    V's basis is put in flag coordinates, last coordinate first, and
    reduced: a row with pivot column k has its last nonzero flag
    coordinate at flag vector n - k, so it is a vector of V that enters at
    step n - k.  These rows, taken in the order their steps enter V, give
    a full flag on V (steps where the position string has a '1'); the
    images of the remaining flag vectors give a full flag on the quotient.
    V is returned in the coordinates of its canonical basis; the quotient
    in the non-pivot coordinates, via reduction modulo V.
    """
    p = flag.p
    n = flag.size
    if v.ambient_dim != n or v.p != p:
        raise ValueError("subspace and flag live in different ambient spaces")
    dual = flag.inverse.data[::-1]
    coords = [
        tuple(sum(a * x for a, x in zip(drow, vec)) for drow in dual) for vec in v.basis
    ]
    rows, flag_pivots = rref(coords, n, p)
    entered = {n - k for k in flag_pivots}
    pivots = tuple(next(j for j, x in enumerate(row) if x) for row in v.basis)
    nonpivots = [j for j in range(n) if j not in set(pivots)]

    def reduce_mod_v(x: Sequence[int]) -> list[int]:
        out = list(x)
        for piv, brow in zip(pivots, v.basis):
            c = out[piv]
            if c:
                out = [(a - c * b) % p for a, b in zip(out, brow)]
        return out

    at_pivots = [flag.matrix.data[piv] for piv in pivots]
    sub_columns: list[tuple[int, ...]] = []
    for row in reversed(rows):  # pivots descend as the entry steps ascend
        coeffs = row[::-1]  # flag coordinates of a vector of V
        sub_columns.append(
            tuple(sum(c * x for c, x in zip(coeffs, frow)) % p for frow in at_pivots)
        )
    quot_columns: list[tuple[int, ...]] = []
    for l in range(1, n + 1):
        if l in entered:
            continue
        reduced = reduce_mod_v(flag.vector(l))
        quot_columns.append(tuple(reduced[j] for j in nonpivots))
    sub_mat = Mat(tuple(zip(*sub_columns)) if sub_columns else (), p)
    quot_mat = Mat(tuple(zip(*quot_columns)) if quot_columns else (), p)
    return FlagModel(sub_mat), FlagModel(quot_mat)


def quotient_pattern(lam: Partition, rho: StepString) -> Partition:
    """Partition of the quotient tangent pattern: lam at the zero-positions
    of rho (the directions not swallowed by the kernel)."""
    if rho.k != 1 or rho.n != lam.r:
        raise ValueError("rho must be a 01-string with one letter per part")
    parts = tuple(lam.parts[pos - 1] for pos in rho.positions(0))
    return Partition(parts, lam.cap)


def minimal_coordinate_flag(
    sigma: StepString, p: int = DEFAULT_PRIME
) -> FlagModel:
    """The coordinate flag putting the standard base point in position sigma.

    With the ambient basis ordered so the base planes span the last
    coordinates (letters high to low), step l adjoins the coordinate whose
    eta-index is l; positions of V then jump exactly at sigma's nonzero
    letters.
    """
    eta = eta_word(sigma)
    n = sigma.n
    alpha = [0] * n
    for j, pos in enumerate(eta, start=1):
        alpha[pos - 1] = j
    cols = tuple(
        tuple(1 if i == alpha[l] - 1 else 0 for l in range(n)) for i in range(n)
    )
    return FlagModel(Mat(cols, p))


def two_step_translate(
    sigma: StepString,
    d: int,
    r: int,
    n: int,
    seed: int = 0,
    p: int = DEFAULT_PRIME,
) -> Subspace:
    """A generic translate of the two-step tangent model, as a subspace of
    the vectorized (n-d) x r grid (lower-left coordinates always zero).

    The stabilizer of the standard nested planes is the group of block
    lower-triangular matrices for the (n-r, r-d, d) coordinate split; a
    random element acts on the tangent space by conjugation followed by
    projection back onto the three blocks.  The translate's dimension
    equals the cell dimension of sigma.
    """
    seed = integer(seed)
    d, r, n = integer(d), integer(r), integer(n)
    check_prime(p)
    cells = hat_Y(sigma, d, r, n)
    q, m = n - r, r - d
    rng = random.Random(derive_seed(seed, "two-step", sigma.word))

    def block_index(i: int) -> int:
        return 0 if i < q else (1 if i < q + m else 2)

    while True:
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if block_index(i) > block_index(j):
                    entries[i][j] = rng.randrange(p)
        for i in range(n):  # then the diagonal blocks, one after the other
            for j in range(n):
                if block_index(i) == block_index(j):
                    entries[i][j] = rng.randrange(p)
        g = Mat(tuple(tuple(row) for row in entries), p)
        try:
            ginv = g.inverse()
        except ValueError:  # a diagonal block is singular: draw again
            continue
        break

    ambient = (n - d) * r
    vectors = []
    for (j, k) in sorted(cells):
        col = g.column(j - 1)  # image of the cell's row basis vector
        rowv = ginv.data[q + k - 1]  # dual of the cell's column basis vector
        vec = [0] * ambient
        for jj in range(1, n - d + 1):
            cj = col[jj - 1]
            if not cj:
                continue
            for kk in range(1, r + 1):
                if jj > q and kk <= m:
                    continue
                vec[(jj - 1) * r + (kk - 1)] = cj * rowv[q + kk - 1] % p
        vectors.append(tuple(vec))
    translate = Subspace.from_spanning(vectors, ambient, p)
    if translate.dim != len(cells):
        raise RuntimeError(
            f"translate has dimension {translate.dim}, "
            f"not the cell dimension {len(cells)}"
        )
    return translate
