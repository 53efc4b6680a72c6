"""The paper's two-step geometry, for the tests of its lemmas.

No production path reads these; the tests that check the kernel descent's
lemmas do.  A generic translate of the two-step tangent model
(``two_step_translate``), the flags a flag induces on a subspace and on
its quotient (``induced_flag``), the quotient's tangent pattern
(``quotient_pattern``), the coordinate flag that puts the standard base
point in a given position (``minimal_coordinate_flag``), and subspace
containment (``contains_subspace``).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from hornkit._record import integer
from hornkit.exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    check_prime,
    derive_seed,
    rref,
)
from hornkit.strings import Partition, StepString
from hornkit.tangent import FlagModel, _flag_echelon, eta_word, hat_Y


def contains_subspace(space: Subspace, other: Subspace) -> bool:
    """Whether other lies inside space."""
    if other.ambient_dim != space.ambient_dim or other.p != space.p:
        raise ValueError("subspaces live in different ambient spaces")
    stacked, _ = rref(space.basis + other.basis, space.ambient_dim, space.p)
    return len(stacked) == space.dim


def induced_flag(flag: FlagModel, v: Subspace) -> tuple[FlagModel, FlagModel]:
    """Flags induced on a subspace and on its quotient.

    The echelon rows of ``_flag_echelon``, taken in the order their steps
    enter V, give a full flag on V (steps where the position string has a
    '1'); the images of the remaining flag vectors give a full flag on the
    quotient.  V is returned in the coordinates of its canonical basis; the
    quotient in the non-pivot coordinates, via reduction modulo V.
    """
    p = flag.p
    n = flag.size
    rows, flag_pivots = _flag_echelon(v, flag)
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
