"""Coordinate models of Schubert tangent spaces and transversality verdicts.

One-step case: the tangent space to the Grassmannian Gr(r, n) at a fixed
r-plane is Hom(plane, quotient), drawn as an (n-r) x r grid (source index
as column).  The tangent space to the Schubert variety attached to a
partition lam and a pair of flags is the subspace of maps phi with
phi(source step l) inside destination step lam_l; with standard flags the
free cells of column j are the topmost lam_j, a staircase pattern.

Two-step case: positions on the flag manifold of nested (d, r)-planes in
n-space are 012-strings; the tangent model is a three-block grid (the
lower-left block is absent) whose free cells are read off the
position-sorting permutation eta of the string.

A Schubert tangent space is held as its defining equations
(``tangent_equations``).  Intersecting tangent spaces stacks their
equations: the intersection dimension is r * (n-r) minus the rank of the
stack, and a basis is computed only where a vector is needed.  A
``FlagModel`` inverts its matrix once, on construction, as its
invertibility check; the equations and ``schubert_position`` read flag
coordinates from that stored inverse.

Vanishing of a product of Schubert classes is decided numerically by
intersecting seeded random translates of these tangent models over a big
prime field: the product is nonzero exactly when the intersection
dimension equals the (possibly negative) virtual dimension
sum |lam_i| - (s-1) * r * (n-r).  An intersection can never fall below
the virtual dimension, and random special position only inflates it, so
the minimum over a few trials decides exactly with overwhelming
probability.
"""

from __future__ import annotations

import random
from typing import Sequence

from ._record import Record, setfield
from .exactla import (
    DEFAULT_PRIME,
    Mat,
    Rows,
    Subspace,
    check_prime,
    derive_seed,
    random_matrix,
    rref,
)
from .strings import Partition, StepString

__all__ = [
    "PatternSpace",
    "FlagModel",
    "TwoStepModel",
    "hat_X",
    "hat_Y",
    "blocks_of",
    "tangent_equations",
    "X_from_flags",
    "generic_tangents",
    "tangents_with_flags",
    "TransversalityReport",
    "transversality_verdict",
    "induced_flag",
    "schubert_position",
    "quotient_pattern",
    "minimal_coordinate_flag",
    "eta_word",
    "two_step_translate",
    "opposite_cells",
    "render_pattern",
    "render_cells",
    "render_overlay",
]


class PatternSpace(Record):
    """A coordinate subspace of a rows x cols matrix grid: a set of free cells.

    Cells are 1-based (row, col).  ``kind`` records which Hom factor the grid
    models (purely informational).
    """

    __slots__ = ("rows", "cols", "free", "kind")

    def __init__(
        self,
        rows: int,
        cols: int,
        free: frozenset[tuple[int, int]],
        kind: str = "hom(V,Q)",
    ) -> None:
        free = frozenset(free)
        for (a, b) in free:
            if not (1 <= a <= rows and 1 <= b <= cols):
                raise ValueError(f"cell {(a, b)} outside {rows}x{cols} grid")
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "free", free)
        setfield(self, "kind", kind)
        setfield(self, "_key", (rows, cols, free, kind))

    @property
    def dim(self) -> int:
        return len(self.free)

    def column_counts(self) -> tuple[int, ...]:
        """Number of free cells per column (the lam-profile for staircases)."""
        return tuple(
            sum(1 for (a, b) in self.free if b == j) for j in range(1, self.cols + 1)
        )

    def subspace(self, p: int = DEFAULT_PRIME) -> Subspace:
        """The coordinate subspace of F_p^(rows*cols), vectorized row-major."""
        ambient = self.rows * self.cols
        vectors = []
        for (a, b) in sorted(self.free):
            vec = [0] * ambient
            vec[(a - 1) * self.cols + (b - 1)] = 1
            vectors.append(tuple(vec))
        return Subspace.from_spanning(vectors, ambient, p)


class FlagModel(Record):
    """A complete flag on F_p^m: step l is the span of the first l columns.

    The matrix is inverted once, on construction; that is the invertibility
    check, and the inverse (flag coordinates of the standard basis) is kept
    for ``tangent_equations`` and ``schubert_position``.  Equality, hash and
    repr are those of the matrix alone.
    """

    __slots__ = ("matrix", "_inverse")

    def __init__(self, matrix: Mat) -> None:
        if matrix.ncols != matrix.nrows:
            raise ValueError("flag matrix must be square")
        try:
            inverse = matrix.inverse()
        except ValueError:
            raise ValueError("flag matrix must be invertible") from None
        setfield(self, "matrix", matrix)
        setfield(self, "_key", (matrix,))
        setfield(self, "_inverse", inverse)

    @property
    def inverse(self) -> Mat:
        """The inverse matrix: row c gives the c-th flag coordinate."""
        return self._inverse

    @property
    def size(self) -> int:
        return self.matrix.nrows

    @property
    def p(self) -> int:
        return self.matrix.p

    @classmethod
    def standard(cls, m: int, p: int = DEFAULT_PRIME) -> "FlagModel":
        return cls(Mat.identity(m, p))

    @classmethod
    def opposite(cls, m: int, p: int = DEFAULT_PRIME) -> "FlagModel":
        """The standard flag in reversed coordinate order."""
        ident = Mat.identity(m, p)
        return cls(ident.columns(list(range(m - 1, -1, -1))))

    @classmethod
    def random(cls, m: int, rng: random.Random, p: int = DEFAULT_PRIME) -> "FlagModel":
        """Rejection-sample a flag matrix (almost surely the first draw)."""
        while True:
            matrix = random_matrix(m, m, rng, p)
            try:
                return cls(matrix)
            except ValueError:  # singular: draw again
                continue

    def vector(self, l: int) -> tuple[int, ...]:
        """The l-th flag vector (1-based)."""
        return self.matrix.column(l - 1)

    def step(self, l: int) -> Subspace:
        """The l-th flag step as a subspace (l = 0 gives the zero space)."""
        vectors = [self.matrix.column(j) for j in range(l)]
        return Subspace.from_spanning(vectors, self.size, self.p)


def hat_X(lam: Partition) -> PatternSpace:
    """Coordinate tangent pattern: column j free in its topmost lam_j rows."""
    free = {
        (a, b) for b, part in enumerate(lam.parts, start=1) for a in range(1, part + 1)
    }
    return PatternSpace(lam.cap, lam.r, frozenset(free), kind="hom(V,Q)")


def eta_word(sigma: StepString) -> tuple[int, ...]:
    """Positions of the '0's, then '1's, ... then 'k's — a permutation of 1..n."""
    return tuple(
        pos for letter in range(sigma.k + 1) for pos in sigma.positions(letter)
    )


class TwoStepModel(Record):
    """Tangent model of a two-step flag position (a 012-string).

    The grid has n-d rows (quotient directions, then middle directions) and
    r columns (middle directions, then inner-plane directions); the
    lower-left middle-by-middle block is not part of the model.  A cell is
    free exactly when its row's position in the string precedes its
    column's position (the eta criterion).
    """

    __slots__ = ("d", "r", "n", "eta", "full", "blocks")

    def __init__(
        self,
        d: int,
        r: int,
        n: int,
        eta: tuple[int, ...],
        full: PatternSpace,
        blocks: tuple[PatternSpace, PatternSpace, PatternSpace],
    ) -> None:
        setfield(self, "d", d)
        setfield(self, "r", r)
        setfield(self, "n", n)
        setfield(self, "eta", eta)
        setfield(self, "full", full)
        setfield(self, "blocks", blocks)
        setfield(self, "_key", (d, r, n, eta, full, blocks))

    @property
    def dim(self) -> int:
        return self.full.dim


def hat_Y(sigma: StepString, d: int, r: int, n: int) -> TwoStepModel:
    """Build the two-step tangent model of a 012-string."""
    if sigma.k != 2:
        raise ValueError("two-step model needs a 012-string")
    if not 0 < d < r < n:
        raise ValueError(f"need 0 < d < r < n, got {(d, r, n)}")
    if sigma.counts != (n - r, r - d, d):
        raise ValueError(
            f"letter counts {sigma.counts} do not match shape {(n - r, r - d, d)}"
        )
    eta = eta_word(sigma)
    q, m = n - r, r - d  # quotient rows, middle size
    free = set()
    for j in range(1, n - d + 1):
        for k in range(1, r + 1):
            if j > q and k <= m:
                continue  # lower-left block: not in the model
            if eta[j - 1] < eta[q + k - 1]:
                free.add((j, k))
    full = PatternSpace(n - d, r, frozenset(free), kind="two-step-full")
    ul = PatternSpace(
        q, m, frozenset((j, k) for (j, k) in free if j <= q and k <= m), "hom(V/S,Q)"
    )
    ur = PatternSpace(
        q, d, frozenset((j, k - m) for (j, k) in free if j <= q and k > m), "hom(S,Q)"
    )
    lr = PatternSpace(
        m,
        d,
        frozenset((j - q, k - m) for (j, k) in free if j > q and k > m),
        "hom(S,V/S)",
    )
    return TwoStepModel(d, r, n, eta, full, (ul, ur, lr))


def blocks_of(model: TwoStepModel) -> tuple[PatternSpace, PatternSpace, PatternSpace]:
    """The (01), (02), (12) blocks; each equals hat_X of the substring partition."""
    return model.blocks


def tangent_equations(
    lam: Partition, f_src: FlagModel, f_dst: FlagModel
) -> list[tuple[int, ...]]:
    """Defining equations of a Schubert tangent space: the maps phi with
    phi(span of first l source-flag vectors) inside span of first lam_l
    destination-flag vectors, on the row-major vectorized (n-r) x r grid.
    One row per source vector l and destination coordinate c > lam_l.
    """
    r, cap = lam.r, lam.cap
    if f_src.size != r or f_dst.size != cap:
        raise ValueError(
            f"flag sizes {(f_src.size, f_dst.size)} do not match lam in {r}x{cap}"
        )
    p = f_dst.p
    ambient = cap * r
    rows = []
    winv = f_dst.inverse
    for l in range(1, r + 1):
        v = f_src.vector(l)
        for c in range(lam.parts[l - 1] + 1, cap + 1):
            row = [0] * ambient
            for a in range(1, cap + 1):
                coeff = winv.data[c - 1][a - 1]
                if coeff:
                    for b in range(1, r + 1):
                        row[(a - 1) * r + (b - 1)] = coeff * v[b - 1] % p
            rows.append(tuple(row))
    return rows


def X_from_flags(lam: Partition, f_src: FlagModel, f_dst: FlagModel) -> Subspace:
    """The tangent space cut out by ``tangent_equations``, as a subspace;
    its dimension is |lam| for every pair of flags."""
    p = f_dst.p if lam.cap else f_src.p
    rows = tangent_equations(lam, f_src, f_dst)
    space = Subspace.from_equations(rows, lam.cap * lam.r, p)
    if space.dim != lam.weight:
        raise ValueError(
            f"constraint system has nullity {space.dim}, not |lam| = {lam.weight}: "
            "both flags must be invertible over the same prime field"
        )
    return space


def tangents_with_flags(
    lams: Sequence[Partition], flag_pairs: Sequence[tuple[FlagModel, FlagModel]]
) -> list[list[tuple[int, ...]]]:
    """One tangent equation list per class, from explicitly given (src, dst) flags."""
    if len(lams) != len(flag_pairs):
        raise ValueError("one flag pair per partition required")
    return [tangent_equations(lam, fs, fd) for lam, (fs, fd) in zip(lams, flag_pairs)]


def _random_flag_pair(
    r: int, cap: int, seed: int, p: int
) -> tuple[FlagModel, FlagModel]:
    src = FlagModel.random(r, random.Random(derive_seed(seed, "src")), p)
    dst = FlagModel.random(cap, random.Random(derive_seed(seed, "dst")), p)
    return src, dst


def generic_tangents(
    lams: Sequence[Partition], seed: int = 0, p: int = DEFAULT_PRIME
) -> list[list[tuple[int, ...]]]:
    """Tangent equations from independent seeded random flags, one list per class."""
    _common_box(lams)
    check_prime(p)
    pairs = [
        _random_flag_pair(lam.r, lam.cap, derive_seed(seed, "tangents", i), p)
        for i, lam in enumerate(lams)
    ]
    return tangents_with_flags(lams, pairs)


def _common_box(lams: Sequence[Partition]) -> tuple[int, int]:
    if not lams:
        raise ValueError("need at least one partition")
    r, cap = lams[0].r, lams[0].cap
    if any(lam.r != r or lam.cap != cap for lam in lams):
        raise ValueError("all partitions must share the same rectangle")
    return r, cap


class TransversalityReport(Record):
    """Outcome of the randomized tangent-intersection test.

    expected_dim is the virtual dimension and may be negative; the product
    of the classes is nonzero exactly when some trial achieves it.
    """

    __slots__ = ("nonzero", "achieved_dim", "expected_dim")

    def __init__(self, nonzero: bool, achieved_dim: int, expected_dim: int) -> None:
        setfield(self, "nonzero", nonzero)
        setfield(self, "achieved_dim", achieved_dim)
        setfield(self, "expected_dim", expected_dim)
        setfield(self, "_key", (nonzero, achieved_dim, expected_dim))


def transversality_verdict(
    lams: Sequence[Partition],
    seed: int = 0,
    trials: int = 3,
    p: int = DEFAULT_PRIME,
) -> TransversalityReport:
    """Decide vanishing of the class product by seeded exact intersections."""
    r, cap = _common_box(lams)
    check_prime(p)
    if trials < 1:
        raise ValueError("need at least one trial")
    s = len(lams)
    expected = sum(lam.weight for lam in lams) - (s - 1) * r * cap
    achieved = None
    for t in range(trials):
        equations = generic_tangents(lams, derive_seed(seed, "trial", t), p)
        stacked = [row for rows in equations for row in rows]
        dim = r * cap - len(rref(stacked, r * cap, p)[1])
        achieved = dim if achieved is None else min(achieved, dim)
        if achieved == expected:
            break  # cannot go lower: the virtual dimension is a hard floor
    return TransversalityReport(achieved == expected, achieved, expected)


def _flag_echelon(v: Subspace, flag: FlagModel) -> tuple[Rows, tuple[int, ...]]:
    """RREF of V's basis in flag coordinates, last coordinate first.

    A row with pivot column k has its last nonzero flag coordinate at
    flag vector n - k, so it is a vector of V that enters at step n - k;
    the rows with pivots >= n - l span V intersect flag step l.
    """
    if v.ambient_dim != flag.size:
        raise ValueError("subspace and flag live in different ambient spaces")
    dual = flag.inverse.data[::-1]
    coords = [
        tuple(sum(a * x for a, x in zip(drow, vec)) for drow in dual) for vec in v.basis
    ]
    return rref(coords, flag.size, flag.p)


def schubert_position(v: Subspace, flag: FlagModel) -> StepString:
    """The 01-string recording where dim(V intersect flag step) jumps."""
    n = flag.size
    entered = {n - k for k in _flag_echelon(v, flag)[1]}
    word = "".join("1" if l in entered else "0" for l in range(1, n + 1))
    return StepString(word, 1)


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


def opposite_cells(
    free: frozenset[tuple[int, int]], d: int, r: int, n: int
) -> frozenset[tuple[int, int]]:
    """Flip a two-step pattern 180 degrees within each of its three blocks.

    This is the pattern of the same position relative to the opposite
    coordinate flag, drawn in the first flag's coordinates.
    """
    q, m = n - r, r - d
    flipped = set()
    for (j, k) in free:
        if j <= q and k <= m:
            flipped.add((q + 1 - j, m + 1 - k))
        elif j <= q:
            flipped.add((q + 1 - j, m + (d + 1 - (k - m))))
        else:
            flipped.add((q + (m + 1 - (j - q)), m + (d + 1 - (k - m))))
    return frozenset(flipped)


def render_pattern(ps: PatternSpace, fill: str = "*", empty: str = ".") -> str:
    """One text row per grid row; free cells as ``fill``."""
    return "\n".join(
        "".join(fill if (a, b) in ps.free else empty for b in range(1, ps.cols + 1))
        for a in range(1, ps.rows + 1)
    )


def render_cells(
    cell_layers: Sequence[frozenset[tuple[int, int]]],
    d: int,
    r: int,
    n: int,
    symbols: str = "*+",
    overlap: str = "#",
    empty: str = ".",
) -> str:
    """Overlay several two-step cell sets on one (n-d) x r grid.

    The absent lower-left block renders as spaces; a cell covered by more
    than one layer renders as the overlap character.
    """
    q, m = n - r, r - d
    lines = []
    for j in range(1, n - d + 1):
        row = []
        for k in range(1, r + 1):
            if j > q and k <= m:
                row.append(" ")
                continue
            hits = [i for i, cells in enumerate(cell_layers) if (j, k) in cells]
            if not hits:
                row.append(empty)
            elif len(hits) == 1:
                row.append(symbols[hits[0] % len(symbols)])
            else:
                row.append(overlap)
        lines.append("".join(row))
    return "\n".join(lines)


def render_overlay(
    first: StepString, second: StepString, d: int, r: int, n: int
) -> str:
    """Two-class block table: the first class's pattern overlaid with the
    second class's pattern relative to the opposite flag (flipped blocks)."""
    cells1 = hat_Y(first, d, r, n).full.free
    cells2 = opposite_cells(hat_Y(second, d, r, n).full.free, d, r, n)
    return render_cells([cells1, cells2], d, r, n)


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
    check_prime(p)
    model = hat_Y(sigma, d, r, n)
    q, m = n - r, r - d
    rng = random.Random(derive_seed(seed, "two-step", sigma.word))
    sizes = (q, m, d)
    starts = (0, q, q + m)

    def block_index(i: int) -> int:
        return 0 if i < q else (1 if i < q + m else 2)

    while True:
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if block_index(i) > block_index(j):
                    entries[i][j] = rng.randrange(p)
        ok = True
        for bi in range(3):
            lo = starts[bi]
            block = [
                [rng.randrange(p) for _ in range(sizes[bi])] for _ in range(sizes[bi])
            ]
            bm = Mat(tuple(tuple(row) for row in block), p)
            if sizes[bi] and bm.rank() != sizes[bi]:
                ok = False
                break
            for i in range(sizes[bi]):
                for j in range(sizes[bi]):
                    entries[lo + i][lo + j] = block[i][j]
        if ok:
            break
    g = Mat(tuple(tuple(row) for row in entries), p)
    ginv = g.inverse()

    ambient = (n - d) * r
    vectors = []
    for (j, k) in sorted(model.full.free):
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
    if translate.dim != model.dim:
        raise RuntimeError(
            f"translate has dimension {translate.dim}, "
            f"not the cell dimension {model.dim}"
        )
    return translate
