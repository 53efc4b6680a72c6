"""Coordinate models of Schubert tangent spaces and transversality verdicts.

A coordinate tangent pattern is its set of free cells: a frozenset of
1-based (row, col) pairs.  The grid it lives on is fixed by the shape the
caller already holds.

One-step case: the tangent space to the Grassmannian Gr(r, n) at a fixed
r-plane is Hom(plane, quotient), drawn as an (n-r) x r grid (source index
as column).  The tangent space to the Schubert variety attached to a
partition lam and a pair of flags is the subspace of maps phi with
phi(source step l) inside destination step lam_l; with standard flags the
free cells of column j are the topmost lam_j, a staircase pattern
(``hat_X``).

Two-step case: positions on the flag manifold of nested (d, r)-planes in
n-space are 012-strings; the tangent model is a three-block grid (the
lower-left block is absent) whose free cells are read off the
position-sorting permutation eta of the string (``hat_Y``, ``eta_word``).
Its blocks are the ``hat_X`` patterns of the (0,1), (0,2) and (1,2)
substrings: the tangent space splits into three one-step patterns.

A Schubert tangent space is held as its defining equations
(``tangent_equations``).  Intersecting tangent spaces stacks their
equations: the intersection dimension is r * (n-r) minus the rank of the
stack, and a basis is computed only where a vector is needed.  A
``FlagModel`` runs the forward half of ``Mat.inverse`` on construction,
as its invertibility check, and finishes the inverse the first time it
is read.  The equations read the destination flags' inverses, and
``schubert_position`` and the two-class cells read source flags', so the
stacked system of three or more classes finishes no source flag.
``schubert_position`` reads a subspace's jumps off the pivot columns of
one forward elimination (``exactla._echelon``) of its basis in flag
coordinates.  Only random flags are drawn here; the coordinate flags the
paper's lemmas start from (standard, opposite) and flag steps as
subspaces are built by the tests that check those lemmas
(``tests/_twostep.py``).

Vanishing of a product of Schubert classes is decided numerically by
intersecting seeded random translates of these tangent models over a big
prime field.  ``_random_system`` draws one flag pair per class and builds
one linear system for their meet: equations on some unknowns, and a map
from its solution space back to the grid.  The verdict reads the
dimension (unknowns minus rank), and the kernel descent
(``hornkit.witness``) the mapped-back nullspace.  For three or more
classes the unknowns are the grid cells and the equations are the
classes' stacked tangent equations.  Two classes need no equations: in
coordinates read off the Bruhat cells of the two flag pairs' relative
positions (``exactla._bruhat_pivots``), both tangent spaces are
coordinate patterns, so their meet is spanned by the cells free for both
(``_common_cells``), exactly and at every prime.  The product is
nonzero exactly when the intersection dimension equals the (possibly
negative) virtual dimension sum |lam_i| - (s-1) * r * (n-r).  An
intersection can never fall below the virtual dimension, and random
special position only inflates it, so the minimum over a few trials
decides exactly with overwhelming probability.

``transversality_verdict(lams, r, n)`` is the one numeric decider of the
library, the CLI and the scripts; its ``TransversalityReport`` writes the
CLI's numeric document itself (``to_json_dict``).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from operator import mul

from ._record import Record, integer, setfield
from .exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    _bruhat_pivots,
    _echelon,
    check_prime,
    derive_seed,
    random_matrix,
)
from .strings import Partition, StepString, _check_box

__all__ = [
    "FlagModel",
    "hat_X",
    "hat_Y",
    "tangent_equations",
    "X_from_flags",
    "generic_tangents",
    "tangents_with_flags",
    "TransversalityReport",
    "transversality_verdict",
    "schubert_position",
    "eta_word",
    "opposite_cells",
    "render_pattern",
    "render_cells",
    "render_overlay",
]


class FlagModel(Record):
    """A complete flag on F_p^m: step l is the span of the first l columns.

    Construction runs the forward half of ``Mat.inverse`` (the echelon of
    [M | I]) as the invertibility check and keeps that echelon; the first
    read of ``inverse`` (flag coordinates of the standard basis, for
    ``tangent_equations`` and ``schubert_position``) finishes it and keeps
    the inverse instead.  A flag whose inverse is never read pays for no
    back-substitution.  Equality, hash and repr are those of the matrix
    alone.
    """

    __slots__ = ("matrix", "_forward", "_inverse")

    def __init__(self, matrix: Mat) -> None:
        if matrix.ncols != matrix.nrows:
            raise ValueError("flag matrix must be square")
        try:
            echelon = matrix._start_inverse()
        except ValueError:
            raise ValueError("flag matrix must be invertible") from None
        Record.__init__(self, matrix)
        setfield(self, "_forward", echelon)
        setfield(self, "_inverse", None)

    @property
    def inverse(self) -> Mat:
        """The inverse matrix: row c gives the c-th flag coordinate."""
        if self._inverse is None:
            setfield(self, "_inverse", self.matrix._finish_inverse(self._forward))
            setfield(self, "_forward", None)
        return self._inverse

    @property
    def size(self) -> int:
        return self.matrix.nrows

    @property
    def p(self) -> int:
        return self.matrix.p

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
        if not 1 <= l <= self.size:
            raise ValueError(f"flag vector {l} outside 1..{self.size}")
        return self.matrix.column(l - 1)


def hat_X(lam: Partition) -> frozenset[tuple[int, int]]:
    """Coordinate tangent pattern on the cap x r grid: column j is free in
    its topmost lam_j rows."""
    return frozenset(
        (a, b) for b, part in enumerate(lam.parts, start=1) for a in range(1, part + 1)
    )


def eta_word(sigma: StepString) -> tuple[int, ...]:
    """Positions of the '0's, then '1's, ... then 'k's — a permutation of 1..n."""
    return tuple(
        pos for letter in range(sigma.k + 1) for pos in sigma.positions(letter)
    )


def hat_Y(sigma: StepString, d: int, r: int, n: int) -> frozenset[tuple[int, int]]:
    """Two-step tangent pattern of a 012-string.

    The grid has n-d rows (quotient directions, then middle directions) and
    r columns (middle directions, then inner-plane directions); the
    lower-left middle-by-middle block is not part of the model.  A cell is
    free exactly when its row's position in the string precedes its
    column's position (the eta criterion).  The three blocks Hom(V/S,Q),
    Hom(S,Q) and Hom(S,V/S) (upper left, upper right, lower right) are the
    ``hat_X`` patterns of the (0,1), (0,2) and (1,2) substrings.
    """
    if sigma.k != 2:
        raise ValueError("two-step model needs a 012-string")
    d, r, n = integer(d), integer(r), integer(n)
    if not 0 < d < r <= n:
        raise ValueError(f"need 0 < d < r <= n, got {(d, r, n)}")
    if sigma.counts != (n - r, r - d, d):
        raise ValueError(
            f"letter counts {sigma.counts} do not match shape {(n - r, r - d, d)}"
        )
    eta = eta_word(sigma)
    q, m = n - r, r - d  # quotient rows, middle size
    return frozenset(
        (j, k)
        for j in range(1, n - d + 1)
        for k in range(1, r + 1)
        if not (j > q and k <= m)  # lower-left block: not in the model
        and eta[j - 1] < eta[q + k - 1]
    )


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
    if f_src.p != p:
        raise ValueError(f"flags over different prime fields: F_{f_src.p} and F_{p}")
    winv = f_dst.inverse.data
    rows = []
    for l, part in enumerate(lam.parts, start=1):
        v = f_src.vector(l)
        # the c-th destination-flag coordinate of phi(v), for c > lam_l:
        # cell (a, b) carries winv[c][a] * v[b]
        for w in winv[part:]:
            rows.append(tuple([a * x % p for a in w for x in v]))
    return rows


def X_from_flags(lam: Partition, f_src: FlagModel, f_dst: FlagModel) -> Subspace:
    """The tangent space cut out by ``tangent_equations``, as a subspace;
    its dimension is |lam| for every pair of flags."""
    rows = tangent_equations(lam, f_src, f_dst)
    space = Subspace.from_equations(rows, lam.cap * lam.r, f_src.p)
    if space.dim != lam.weight:
        raise ValueError(
            f"constraint system has nullity {space.dim}, not |lam| = {lam.weight}: "
            "both flags must be invertible over the same prime field"
        )
    return space


def tangents_with_flags(
    lams: Sequence[Partition], flag_pairs: Sequence[tuple[FlagModel, FlagModel]]
) -> list[tuple[int, ...]]:
    """The classes' tangent equations from given (src, dst) flags, stacked in order."""
    if len(lams) != len(flag_pairs):
        raise ValueError("one flag pair per partition required")
    return [row for lam, fp in zip(lams, flag_pairs) for row in tangent_equations(lam, *fp)]


def _random_flags(
    lams: Sequence[Partition], labels: Sequence[tuple], p: int
) -> tuple[tuple[FlagModel, FlagModel], ...]:
    """A random (src, dst) flag pair per class, seeded by labels[i] and
    "src" or "dst"."""
    return tuple(
        (
            FlagModel.random(lam.r, random.Random(derive_seed(*label, "src")), p),
            FlagModel.random(lam.cap, random.Random(derive_seed(*label, "dst")), p),
        )
        for lam, label in zip(lams, labels)
    )


def _system(
    lams: Sequence[Partition], pairs: Sequence[tuple[FlagModel, FlagModel]]
) -> tuple[int, list[tuple[int, ...]], Callable[[Subspace], Subspace]]:
    """The meet of the classes' tangent spaces as (ncols, rows, to_grid):
    its solution space is the nullspace of rows (reduced mod p) on ncols
    unknowns, and to_grid carries that nullspace to the row-major
    (n-r) x r grid, where it is the meet.

    Two classes are put in coordinates adapted to both flag pairs, where
    the meet is a coordinate subspace and needs no equations; see
    ``_common_cells``.  Otherwise the unknowns are the grid cells and the
    rows are the classes' stacked tangent equations.
    """
    ambient = lams[0].r * lams[0].cap
    if len(lams) != 2:
        return ambient, tangents_with_flags(lams, pairs), lambda space: space
    cells = _common_cells(lams, pairs)

    def to_grid(space: Subspace) -> Subspace:
        vectors = [
            [sum(map(mul, coeffs, column)) for column in zip(*cells)]
            for coeffs in space.basis
        ]
        return Subspace.from_spanning(vectors, ambient, space.p)

    return len(cells), [], to_grid


def _common_cells(
    lams: Sequence[Partition], pairs: Sequence[tuple[FlagModel, FlagModel]]
) -> list[tuple[int, ...]]:
    """A basis of the meet of two tangent spaces, as row-major grid vectors.

    With psi = W1^-1 phi V1, the first tangent space is the ``hat_X``
    pattern of lam1 (cell (a, b) free when a < lam1_b, 0-based) and the
    second asks M psi K to lie in the pattern of lam2, for M = W2^-1 W1
    and K = V1^-1 V2.  Upper-triangular factors on either side of psi keep
    a pattern, since parts weakly increase.  ``_bruhat_pivots`` on M's
    columns, each read bottom-up, gives an upper-triangular A with column a
    of M A last nonzero in row row_of[a], and on K's rows, bottom row
    first, an upper-triangular R with row b of R K first nonzero in column
    col_of[b].  Clearing above and right of those entries takes more such
    factors to scaled permutations S_M = R_M M A and S_K = R K A_K
    (GL = B W B).  So for psi = A E_ab R, which is in the first pattern
    exactly when E_ab is, M psi K = R_M^-1 (S_M E_ab S_K) A_K^-1 is in the
    second exactly when cell (row_of[a], col_of[b]) is free for lam2, and
    W1 A E_ab R V1^-1 over the cells that pass both tests spans the meet,
    exactly, at every prime.  The pivots carry W1 A's columns and
    R V1^-1's rows.
    """
    (lam1, lam2), ((v1, w1), (v2, w2)) = lams, pairs
    p, cap, r = v1.p, lam1.cap, lam1.r
    columns = [col[::-1] for col in zip(*w2.inverse.mul(w1.matrix).data)]
    row_of, left = [0] * cap, [[]] * cap  # left[a]: column a of W1 A
    for c, a, carried in _bruhat_pivots(columns, list(zip(*w1.matrix.data)), p):
        row_of[a], left[a] = cap - 1 - c, carried
    rows = v1.inverse.mul(v2.matrix).data[::-1]
    col_of, right = [0] * r, [[]] * r  # right[b]: row b of R V1^-1
    for c, i, carried in _bruhat_pivots(rows, v1.inverse.data[::-1], p):
        col_of[r - 1 - i], right[r - 1 - i] = c, carried
    parts1, parts2 = lam1.parts, lam2.parts
    return [
        tuple([x * y % p for x in left[a] for y in right[b]])
        for b in range(r)
        for a in range(parts1[b])
        if row_of[a] < parts2[col_of[b]]
    ]


def _random_system(
    lams: Sequence[Partition], labels: Sequence[tuple], p: int
) -> tuple[
    tuple[tuple[FlagModel, FlagModel], ...],
    int,
    list[tuple[int, ...]],
    Callable[[Subspace], Subspace],
]:
    """Draw the flags with ``_random_flags`` and return them with their
    ``_system``: the one system the verdict and the descent both solve."""
    pairs = _random_flags(lams, labels, p)
    return (pairs, *_system(lams, pairs))


def generic_tangents(
    lams: Sequence[Partition], seed: int = 0, p: int = DEFAULT_PRIME
) -> list[tuple[int, ...]]:
    """Stacked tangent equations from independent seeded random flags.  The
    empty product is the unit class: the whole grid, with no equations."""
    seed = integer(seed)
    check_prime(p)
    if not lams:
        return []
    _check_box(lams, lams[0].r, lams[0].n)
    pairs = _random_flags(lams, _tangent_labels(seed, len(lams)), p)
    return tangents_with_flags(lams, pairs)


def _tangent_labels(seed: int, s: int) -> list[tuple[int]]:
    """The flag labels of ``generic_tangents`` and of one verdict trial."""
    return [(derive_seed(seed, "tangents", i),) for i in range(s)]


def _check_trials(trials: int) -> int:
    trials = integer(trials)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return trials


class TransversalityReport(Record):
    """Outcome of the randomized tangent-intersection test.

    expected_dim is the virtual dimension and may be negative; the product
    of the classes is nonzero exactly when some trial achieves it.
    """

    __slots__ = ("nonzero", "achieved_dim", "expected_dim")

    def to_json_dict(self) -> dict:
        """The CLI's numeric method document."""
        return {
            "nonzero": self.nonzero,
            "method": "numeric",
            "violated": None,
            "achieved_dim": self.achieved_dim,
            "expected_dim": self.expected_dim,
        }


def transversality_verdict(
    lams: Sequence[Partition],
    r: int,
    n: int,
    seed: int = 0,
    trials: int = 3,
    p: int = DEFAULT_PRIME,
) -> TransversalityReport:
    """Decide vanishing of the class product on Gr(r, n) by seeded exact
    intersections.  The empty product is the unit class: nonzero, with
    the whole grid as its meet, and no flag is drawn.

    Each trial's meet has dimension at least the virtual dimension
    (``expected``) and at least 0, so the trials stop once the least
    dimension seen reaches the larger of the two: no further trial can
    change the report.  With ``expected`` negative that is a meet of
    dimension 0: the report is "zero" whatever the trials, and one meet
    of dimension 0 already gives the least dimension it states."""
    r, n = _check_box(lams, r, n)
    seed = integer(seed)
    check_prime(p)
    trials = _check_trials(trials)
    s = len(lams)
    expected = sum(lam.weight for lam in lams) - (s - 1) * r * (n - r)
    if not lams:
        return TransversalityReport(True, expected, expected)
    achieved = None
    for t in range(trials):
        labels = _tangent_labels(derive_seed(seed, "trial", t), s)
        _, ncols, rows, _ = _random_system(lams, labels, p)
        dim = ncols - len(_echelon(rows, ncols, p))
        achieved = dim if achieved is None else min(achieved, dim)
        if achieved == max(expected, 0):
            break  # cannot go lower: no meet is below either floor
    return TransversalityReport(achieved == expected, achieved, expected)


def schubert_position(v: Subspace, flag: FlagModel) -> StepString:
    """The 01-string recording where dim(V intersect flag step) jumps.

    V's basis in flag coordinates, last coordinate first, is echelonized:
    a pivot in column k marks a vector of V whose last nonzero flag
    coordinate is at flag vector n - k, so it enters at step n - k.
    Only the pivot columns are read, so nothing is back-substituted.
    """
    if v.ambient_dim != flag.size or v.p != flag.p:
        raise ValueError("subspace and flag live in different ambient spaces")
    n, p = flag.size, flag.p
    dual = flag.inverse.data[::-1]
    coords = [[sum(map(mul, drow, vec)) % p for drow in dual] for vec in v.basis]
    entered = {n - k for k, _ in _echelon(coords, n, p)}
    word = "".join("1" if l in entered else "0" for l in range(1, n + 1))
    return StepString(word, 1)


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


def render_pattern(lam: Partition) -> str:
    """The ``hat_X`` pattern of lam as '*', on the cap x r grid."""
    return render_cells([hat_X(lam)], lam.r, lam.r, lam.n, symbols="*")


def render_cells(
    cell_layers: Sequence[frozenset[tuple[int, int]]],
    d: int,
    r: int,
    n: int,
    symbols: str = "*+",
) -> str:
    """Overlay several two-step cell sets on one (n-d) x r grid.

    The absent lower-left block renders as spaces, an empty cell as '.',
    and a cell covered by more than one layer as '#'.
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
                row.append(".")
            elif len(hits) == 1:
                row.append(symbols[hits[0] % len(symbols)])
            else:
                row.append("#")
        lines.append("".join(row))
    return "\n".join(lines)


def render_overlay(
    first: frozenset[tuple[int, int]],
    second: frozenset[tuple[int, int]],
    d: int,
    r: int,
    n: int,
) -> str:
    """Two-class block table: the first pattern overlaid with the second
    pattern relative to the opposite flag (flipped blocks)."""
    return render_cells([first, opposite_cells(second, d, r, n)], d, r, n)

