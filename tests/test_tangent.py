"""Tangent-space models: patterns, flags, translates, transversality."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _twostep
from _twostep import (
    all_step_words,
    cell_dimension,
    contains_subspace,
    flag_step,
    induced_flag,
    minimal_coordinate_flag,
    opposite_flag,
    project_j,
    quotient_pattern,
    standard_flag,
    two_step_translate,
)
from hornkit import tangent
from hornkit.exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    derive_seed,
    intersect,
    random_matrix,
    rref,
)
from hornkit.strings import (
    Partition,
    StepString,
    all_partitions,
    partition_to_string,
    string_to_partition,
    substring_uv,
)
from hornkit.tangent import (
    FlagModel,
    X_from_flags,
    eta_word,
    generic_tangents,
    hat_X,
    hat_Y,
    opposite_cells,
    render_cells,
    render_overlay,
    render_pattern,
    schubert_position,
    tangent_equations,
    tangents_with_flags,
    transversality_verdict,
)

P = DEFAULT_PRIME


def _pattern_subspace(cells, rows, cols, p=P):
    """The coordinate subspace of F_p^(rows*cols) spanned by the free cells,
    vectorized row-major."""
    ambient = rows * cols
    vectors = []
    for (a, b) in sorted(cells):
        vec = [0] * ambient
        vec[(a - 1) * cols + (b - 1)] = 1
        vectors.append(tuple(vec))
    return Subspace.from_spanning(vectors, ambient, p)


def _draw(cells, rows, cols):
    """Free cells as '*' on a rows x cols grid, as ``render_pattern`` draws."""
    return render_cells([cells], cols, cols, rows + cols, symbols="*")


# --- hat_X pattern fixtures ---------------------------------------------------


def test_hat_X_printed_fixture():
    lam = Partition((0, 1, 3, 3), 5)
    cells = hat_X(lam)
    assert render_pattern(lam) == "\n".join(
        [".***",
         "..**",
         "..**",
         "....",
         "...."]
    )
    assert tuple(sum(b == j for _, b in cells) for j in range(1, 5)) == (0, 1, 3, 3)
    assert len(cells) == 7


def test_hat_X_extremes():
    assert hat_X(Partition((0, 0), 3)) == frozenset()
    full = hat_X(Partition((3, 3), 3))
    assert full == frozenset((a, b) for a in (1, 2, 3) for b in (1, 2))


def test_opposite_pattern_printed_fixture():
    # mu = (3,3,3,5) drawn against the opposite flag: the grid rotates 180°
    cells = opposite_cells(hat_X(Partition((3, 3, 3, 5), 5)), 4, 4, 9)
    assert _draw(cells, 5, 4) == "\n".join(
        ["*...",
         "*...",
         "****",
         "****",
         "****"]
    )


def test_pattern_subspace_roundtrip():
    cells = hat_X(Partition((1, 2), 3))
    sub = _pattern_subspace(cells, 3, 2)
    assert sub.dim == len(cells)
    # row-major vectorization: cell (a, b) -> coordinate (a-1)*cols + (b-1)
    vec = [0] * 6
    vec[(1 - 1) * 2 + (1 - 1)] = 1
    assert contains_subspace(sub, Subspace.from_spanning([vec], 6, P))


# --- X_from_flags and tangent equations ----------------------------------------


def test_X_standard_flags_equals_pattern():
    lam = Partition((0, 1, 3, 3), 5)
    std_src = standard_flag(4, P)
    std_dst = standard_flag(5, P)
    assert X_from_flags(lam, std_src, std_dst) == _pattern_subspace(hat_X(lam), 5, 4)


def test_X_opposite_flags_equals_flipped_pattern():
    mu = Partition((3, 3, 3, 5), 5)
    opp_src = opposite_flag(4, P)
    opp_dst = opposite_flag(5, P)
    flipped = opposite_cells(hat_X(mu), 4, 4, 9)
    assert X_from_flags(mu, opp_src, opp_dst) == _pattern_subspace(flipped, 5, 4)


def test_opposite_intersection_printed_fixture():
    # standard vs opposite: the printed intersection is cells (3,3) and (3,4)
    lam = Partition((0, 1, 3, 3), 5)
    mu = Partition((3, 3, 3, 5), 5)
    a = X_from_flags(lam, standard_flag(4, P), standard_flag(5, P))
    b = X_from_flags(mu, opposite_flag(4, P), opposite_flag(5, P))
    meet = intersect([a, b])
    assert meet == _pattern_subspace({(3, 3), (3, 4)}, 5, 4)
    assert meet.dim == 2  # codim 18, expected codim 19


def test_X_dim_equals_weight_exhaustive():
    # rank-nullity across random flags, exhaustive boxes with r + cap <= 8
    for r in range(0, 9):
        for cap in range(0, 9 - r):
            for lam in all_partitions(r, cap):
                seed = derive_seed("dim-check", r, cap, lam.parts)
                src = FlagModel.random(r, random.Random(seed), P)
                dst = FlagModel.random(cap, random.Random(seed + 1), P)
                assert X_from_flags(lam, src, dst).dim == lam.weight


@st.composite
def _classes_with_flags(draw):
    """s classes in one box, each with its own random flag pair; sometimes
    every class is the full box, whose tangent has no equations."""
    r, cap = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    s = draw(st.integers(1, 3))
    p = draw(st.sampled_from((7, P)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        lams = [Partition((cap,) * r, cap)] * s
    else:
        part = st.lists(st.integers(0, cap), min_size=r, max_size=r)
        lams = [Partition(sorted(draw(part)), cap) for _ in range(s)]
    pairs = [(FlagModel.random(r, rng, p), FlagModel.random(cap, rng, p)) for _ in lams]
    return lams, pairs, p


@given(_classes_with_flags())
@settings(max_examples=80, deadline=None)
def test_stacked_equations_cut_out_the_intersection(case):
    lams, pairs, p = case
    r, cap = lams[0].r, lams[0].cap
    stacked = [
        row for lam, fp in zip(lams, pairs) for row in tangent_equations(lam, *fp)
    ]
    assert tangents_with_flags(lams, pairs) == stacked
    spaces = [X_from_flags(lam, *fp) for lam, fp in zip(lams, pairs)]
    assert Subspace.from_equations(stacked, r * cap, p) == intersect(spaces)


def _nested_loop_equations(lam, f_src, f_dst):
    """The reference: one zero row per equation, filled cell by cell."""
    r, cap, p = lam.r, lam.cap, f_dst.p
    winv = f_dst.inverse
    rows = []
    for l in range(1, r + 1):
        v = f_src.vector(l)
        for c in range(lam.parts[l - 1] + 1, cap + 1):
            row = [0] * (cap * r)
            for a in range(1, cap + 1):
                coeff = winv.data[c - 1][a - 1]
                if coeff:
                    for b in range(1, r + 1):
                        row[(a - 1) * r + (b - 1)] = coeff * v[b - 1] % p
            rows.append(tuple(row))
    return rows


@given(_classes_with_flags())
@settings(max_examples=80, deadline=None)
def test_tangent_equations_match_nested_loops(case):
    lams, pairs, _ = case
    for lam, fp in zip(lams, pairs):
        assert tangent_equations(lam, *fp) == _nested_loop_equations(lam, *fp)


def _reference_verdict(lams, seed, trials, p):
    """The verdict read off full reduced row echelon forms: per trial,
    r * cap minus the number of pivots of the stacked equations."""
    r, cap = lams[0].r, lams[0].cap
    expected = sum(lam.weight for lam in lams) - (len(lams) - 1) * r * cap
    achieved = None
    for t in range(trials):
        rows = generic_tangents(lams, derive_seed(seed, "trial", t), p)
        dim = r * cap - len(rref(rows, r * cap, p)[1])
        achieved = dim if achieved is None else min(achieved, dim)
        if achieved == expected:
            break
    return tangent.TransversalityReport(achieved == expected, achieved, expected)


@st.composite
def _verdict_cases(draw):
    """s = 2..4 classes in a box of at most 3 x 3 over a small or a large
    prime; small primes make rank drops common."""
    r, cap = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s = draw(st.integers(2, 4))
    part = st.lists(st.integers(0, cap), min_size=r, max_size=r)
    lams = tuple(Partition(sorted(draw(part)), cap) for _ in range(s))
    p = draw(st.sampled_from((2, 3, 97, DEFAULT_PRIME)))
    return lams, draw(st.integers(0, 2**32)), draw(st.integers(1, 3)), p


@given(_verdict_cases())
@settings(max_examples=300, deadline=None)
def test_verdict_matches_reduced_row_echelon_reference(case):
    lams, seed, trials, p = case
    r, n = lams[0].r, lams[0].n
    assert transversality_verdict(lams, r, n, seed, trials, p) == _reference_verdict(
        lams, seed, trials, p
    )


@st.composite
def _two_class_systems(draw):
    """Two classes in a box of at most 5 x 5 with their ``_system``: on
    its own seeded flags, on standard flags for both classes, or on a
    second pair that permutes the first pair's flag vectors, which puts
    the flags in special relative position."""
    r, cap = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    part = st.lists(st.integers(0, cap), min_size=r, max_size=r)
    lams = tuple(Partition(sorted(draw(part)), cap) for _ in range(2))
    p = draw(st.sampled_from((2, 3, 5, 97, P)))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("seeded", "standard", "permuted")))
    if kind == "seeded":
        labels = [(rng.getrandbits(64), i) for i in range(2)]
        pairs, *system = tangent._random_system(lams, labels, p)
        return lams, pairs, system
    if kind == "standard":
        pair = (standard_flag(r, p), standard_flag(cap, p))
        pairs = (pair, pair)
    else:
        src, dst = FlagModel.random(r, rng, p), FlagModel.random(cap, rng, p)
        perms = [list(range(m)) for m in (r, cap)]
        for perm in perms:
            rng.shuffle(perm)
        moved = tuple(
            FlagModel(Mat(tuple(tuple(row[j] for j in perm) for row in f.matrix.data), p))
            for f, perm in zip((src, dst), perms)
        )
        pairs = ((src, dst), moved)
    return lams, pairs, tangent._system(lams, pairs)


@given(_two_class_systems())
@settings(max_examples=300, deadline=None)
def test_two_class_cells_are_the_stacked_meet(case):
    """Two classes need no equations: their common cells, mapped back to
    the grid, span the solution space of the stacked tangent equations,
    and their count is r * cap minus the stacked rank."""
    lams, pairs, (ncols, rows, to_grid) = case
    r, cap, p = lams[0].r, lams[0].cap, pairs[0][0].p
    stacked = tangents_with_flags(lams, pairs)
    assert rows == []
    assert to_grid(Subspace.from_equations(rows, ncols, p)) == Subspace.from_equations(
        stacked, r * cap, p
    )
    assert ncols == r * cap - len(rref(stacked, r * cap, p)[1])


def test_generic_tangents_draws_pinned_flags():
    """The verdict's draws, written out: class i's source and destination
    flags are seeded by derive_seed(derive_seed(seed, "tangents", i), "src")
    and likewise with "dst"."""
    lams = (Partition((0, 1, 3), 3), Partition((1, 1, 2), 3), Partition((0, 2, 2), 3))
    for seed, p in ((0, P), (5, 97)):
        rows = []
        for i, lam in enumerate(lams):
            label = derive_seed(seed, "tangents", i)
            src = FlagModel.random(lam.r, random.Random(derive_seed(label, "src")), p)
            dst = FlagModel.random(lam.cap, random.Random(derive_seed(label, "dst")), p)
            rows += tangent_equations(lam, src, dst)
        assert generic_tangents(lams, seed, p) == rows


def test_flag_vector_and_step_reject_bad_indices():
    flag = FlagModel.random(3, random.Random(0), 7)
    for l in (0, -1, 4):
        with pytest.raises(ValueError, match="outside 1..3"):
            flag.vector(l)
    for l in (-1, 4, 5):
        with pytest.raises(ValueError, match="outside 0..3"):
            flag_step(flag, l)
    assert flag.vector(3) == flag.matrix.column(2)
    assert flag_step(flag, 0).dim == 0 and flag_step(flag, 3).dim == 3


def test_X_flag_size_mismatch():
    with pytest.raises(ValueError):
        X_from_flags(
            Partition((0, 1), 2), standard_flag(3, P), standard_flag(2, P)
        )


def _random_invertible(m, rng, p):
    """The rank-checked sampler that ``FlagModel.random`` replaced."""
    while True:
        mat = random_matrix(m, m, rng, p)
        if mat.rank() == m:
            return mat


def test_random_flag_draws_as_random_invertible():
    # the inverse check rejection-samples with the same draws as the rank
    # check did; p = 2 makes singular draws common
    for p in (2, 3, DEFAULT_PRIME):
        for m in range(5):
            for seed in range(20):
                flag = FlagModel.random(m, random.Random(seed), p)
                assert flag.matrix == _random_invertible(m, random.Random(seed), p)
                assert flag.matrix.mul(flag.inverse) == Mat.identity(m, p)


@pytest.mark.parametrize("m, p", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_flag_refuses_exactly_the_singular_matrices(m, p):
    # construction, not the first read of the inverse, refuses a singular
    # matrix; over F_2 and F_3 most matrices are singular
    for entries in itertools.product(range(p), repeat=m * m):
        mat = Mat(tuple(zip(*[iter(entries)] * m)), p)
        if mat.rank() == m:
            assert FlagModel(mat).inverse == mat.inverse()
        else:
            with pytest.raises(ValueError, match="^flag matrix must be invertible$"):
                FlagModel(mat)


@given(st.integers(0, 7), st.sampled_from((2, 3, 97, P)), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_flag_inverse_is_finished_on_first_read(m, p, rng):
    flag = FlagModel.random(m, rng, p)
    unread = FlagModel(flag.matrix)
    # the value does not depend on whether the inverse was read
    expected = flag.matrix.inverse()
    assert flag.inverse == expected
    assert flag.inverse is flag.inverse  # finished once, then kept
    assert flag == unread and hash(flag) == hash(unread) and repr(flag) == repr(unread)
    for copied in (pickle.loads(pickle.dumps(flag)), copy.deepcopy(flag),
                   pickle.loads(pickle.dumps(unread)), copy.deepcopy(unread)):
        assert copied == flag and copied.inverse == expected
    assert unread.inverse == expected


def test_flag_constructors_give_correct_inverses():
    for m in range(5):
        assert standard_flag(m, 7).inverse == Mat.identity(m, 7)
        opposite = opposite_flag(m, 7)
        assert opposite.inverse == opposite.matrix  # a reversal is its own inverse
    for word in ("0101", "1100", "0011"):
        flag = minimal_coordinate_flag(StepString(word, 1), 5)
        assert flag.inverse == flag.matrix.inverse()
        assert flag.matrix.mul(flag.inverse) == Mat.identity(4, 5)
    flag = FlagModel.random(5, random.Random(3), P)
    for v in (Subspace.from_spanning([flag.vector(1), (1, 0, 2, 0, 3)], 5, P),
              Subspace.from_spanning((), 5, P), Subspace.full(5, P)):
        for induced in induced_flag(flag, v):
            assert induced.inverse == induced.matrix.inverse()


def test_systems_finish_only_the_inverses_they_read():
    # the stacked equations read only destination inverses, and the two-class
    # cells only the first source's and the second destination's
    lams3 = (Partition((0, 1, 3), 3), Partition((1, 1, 2), 3), Partition((0, 2, 2), 3))
    pairs, *_ = tangent._random_system(lams3, [(0, i) for i in range(3)], P)
    assert [(src._inverse, dst._inverse is None) for src, dst in pairs] == [(None, False)] * 3
    pairs, *_ = tangent._random_system(lams3[:2], [(0, i) for i in range(2)], P)
    finished = [[f._inverse is not None for f in pair] for pair in pairs]
    assert finished == [[True, False], [False, True]]


def test_X_raises_on_flags_over_different_fields():
    # invertible mod 5 (det -7), but mod 7 the second column is twice the
    # first: a pair the nullity check would also catch
    src = FlagModel(Mat(((1, 2), (4, 1)), 5))
    with pytest.raises(ValueError, match="different prime fields"):
        X_from_flags(Partition((0, 1), 3), src, standard_flag(3, 7))


def test_mixed_primes_refused_where_the_nullity_check_misses():
    # these equations have nullity |lam| = 3 over F_7, so the nullity check
    # alone lets the pair through
    lam = Partition((0, 1, 2), 3)
    src = FlagModel.random(3, random.Random(1), 11)
    dst = FlagModel.random(3, random.Random(1), 7)
    with pytest.raises(ValueError, match="different prime fields"):
        X_from_flags(lam, src, dst)
    # a subspace over F_11 has no position against a flag over F_7
    v = Subspace.from_spanning([(1, 2, 3)], 3, 11)
    with pytest.raises(ValueError, match="different ambient spaces"):
        schubert_position(v, dst)
    with pytest.raises(ValueError, match="different ambient spaces"):
        induced_flag(dst, v)


# --- eta and hat_Y ------------------------------------------------------------


def test_eta_printed_fixture():
    assert eta_word(StepString("021010201", 2)) == (1, 4, 6, 8, 3, 5, 9, 2, 7)


def _blocks(cells, d, r, n):
    """A two-step pattern cut into its upper-left, upper-right and
    lower-right blocks, each in its own 1-based coordinates."""
    q, m = n - r, r - d
    return (
        frozenset((j, k) for (j, k) in cells if j <= q and k <= m),
        frozenset((j, k - m) for (j, k) in cells if j <= q and k > m),
        frozenset((j - q, k - m) for (j, k) in cells if j > q and k > m),
    )


def test_hat_Y_printed_fixture():
    cells = hat_Y(StepString("021010201", 2), 2, 5, 9)
    assert len(cells) == 13 == cell_dimension(StepString("021010201", 2))
    assert render_cells([cells], 2, 5, 9, symbols="*") == "\n".join(
        ["*****",
         ".**.*",
         "..*.*",
         "..*..",
         "   .*",
         "   .*",
         "   .."]
    )


def test_blocks_printed_fixture():
    b01, b02, b12 = _blocks(hat_Y(StepString("021010201", 2), 2, 5, 9), 2, 5, 9)
    assert _draw(b01, 4, 3) == "***\n.**\n..*\n..*"
    assert _draw(b02, 4, 2) == "**\n.*\n.*\n.."
    assert _draw(b12, 3, 2) == ".*\n.*\n.."
    # per-column star counts read off the printed blocks
    for block, cols, counts in ((b01, 3, (1, 2, 4)), (b02, 2, (1, 3)), (b12, 2, (0, 2))):
        assert tuple(sum(b == j for _, b in block) for j in range(1, cols + 1)) == counts


def test_hat_Y_extremes():
    # weakly increasing string: dense cell, every in-grid cell free
    dense = hat_Y(StepString("001122", 2), 2, 4, 6)
    assert len(dense) == 4 * 4 - 2 * 2
    # weakly decreasing string: the single point, no free cells
    point = hat_Y(StepString("221100", 2), 2, 4, 6)
    assert point == frozenset()


def test_blocks_equal_substring_patterns_exhaustive():
    for n in range(2, 8):
        for d in range(1, n):
            for r in range(d + 1, n + 1):
                for word in all_step_words((n - r, r - d, d)):
                    sigma = StepString(word, 2)
                    cells = hat_Y(sigma, d, r, n)
                    blocks = _blocks(cells, d, r, n)
                    for block, (u, v) in zip(blocks, ((0, 1), (0, 2), (1, 2))):
                        lam = string_to_partition(substring_uv(sigma, u, v))
                        assert block == hat_X(lam)
                    assert len(cells) == sum(map(len, blocks))
                    assert len(cells) == cell_dimension(sigma)


def test_hat_Y_count_mismatch():
    with pytest.raises(ValueError):
        hat_Y(StepString("012", 2), 2, 3, 4)


# --- minimal coordinate flags and positions ------------------------------------


def _base_planes(d, r, n):
    V = Subspace.from_spanning(
        [tuple(1 if i == j else 0 for i in range(n)) for j in range(n - r, n)], n, P
    )
    S = Subspace.from_spanning(
        [tuple(1 if i == j else 0 for i in range(n)) for j in range(n - d, n)], n, P
    )
    return V, S


def test_minimal_flag_positions_exhaustive():
    for counts in ((2, 2, 1), (1, 2, 2), (3, 1, 1), (2, 1, 2)):
        n = sum(counts)
        d = counts[2]
        r = counts[1] + counts[2]
        for word in all_step_words(counts):
            sigma = StepString(word, 2)
            flag = minimal_coordinate_flag(sigma, P)
            V, S = _base_planes(d, r, n)
            assert schubert_position(V, flag) == project_j(sigma, 2)
            assert schubert_position(S, flag) == project_j(sigma, 1)


def test_schubert_position_standard():
    V, _ = _base_planes(1, 2, 5)
    assert schubert_position(V, standard_flag(5, P)).word == "00011"


def test_schubert_position_of_flag_steps():
    rng = random.Random(11)
    flag = FlagModel.random(7, rng, P)
    V = Subspace.from_spanning(
        [flag.vector(2), flag.vector(5), flag.vector(6)], 7, P
    )
    assert schubert_position(V, flag).word == "0100110"


def _position_by_definition(v, flag):
    dims = [intersect([v, flag_step(flag, l)]).dim for l in range(flag.size + 1)]
    return "".join("1" if b > a else "0" for a, b in zip(dims, dims[1:]))


@st.composite
def _subspaces_with_flags(draw):
    """A random flag and a subspace spanned either by random vectors or by
    mixtures of a few flag vectors, which sit in special position."""
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from((7, P)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    flag = FlagModel.random(n, rng, p)
    k = draw(st.integers(0, n))
    if draw(st.booleans()):
        vectors = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
    else:
        vectors = []
        for _ in range(k):
            picks = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
            vec = [0] * n
            for l in picks:
                c = rng.randrange(1, p)
                vec = [(x + c * y) % p for x, y in zip(vec, flag.vector(l))]
            vectors.append(tuple(vec))
    return Subspace.from_spanning(vectors, n, p), flag


@given(_subspaces_with_flags())
@settings(max_examples=150, deadline=None)
def test_schubert_position_matches_definition(case):
    v, flag = case
    assert schubert_position(v, flag).word == _position_by_definition(v, flag)


# --- induced flags -------------------------------------------------------------


@given(_subspaces_with_flags())
@settings(max_examples=80, deadline=None)
def test_induced_flag_steps_are_the_meets(case):
    # step j of the flag induced on V, mapped back to ambient coordinates,
    # is V intersect the ambient flag step where V's dimension reaches j
    v, flag = case
    fv, _ = induced_flag(flag, v)
    jumps = schubert_position(v, flag).positions(1)
    for j, jump in enumerate(jumps, start=1):
        ambient = []
        for col in range(j):
            coords = fv.matrix.column(col)
            vec = [0] * v.ambient_dim
            for c, row in zip(coords, v.basis):
                vec = [(x + c * y) % v.p for x, y in zip(vec, row)]
            ambient.append(tuple(vec))
        step = Subspace.from_spanning(ambient, v.ambient_dim, v.p)
        assert step == intersect([v, flag_step(flag, jump)])


def test_induced_flag_steps_track_positions():
    rng = random.Random(23)
    flag = FlagModel.random(6, rng, P)
    V = Subspace.from_spanning(
        [flag.vector(1), flag.vector(4), flag.vector(5)], 6, P
    )
    fv, fq = induced_flag(flag, V)
    assert fv.size == 3 and fq.size == 3
    # each induced subspace-flag step, mapped back to ambient coordinates,
    # lies inside the ambient flag step where the position jumps
    pos = schubert_position(V, flag)
    pivots = [next(j for j, x in enumerate(row) if x) for row in V.basis]
    jumps = pos.positions(1)
    for l, jump in enumerate(jumps, start=1):
        for col in range(l):
            coords = fv.matrix.column(col)
            ambient = [0] * 6
            for c, row in zip(coords, V.basis):
                ambient = [(x + c * y) % P for x, y in zip(ambient, row)]
            vector = Subspace.from_spanning([ambient], 6, P)
            assert contains_subspace(flag_step(flag, jumps[col]), vector)
            assert contains_subspace(V, vector)


def test_induced_flag_whole_space():
    flag = standard_flag(4, P)
    fv, fq = induced_flag(flag, Subspace.full(4, P))
    assert fv.size == 4 and fq.size == 0
    assert fv.matrix.data == flag.matrix.data


def test_quotient_pattern_fixture():
    lam = Partition((0, 2, 3, 3, 3, 4), 4)
    rho = StepString("100110", 1)
    assert quotient_pattern(lam, rho).parts == (2, 3, 4)
    assert quotient_pattern(lam, StepString("000000", 1)) == lam
    assert quotient_pattern(lam, StepString("111111", 1)).parts == ()


# --- transversality ------------------------------------------------------------


def test_transversality_printed_pair():
    lams = (Partition((0, 1, 3, 3), 5), Partition((3, 3, 3, 5), 5))
    for seed in range(5):
        rep = transversality_verdict(lams, 4, 9, seed=seed)
        assert (rep.nonzero, rep.achieved_dim, rep.expected_dim) == (False, 2, 1)


def test_transversality_first_witness_pair():
    lams = (Partition((0, 3, 3), 4), Partition((1, 3, 3), 4))
    rep = transversality_verdict(lams, 3, 7)
    assert not rep.nonzero


def test_transversality_unit_classes():
    # all-max partitions: full tangent spaces, transverse by construction
    lams = (Partition((4, 4), 4), Partition((4, 4), 4))
    rep = transversality_verdict(lams, 2, 6)
    assert rep.nonzero and rep.achieved_dim == rep.expected_dim == 8


def test_transversality_point_classes():
    # all-zero partitions: zero-dimensional tangents; the virtual dimension
    # is negative, so the product of two point classes vanishes
    lams = (Partition((0, 0), 4), Partition((0, 0), 4))
    rep = transversality_verdict(lams, 2, 6)
    assert not rep.nonzero
    assert rep.achieved_dim == 0 and rep.expected_dim == -8


def test_transversality_negative_virtual_dimension():
    # (0,1)^3 in a 2x2 box: intersection is {0} yet the product vanishes —
    # the verdict must compare against the unclamped virtual dimension
    lams = (Partition((0, 1), 2),) * 3
    rep = transversality_verdict(lams, 2, 4)
    assert rep.achieved_dim == 0
    assert rep.expected_dim == -5
    assert not rep.nonzero
    from hornkit.horn import lr_oracle

    assert not lr_oracle(lams, 2, 4)


def _all_trials_verdict(lams, seed, trials, p):
    """The verdict with every requested trial run: the least meet dimension
    over all of them, against the virtual dimension."""
    r, cap = lams[0].r, lams[0].cap
    expected = sum(lam.weight for lam in lams) - (len(lams) - 1) * r * cap
    dims = []
    for t in range(trials):
        rows = generic_tangents(lams, derive_seed(seed, "trial", t), p)
        dims.append(r * cap - len(rref(rows, r * cap, p)[1]))
    achieved = min(dims)
    return tangent.TransversalityReport(achieved == expected, achieved, expected)


def _tuples_by_virtual_dimension(seed, per_sign=20):
    """Seeded class tuples on boxes up to 3 x 4, ``per_sign`` each with a
    negative, a zero and a positive virtual dimension."""
    rng = random.Random(seed)
    found = {-1: [], 0: [], 1: []}
    while any(len(lams) < per_sign for lams in found.values()):
        r, cap, s = rng.randint(1, 3), rng.randint(1, 4), rng.randint(2, 4)
        lams = tuple(
            Partition(sorted(rng.randint(0, cap) for _ in range(r)), cap) for _ in range(s)
        )
        expected = sum(lam.weight for lam in lams) - (s - 1) * r * cap
        sign = (expected > 0) - (expected < 0)
        if len(found[sign]) < per_sign:
            found[sign].append(lams)
    return [lams for tuples in found.values() for lams in tuples]


@pytest.mark.parametrize("trials", (1, 3, 5))
@pytest.mark.parametrize("p", (2, 3, 97, DEFAULT_PRIME))
def test_verdict_stops_early_with_the_report_of_all_trials(p, trials):
    # the trials stop at max(virtual dimension, 0), which no trial goes
    # below; at p = 2 and 3 some first trials land in special position and
    # a later one goes lower, on each side of dimension 0
    for i, lams in enumerate(_tuples_by_virtual_dimension(derive_seed("signs", p, trials))):
        r, n = lams[0].r, lams[0].n
        assert transversality_verdict(lams, r, n, i, trials, p) == _all_trials_verdict(
            lams, i, trials, p
        )


def test_negative_virtual_dimension_stops_at_a_meet_of_dimension_0(monkeypatch):
    systems = []

    def counting(*args):
        systems.append(args)
        return random_system(*args)

    random_system = tangent._random_system
    monkeypatch.setattr(tangent, "_random_system", counting)
    lams = (Partition((0, 0, 0), 4),) * 3  # three points on Gr(3,7)
    rep = transversality_verdict(lams, 3, 7, trials=3)
    assert (rep.nonzero, rep.achieved_dim, rep.expected_dim) == (False, 0, -24)
    assert len(systems) == 1


def test_generic_tangents_single():
    lam = Partition((1, 2), 3)
    rows = generic_tangents([lam], seed=7)
    assert len(rows) == 3  # (3 - 1) + (3 - 2) destination steps to avoid
    assert Subspace.from_equations(rows, 6, P).dim == 3


def test_generic_tangents_of_the_empty_product():
    # the unit class: no equations, after the same argument checks
    assert generic_tangents([]) == []
    assert generic_tangents((), seed=5, p=7) == []
    for kwargs in ({"p": 4}, {"seed": 1.0}):
        with pytest.raises(ValueError):
            generic_tangents([], **kwargs)


# --- two-step translates and the splitting/degree batteries ---------------------


def _random_sigma(rng, counts):
    word = list("0" * counts[0] + "1" * counts[1] + "2" * counts[2])
    rng.shuffle(word)
    return StepString("".join(word), 2)


def test_two_step_translate_dimension():
    rng = random.Random(9)
    for counts in ((2, 2, 1), (3, 2, 2), (4, 3, 2)):
        n = sum(counts)
        d, r = counts[2], counts[1] + counts[2]
        for trial in range(3):
            sigma = _random_sigma(rng, counts)
            sub = two_step_translate(sigma, d, r, n, seed=trial)
            assert sub.dim == cell_dimension(sigma)


def _two_step_translate_reference(sigma, d, r, n, seed, p):
    """``two_step_translate`` as it was when it rank-checked each diagonal
    block of its sampled g: same draws, then the same conjugate-and-project
    step."""
    cells = hat_Y(sigma, d, r, n)
    q, m = n - r, r - d
    rng = random.Random(derive_seed(seed, "two-step", sigma.word))
    sizes = (q, m, d)
    starts = (0, q, q + m)

    def block_index(i):
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
            if sizes[bi] and Mat(block, p).rank() != sizes[bi]:
                ok = False
                break
            for i in range(sizes[bi]):
                for j in range(sizes[bi]):
                    entries[lo + i][lo + j] = block[i][j]
        if ok:
            break
    g = Mat(entries, p)
    ginv = g.inverse()
    vectors = []
    for (j, k) in sorted(cells):
        col = g.column(j - 1)
        rowv = ginv.data[q + k - 1]
        vec = [0] * ((n - d) * r)
        for jj in range(1, n - d + 1):
            for kk in range(1, r + 1):
                if not (jj > q and kk <= m):
                    vec[(jj - 1) * r + (kk - 1)] = col[jj - 1] * rowv[q + kk - 1] % p
        vectors.append(vec)
    return Subspace.from_spanning(vectors, (n - d) * r, p)


def test_two_step_translate_matches_rank_checked_sampler():
    # At 2^31 - 1 a singular draw is vanishingly rare, so both samplers keep
    # their first draw and must agree.  At p = 2 singular diagonal blocks are common:
    # the inverse rejects them and the translate keeps the cell dimension
    # (two_step_translate raises otherwise).
    for n in range(3, 7):
        for d in range(1, n - 1):
            for r in range(d + 1, n):
                for word in itertools.islice(all_step_words((n - r, r - d, d)), 12):
                    sigma = StepString(word, 2)
                    for seed in range(2):
                        assert two_step_translate(
                            sigma, d, r, n, seed=seed
                        ) == _two_step_translate_reference(sigma, d, r, n, seed, P)
                        two_step_translate(sigma, d, r, n, seed=seed, p=2)


def test_two_step_translate_checks_its_dimension(monkeypatch):
    # the dimension check is a raised error, so it survives ``python -O``
    class Deficient(Subspace):
        @classmethod
        def from_spanning(cls, vectors, ambient_dim, p):
            return Subspace.from_spanning((), ambient_dim, p)

    monkeypatch.setattr(_twostep, "Subspace", Deficient)
    with pytest.raises(RuntimeError, match="cell dimension"):
        two_step_translate(StepString("02101", 2), 1, 3, 5)


def test_two_step_translate_reads_p_seed_and_shape():
    sigma = StepString("02101", 2)
    with pytest.raises(ValueError, match="p = 4 "):
        two_step_translate(sigma, 1, 3, 5, p=4)
    # derive_seed would hash 1.0 apart from 1, and range() would raise a
    # bare TypeError on a float shape
    for bad, match in ((1.0, "1.0 is not"), ("1", "'1' is not")):
        with pytest.raises(ValueError, match=match):
            two_step_translate(sigma, 1, 3, 5, seed=bad)
    with pytest.raises(ValueError, match="1.0 is not"):
        two_step_translate(sigma, 1.0, 3, 5)


def _block_layers(sigmas, d, r, n, seed):
    """Independent generic one-step intersections of the three blocks."""
    dims = []
    for u, v, src_dim, dst_dim in (
        (0, 1, r - d, n - r),
        (0, 2, d, n - r),
        (1, 2, d, r - d),
    ):
        spaces = []
        for i, sigma in enumerate(sigmas):
            lam = string_to_partition(substring_uv(sigma, u, v))
            sub_seed = derive_seed(seed, "block", u, v, i)
            src = FlagModel.random(src_dim, random.Random(sub_seed), P)
            dst = FlagModel.random(dst_dim, random.Random(sub_seed + 1), P)
            spaces.append(X_from_flags(lam, src, dst))
        meet = intersect(spaces) if len(spaces) > 1 else spaces[0]
        weights = sum(
            string_to_partition(substring_uv(s, u, v)).weight for s in sigmas
        )
        expected = weights - (len(sigmas) - 1) * src_dim * dst_dim
        dims.append((meet.dim, expected))
    return dims


def test_splitting_battery():
    """If all three block intersections are transverse, so is the full
    two-step intersection — and the almost-Horn bound detects failures."""
    rng = random.Random(2024)
    checked_transverse = 0
    checked_nontransverse = 0
    for counts in ((2, 2, 1), (3, 2, 2), (4, 2, 2), (2, 3, 2)):
        n = sum(counts)
        d, r = counts[2], counts[1] + counts[2]
        ambient = (n - r) * r + (r - d) * d
        for trial in range(12):
            sigmas = [_random_sigma(rng, counts) for _ in range(2)]
            seed = derive_seed("battery", counts, trial)
            full = intersect(
                [
                    two_step_translate(s, d, r, n, seed=derive_seed(seed, i))
                    for i, s in enumerate(sigmas)
                ]
            )
            expected_full = sum(cell_dimension(s) for s in sigmas) - ambient
            blocks = _block_layers(sigmas, d, r, n, seed)
            if all(dim == exp for dim, exp in blocks):
                assert full.dim == expected_full
                checked_transverse += 1
            # Conversely, a starved middle block forces non-transversality
            mid_weight = sum(
                string_to_partition(substring_uv(s, 0, 2)).weight for s in sigmas
            )
            if mid_weight < (len(sigmas) - 1) * d * (n - r):
                assert full.dim > expected_full
                checked_nontransverse += 1
    assert checked_transverse > 0 and checked_nontransverse > 0


# --- rendering -----------------------------------------------------------------


def test_render_overlay_first_example_level():
    first = StepString("2000120", 2)
    second = StepString("0200120", 2)
    overlay = render_overlay(hat_Y(first, 2, 3, 7), hat_Y(second, 2, 3, 7), 2, 3, 7)
    assert overlay == "\n".join(
        ["*.*",
         "#+*",
         "#+*",
         "+++",
         " +*"]
    )


def _render_pattern_reference(cells, rows, cols):
    """``render_pattern``'s own loop, before it drew through ``render_cells``."""
    return "\n".join(
        "".join("*" if (a, b) in cells else "." for b in range(1, cols + 1))
        for a in range(1, rows + 1)
    )


def test_render_pattern_matches_its_own_loop():
    # every hat_X up to 4 x 4, and random cell sets, empty grids included
    for r in range(5):
        for cap in range(5):
            for lam in all_partitions(r, cap):
                assert render_pattern(lam) == _render_pattern_reference(hat_X(lam), cap, r)
    rng = random.Random(10)
    for _ in range(200):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        cells = [(a, b) for a in range(1, rows + 1) for b in range(1, cols + 1)]
        free = frozenset(c for c in cells if rng.random() < 0.5)
        assert _draw(free, rows, cols) == _render_pattern_reference(free, rows, cols)


def test_render_cells_blank_lower_left():
    art = render_cells([hat_Y(StepString("021010201", 2), 2, 5, 9)], 2, 5, 9)
    rows = art.split("\n")
    assert all(row[:3] == "   " for row in rows[4:])


def test_opposite_cells_involution():
    cells = hat_Y(StepString("0211020", 2), 2, 4, 7)
    once = opposite_cells(cells, 2, 4, 7)
    twice = opposite_cells(once, 2, 4, 7)
    assert twice == cells
