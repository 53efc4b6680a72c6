"""Tangent-space models: patterns, flags, translates, transversality."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornkit import tangent
from hornkit.exactla import (
    DEFAULT_PRIME,
    Mat,
    Subspace,
    derive_seed,
    intersect,
    random_invertible,
)
from hornkit.strings import (
    Partition,
    StepString,
    all_partitions,
    all_step_words,
    cell_dimension,
    partition_to_string,
    string_to_partition,
    substring_uv,
)
from hornkit.tangent import (
    FlagModel,
    PatternSpace,
    X_from_flags,
    blocks_of,
    eta_word,
    generic_tangents,
    hat_X,
    hat_Y,
    induced_flag,
    minimal_coordinate_flag,
    opposite_cells,
    quotient_pattern,
    render_cells,
    render_overlay,
    render_pattern,
    schubert_position,
    tangent_equations,
    transversality_verdict,
    two_step_translate,
)

P = DEFAULT_PRIME


# --- hat_X pattern fixtures ---------------------------------------------------


def test_hat_X_printed_fixture():
    ps = hat_X(Partition((0, 1, 3, 3), 5))
    assert render_pattern(ps) == "\n".join(
        [".***",
         "..**",
         "..**",
         "....",
         "...."]
    )
    assert ps.column_counts() == (0, 1, 3, 3)
    assert ps.dim == 7


def test_hat_X_extremes():
    assert hat_X(Partition((0, 0), 3)).dim == 0
    full = hat_X(Partition((3, 3), 3))
    assert full.dim == 6 and full.free == frozenset(
        (a, b) for a in (1, 2, 3) for b in (1, 2)
    )


def test_opposite_pattern_printed_fixture():
    # mu = (3,3,3,5) drawn against the opposite flag: the grid rotates 180°
    cells = opposite_cells(hat_X(Partition((3, 3, 3, 5), 5)).free, 4, 4, 9)
    ps = PatternSpace(5, 4, cells)
    assert render_pattern(ps) == "\n".join(
        ["*...",
         "*...",
         "****",
         "****",
         "****"]
    )


def test_pattern_subspace_roundtrip():
    ps = hat_X(Partition((1, 2), 3))
    sub = ps.subspace(P)
    assert sub.dim == ps.dim
    # row-major vectorization: cell (a, b) -> coordinate (a-1)*cols + (b-1)
    vec = [0] * 6
    vec[(1 - 1) * 2 + (1 - 1)] = 1
    assert sub.contains(tuple(vec))


# --- X_from_flags and tangent equations ----------------------------------------


def test_X_standard_flags_equals_pattern():
    lam = Partition((0, 1, 3, 3), 5)
    std_src = FlagModel.standard(4, P)
    std_dst = FlagModel.standard(5, P)
    assert X_from_flags(lam, std_src, std_dst) == hat_X(lam).subspace(P)


def test_X_opposite_flags_equals_flipped_pattern():
    mu = Partition((3, 3, 3, 5), 5)
    opp_src = FlagModel.opposite(4, P)
    opp_dst = FlagModel.opposite(5, P)
    flipped = PatternSpace(5, 4, opposite_cells(hat_X(mu).free, 4, 4, 9))
    assert X_from_flags(mu, opp_src, opp_dst) == flipped.subspace(P)


def test_opposite_intersection_printed_fixture():
    # standard vs opposite: the printed intersection is cells (3,3) and (3,4)
    lam = Partition((0, 1, 3, 3), 5)
    mu = Partition((3, 3, 3, 5), 5)
    a = X_from_flags(lam, FlagModel.standard(4, P), FlagModel.standard(5, P))
    b = X_from_flags(mu, FlagModel.opposite(4, P), FlagModel.opposite(5, P))
    meet = intersect([a, b])
    expected = PatternSpace(5, 4, frozenset({(3, 3), (3, 4)}))
    assert meet == expected.subspace(P)
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
    spaces = [X_from_flags(lam, *fp) for lam, fp in zip(lams, pairs)]
    assert Subspace.from_equations(stacked, r * cap, p) == intersect(spaces)


def test_X_flag_size_mismatch():
    with pytest.raises(ValueError):
        X_from_flags(
            Partition((0, 1), 2), FlagModel.standard(3, P), FlagModel.standard(2, P)
        )


def test_random_flag_draws_as_random_invertible():
    # the inverse check rejection-samples with the same draws as the rank
    # check did; p = 2 makes singular draws common
    for p in (2, 3, DEFAULT_PRIME):
        for m in range(5):
            for seed in range(20):
                flag = FlagModel.random(m, random.Random(seed), p)
                assert flag.matrix == random_invertible(m, random.Random(seed), p)
                assert flag.matrix.mul(flag.inverse) == Mat.identity(m, p)


def test_X_raises_on_flags_over_different_fields():
    # invertible mod 5 (det -7), but mod 7 the second column is twice the
    # first, so the constraint rows lose rank and the nullity exceeds |lam|
    src = FlagModel(Mat(((1, 2), (4, 1)), 5))
    with pytest.raises(ValueError, match="nullity"):
        X_from_flags(Partition((0, 1), 3), src, FlagModel.standard(3, 7))


# --- eta and hat_Y ------------------------------------------------------------


def test_eta_printed_fixture():
    assert eta_word(StepString("021010201", 2)) == (1, 4, 6, 8, 3, 5, 9, 2, 7)


def test_hat_Y_printed_fixture():
    model = hat_Y(StepString("021010201", 2), 2, 5, 9)
    assert model.dim == 13 == cell_dimension(StepString("021010201", 2))
    assert render_cells([model.full.free], 2, 5, 9, symbols="*") == "\n".join(
        ["*****",
         ".**.*",
         "..*.*",
         "..*..",
         "   .*",
         "   .*",
         "   .."]
    )


def test_blocks_printed_fixture():
    model = hat_Y(StepString("021010201", 2), 2, 5, 9)
    b01, b02, b12 = blocks_of(model)
    assert render_pattern(b01) == "***\n.**\n..*\n..*"
    assert render_pattern(b02) == "**\n.*\n.*\n.."
    assert render_pattern(b12) == ".*\n.*\n.."
    # per-column star counts read off the printed blocks
    assert b01.column_counts() == (1, 2, 4)
    assert b02.column_counts() == (1, 3)
    assert b12.column_counts() == (0, 2)
    assert (b01.kind, b02.kind, b12.kind) == (
        "hom(V/S,Q)", "hom(S,Q)", "hom(S,V/S)"
    )


def test_hat_Y_extremes():
    # weakly increasing string: dense cell, every in-grid cell free
    dense = hat_Y(StepString("001122", 2), 2, 4, 6)
    assert dense.dim == dense.full.rows * dense.full.cols - 2 * 2
    # weakly decreasing string: the single point, no free cells
    point = hat_Y(StepString("221100", 2), 2, 4, 6)
    assert point.dim == 0


def test_blocks_equal_substring_patterns_exhaustive():
    for n in range(3, 8):
        for d in range(1, n - 1):
            for r in range(d + 1, n):
                for word in all_step_words((n - r, r - d, d)):
                    sigma = StepString(word, 2)
                    model = hat_Y(sigma, d, r, n)
                    b01, b02, b12 = model.blocks
                    assert b01.free == hat_X(
                        string_to_partition(substring_uv(sigma, 0, 1))
                    ).free
                    assert b02.free == hat_X(
                        string_to_partition(substring_uv(sigma, 0, 2))
                    ).free
                    assert b12.free == hat_X(
                        string_to_partition(substring_uv(sigma, 1, 2))
                    ).free
                    assert model.dim == b01.dim + b02.dim + b12.dim
                    assert model.dim == cell_dimension(sigma)


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
    from hornkit.strings import project_j

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
    assert schubert_position(V, FlagModel.standard(5, P)).word == "00011"


def test_schubert_position_of_flag_steps():
    rng = random.Random(11)
    flag = FlagModel.random(7, rng, P)
    V = Subspace.from_spanning(
        [flag.vector(2), flag.vector(5), flag.vector(6)], 7, P
    )
    assert schubert_position(V, flag).word == "0100110"


def _position_by_definition(v, flag):
    dims = [intersect([v, flag.step(l)]).dim for l in range(flag.size + 1)]
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
        assert step == intersect([v, flag.step(jump)])


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
            assert flag.step(jumps[col]).contains(tuple(ambient))
            assert V.contains(tuple(ambient))


def test_induced_flag_whole_space():
    flag = FlagModel.standard(4, P)
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
        rep = transversality_verdict(lams, seed=seed)
        assert (rep.nonzero, rep.achieved_dim, rep.expected_dim) == (False, 2, 1)


def test_transversality_first_witness_pair():
    lams = (Partition((0, 3, 3), 4), Partition((1, 3, 3), 4))
    rep = transversality_verdict(lams)
    assert not rep.nonzero


def test_transversality_unit_classes():
    # all-max partitions: full tangent spaces, transverse by construction
    lams = (Partition((4, 4), 4), Partition((4, 4), 4))
    rep = transversality_verdict(lams)
    assert rep.nonzero and rep.achieved_dim == rep.expected_dim == 8


def test_transversality_point_classes():
    # all-zero partitions: zero-dimensional tangents; the virtual dimension
    # is negative, so the product of two point classes vanishes
    lams = (Partition((0, 0), 4), Partition((0, 0), 4))
    rep = transversality_verdict(lams)
    assert not rep.nonzero
    assert rep.achieved_dim == 0 and rep.expected_dim == -8


def test_transversality_negative_virtual_dimension():
    # (0,1)^3 in a 2x2 box: intersection is {0} yet the product vanishes —
    # the verdict must compare against the unclamped virtual dimension
    lams = (Partition((0, 1), 2),) * 3
    rep = transversality_verdict(lams)
    assert rep.achieved_dim == 0
    assert rep.expected_dim == -5
    assert not rep.nonzero
    from hornkit.horn import lr_oracle

    assert not lr_oracle(lams, 2, 4)


def test_generic_tangents_single():
    lam = Partition((1, 2), 3)
    (rows,) = generic_tangents([lam], seed=7)
    assert len(rows) == 3  # (3 - 1) + (3 - 2) destination steps to avoid
    assert Subspace.from_equations(rows, 6, P).dim == 3


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


def test_two_step_translate_checks_its_dimension(monkeypatch):
    # the dimension check is a raised error, so it survives ``python -O``
    class Deficient(Subspace):
        @classmethod
        def from_spanning(cls, vectors, ambient_dim, p):
            return Subspace.zero(ambient_dim, p)

    monkeypatch.setattr(tangent, "Subspace", Deficient)
    with pytest.raises(RuntimeError, match="cell dimension"):
        two_step_translate(StepString("02101", 2), 1, 3, 5)


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
    assert render_overlay(first, second, 2, 3, 7) == "\n".join(
        ["*.*",
         "#+*",
         "#+*",
         "+++",
         " +*"]
    )


def test_render_cells_blank_lower_left():
    model = hat_Y(StepString("021010201", 2), 2, 5, 9)
    art = render_cells([model.full.free], 2, 5, 9)
    rows = art.split("\n")
    assert all(row[:3] == "   " for row in rows[4:])


def test_opposite_cells_involution():
    model = hat_Y(StepString("0211020", 2), 2, 4, 7)
    once = opposite_cells(model.full.free, 2, 4, 7)
    twice = opposite_cells(once, 2, 4, 7)
    assert twice == model.full.free
