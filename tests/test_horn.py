"""Horn inequality enumeration, recursion verdicts, and the LR ground truth."""

import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hornkit.horn import (
    HornInequality,
    Verdict,
    Violation,
    _level_table,
    _violated_candidates,
    enumerate_horn,
    evaluate,
    horn_verdict,
    lr_oracle,
    schur_expand,
)
from hornkit.strings import (
    Partition,
    StepString,
    all_partitions,
    lift,
    partition_to_string,
    string_to_partition,
    substring_uv,
)
from hornkit.tangent import (
    TransversalityReport,
    generic_tangents,
    hat_Y,
    transversality_verdict,
)
from hornkit.witness import find_witness


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _random_partition(rng, r, cap):
    return Partition(tuple(sorted(rng.randint(0, cap) for _ in range(r))), cap)


def _case(r, n, *parts):
    return tuple(Partition(p, n - r) for p in parts), r, n


# --- HornInequality type -------------------------------------------------------


def test_inequality_validates_indices():
    mus = (Partition((0, 1), 1), Partition((0, 1), 1))
    ineq = HornInequality(2, mus, ((1, 3), (1, 3)), 8)
    assert ineq.rhs == 8
    with pytest.raises(ValueError):
        HornInequality(2, mus, ((1, 2), (1, 3)), 8)


def test_inequality_json_round_trip():
    mus = (Partition((0, 3), 4), Partition((1, 4), 4))
    ineq = HornInequality(2, mus, ((1, 5), (2, 6)), 8)
    assert HornInequality.from_json_dict(ineq.to_json_dict()) == ineq


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.__setitem__("cap", "2"),
        lambda doc: doc.__delitem__("rhs"),
        lambda doc: doc.__setitem__("mus", 5),
        lambda doc: doc.__setitem__("d", True),
        lambda doc: doc.__setitem__("rhs", 2.0),
    ],
    ids=["string-cap", "missing-rhs", "int-mus", "bool-d", "float-rhs"],
)
def test_inequality_from_json_dict_rejects_malformed_fields(mutate):
    mus = (Partition((0,), 1), Partition((1,), 1))
    doc = HornInequality(1, mus, ((1,), (2,)), 2).to_json_dict()
    mutate(doc)
    with pytest.raises(ValueError):
        HornInequality.from_json_dict(doc)


def test_verdict_requires_violation_when_zero():
    with pytest.raises(ValueError):
        Verdict(False, "horn-recursion")


# --- enumeration ---------------------------------------------------------------


def test_enumerate_smallest_case():
    ineqs = list(enumerate_horn(1, 2, 2))
    assert len(ineqs) == 1
    (ineq,) = ineqs
    assert ineq.d == 1 and ineq.rhs == 1
    assert ineq.indices == ((1,), (1,))
    assert all(mu.parts == (0,) and mu.cap == 0 for mu in ineq.mus)


def test_enumerate_contains_first_example_inequality():
    stream = list(enumerate_horn(3, 7, 2))
    assert any(
        i.d == 2 and i.indices == ((1, 3), (1, 3)) and i.rhs == 8 for i in stream
    )


def test_enumerate_contains_second_example_inequality():
    stream = list(enumerate_horn(6, 10, 2))
    assert any(
        i.d == 2 and i.indices == ((1, 5), (2, 6)) and i.rhs == 8 for i in stream
    )


def test_enumerate_includes_dimensional_inequality():
    stream = list(enumerate_horn(3, 7, 2))
    top = [i for i in stream if i.d == 3]
    assert len(top) == 1
    assert top[0].indices == ((1, 2, 3), (1, 2, 3)) and top[0].rhs == 12


def test_enumerate_deterministic_order():
    a = [i.to_json_dict() for i in enumerate_horn(3, 6, 2)]
    b = [i.to_json_dict() for i in enumerate_horn(3, 6, 2)]
    assert a == b
    ds = [i["d"] for i in a]
    assert ds == sorted(ds)


def test_enumerate_self_consistency():
    # each emitted mu-tuple genuinely has a nonzero product on Gr(d, r)
    for ineq in enumerate_horn(3, 7, 2):
        if ineq.d < 3:
            assert lr_oracle(ineq.mus, ineq.d, 3), ineq
            assert horn_verdict(ineq.mus, ineq.d, 3).nonzero


def test_enumerate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        list(enumerate_horn(3, 3, 2))
    with pytest.raises(ValueError):
        list(enumerate_horn(2, 4, 0))
    # shapes are read with operator.index, so a float is refused by name
    for shape in ((2.0, 4, 2), (2, 4.0, 2), (2, 4, 2.0)):
        with pytest.raises(ValueError, match=r"\.0 is not an integer"):
            list(enumerate_horn(*shape))
    assert list(enumerate_horn(True, 2, 2)) == list(enumerate_horn(1, 2, 2))


def test_box_entry_points_read_r_and_n_as_integers():
    lams = (Partition((0, 1), 2), Partition((0, 1), 2))
    outside = (Partition((0, 1, 2), 4),)
    for decide in (horn_verdict, lr_oracle, transversality_verdict, find_witness):
        for r, n in ((2.0, 4), (2, 4.0), ("2", 4)):
            with pytest.raises(ValueError, match="is not an integer"):
                decide(lams, r, n)
        # the one box check: a class outside Lambda(r, n - r) is refused alike
        with pytest.raises(ValueError, match=r"does not lie in Lambda\(3, 5\)"):
            decide(outside, 3, 8)


def _enumerate_reference(r, n, s):
    """The plain product loop ``enumerate_horn`` ran before it shared the
    verdict's candidate walk: every s-tuple of Lambda(d, r-d) in
    lexicographic order, dimension-pruned, then certified."""
    for d in range(1, r + 1):
        table = list(itertools.combinations_with_replacement(range(r - d + 1), d))
        for parts in itertools.product(table, repeat=s):
            if sum(map(sum, parts)) < (s - 1) * d * (r - d):
                continue
            mus = tuple(Partition(mu, r - d) for mu in parts)
            if horn_verdict(mus, d, r).nonzero:
                indices = tuple(tuple(x + k for k, x in enumerate(mu, 1)) for mu in parts)
                yield HornInequality(d, mus, indices, (s - 1) * d * (n - r))


@pytest.mark.parametrize(
    "r, n, s",
    [(2, 5, 1), (4, 7, 1), (3, 7, 2), (5, 9, 2), (4, 8, 3), (5, 10, 3), (3, 6, 4), (4, 7, 4)],
)
def test_enumerate_matches_product_loop(r, n, s):
    assert list(enumerate_horn(r, n, s)) == list(_enumerate_reference(r, n, s))


# --- the candidate walk's floors against the entry-by-entry loop ----------------


def _violated_candidates_by_entries(table, scores, need, rhs):
    """The reference for ``_violated_candidates``: the same walk, with every
    factor's floor built one entry at a time as the least, over the
    weights w in the table, of the least score of weight w plus the next
    floor at the shortfall left once w is covered."""
    s = len(scores)
    weights = [row.weight for row in table]
    floor = [0] + [math.inf] * need
    floors = [floor]
    for row_scores in reversed(scores):
        least = {}
        for w, sc in zip(weights, row_scores):
            if sc < least.get(w, math.inf):
                least[w] = sc
        floor = [
            min(sc + floor[max(0, short - w)] for w, sc in least.items())
            for short in range(need + 1)
        ]
        floors.append(floor)
    floors.reverse()
    if floors[0][need] >= rhs:
        return
    picked = []

    def descend(j, weight, score):
        if j == s:
            yield tuple(picked)
            return
        after = floors[j + 1]
        for i, (w, sc) in enumerate(zip(weights, scores[j])):
            if score + sc + after[max(0, need - weight - w)] >= rhs:
                continue
            picked.append(i)
            yield from descend(j + 1, weight + w, score + sc)
            picked.pop()

    yield from descend(0, 0, 0)


def _same_candidates(table, scores, need, rhs, limit=2000):
    """Both walks yield the same first ``limit`` candidates, in order."""
    got = itertools.islice(_violated_candidates(table, scores, need, rhs), limit)
    want = itertools.islice(_violated_candidates_by_entries(table, scores, need, rhs), limit)
    return list(got) == list(want)


@pytest.mark.parametrize("s", range(1, 6))
def test_violated_candidates_match_the_entry_loop(s):
    rng = random.Random(f"violated candidates {s}")
    for _ in range(150):
        r = rng.randint(1, 6)
        d = rng.randint(1, r)
        table = _level_table(d, r)
        top = rng.randint(0, 3 * d * (r - d) + 1)
        scores = [[rng.randint(0, top) for _ in table] for _ in range(s)]
        dimension_count = (s - 1) * d * (r - d)
        need = rng.choice((0, dimension_count, rng.randint(0, dimension_count + s * d)))
        rhs = rng.choice((math.inf, rng.randint(0, s * top + 1)))
        assert _same_candidates(table, scores, need, rhs)


@pytest.mark.parametrize("s", range(1, 6))
def test_violated_candidates_match_the_entry_loop_at_need_0_and_on_one_weight(s):
    rng = random.Random(f"need 0 and d = r {s}")
    for r in range(1, 6):
        for d in range(1, r + 1):
            table = _level_table(d, r)
            scores = [[rng.randint(0, 2 * r) for _ in table] for _ in range(s)]
            for rhs in (0, 1, r, s * r, math.inf):
                assert _same_candidates(table, scores, 0, rhs)
        # d = r: one row, of weight 0, so only one weight in the table
        table = _level_table(r, r)
        assert len({row.weight for row in table}) == 1
        for need in range(3):
            for rhs in (0, 1, 2, math.inf):
                scores = [[rng.randint(0, 2)] for _ in range(s)]
                assert _same_candidates(table, scores, need, rhs)


@pytest.mark.parametrize("s", range(1, 6))
def test_violated_candidates_match_the_entry_loop_as_enumerate_horn_calls_it(s):
    # zero scores against an infinite bound: every dimension-count passer
    for r in range(1, 6 if s <= 3 else 5):
        for d in range(1, r + 1):
            table = _level_table(d, r)
            assert _same_candidates(
                table, [[0] * len(table)] * s, (s - 1) * d * (r - d), math.inf
            )


# --- evaluate ------------------------------------------------------------------


def _inequality_from_indices(indices, cap_inner, d, rhs):
    mus = tuple(
        Partition(tuple(i - k for k, i in enumerate(idx, start=1)), cap_inner)
        for idx in indices
    )
    return HornInequality(d, mus, tuple(tuple(i) for i in indices), rhs)


def test_evaluate_first_example():
    ineq = _inequality_from_indices(((1, 3), (1, 3)), 1, 2, 8)
    lams = (Partition((0, 3, 3), 4), Partition((1, 3, 3), 4))
    assert evaluate(ineq, lams) == -1  # 0 + 3 + 1 + 3 - 8


def test_evaluate_second_example():
    ineq = _inequality_from_indices(((1, 5), (2, 6)), 4, 2, 8)
    lams = (Partition((0, 2, 3, 3, 3, 4), 4), Partition((1, 1, 3, 3, 3, 3), 4))
    assert evaluate(ineq, lams) == -1  # 0 + 3 + 1 + 3 - 8


def test_evaluate_all_max_slack():
    for ineq in itertools.islice(enumerate_horn(3, 7, 2), 20):
        lams = (Partition((4, 4, 4), 4),) * 2
        assert evaluate(ineq, lams) == ineq.d * 4  # s·d·cap − (s−1)·d·cap


def test_evaluate_index_out_of_range():
    ineq = _inequality_from_indices(((1, 3),), 1, 2, 0)
    with pytest.raises(ValueError):
        evaluate(ineq, (Partition((0, 1), 3),))


# --- horn_verdict --------------------------------------------------------------


def test_verdict_first_example_pair():
    lams = (Partition((0, 3, 3), 4), Partition((1, 3, 3), 4))
    v = horn_verdict(lams, 3, 7)
    assert not v.nonzero
    assert v.violated is not None and v.violated.slack < 0
    # the reported inequality is genuinely in the stream and genuinely violated
    assert evaluate(v.violated.inequality, lams) == v.violated.slack


def test_verdict_printed_pair():
    lams = (Partition((0, 1, 3, 3), 5), Partition((3, 3, 3, 5), 5))
    v = horn_verdict(lams, 4, 9)
    assert not v.nonzero
    assert v.violated.inequality.indices == ((2,), (3,))
    assert v.violated.slack == -1


def test_verdict_point_times_complement():
    # lam and its rotated complement multiply to the point class: nonzero
    lams = (Partition((0, 1), 2), Partition((1, 2), 2))
    assert horn_verdict(lams, 2, 4).nonzero
    assert lr_oracle(lams, 2, 4)


def test_verdict_single_box_cubed():
    # the codimension-one class is (1,2) in a 2x2 box; its cube is nonzero
    lams = (Partition((1, 2), 2),) * 3
    assert horn_verdict(lams, 2, 4).nonzero
    assert lr_oracle(lams, 2, 4)
    # whereas the dimension-one class (0,1) cubed vanishes
    lams2 = (Partition((0, 1), 2),) * 3
    assert not horn_verdict(lams2, 2, 4).nonzero
    assert not lr_oracle(lams2, 2, 4)


def test_verdict_trivial_cases():
    assert horn_verdict((), 3, 7).nonzero
    assert horn_verdict((Partition((0, 2), 3),), 2, 5).nonzero
    assert horn_verdict((Partition((), 0), Partition((), 0)), 0, 0).nonzero


@pytest.mark.parametrize("lams", [(), (Partition((0, 2, 4), 4),), (Partition((0, 0, 0), 4),)])
def test_deciders_agree_on_empty_and_single_products(lams):
    # the empty product is the unit class, and one class is its own product
    assert horn_verdict(lams, 3, 7).nonzero
    assert lr_oracle(lams, 3, 7)
    # the unit class meets the whole 3 x 4 grid, and one class its |lam| cells
    dim = lams[0].weight if lams else 12
    assert transversality_verdict(lams, 3, 7) == TransversalityReport(True, dim, dim)
    with pytest.raises(ValueError, match="91"):
        transversality_verdict(lams, 3, 7, p=91)


def test_verdict_dimensional_shortfall():
    # total dimension below (s-1)·r·cap forces a zero verdict
    rng = random.Random(4)
    for _ in range(40):
        r, cap, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 3)
        lams = tuple(_random_partition(rng, r, cap) for _ in range(s))
        if sum(l.weight for l in lams) < (s - 1) * r * cap:
            assert not horn_verdict(lams, r, r + cap).nonzero


def test_verdict_monotone_under_enlargement():
    rng = random.Random(8)
    for _ in range(60):
        r, cap = rng.randint(1, 3), rng.randint(1, 4)
        lams = [_random_partition(rng, r, cap) for _ in range(2)]
        v = horn_verdict(tuple(lams), r, r + cap).nonzero
        # enlarge one part of one factor, staying a valid partition
        i = rng.randrange(2)
        parts = list(lams[i].parts)
        k = rng.randrange(r)
        parts[k] = min(cap, parts[k] + 1)
        bigger = Partition(tuple(sorted(parts)), cap)
        lams[i] = bigger
        v2 = horn_verdict(tuple(lams), r, r + cap).nonzero
        if v:
            assert v2  # enlarging parts can never create a violation


# --- schur_expand and lr_oracle --------------------------------------------------


def test_schur_expand_pieri_row():
    # s_(2) * s_(1) = s_(3) + s_(2,1)
    assert schur_expand((2,), (1,), 3, 3) == {(3,): 1, (2, 1): 1}


def test_schur_expand_classic_fixture():
    # s_(2,1) * s_(2,1) contains s_(3,2,1) with multiplicity 2
    out = schur_expand((2, 1), (2, 1), 3, 4)
    assert out[(3, 2, 1)] == 2
    assert out[(2, 2, 2)] == 1
    assert out[(3, 3)] == 1


def test_schur_expand_box_truncation():
    # in a 2x2 box, s_(1,1) * s_(1,1) = s_(2,2) only
    assert schur_expand((1, 1), (1, 1), 2, 2) == {(2, 2): 1}
    # and s_(2) * s_(2) = s_(2,2) via the column-bounded rule
    assert schur_expand((2,), (2,), 2, 2) == {(2, 2): 1}


def test_schur_expand_empty_factor():
    assert schur_expand((), (2, 1), 3, 3) == {(2, 1): 1}
    assert schur_expand((2, 1), (), 3, 3) == {(2, 1): 1}


def test_schur_expand_overflow_is_empty():
    assert schur_expand((2, 2), (2, 2), 2, 2) == {}


def test_lr_oracle_unit_and_point():
    unit = Partition((2, 2), 2)
    point = Partition((0, 0), 2)
    assert lr_oracle((unit, unit), 2, 4)
    assert lr_oracle((unit, point), 2, 4)
    assert not lr_oracle((point, point), 2, 4)


def test_lr_oracle_gr23_pair():
    lams = (Partition((0, 1), 1), Partition((0, 1), 1))
    assert lr_oracle(lams, 2, 3)


def test_lr_oracle_printed_pair():
    lams = (Partition((0, 1, 3, 3), 5), Partition((3, 3, 3, 5), 5))
    assert not lr_oracle(lams, 4, 9)


def test_lr_oracle_single_factor():
    assert lr_oracle((Partition((0, 2), 3),), 2, 5)


def test_lr_oracle_walks_past_the_recursion_limit():
    # sigma_1^1024 on Gr(32,64), between two unit classes: 1,024 strips of
    # one box each, and the product is a nonzero multiple of the point class
    unit = Partition((32,) * 32, 32)
    box = Partition((31,) + (32,) * 31, 32)
    assert lr_oracle((unit,) + (box,) * 1024 + (unit,), 32, 64)


def _transpose(lam, r, cap):
    """The class of Gr(n-r, n) whose complement is the conjugate of lam's."""
    comp = [cap - x for x in lam.parts]
    return Partition(tuple(r - sum(1 for x in comp if x > j) for j in range(cap)), r)


@pytest.mark.parametrize("r, n", [(2, 5), (3, 6), (3, 7), (4, 8)])
def test_pair_rule_matches_lr_oracle_on_every_pair(r, n):
    # sigma_lam * sigma_mu != 0 iff lam_k + mu_{r+1-k} >= n - r for every k
    cap = n - r
    parts = list(all_partitions(r, cap))
    for lam, mu in itertools.product(parts, repeat=2):
        pair_rule = all(x + y >= cap for x, y in zip(lam.parts, reversed(mu.parts)))
        assert lr_oracle((lam, mu), r, n) == pair_rule, (lam, mu)


@pytest.mark.parametrize("r, n, s", [(2, 5, 3), (2, 6, 3), (3, 6, 3), (2, 4, 4), (2, 5, 4)])
def test_lr_oracle_ignores_order_and_transposition(r, n, s):
    # every ordered tuple of a whole box: each permutation of a tuple is
    # another ordered tuple, so one answer per multiset; and the transposed
    # tuple on Gr(n-r, n) has the same answer
    cap = n - r
    answers = {}
    for lams in itertools.product(list(all_partitions(r, cap)), repeat=s):
        nonzero = lr_oracle(lams, r, n)
        transposed = tuple(_transpose(lam, r, cap) for lam in lams)
        assert lr_oracle(transposed, cap, n) == nonzero, lams
        key = tuple(sorted(lam.parts for lam in lams))
        assert answers.setdefault(key, nonzero) == nonzero, lams


def test_lr_oracle_refuses_a_vanishing_pair_without_walking(monkeypatch):
    # sigma_2 * sigma_11 = 0 on Gr(2,4), so the product vanishes whatever
    # stands around the pair: the first and last classes fit each other,
    # and no strip is walked
    def no_walk(*args):
        raise AssertionError("walked a tuple with a vanishing pair")

    monkeypatch.setattr("hornkit.horn._horizontal_strips", no_walk)
    lams, r, n = _case(2, 4, (1, 2), (0, 2), (1, 1), (1, 2))
    assert not lr_oracle(lams, r, n)


def _reference_schur_expand(a, b, max_rows, max_cols):
    """Reference LR expansion truncated to a box, with one column bound for
    every row: checks ``schur_expand`` directly, and ``lr_oracle`` through
    ``_full_expansion``."""
    a, b = tuple(a), tuple(b)
    if len(a) > max_rows or (a and a[0] > max_cols):
        return {}
    states = {(a + (0,) * (max_rows - len(a)), None): 1}
    for size in b:
        new_states = {}
        for (shape, prev), mult in states.items():
            for key in _reference_strips(shape, size, max_cols, prev):
                new_states[key] = new_states.get(key, 0) + mult
        states = new_states
        if not states:
            return {}
    result = {}
    for (shape, _), mult in states.items():
        trimmed = shape
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        result[trimmed] = result.get(trimmed, 0) + mult
    return result


def _reference_strips(shape, size, max_cols, prev):
    rows = len(shape)

    def rec(i, remaining, cur, prev_prefix, cur_prefix):
        if i == rows:
            if remaining == 0:
                yield tuple(s + c for s, c in zip(shape, cur)), tuple(cur)
            return
        ceiling = max_cols if i == 0 else shape[i - 1]
        most = min(remaining, ceiling - shape[i])
        if prev is not None:
            most = min(most, prev_prefix - cur_prefix)
        for c in range(most + 1):
            cur.append(c)
            next_prev = prev_prefix + (prev[i] if prev is not None else 0)
            yield from rec(i + 1, remaining - c, cur, next_prev, cur_prefix + c)
            cur.pop()

    yield from rec(0, size, [], 0, 0)


def _full_expansion(lams, r, n):
    """Reference: multiply every complementary Schur polynomial by the LR
    rule inside the r x (n-r) box, with multiplicities; nonzero iff
    anything survives."""
    cap = n - r
    comps = [tuple(cap - x for x in lam.parts if x < cap) for lam in lams]
    acc = {comps[0]: 1}
    for nxt in comps[1:]:
        grown = {}
        for shape, mult in acc.items():
            for res, m in _reference_schur_expand(shape, nxt, r, cap).items():
                grown[res] = grown.get(res, 0) + mult * m
        acc = grown
    return bool(acc)


_decreasing = st.lists(st.integers(0, 6), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(_decreasing, _decreasing, st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
@example((2, 1), (2, 1), 3, 4)
@example((3, 1), (2, 2, 1), 3, 3)
def test_schur_expand_matches_reference(a, b, max_rows, max_cols):
    assert schur_expand(a, b, max_rows, max_cols) == _reference_schur_expand(
        a, b, max_rows, max_cols
    )


def test_lr_oracle_matches_full_expansion_on_whole_boxes():
    # in the boxes r <= 3, n - r <= 4 (the empty boxes r = 0 and n = r
    # included): every ordered pair, every ordered triple and 4-tuple with
    # n <= 5, and every ordered 5-tuple with n <= 4.  From s = 4 on, the
    # walk crosses from one middle complement into the next.
    count = 0
    for r, cap in itertools.product(range(4), range(5)):
        parts = list(all_partitions(r, cap))
        for s, largest_n in ((2, 7), (3, 5), (4, 5), (5, 4)):
            if r + cap > largest_n:
                continue
            for lams in itertools.product(parts, repeat=s):
                assert lr_oracle(lams, r, r + cap) == _full_expansion(
                    lams, r, r + cap
                ), lams
                count += 1
    assert count == 37681


@st.composite
def _oracle_tuples(draw):
    n = draw(st.integers(0, 8))
    r = draw(st.integers(0, min(4, n)))
    s = draw(st.integers(1, 5))
    part = st.integers(0, n - r)
    lams = tuple(
        Partition(tuple(sorted(draw(st.lists(part, min_size=r, max_size=r)))), n - r)
        for _ in range(s)
    )
    return lams, r, n


@st.composite
def _tight_oracle_tuples(draw):
    """Tuples whose weights sum to (s-1) r (n-r): a nonzero product is then
    a multiple of the point class, so the expansion must reach exactly the
    dual shape of the last complement."""
    r = draw(st.integers(1, 4))
    cap = draw(st.integers(1, 4))
    s = draw(st.integers(2, 5))
    parts = [draw(st.lists(st.integers(0, cap), min_size=r, max_size=r)) for _ in range(s)]
    total = sum(map(sum, parts))
    target = (s - 1) * r * cap
    for k in draw(st.permutations(range(s * r))):  # fix the weight cell by cell
        row, col = divmod(k, r)
        step = max(-parts[row][col], min(cap - parts[row][col], target - total))
        parts[row][col] += step
        total += step
    assert total == target
    return tuple(Partition(tuple(sorted(p)), cap) for p in parts), r, r + cap


@given(_oracle_tuples())
@settings(max_examples=200, deadline=None)
@example(_case(3, 7, (0, 1, 2)))  # s = 1
@example(_case(4, 9, (0, 1, 3, 3), (3, 3, 3, 5)))  # s = 2, zero
@example(_case(4, 9, (0, 1, 3, 3), (2, 2, 4, 5)))  # s = 2, nonzero: dual classes
@example(_case(4, 9, (0, 1, 3, 3), (2, 2, 4, 4)))  # s = 2, one box past: zero
@example(_case(0, 3, (), (), ()))  # r = 0
@example(_case(3, 3, (0, 0, 0), (0, 0, 0)))  # n = r
@example(_case(2, 5, (0, 2), (1, 1), (1, 3), (2, 3)))  # s = 4
@example(_case(2, 4, (1, 2), (0, 2), (2, 2), (1, 1), (0, 2)))  # s = 5
def test_lr_oracle_matches_full_expansion(case):
    lams, r, n = case
    assert lr_oracle(lams, r, n) == _full_expansion(lams, r, n)


@given(_tight_oracle_tuples())
@settings(max_examples=200, deadline=None)
@example(_case(2, 4, (1, 2), (0, 2), (1, 2)))  # s_1 s_2 s_1 = s_22: nonzero
@example(_case(2, 4, (0, 2), (1, 1), (2, 2)))  # s_2 s_11 = 0 on Gr(2,4)
def test_lr_oracle_matches_full_expansion_when_tight(case):
    lams, r, n = case
    assert lr_oracle(lams, r, n) == _full_expansion(lams, r, n)


# --- three-way agreement ----------------------------------------------------------


def test_agreement_random_battery_3_7_3():
    rng = random.Random(373)
    for _ in range(200):
        lams = tuple(_random_partition(rng, 3, 4) for _ in range(3))
        h = horn_verdict(lams, 3, 7).nonzero
        l = lr_oracle(lams, 3, 7)
        assert h == l, lams


# --- the lifting identity ----------------------------------------------------------


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_lifting_identity(rng):
    """Sum of lam at the lifted-index positions equals the weight of the
    (0,2)-substring partition: evaluating a lifted inequality is the same
    as measuring the middle block."""
    r = rng.randint(1, 5)
    cap = rng.randint(1, 4)
    lam = _random_partition(rng, r, cap)
    d = rng.randint(1, r)
    rho = StepString(
        "".join(
            "1" if i in rng.sample(range(r), d) else "0" for i in range(r)
        ),
        1,
    )
    sigma = lift(partition_to_string(lam), rho)
    picked = sum(lam.parts[pos - 1] for pos in rho.positions(1))
    assert string_to_partition(substring_uv(sigma, 0, 2)).weight == picked


# --- the search order: violated first, certified second -------------------------


def _scan_reference(lams, r, n):
    """The first violated inequality of the plain enumeration stream."""
    for ineq in enumerate_horn(r, n, len(lams)):
        slack = evaluate(ineq, lams)
        if slack < 0:
            return Verdict(False, "horn-recursion", Violation(ineq, slack))
    return Verdict(True, "horn-recursion")


@st.composite
def _small_tuples(draw):
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, min(4, n - 1)))
    s = draw(st.integers(2, 4))
    part = st.integers(0, n - r)
    lams = tuple(
        Partition(tuple(sorted(draw(st.lists(part, min_size=r, max_size=r)))), n - r)
        for _ in range(s)
    )
    return lams, r, n


@given(_small_tuples())
@settings(max_examples=150, deadline=None)
# nonzero, though the uncertified level-2 inequality with mus (0,2), (1,1)
# is violated: the certificate, not the dimension count, rules it out
@example(_case(4, 8, (1, 3, 3, 4), (1, 1, 1, 3)))
# the first violated level-3 candidate is not certified; the second is,
# and shares its first factor, so certificates are memoized per mu-tuple
@example(_case(5, 10, (1, 2, 2, 4, 5), (1, 2, 4, 4, 5), (1, 2, 3, 4, 5)))
def test_verdict_matches_plain_scan(case):
    lams, r, n = case
    v = horn_verdict(lams, r, n)
    assert v == _scan_reference(lams, r, n)
    assert v.nonzero == lr_oracle(lams, r, n)


def test_cold_nonzero_gr714_triple():
    # dimension-tight: the weights sum to 2 * 7 * 7, so no level is skipped
    # outright and the whole recursion runs
    lams = tuple(
        Partition(parts, 7)
        for parts in (
            (0, 1, 2, 4, 5, 6, 6),
            (2, 3, 5, 6, 7, 7, 7),
            (1, 3, 5, 7, 7, 7, 7),
        )
    )
    assert sum(lam.weight for lam in lams) == 2 * 7 * 7
    v = horn_verdict(lams, 7, 14)
    assert v.nonzero and v.violated is None
    assert lr_oracle(lams, 7, 14)


def test_numeric_verdict_rejects_composite_prime():
    lams = (Partition((0, 3, 3), 4), Partition((1, 3, 3), 4))
    with pytest.raises(ValueError, match="91"):
        transversality_verdict(lams, 3, 7, p=91)
    # the tangent-layer entry points validate p themselves
    with pytest.raises(ValueError, match="p = 4 "):
        generic_tangents(lams, p=4)


def test_numeric_entry_points_read_p_and_trials_as_integers():
    lams = (Partition((0, 3, 3), 4), Partition((1, 3, 3), 4))
    with pytest.raises(ValueError, match="7.0 is not an integer"):
        transversality_verdict(lams, 3, 7, p=7.0)
    with pytest.raises(ValueError, match="7.0 is not an integer"):
        generic_tangents(lams, p=7.0)
    for bad, match in ((2.5, "2.5 is not"), ("3", "'3' is not"), (0, "got 0")):
        with pytest.raises(ValueError, match=match):
            transversality_verdict(lams, 3, 7, trials=bad)
        # the empty product checks trials as it checks p
        with pytest.raises(ValueError, match=match):
            transversality_verdict((), 3, 7, trials=bad)
    assert transversality_verdict((), 3, 7, trials=1).nonzero
    # a seed is read as an integer too: derive_seed would hash 1.0 apart from 1
    for bad, match in ((1.0, "1.0 is not"), ("1", "'1' is not")):
        for call in (
            lambda: generic_tangents(lams, seed=bad),
            lambda: transversality_verdict(lams, 3, 7, seed=bad),
            lambda: transversality_verdict((), 3, 7, seed=bad),
        ):
            with pytest.raises(ValueError, match=match):
                call()
    assert generic_tangents(lams, seed=True) == generic_tangents(lams, seed=1)
    # so are shape arguments: range() would raise a bare TypeError on a float
    sigma = StepString("02101", 2)
    for call, match in (
        (lambda: hat_Y(sigma, 1, 3.0, 5), "3.0 is not"),
        (lambda: list(all_partitions(2.0, 2)), "2.0 is not"),
        (lambda: list(all_partitions(2, "2")), "'2' is not"),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_numeric_report_writes_the_golden_numeric_document():
    # the CLI prints to_json_dict() as is, so its keys come in golden order
    lams = (Partition((0, 1, 3, 3), 5), Partition((3, 3, 3, 5), 5))
    doc = transversality_verdict(lams, 4, 9).to_json_dict()
    golden = json.loads((GOLDEN / "check_gr49.json").read_text())
    assert list(doc.items()) == list(golden["methods"]["numeric"].items())
    assert list(doc) == ["nonzero", "method", "violated", "achieved_dim", "expected_dim"]
