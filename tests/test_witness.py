"""Kernel-descent witness search and independent certificate verification."""

import itertools
import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hornkit.witness as witness
from _twostep import contains_subspace, induced_flag, quotient_pattern
from hornkit.exactla import DEFAULT_PRIME, Mat, Subspace, derive_seed, intersect
from hornkit.horn import lr_oracle
from hornkit.strings import (
    Partition,
    StepString,
    all_partitions,
    lift,
    parse_partition,
    string_to_partition,
    substring_uv,
)
from hornkit.tangent import (
    FlagModel,
    X_from_flags,
    schubert_position,
    tangent_equations,
)
from hornkit.witness import (
    GenericityExhausted,
    NonVanishingProduct,
    WitnessLevel,
    WitnessTrace,
    find_witness,
    verify_witness,
)

SMALL_PAIR = (Partition((0, 2), 2), Partition((1, 1), 2))
MID_PAIR = (Partition((0, 3, 3), 4), Partition((1, 3, 3), 4))
BIG_PAIR = (Partition((0, 2, 3, 3, 3, 4), 4), Partition((1, 1, 3, 3, 3, 3), 4))


def _replace(obj, **changes):
    """Rebuild a record through its constructor with some fields changed."""
    names = type(obj)._fields
    assert set(changes) <= set(names), set(changes) - set(names)
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in names})

# --- end-to-end fixtures -----------------------------------------------------------


def test_small_pair_trace():
    trace = find_witness(SMALL_PAIR, 2, 4, seed=0)
    assert len(trace.levels) == 2
    first, last = trace.levels
    assert (first.r, first.n) == (2, 4)
    assert first.kernel_positions == ("10", "01")
    assert first.lifted_strings == ("2001", "0120")
    assert tuple(mu.parts for mu in first.mus) == ((0,), (1,))
    assert (first.phi_rank, first.phi_nullity) == (1, 1)
    assert not first.terminal
    assert last.terminal and last.r == 1 and last.n == 3
    assert trace.certificates == ("20", "02")
    assert trace.final.d == 1
    assert trace.final.indices == ((1,), (2,))
    assert trace.final.rhs == 2
    assert trace.final_slack == -1
    assert verify_witness(trace, SMALL_PAIR)


def test_small_pair_stable_across_seeds():
    for seed in range(5):
        trace = find_witness(SMALL_PAIR, 2, 4, seed=seed)
        assert trace.final.indices == ((1,), (2,))
        assert trace.final_slack == -1
        assert verify_witness(trace, SMALL_PAIR)


def test_mid_pair_trace():
    trace = find_witness(MID_PAIR, 3, 7, seed=0)
    assert len(trace.levels) == 2
    first = trace.levels[0]
    assert first.kernel_positions == ("101", "101")
    assert first.lifted_strings == ("2000120", "0200120")
    assert tuple(mu.parts for mu in first.mus) == ((0, 3), (1, 3))
    assert trace.levels[1].terminal and trace.levels[1].r == 2
    assert trace.certificates == ("202", "202")
    assert trace.final.d == 2
    assert trace.final.indices == ((1, 3), (1, 3))
    assert trace.final.rhs == 8
    assert trace.final_slack == -1  # 0 + 3 + 1 + 3 - 8
    assert verify_witness(trace, MID_PAIR)


def test_big_pair_trace():
    trace = find_witness(BIG_PAIR, 6, 10, seed=0)
    assert [lvl.r for lvl in trace.levels] == [6, 3, 2]
    l1, l2, l3 = trace.levels
    assert l1.kernel_positions == ("100110", "010011")
    assert l1.lifted_strings == ("2001012201", "0120011220")
    assert tuple(mu.parts for mu in l1.mus) == ((0, 3, 3), (1, 3, 3))
    assert l2.kernel_positions == ("101", "101")
    assert l3.terminal
    assert trace.certificates == ("200120", "020012")
    assert trace.final.d == 2
    assert trace.final.indices == ((1, 5), (2, 6))
    assert tuple(mu.parts for mu in trace.final.mus) == ((0, 3), (1, 4))
    assert trace.final.rhs == 8
    assert trace.final_slack == -1
    assert verify_witness(trace, BIG_PAIR)


def test_point_pair_terminates_immediately():
    # two point classes: zero-dimensional tangents, phi = 0, the top-level
    # dimension count is itself the violated inequality
    lams = (Partition((0, 0, 0), 4),) * 2
    trace = find_witness(lams, 3, 7, seed=0)
    assert len(trace.levels) == 1
    (level,) = trace.levels
    assert level.terminal
    assert level.kernel_positions == ("111", "111")
    assert level.lifted_strings == ("2220000", "2220000")
    assert trace.certificates == ("222", "222")
    assert trace.final.d == 3
    assert trace.final.indices == ((1, 2, 3), (1, 2, 3))
    assert trace.final.rhs == 12
    assert trace.final_slack == -12
    assert verify_witness(trace, lams)


def _composed_certificates(trace):
    """Reference for the certificate rule: push the terminal level's full
    index set back up through the kernel positions with ``lift``; at each
    level the inner certificate's '2's select the kernel directions that
    keep carrying the final inequality."""
    ones = StepString("1" * trace.levels[-1].r, 1)
    certs = [lift(ones, ones)] * len(trace.levels[0].lams)
    for level in reversed(trace.levels[:-1]):
        certs = [
            lift(
                StepString(rho, 1),
                StepString("".join("1" if ch == "2" else "0" for ch in cert.word), 1),
            )
            for cert, rho in zip(certs, level.kernel_positions)
        ]
    return tuple(cert.word for cert in certs)


@pytest.mark.parametrize(
    "lams,r,n",
    [(SMALL_PAIR, 2, 4), (MID_PAIR, 3, 7), (BIG_PAIR, 6, 10)],
    ids=["small", "mid", "big"],
)
def test_certificates_match_bottom_up_composition(lams, r, n):
    trace = find_witness(lams, r, n, seed=0)
    assert trace.certificates == _composed_certificates(trace)


def test_determinism():
    a = find_witness(MID_PAIR, 3, 7, seed=11)
    b = find_witness(MID_PAIR, 3, 7, seed=11)
    assert a == b


def test_nonzero_product_is_refused():
    with pytest.raises(NonVanishingProduct, match="^the product of 2 classes is nonzero$"):
        find_witness((Partition((4, 4, 4), 4),) * 2, 3, 7)
    with pytest.raises(NonVanishingProduct):
        find_witness((Partition((0, 1), 2), Partition((1, 2), 2)), 2, 4)
    with pytest.raises(NonVanishingProduct, match="^a single class is nonzero$"):
        find_witness((Partition((0, 1), 2),), 2, 4)  # a single class never vanishes
    with pytest.raises(NonVanishingProduct, match="^a single class is nonzero$"):
        find_witness((Partition((0,), 1),), 1, 2)  # the CLI's "0/1x1"
    with pytest.raises(NonVanishingProduct):  # r = 0: Gr(0, 3) is a point
        find_witness((Partition((), 3),) * 2, 0, 3)
    with pytest.raises(NonVanishingProduct):  # r = n: Gr(2, 2) is a point
        find_witness((Partition((0, 0), 0),) * 2, 2, 2)


def test_box_mismatch_raises():
    with pytest.raises(ValueError):
        find_witness((Partition((0, 1), 2), Partition((0, 1), 3)), 2, 4)
    with pytest.raises(ValueError):
        find_witness(MID_PAIR, 3, 8)


def test_sample_nonzero_exhausts_on_zero_space():
    with pytest.raises(GenericityExhausted):
        witness._sample_nonzero(Subspace.from_spanning((), 3, 97), random.Random(0))


# --- serialization ----------------------------------------------------------------


def test_trace_json_round_trip():
    trace = find_witness(BIG_PAIR, 6, 10, seed=0)
    text = json.dumps(trace.to_json_dict())
    back = WitnessTrace.from_json_dict(json.loads(text))
    assert back == trace
    assert verify_witness(back, BIG_PAIR)


# --- tamper detection ---------------------------------------------------------------


def _mid_trace():
    return find_witness(MID_PAIR, 3, 7, seed=0)


def test_verify_rejects_wrong_classes():
    trace = _mid_trace()
    assert not verify_witness(trace, tuple(reversed(MID_PAIR)))
    assert not verify_witness(trace, ())
    # classes from two boxes: the levels alone would give slack -12 and a
    # Horn inequality
    mixed = (Partition((0, 0, 0), 4), Partition((0, 0, 0), 5))
    assert not verify_witness(_level_trace(mixed, ("111", "111")), mixed)


def _level_trace(lams, *kernel_positions):
    """A trace built from levels alone: each level's classes are the mus
    of the level before."""
    levels = []
    for words in kernel_positions:
        levels.append(WitnessLevel(lams, words))
        lams = levels[-1].mus
    return WitnessTrace(tuple(levels))


def _refused(doc, where):
    """from_json_dict refuses the document and names the field ``where``."""
    with pytest.raises(ValueError, match=f"^field {re.escape(where)} should be "):
        WitnessTrace.from_json_dict(doc)


def test_verify_rejects_perturbed_slack():
    for slack in (-2, 0):
        doc = _mid_trace().to_json_dict()
        doc["slack"] = slack
        _refused(doc, "slack")
    # Levels whose inequality holds are refused: stopping the mid pair at a
    # terminal first level gives its dimension count, 6 + 7 - 12 = 1.
    trace = _level_trace(MID_PAIR, ("111", "111"))
    assert trace.final_slack == 1
    assert not verify_witness(trace, MID_PAIR)


def test_verify_rejects_perturbed_certificate():
    doc = _mid_trace().to_json_dict()
    doc["certificates"] = ["220", "202"]
    _refused(doc, "certificates[0]")
    doc["certificates"] = ["202"]
    _refused(doc, "certificates")


def test_verify_rejects_certificate_off_the_first_kernel():
    # Same '2' positions as the genuine certificates, but '1's where the
    # first kernel has '0's: each certificate is that kernel's positions
    # with the final index set marked '2'.
    trace = find_witness(BIG_PAIR, 6, 10, seed=0)
    assert trace.certificates == ("200120", "020012")
    doc = trace.to_json_dict()
    doc["certificates"] = ["210120", "120012"]
    _refused(doc, "certificates[0]")


def test_verify_rejects_truncated_levels():
    trace = _mid_trace()
    assert not verify_witness(_replace(trace, levels=trace.levels[:1]), MID_PAIR)
    assert not verify_witness(_replace(trace, levels=trace.levels[1:]), MID_PAIR)
    assert not verify_witness(_replace(trace, levels=()), MID_PAIR)
    # a level past the terminal one keeps every index: the same inequality
    last = trace.levels[-1]
    extra = trace.levels + (WitnessLevel(last.mus, last.kernel_positions),)
    assert WitnessTrace(extra).final == trace.final
    assert not verify_witness(WitnessTrace(extra), MID_PAIR)


def test_verify_rejects_tampered_level_strings():
    trace = _mid_trace()
    good = trace.levels[0]
    bad_rho = _replace(good, kernel_positions=("110", "101"))
    assert not verify_witness(
        _replace(trace, levels=(bad_rho, trace.levels[1])), MID_PAIR
    )
    # words longer than the level, or with a letter other than 0 and 1,
    # that select the same positions
    for words in (("1010", "1010"), ("1x1", "101")):
        bad = _replace(good, kernel_positions=words)
        assert bad.mus == good.mus
        assert not verify_witness(_replace(trace, levels=(bad, trace.levels[1])), MID_PAIR)
    # a next level whose classes are not this level's mus
    other = _replace(trace.levels[1], lams=(Partition((0, 0), 4),) * 2)
    assert not verify_witness(_replace(trace, levels=(good, other)), MID_PAIR)
    doc = trace.to_json_dict()
    doc["levels"][0]["lifted_strings"][0] = "2001200"
    _refused(doc, "levels[0].lifted_strings[0]")


def test_verify_rejects_violated_but_non_horn_inequality():
    # Index sets ({1,2},{1,2}) give slack -1 on the mid pair, but the
    # mu-tuple ((0,0),(0,0)) has a vanishing product on Gr(2,3): levels that
    # descend to a violated inequality that is NOT a Horn inequality are
    # refused by the LR check alone.
    trace = _level_trace(MID_PAIR, ("110", "110"), ("11", "11"))
    assert trace.final.indices == ((1, 2), (1, 2)) and trace.final_slack == -1
    assert not lr_oracle(trace.final.mus, 2, 3)
    assert not verify_witness(trace, MID_PAIR)


def test_verify_rejects_inconsistent_rank():
    doc = _mid_trace().to_json_dict()
    doc["levels"][0]["phi_rank"] = 2
    _refused(doc, "levels[0].phi_rank")
    # One kernel, one dimension: positions with different counts of '1's.
    # For two point classes on Gr(3,6) the levels below would otherwise
    # end in a violated Horn inequality.
    points = (Partition((0, 0, 0), 3),) * 2
    bad = _level_trace(points, ("001", "011"), ("1", "1"))
    assert bad.final_slack < 0 and lr_oracle(bad.final.mus, bad.final.d, 3)
    assert not verify_witness(bad, points)
    assert not verify_witness(_level_trace(MID_PAIR, ("111", "110")), MID_PAIR)


def test_verify_rejects_non_string_certificate():
    doc = _mid_trace().to_json_dict()
    doc["certificates"][0] = 7
    _refused(doc, "certificates[0]")
    trace = _mid_trace()
    bad = _replace(trace.levels[0], kernel_positions=(101, "101"))
    assert not verify_witness(_replace(trace, levels=(bad, trace.levels[1])), MID_PAIR)


def test_verify_rejects_malformed_trace_objects():
    trace = _mid_trace()
    first, last = trace.levels
    for levels in (
        None,
        7,
        (None, last),
        (first, None),
        (_replace(first, lams=None), last),
        (_replace(first, kernel_positions=None), last),
        (_replace(first, kernel_positions=("101",)), last),
        (_replace(first, kernel_positions=("101",) * 3), last),
        (first, _replace(last, kernel_positions=("11", "1111"))),
    ):
        assert not verify_witness(_replace(trace, levels=levels), MID_PAIR)
    assert not verify_witness(None, MID_PAIR)


# --- malformed serialized traces ---------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_GR37 = GOLDEN / "witness_gr37.json"


def _golden_doc():
    return json.loads(GOLDEN_GR37.read_text())


def _golden_traces():
    """(name, trace document, classes) for every witness trace in the goldens."""
    for name in ("witness_gr37.json", "witness_gr610.json"):
        doc = json.loads((GOLDEN / name).read_text())
        yield name, doc, tuple(parse_partition(c) for c in doc["classes"])
    big = json.loads((GOLDEN / "big_boxes.json").read_text())
    for i, case in enumerate(big["witness"]):
        lams = tuple(Partition(tuple(parts), case["n"] - case["r"]) for parts in case["parts"])
        yield f"big_boxes.json-{i}", case["trace"], lams


GOLDEN_TRACES = list(_golden_traces())


def test_golden_trace_parses_and_verifies():
    trace = WitnessTrace.from_json_dict(_golden_doc())
    assert trace == _mid_trace()
    assert verify_witness(trace, MID_PAIR)


@pytest.mark.parametrize(
    "doc, lams", [case[1:] for case in GOLDEN_TRACES], ids=[case[0] for case in GOLDEN_TRACES]
)
def test_every_golden_trace_round_trips_and_verifies(doc, lams):
    trace = WitnessTrace.from_json_dict(doc)
    fields = {key: doc[key] for key in ("levels", "certificates", "final", "slack")}
    assert json.dumps(trace.to_json_dict()) == json.dumps(fields)
    assert verify_witness(trace, lams)


def _derived_paths():
    """The path of every field of the gr37 golden that its levels determine."""
    doc = _golden_doc()
    for i, level in enumerate(doc["levels"]):
        for key in ("r", "n", "phi_rank", "phi_nullity"):
            yield ("levels", i, key)
        for key in ("lifted_strings", "mus"):
            for j in range(len(level[key])):
                yield ("levels", i, key, j)
    for j in range(len(doc["certificates"])):
        yield ("certificates", j)
    for key in doc["final"]:
        yield ("final", key)
    yield ("slack",)


def _path_text(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@pytest.mark.parametrize("path", list(_derived_paths()), ids=_path_text)
def test_from_json_dict_refuses_an_edited_derived_field(path):
    doc = _golden_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    # an integer one more, a word one letter longer, a list one entry longer
    node[path[-1]] = value + 1 if isinstance(value, int) else value + value[:1]
    if path[-1] == "n":
        # n fixes the cap the level's classes are read in, so the first
        # field to disagree is the first lifted string
        path = path[:2] + ("lifted_strings", 0)
    _refused(doc, _path_text(path))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["certificates"].__setitem__(0, 7),
        lambda doc: doc["levels"][0].__setitem__("lams", None),
        lambda doc: doc["levels"][0]["mus"].__setitem__(0, "03"),
        lambda doc: doc["final"].__setitem__("rhs", 8.0),
        lambda doc: doc["final"].__setitem__("d", True),
        lambda doc: doc.__delitem__("slack"),
        lambda doc: doc.__setitem__("levels", [1, 2]),
    ],
    ids=["int-certificate", "null-lams", "string-mu", "float-rhs", "bool-d",
         "missing-slack", "int-levels"],
)
def test_from_json_dict_rejects_malformed_fields(mutate):
    doc = _golden_doc()
    mutate(doc)
    with pytest.raises(ValueError):
        WitnessTrace.from_json_dict(doc)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="0123", max_size=8),
    st.lists(st.integers(-1, 5), max_size=4),
    st.lists(st.text(alphabet="012", max_size=4), max_size=3),
    st.dictionaries(st.sampled_from(["r", "n", "d", "cap"]), st.integers(0, 5)),
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verify_never_raises_on_mutated_trace(data):
    """Replace one node of a genuine serialized trace by an arbitrary JSON
    value: parsing either fails with ValueError or gives a trace that
    verify_witness accepts only when it is the original one."""
    original = _golden_doc()
    doc = _golden_doc()
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    value = data.draw(_JSON_VALUES)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        trace = WitnessTrace.from_json_dict(doc)
    except ValueError:
        return
    accepted = verify_witness(trace, MID_PAIR)
    assert not accepted or trace == WitnessTrace.from_json_dict(original)


# --- input validation ---------------------------------------------------------------


def test_find_witness_rejects_composite_prime():
    with pytest.raises(ValueError, match="91"):
        find_witness(MID_PAIR, 3, 7, p=91)
    # 7.0 == 7 passes a primality test, then breaks pow() in the descent
    with pytest.raises(ValueError, match="7.0 is not an integer"):
        find_witness(MID_PAIR, 3, 7, p=7.0)
    # a string seed would be hashed as a label instead of refused
    with pytest.raises(ValueError, match="'1' is not an integer"):
        find_witness(MID_PAIR, 3, 7, seed="1")


# --- soundness sweep ---------------------------------------------------------------


def _zero_tuples(r, n, s):
    for lams in itertools.product(list(all_partitions(r, n - r)), repeat=s):
        if not lr_oracle(lams, r, n):
            yield lams


def test_every_vanishing_product_gets_verified_witness():
    count = 0
    for r, n, s in ((2, 4, 2), (2, 5, 2), (2, 4, 3)):
        for lams in _zero_tuples(r, n, s):
            trace = find_witness(lams, r, n, seed=0)
            assert verify_witness(trace, lams), lams
            assert trace.certificates == _composed_certificates(trace), lams
            # the next classes are the inner block of each lifted string
            for level in trace.levels:
                assert level.mus == tuple(
                    string_to_partition(substring_uv(StepString(word, 2), 0, 2))
                    for word in level.lifted_strings
                ), lams
            rs = [lvl.r for lvl in trace.levels]
            assert rs[0] == r and all(a > b for a, b in zip(rs, rs[1:]))
            assert len(rs) <= r
            assert all(lvl.n - lvl.r == n - r for lvl in trace.levels)
            count += 1
    assert count > 150


def test_small_prime_traces_all_verify():
    # Over F_2 and F_5 the sampled data is often not generic.  find_witness
    # must then give up, never return a trace that verify_witness rejects.
    returned = exhausted = 0
    for p in (2, 5):
        for lams in _zero_tuples(3, 6, 2):
            try:
                trace = find_witness(lams, 3, 6, seed=0, p=p)
            except GenericityExhausted:
                exhausted += 1
                continue
            assert verify_witness(trace, lams), (p, lams)
            returned += 1
    assert returned > 200 and exhausted > 0


# --- white-box genericity of the descent ----------------------------------------------


def _descend_levels(lams, r, n, seed=0):
    return list(witness._levels(tuple(lams), r, n - r, seed, DEFAULT_PRIME))


@pytest.mark.parametrize(
    "lams,r,n",
    [(SMALL_PAIR, 2, 4), (MID_PAIR, 3, 7), (BIG_PAIR, 6, 10)],
    ids=["small", "mid", "big"],
)
def test_descent_blocks_are_transverse(lams, r, n):
    """At every non-terminal level the two residual block intersections are
    transverse: the kernel's own cell tangents inside hom(S, V/S), and the
    quotient cell tangents inside hom(V/S, Q)."""
    s, cap = len(lams), n - r
    checked = 0
    for level, flag_pairs, _, kernel in _descend_levels(lams, r, n):
        if level.terminal:
            continue
        d, rr = level.phi_nullity, level.r
        rhos = [StepString(word, 1) for word in level.kernel_positions]
        induced = [induced_flag(fp[0], kernel) for fp in flag_pairs]

        inner = [
            X_from_flags(string_to_partition(rho), f_sub, f_quot)
            for rho, (f_sub, f_quot) in zip(rhos, induced)
        ]
        expected_inner = sum(string_to_partition(rho).weight for rho in rhos) - (
            s - 1
        ) * d * (rr - d)
        assert intersect(inner).dim == expected_inner

        outer = [
            X_from_flags(quotient_pattern(lam, rho), f_quot, fp[1])
            for lam, rho, (_, f_quot), fp in zip(level.lams, rhos, induced, flag_pairs)
        ]
        expected_outer = sum(
            quotient_pattern(lam, rho).weight for lam, rho in zip(level.lams, rhos)
        ) - (s - 1) * (rr - d) * cap
        assert intersect(outer).dim == expected_outer
        checked += 1
    assert checked > 0


def test_first_level_draws_pinned_flags():
    """The descent's draws, written out: at level 1, attempt 0, class i's
    flags are seeded by derive_seed(sub, i, "src") and derive_seed(sub, i,
    "dst") with sub = derive_seed(seed, "witness-level", 1, 0), and the
    level's intersection is cut out by their stacked tangent equations."""
    r, n, p = 3, 7, DEFAULT_PRIME
    for seed in (0, 1, 2):
        _, flag_pairs, meet, _ = _descend_levels(MID_PAIR, r, n, seed)[0]
        sub = derive_seed(seed, "witness-level", 1, 0)
        pairs = tuple(
            (
                FlagModel.random(r, random.Random(derive_seed(sub, i, "src")), p),
                FlagModel.random(n - r, random.Random(derive_seed(sub, i, "dst")), p),
            )
            for i in range(len(MID_PAIR))
        )
        assert flag_pairs == pairs
        rows = [
            row for lam, fp in zip(MID_PAIR, pairs) for row in tangent_equations(lam, *fp)
        ]
        assert meet == Subspace.from_equations(rows, r * (n - r), p)


def test_kernel_position_stability():
    """Independent re-samples of phi from the level's intersection give the
    same kernel positions: the operational meaning of a generic sample."""
    for level, flag_pairs, meet, _ in _descend_levels(MID_PAIR, 3, 7):
        if level.terminal:
            continue
        rng = random.Random(987654321)
        for _ in range(3):
            phi = witness._sample_nonzero(meet, rng)
            r, cap = level.r, level.n - level.r
            phi_matrix = Mat(tuple(phi[a * r : (a + 1) * r] for a in range(cap)), DEFAULT_PRIME)
            kernel = phi_matrix.nullspace()
            assert kernel.dim == level.phi_nullity
            positions = tuple(schubert_position(kernel, fp[0]) for fp in flag_pairs)
            assert tuple(map(str, positions)) == level.kernel_positions


def test_kernel_lies_in_every_sampled_map():
    for level, flag_pairs, meet, _ in _descend_levels(BIG_PAIR, 6, 10):
        for lam, fp in zip(level.lams, flag_pairs):
            tangent = X_from_flags(lam, *fp)
            assert contains_subspace(tangent, meet)
