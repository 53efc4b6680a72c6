"""Partition/string combinatorics: encoding fixtures and invariants."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornkit.strings import (
    LiftCertificate,
    Partition,
    StepString,
    all_partitions,
    all_step_words,
    cell_dimension,
    format_partition,
    horn_indices,
    lift,
    lift_certificate,
    parse_partition,
    partition_to_string,
    project_j,
    string_to_partition,
    substring_uv,
)


def partitions(max_r=5, max_cap=5):
    return st.tuples(
        st.integers(0, max_r), st.integers(0, max_cap), st.randoms(use_true_random=False)
    ).map(
        lambda t: Partition(
            tuple(sorted(t[2].randint(0, t[1]) for _ in range(t[0]))), t[1]
        )
    )


# --- encoding fixtures -------------------------------------------------------


def test_partition_string_fixture():
    lam = Partition((0, 1, 3, 3), 5)
    assert partition_to_string(lam).word == "101001100"
    assert string_to_partition(StepString("101001100", 1)) == lam


def test_partition_basic_properties():
    lam = Partition((0, 1, 3, 3), 5)
    assert lam.r == 4 and lam.n == 9 and lam.weight == 7


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 0), 2)  # not weakly increasing
    with pytest.raises(ValueError):
        Partition((0, 3), 2)  # exceeds cap
    with pytest.raises(ValueError):
        Partition((0,), -1)


def test_zero_and_max_classes():
    # All-zero parts: the point class, encoded with all '1's first.
    assert partition_to_string(Partition((0, 0), 3)).word == "11000"
    # All-max parts: the unit class, '1's at the very end.
    assert partition_to_string(Partition((3, 3), 3)).word == "00011"


def test_empty_partition():
    lam = Partition((), 4)
    assert partition_to_string(lam).word == "0000"
    assert string_to_partition(StepString("0000", 1)) == lam
    assert Partition((), 0).n == 0


# --- string operators: frozen worked fixtures --------------------------------


def test_substring_13_fixture():
    sigma = StepString("01312230132", 3)
    assert substring_uv(sigma, 1, 3).word == "010101"


def test_projections_fixture():
    sigma = StepString("2103210", 3)
    assert project_j(sigma, 1).word == "0001000"
    assert project_j(sigma, 2).word == "1001100"
    assert project_j(sigma, 3).word == "1101110"


def test_step_string_parse_and_counts():
    sigma = StepString.parse("021010201")
    assert sigma.k == 2
    assert sigma.counts == (4, 3, 2)
    assert sigma.positions(2) == (2, 7)
    with pytest.raises(ValueError):
        StepString("013", 2)


# --- lift and slices ---------------------------------------------------------


def test_lift_fixture():
    tau = partition_to_string(Partition((0, 3, 3), 4))
    assert tau.word == "1000110"
    rho = StepString("101", 1)
    lifted = lift(tau, rho)
    assert lifted.word == "2000120"
    assert project_j(lifted, 2).word == tau.word
    assert substring_uv(lifted, 1, 2).word == rho.word


def test_lift_mismatched_fiber():
    with pytest.raises(ValueError):
        lift(StepString("101", 1), StepString("1", 1))


def test_lift_certificate_validates():
    tau, rho = StepString("1100", 1), StepString("01", 1)
    cert = lift_certificate(tau, rho)
    assert cert.lifted.word == "1200"
    with pytest.raises(ValueError):
        LiftCertificate(tau, rho, StepString("2100", 2))


@given(st.data())
@settings(max_examples=200)
def test_lift_round_trip_property(data):
    n = data.draw(st.integers(1, 10))
    tau_word = "".join(data.draw(st.sampled_from("01")) for _ in range(n))
    ones = tau_word.count("1")
    rho_word = "".join(data.draw(st.sampled_from("01")) for _ in range(ones))
    tau, rho = StepString(tau_word, 1), StepString(rho_word, 1)
    lifted = lift(tau, rho)
    assert project_j(lifted, 2) == tau
    assert substring_uv(lifted, 1, 2) == rho
    # slicing off the middle letters leaves the marked subset's 01-pattern
    assert substring_uv(lifted, 0, 2).word.count("1") == rho_word.count("1")


# --- horn indices ------------------------------------------------------------


def test_horn_indices_fixture():
    # '2'-positions and the (mu_k + k)-th-'1' rule must agree by construction.
    sigma = StepString("2000120", 2)
    assert horn_indices(sigma) == (1, 6)
    sigma2 = StepString("021010201", 2)
    assert horn_indices(sigma2) == (2, 7)


@given(st.data())
@settings(max_examples=200)
def test_horn_indices_agree_everywhere(data):
    n = data.draw(st.integers(1, 9))
    word = "".join(data.draw(st.sampled_from("012")) for _ in range(n))
    sigma = StepString(word, 2)
    # horn_indices raises RuntimeError if its two computations disagree
    assert horn_indices(sigma) == sigma.positions(2)


# --- cell dimension ----------------------------------------------------------


def test_cell_dimension_matches_weight_for_01():
    for r in range(5):
        for cap in range(5):
            for lam in all_partitions(r, cap):
                assert cell_dimension(partition_to_string(lam)) == lam.weight


def test_cell_dimension_two_step_fixture():
    # the worked 13-cell pattern
    assert cell_dimension(StepString("021010201", 2)) == 13


def test_cell_dimension_additivity_over_blocks():
    for word in all_step_words((2, 2, 2)):
        sigma = StepString(word, 2)
        total = cell_dimension(sigma)
        parts = sum(
            cell_dimension(substring_uv(sigma, u, v))
            for u, v in ((0, 1), (0, 2), (1, 2))
        )
        assert total == parts


# --- enumeration -------------------------------------------------------------


def test_all_partitions_count_and_order():
    lams = list(all_partitions(2, 2))
    assert [lam.parts for lam in lams] == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
    ]
    import math
    for r, cap in ((3, 3), (2, 5), (4, 2)):
        assert len(list(all_partitions(r, cap))) == math.comb(r + cap, r)


def test_all_step_words_multiplicities():
    words = list(all_step_words((1, 1, 1)))
    assert words == ["012", "021", "102", "120", "201", "210"]
    assert len(list(all_step_words((2, 2, 1)))) == 30  # 5!/(2!2!1!)


# --- round trips and text syntax ---------------------------------------------


@given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_string_partition_round_trip(r, cap, rng):
    parts = tuple(sorted(rng.randint(0, cap) for _ in range(r)))
    lam = Partition(parts, cap)
    assert string_to_partition(partition_to_string(lam)) == lam


def test_round_trip_exhaustive_up_to_12():
    for r in range(0, 13):
        for cap in range(0, 13 - r):
            for lam in all_partitions(r, cap):
                assert string_to_partition(partition_to_string(lam)) == lam


def test_parse_format_round_trip():
    for text in ("0,1,3,3/4x5", "0,0/2x2", "4/1x7"):
        assert format_partition(parse_partition(text)) == text
    lam = parse_partition(" 0, 1 , 3,3 / 4x5 ")
    assert lam.parts == (0, 1, 3, 3)


def test_parse_errors():
    for bad in ("0,1,3,3", "1,2/2", "a,b/2x2", "1,2/3x4", "0,5/2x3", "2,1/2x3"):
        with pytest.raises(ValueError):
            parse_partition(bad)
