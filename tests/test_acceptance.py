"""Acceptance gate: the package's headline end-to-end guarantees, one test
per criterion, each exact, timed against a budget, printing one pass line."""

import itertools
import json
import pathlib
import time

from _twostep import all_step_words, cell_dimension, horn_indices, project_j
from hornkit import cli
from hornkit.horn import horn_verdict, lr_oracle
from hornkit.strings import (
    Partition,
    StepString,
    all_partitions,
    lift,
    partition_to_string,
    string_to_partition,
    substring_uv,
)
from hornkit.tangent import eta_word, hat_X, hat_Y, transversality_verdict
from hornkit.witness import find_witness, verify_witness

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _report(number: int, elapsed: float, detail: str) -> None:
    print(f"criterion {number}: PASS ({elapsed:.2f}s) {detail}")


def _run_cli_json(argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_criterion_1_opposite_tangent_intersection():
    start = time.perf_counter()
    lams = (Partition((0, 1, 3, 3), 5), Partition((3, 3, 3, 5), 5))
    for seed in range(5):
        report = transversality_verdict(lams, 4, 9, seed=seed, trials=1)
        assert report.achieved_dim == 2  # codimension 18 in the 20-cell grid
        assert report.expected_dim == 1  # codimension 19 expected if nonzero
        assert not report.nonzero
    assert not horn_verdict(lams, 4, 9).nonzero
    assert not lr_oracle(lams, 4, 9)
    assert not transversality_verdict(lams, 4, 9).nonzero
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "achieved dim 2 vs expected 1 on 5 seeds; 3 methods zero")


def test_criterion_2_small_descent_five_seeds():
    start = time.perf_counter()
    for seed in range(5):
        code, out = _run_cli_json(
            ["witness", "0,3,3/3x4 ; 1,3,3/3x4", "--seed", str(seed)]
        )
        assert code == 10
        doc = json.loads(out)
        assert doc["final"]["indices"] == [[1, 3], [1, 3]]
        assert doc["final"]["rhs"] == 8
        assert doc["slack"] == -1
        assert doc["levels"][0]["kernel_positions"] == ["101", "101"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, "indices {1,3},{1,3} rhs 8 slack -1 on 5 seeds")


def test_criterion_3_large_descent():
    start = time.perf_counter()
    code, out = _run_cli_json(["witness", "0,2,3,3,3,4/6x4 ; 1,1,3,3,3,3/6x4"])
    assert code == 10
    doc = json.loads(out)
    assert doc["levels"][0]["kernel_positions"] == ["100110", "010011"]
    assert doc["certificates"] == ["200120", "020012"]
    assert doc["final"]["indices"] == [[1, 5], [2, 6]]
    assert doc["final"]["rhs"] == 8
    assert doc["slack"] == -1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, elapsed, "three-level descent reproduced exactly")


SWEEP_SHAPES = ((2, 4, 3), (2, 4, 2), (2, 5, 2), (3, 6, 2))
EXPECTED_TUPLE_COUNTS = (216, 36, 100, 400)


def _sweep_tuples():
    for r, n, s in SWEEP_SHAPES:
        pool = list(all_partitions(r, n - r))
        for lams in itertools.product(pool, repeat=s):
            yield r, n, lams


def test_criterion_4_three_way_agreement():
    start = time.perf_counter()
    counts = {shape: 0 for shape in SWEEP_SHAPES}
    for r, n, lams in _sweep_tuples():
        h = horn_verdict(lams, r, n).nonzero
        l = lr_oracle(lams, r, n)
        m = transversality_verdict(lams, r, n).nonzero
        assert h == l == m, (lams, h, l, m)
        counts[(r, n, len(lams))] += 1
    assert tuple(counts[s] for s in SWEEP_SHAPES) == EXPECTED_TUPLE_COUNTS
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, elapsed, f"{sum(counts.values())} tuples, three methods agree")


def test_criterion_5_witness_soundness_sweep():
    start = time.perf_counter()
    zeros = 0
    for r, n, lams in _sweep_tuples():
        if lr_oracle(lams, r, n):
            continue
        trace = find_witness(lams, r, n, seed=0)
        assert verify_witness(trace, lams), lams
        zeros += 1
    assert zeros > 400
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, elapsed, f"{zeros} vanishing tuples certified and verified")


def test_criterion_6_combinatorial_identities():
    start = time.perf_counter()
    strings = 0
    for n in range(1, 10):
        for zeros in range(n + 1):
            for ones in range(n - zeros + 1):
                twos = n - zeros - ones
                if ones + twos == 0:
                    continue
                for word in all_step_words((zeros, ones, twos)):
                    sigma = StepString(word, 2)
                    d, r = twos, ones + twos
                    parts = [
                        string_to_partition(substring_uv(sigma, u, v)).weight
                        for u, v in ((0, 1), (0, 2), (1, 2))
                    ]
                    assert cell_dimension(sigma) == sum(parts)

                    tau = project_j(sigma, 2)
                    rho = substring_uv(sigma, 1, 2)
                    assert lift(tau, rho).word == sigma.word

                    lam = string_to_partition(tau)
                    mid = string_to_partition(substring_uv(sigma, 0, 2))
                    if twos:
                        idx = horn_indices(sigma)
                        assert idx == sigma.positions(2)
                        # the same positions through the index arithmetic:
                        # the k-th '2' is the (rho_k + k)-th '1' of the support
                        rho_parts = string_to_partition(rho).parts
                        ones_at = tau.positions(1)
                        assert idx == tuple(
                            ones_at[rho_parts[k] + k] for k in range(twos)
                        )
                        assert mid.weight == sum(
                            lam.parts[pos - 1] for pos in rho.positions(1)
                        )
                    if 0 < d < r <= n:
                        assert len(hat_Y(sigma, d, r, n)) == cell_dimension(sigma)
                    strings += 1
    # partition <-> string round-trip, exhaustively up to 12 boxes of border
    round_trips = 0
    for total in range(1, 13):
        for r in range(total + 1):
            cap = total - r
            for lam in all_partitions(r, cap):
                assert string_to_partition(partition_to_string(lam)) == lam
                round_trips += 1
    elapsed = time.perf_counter() - start
    assert strings > 25000 and round_trips > 8000
    assert elapsed < 60.0
    _report(6, elapsed, f"{strings} strings, {round_trips} round-trips")


def test_criterion_7_string_fixtures():
    start = time.perf_counter()
    sigma = StepString("01312230132", 3)
    assert substring_uv(sigma, 1, 3).word == "010101"
    word = StepString("2103210", 3)
    assert tuple(project_j(word, j).word for j in (1, 2, 3)) == (
        "0001000",
        "1001100",
        "1101110",
    )
    eta = eta_word(StepString("021010201", 2))
    assert "".join(map(str, eta)) == "146835927"
    elapsed = time.perf_counter() - start
    _report(7, elapsed, "three printed string fixtures exact")


def test_criterion_8_golden_determinism():
    start = time.perf_counter()
    cases = {
        "check_gr49.json": ["check", "0,1,3,3/4x5 ; 3,3,3,5/4x5"],
        "witness_gr37.json": ["witness", "0,3,3/3x4 ; 1,3,3/3x4"],
        "witness_gr610.json": ["witness", "0,2,3,3,3,4/6x4 ; 1,1,3,3,3,3/6x4"],
    }
    for name, argv in cases.items():
        code, out = _run_cli_json(argv)
        assert code == 10
        assert out == (GOLDEN / name).read_text()
    # the stored bytes really say what the criteria above checked
    check = json.loads((GOLDEN / "check_gr49.json").read_text())
    assert check["nonzero"] is False and set(check["methods"]) == {
        "horn",
        "lr",
        "numeric",
    }
    small = json.loads((GOLDEN / "witness_gr37.json").read_text())
    assert small["final"]["indices"] == [[1, 3], [1, 3]] and small["slack"] == -1
    large = json.loads((GOLDEN / "witness_gr610.json").read_text())
    assert large["certificates"] == ["200120", "020012"]
    elapsed = time.perf_counter() - start
    _report(8, elapsed, "CLI output byte-identical to stored goldens")


def test_big_box_goldens():
    """find_witness traces for dimension-tight vanishing tuples on Gr(7,14)
    s=2 and s=3, Gr(7,15) s=3 and Gr(8,16) s=2, and transversality_verdict
    reports for tuples of both answers on Gr(4,8)..Gr(7,14) s=3 and
    Gr(5,10) s=4, recomputed from their stored inputs (about 0.5 s)."""
    doc = json.loads((GOLDEN / "big_boxes.json").read_text())
    assert len(doc["witness"]) == 8 and len(doc["check"]) == 10
    for case in doc["witness"]:
        r, n = case["r"], case["n"]
        lams = tuple(Partition(parts, n - r) for parts in case["parts"])
        trace = find_witness(lams, r, n)
        assert trace.to_json_dict() == case["trace"]
        assert verify_witness(trace, lams) and trace.final_slack < 0
    for case in doc["check"]:
        r, n = case["r"], case["n"]
        lams = tuple(Partition(parts, n - r) for parts in case["parts"])
        report = transversality_verdict(lams, r, n)
        assert case["report"] == {
            "nonzero": report.nonzero,
            "achieved_dim": report.achieved_dim,
            "expected_dim": report.expected_dim,
        }
    assert {case["report"]["nonzero"] for case in doc["check"]} == {False, True}
