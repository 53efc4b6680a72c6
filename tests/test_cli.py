"""Command-line interface: parsing, exit codes, output formats, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from hornkit import cli
from hornkit.exactla import is_prime
from hornkit.strings import StepString, string_to_partition
from hornkit.tangent import render_pattern
from hornkit.witness import GenericityExhausted

MID = "0,3,3/3x4 ; 1,3,3/3x4"
PRINTED = "0,1,3,3/4x5 ; 3,3,3,5/4x5"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes ---------------------------------------------------------------


def test_check_nonzero_exits_zero(capsys):
    code, out, _ = run(capsys, ["check", "2,2/2x2 ; 2,2/2x2"])
    assert code == 0
    assert json.loads(out)["nonzero"] is True


def test_check_zero_exits_ten(capsys):
    code, out, _ = run(capsys, ["check", "0,1/2x2 ; 0,1/2x2 ; 0,1/2x2"])
    assert code == 10
    assert json.loads(out)["nonzero"] is False


def test_parse_error_reports_class_position(capsys):
    code, _, err = run(capsys, ["check", "0,3/2x2"])
    assert code == 2 and "class 1" in err
    code, _, err = run(capsys, ["check", "0,1/2x2 ; 0,1/2x3"])
    assert code == 2 and "class 2" in err and "expected 2x2" in err
    code, _, err = run(capsys, ["check", ""])
    assert code == 2 and "no classes" in err


def test_witness_on_nonzero_product_exits_three(capsys):
    code, _, err = run(capsys, ["witness", "2,2/2x2 ; 2,2/2x2"])
    assert code == 3 and err.startswith("error:")


def test_witness_genericity_exhaustion_exits_four(capsys, monkeypatch):
    def always_exhausted(*a, **k):
        raise GenericityExhausted("forced for the exit-code test")

    monkeypatch.setattr(cli, "find_witness", always_exhausted)
    code, _, err = run(capsys, ["witness", MID])
    assert code == 4 and "error:" in err


def test_witness_mu_product_vanishing_at_small_prime_exits_four(capsys):
    # Over F_2 this descent ends at mu = ((0,0),(0,1)) on Gr(2,3), whose
    # product vanishes: not a Horn inequality, so no certificate is printed.
    code, out, err = run(capsys, ["witness", "0,0,1/3x3;0,2,2/3x3", "--prime", "2"])
    assert code == 4 and out == ""
    assert "p = 2" in err and "mu-product" in err


def test_method_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "lr_oracle", lambda *a, **k: True)
    code, _, err = run(capsys, ["check", "0,1/2x2 ; 0,1/2x2 ; 0,1/2x2"])
    assert code == 1 and "methods disagree" in err


def test_argparse_failures_exit_two(capsys):
    assert run(capsys, ["check", MID, "--method", "bogus"])[0] == 2
    assert run(capsys, ["frobnicate"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_bad_config_exits_two(capsys):
    code, _, err = run(capsys, ["check", MID, "--prime", "10"])
    assert code == 2 and "prime" in err
    assert run(capsys, ["check", MID, "--prime", "4"])[0] == 2
    code, _, err = run(capsys, ["check", MID, "--trials", "0"])
    assert code == 2 and "trials" in err
    code, out, err = run(capsys, ["inequalities", "2", "4", "2", "--limit", "-1"])
    assert code == 2 and "limit" in err and out == ""
    code, out, _ = run(capsys, ["inequalities", "2", "4", "2", "--limit", "0"])
    assert code == 0 and out == ""


def test_prime_beyond_64_bits_exits_two(capsys):
    # a strong pseudoprime to every base 2..37: is_prime alone would accept it
    code, _, err = run(capsys, ["check", MID, "--prime", "318665857834031151167461"])
    assert code == 2 and "2**64" in err
    assert run(capsys, ["check", MID, "--prime", str(2**64 - 59)])[0] == 10


def _int_lookalikes(value):
    """Spellings of value that int() reads as value and the CLI refuses."""
    text = str(value)
    arabic_indic = text.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return ["+" + text, " " + text, text + "\n", "0_" + text, arabic_indic]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["check", MID, "--prime", "{}"], 97),
        (["check", MID, "--seed", "{}"], 7),
        (["check", MID, "--trials", "{}"], 2),
        (["inequalities", "{}", "4", "2"], 2),
        (["inequalities", "2", "{}", "2"], 4),
        (["inequalities", "2", "4", "{}"], 2),
        (["inequalities", "2", "4", "2", "--limit", "{}"], 1),
    ],
)
def test_integer_arguments_are_ascii_decimals(capsys, argv, value):
    assert run(capsys, [a.format(value) for a in argv])[0] in (0, 10)
    for text in _int_lookalikes(value):
        code, out, err = run(capsys, [a.format(text) for a in argv])
        assert code == 2 and out == "" and "is not a decimal integer" in err


def test_integer_checks_still_apply_to_decimals(capsys):
    code, out, err = run(capsys, ["inequalities", "2", "4", "2", "--limit", "-2"])
    assert code == 2 and "--limit must be at least 0" in err and out == ""
    code, _, err = run(capsys, ["check", MID, "--trials", "-1"])
    assert code == 2 and "--trials must be at least 1" in err


def test_closed_stdout_exits_141_without_traceback():
    # the inequality stream is about 190 kB, more than a pipe buffers, so a
    # write fails however soon the child starts after the read end closes
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hornkit.cli", "inequalities", "6", "12", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


# --- check --------------------------------------------------------------------


def test_check_json_document(capsys):
    code, out, _ = run(capsys, ["check", MID])
    assert code == 10
    doc = json.loads(out)
    assert doc["classes"] == ["0,3,3/3x4", "1,3,3/3x4"]
    assert (doc["r"], doc["n"], doc["s"]) == (3, 7, 2)
    assert set(doc["methods"]) == {"horn", "lr", "numeric"}
    assert doc["nonzero"] is False
    horn = doc["methods"]["horn"]
    assert horn["violated"] == {
        "d": 1,
        "cap": 2,
        "mus": [[0], [2]],
        "indices": [[1], [3]],
        "rhs": 4,
        "slack": -1,
    }
    numeric = doc["methods"]["numeric"]
    assert numeric["achieved_dim"] == 2 and numeric["expected_dim"] == 1
    assert doc["methods"]["lr"]["violated"] is None


def test_check_single_method(capsys):
    code, out, _ = run(capsys, ["check", MID, "--method", "lr"])
    assert code == 10
    assert list(json.loads(out)["methods"]) == ["lr"]


def test_check_small_prime_numeric(capsys):
    code, out, _ = run(capsys, ["check", MID, "--method", "numeric", "--prime", "97"])
    assert code == 10
    assert json.loads(out)["methods"]["numeric"]["nonzero"] is False


def test_check_text_format(capsys):
    _, out, _ = run(capsys, ["check", PRINTED, "--format", "text"])
    assert out.splitlines() == [
        "classes: 0,1,3,3/4x5 ; 3,3,3,5/4x5 (s=2 on Gr(4,9))",
        "horn: zero (violated d=1 indices {2} {3} rhs 5 slack -1)",
        "lr: zero",
        "numeric: zero (achieved 2, expected 1)",
        "verdict: zero",
    ]


def test_check_diagram_format(capsys):
    _, out, _ = run(capsys, ["check", MID, "--format", "diagram"])
    lines = out.splitlines()
    assert lines[:4] == [".**", "+#*", "+#*", "+++"]
    assert lines[4] == ""
    assert lines[5].startswith("classes:")


# --- inequalities ---------------------------------------------------------------


def test_inequalities_ndjson_exact(capsys):
    code, out, _ = run(capsys, ["inequalities", "2", "4", "2"])
    assert code == 0
    assert out.splitlines() == [
        '{"d":1,"cap":1,"mus":[[0],[1]],"indices":[[1],[2]],"rhs":2}',
        '{"d":1,"cap":1,"mus":[[1],[0]],"indices":[[2],[1]],"rhs":2}',
        '{"d":1,"cap":1,"mus":[[1],[1]],"indices":[[2],[2]],"rhs":2}',
        '{"d":2,"cap":0,"mus":[[0,0],[0,0]],"indices":[[1,2],[1,2]],"rhs":4}',
    ]


def test_inequalities_smallest(capsys):
    _, out, _ = run(capsys, ["inequalities", "1", "2", "2"])
    assert out.splitlines() == [
        '{"d":1,"cap":0,"mus":[[0],[0]],"indices":[[1],[1]],"rhs":1}'
    ]


def test_inequalities_limit_and_text(capsys):
    _, out, _ = run(capsys, ["inequalities", "3", "7", "2", "--limit", "5"])
    assert len(out.splitlines()) == 5
    _, out, _ = run(capsys, ["inequalities", "2", "4", "2", "--format", "text"])
    assert out.splitlines()[0] == "d=1 rhs=2 indices {1} {2}"


def test_inequalities_bad_shape(capsys):
    code, _, err = run(capsys, ["inequalities", "3", "3", "2"])
    assert code == 2 and err.startswith("error:")


# --- witness --------------------------------------------------------------------


def test_witness_json_document(capsys):
    code, out, _ = run(capsys, ["witness", MID])
    assert code == 10
    doc = json.loads(out)
    assert doc["classes"] == ["0,3,3/3x4", "1,3,3/3x4"]
    assert doc["certificates"] == ["202", "202"]
    assert doc["final"]["indices"] == [[1, 3], [1, 3]]
    assert doc["final"]["rhs"] == 8
    assert doc["slack"] == -1
    assert [lvl["r"] for lvl in doc["levels"]] == [3, 2]
    assert doc["levels"][0]["kernel_positions"] == ["101", "101"]


def test_witness_deterministic_bytes(capsys):
    _, first, _ = run(capsys, ["witness", MID])
    _, second, _ = run(capsys, ["witness", MID])
    assert first == second


def test_witness_text_format(capsys):
    _, out, _ = run(capsys, ["witness", MID, "--format", "text"])
    assert out.splitlines() == [
        "classes: 0,3,3/3x4 ; 1,3,3/3x4 (s=2 on Gr(3,7))",
        "level 1: Gr(3,7) (rank 1, nullity 2)",
        "  kernel positions: 101 ; 101",
        "  lifted: 2000120 ; 0200120",
        "level 2: Gr(2,6) terminal (rank 0, nullity 2)",
        "  kernel positions: 11 ; 11",
        "  lifted: 200020 ; 020020",
        "certificates: 202 ; 202",
        "final: d=2 rhs=8 indices {1,3} {1,3}",
        "slack: -1",
    ]


def test_witness_diagram_format(capsys):
    _, out, _ = run(capsys, ["witness", MID, "--format", "diagram"])
    assert out.splitlines() == [
        "level 1: Gr(3,7)",
        "*.*",
        "#+*",
        "#+*",
        "+++",
        " +*",
        "",
        "level 2: Gr(2,6) terminal",
        ".*",
        "+*",
        "+*",
        "++",
        "",
        "final: d=2 rhs=8 indices {1,3} {1,3} slack -1",
    ]


# --- diagram --------------------------------------------------------------------


def test_diagram_partition(capsys):
    _, out, _ = run(capsys, ["diagram", "0,1,3,3/4x5"])
    assert out == ".***\n..**\n..**\n....\n....\n"


def test_diagram_zero_partition(capsys):
    _, out, _ = run(capsys, ["diagram", "0,0/2x2"])
    assert out == "..\n..\n"


def test_diagram_01_word_matches_partition_form(capsys):
    _, from_word, _ = run(capsys, ["diagram", "1000110"])
    _, from_parts, _ = run(capsys, ["diagram", "0,3,3/3x4"])
    assert from_word == from_parts
    lam = string_to_partition(StepString("1000110", 1))
    assert from_word == render_pattern(lam) + "\n"


def test_diagram_012_word_with_blocks(capsys):
    code, out, _ = run(capsys, ["diagram", "021010201"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:7] == [
        "*****",
        ".**.*",
        "..*.*",
        "..*..",
        "   .*",
        "   .*",
        "   ..",
    ]
    assert lines[7:] == [
        "", "01:", "***", ".**", "..*", "..*",
        "", "02:", "**", ".*", ".*", "..",
        "", "12:", ".*", ".*", "..",
    ]


def test_diagram_012_word_without_1_is_its_01_string(capsys):
    # d = r: the two-step grid is the one-step grid of the word, '2' as '1'
    for word, as_01 in (("202", "101"), ("200020", "100010")):
        code, out, _ = run(capsys, ["diagram", word])
        assert code == 0
        assert (code, out) == run(capsys, ["diagram", as_01])[:2]


def test_diagram_012_word_without_0(capsys):
    # r = n: no quotient rows, so only the Hom(S, V/S) block has cells
    code, out, _ = run(capsys, ["diagram", "12"])
    assert code == 0
    assert out == " *\n\n01:\n\n\n02:\n\n\n12:\n*\n"


def test_diagram_shape_validation(capsys):
    # the letter counts fix d, r, n, so there is no option to restate them
    assert run(capsys, ["diagram", "021010201", "--shape", "2,5,9"])[0] == 2


def test_diagram_rejects_garbage(capsys):
    assert run(capsys, ["diagram", "abc"])[0] == 2
    assert run(capsys, ["diagram", ""])[0] == 2
    assert run(capsys, ["diagram", "0,3/1x2x3"])[0] == 2


# --- flag plumbing ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "3", "witness", MID],
        ["diagram", "012", "--prime", "7"],
        ["diagram", "012", "--format", "text"],
        ["inequalities", "2", "4", "2", "--format", "diagram"],
    ],
)
def test_flags_only_after_the_subcommand_that_reads_them(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 2 and out == ""


def test_seed_env_is_not_read(capsys, monkeypatch):
    _, plain, _ = run(capsys, ["witness", MID])
    monkeypatch.setenv("HORNKIT_SEED", "not-a-number")
    assert run(capsys, ["witness", MID])[:2] == (10, plain)


def test_run_config_validation(capsys):
    code, out, err = run(capsys, ["check", MID, "--prime", "9"])
    assert code == 2 and out == ""
    assert "argument --prime: p = 9 is not a prime number" in err
    code, out, _ = run(capsys, ["check", MID, "--trials", "0"])
    assert code == 2 and out == ""


def test_trials_are_checked_only_where_the_numeric_method_runs(capsys):
    for method in ("horn", "lr"):
        code, out, _ = run(capsys, ["check", MID, "--method", method, "--trials", "0"])
        assert code == 10 and json.loads(out)["nonzero"] is False
    code, out, err = run(capsys, ["check", MID, "--method", "numeric", "--trials", "0"])
    assert code == 2 and out == "" and "--trials must be at least 1" in err


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(97) and is_prime(2147483647)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**31)
    # a strong pseudoprime to several small bases, caught by the full base set
    assert not is_prime(3215031751)
