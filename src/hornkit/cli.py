"""Command-line front end.

Subcommands:

* ``check``        — decide whether a product of Schubert classes vanishes
                     (Horn recursion, Littlewood-Richardson expansion, and/or
                     the randomized exact tangent intersection).
* ``inequalities`` — stream the Horn inequalities for given (r, n, s).
* ``witness``      — run the kernel descent on a vanishing product and print
                     the certified violated inequality.
* ``diagram``      — draw the tangent pattern of a partition, a 01-string or
                     a 012-string, whose letter counts fix d, r and n, with
                     its blocks as the patterns of its (0,1), (0,2) and (1,2)
                     substrings; a word with no '1' is drawn as its 01-string.

Classes are written ``"0,1,3,3/4x5"`` (parts, then the rectangle r x cap)
and separated by ``';'``.  JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 nonzero / success, 10 product is zero, 2 bad input,
3 witness requested for a nonzero product, 4 random sampling exhausted,
1 internal disagreement, 141 (128 + SIGPIPE) stdout closed by its reader,
as in ``hornkit inequalities 6 12 3 | head -2``.  Integer arguments are
ASCII decimal integers (``-?[0-9]+``).

Flags follow the subcommand, and each subcommand takes only the flags it
reads (``hornkit check --help``).  The command line is the only input.

Start-up is part of every answer: a single ``check`` runs in a fresh
process, so the package imports only the standard-library modules it
uses (no ``dataclasses``, no ``inspect``; see ``hornkit._record``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from .exactla import DEFAULT_PRIME, check_prime
from .horn import Verdict, enumerate_horn, horn_verdict, lr_oracle
from .strings import (
    Partition,
    StepString,
    parse_partition,
    string_to_partition,
    substring_uv,
)
from .tangent import (
    hat_X,
    hat_Y,
    render_cells,
    render_overlay,
    render_pattern,
    transversality_verdict,
)
from .witness import (
    GenericityExhausted,
    NonVanishingProduct,
    WitnessTrace,
    find_witness,
)

__all__ = ["main"]

EXIT_NONZERO = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_NOT_VANISHING = 3
EXIT_GENERICITY = 4
EXIT_ZERO = 10
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a pipe writer


class CLIError(Exception):
    """Bad input; the message goes to stderr and the exit code is 2."""


def _decimal(text: str) -> int:
    """An ASCII decimal integer, -?[0-9]+: no sign but one minus, no
    spaces, underscores or non-ASCII digits, all of which int() accepts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    return int(text)


def _prime(text: str) -> int:
    """A ``--prime`` value: a decimal integer that ``check_prime`` accepts."""
    p = _decimal(text)
    try:
        check_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def parse_classes(text: str) -> tuple[tuple[Partition, ...], int, int]:
    """Parse a ';'-separated list of classes sharing one rectangle."""
    chunks = [chunk.strip() for chunk in text.split(";")]
    if not any(chunks):
        raise CLIError("no classes given")
    lams = []
    for i, chunk in enumerate(chunks, start=1):
        try:
            lams.append(parse_partition(chunk))
        except ValueError as exc:
            raise CLIError(f"class {i} ({chunk!r}): {exc}") from None
    r, cap = lams[0].r, lams[0].cap
    for i, lam in enumerate(lams, start=1):
        if lam.r != r or lam.cap != cap:
            raise CLIError(
                f"class {i} lies in {lam.r}x{lam.cap}, expected {r}x{cap}"
            )
    return tuple(lams), r, r + cap


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _format_indices(indices) -> str:
    return " ".join("{" + ",".join(map(str, idx)) + "}" for idx in indices)


# --- check -------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    wanted = ("horn", "lr", "numeric") if args.method == "all" else (args.method,)
    if "numeric" in wanted and args.trials < 1:
        raise CLIError("--trials must be at least 1")
    lams, r, n = parse_classes(args.classes)
    methods: dict[str, dict] = {}
    for name in wanted:
        if name == "horn":
            methods[name] = horn_verdict(lams, r, n).to_json_dict()
        elif name == "lr":
            methods[name] = Verdict(lr_oracle(lams, r, n), "lr-oracle").to_json_dict()
        else:
            methods[name] = transversality_verdict(
                lams, r, n, seed=args.seed, trials=args.trials, p=args.prime
            ).to_json_dict()
    answers = {doc["nonzero"] for doc in methods.values()}
    if len(answers) > 1:
        detail = ", ".join(f"{k}={v['nonzero']}" for k, v in methods.items())
        print(f"error: methods disagree ({detail})", file=sys.stderr)
        return EXIT_INTERNAL
    nonzero = answers.pop()
    doc = {
        "classes": [str(lam) for lam in lams],
        "r": r,
        "n": n,
        "s": len(lams),
        "methods": methods,
        "nonzero": nonzero,
    }
    if args.format == "json":
        _print_json(doc)
    else:
        if args.format == "diagram" and 0 < r < n:
            # One-step overlay: first class against the flag, second (if any)
            # against the opposite flag, further classes on their own grids.
            if len(lams) == 1:
                print(render_pattern(lams[0]))
            else:
                print(render_overlay(hat_X(lams[0]), hat_X(lams[1]), r, r, n))
            for extra in lams[2:]:
                print()
                print(render_pattern(extra))
            print()
        print(f"classes: {' ; '.join(doc['classes'])} (s={len(lams)} on Gr({r},{n}))")
        for name, rep in methods.items():
            line = f"{name}: {'nonzero' if rep['nonzero'] else 'zero'}"
            if rep.get("violated"):
                v = rep["violated"]
                idx = _format_indices(v["indices"])
                line += f" (violated d={v['d']} indices {idx} rhs {v['rhs']} slack {v['slack']})"
            if "achieved_dim" in rep:
                line += f" (achieved {rep['achieved_dim']}, expected {rep['expected_dim']})"
            print(line)
        print(f"verdict: {'nonzero' if nonzero else 'zero'}")
    return EXIT_NONZERO if nonzero else EXIT_ZERO


# --- inequalities ------------------------------------------------------------


def _format_ineq_text(ineq) -> str:
    return f"d={ineq.d} rhs={ineq.rhs} indices {_format_indices(ineq.indices)}"


def cmd_inequalities(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise CLIError("--limit must be at least 0")
    try:
        stream = enumerate_horn(args.r, args.n, args.s)
        count = 0
        for ineq in stream:
            if args.limit is not None and count >= args.limit:
                break
            if args.format == "json":
                print(json.dumps(ineq.to_json_dict(), separators=(",", ":")))
            else:
                print(_format_ineq_text(ineq))
            count += 1
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    return EXIT_NONZERO


# --- witness -----------------------------------------------------------------


def _level_cells(level) -> list[frozenset]:
    """Free-cell sets of a level's lifted positions, on the level's grid."""
    cells = []
    for lam, word in zip(level.lams, level.lifted_strings):
        if level.terminal:
            cells.append(hat_X(lam))
        else:
            sigma = StepString(word, 2)
            cells.append(hat_Y(sigma, level.phi_nullity, level.r, level.n))
    return cells


def _render_level(level) -> str:
    d = level.phi_nullity
    cells = _level_cells(level)
    if len(cells) == 2:
        return render_overlay(cells[0], cells[1], d, level.r, level.n)
    grids = [
        render_cells([c], d, level.r, level.n, symbols="*+#"[i % 3])
        for i, c in enumerate(cells)
    ]
    return "\n\n".join(grids)


def cmd_witness(args: argparse.Namespace) -> int:
    lams, r, n = parse_classes(args.classes)
    try:
        trace: WitnessTrace = find_witness(lams, r, n, seed=args.seed, p=args.prime)
    except NonVanishingProduct as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_VANISHING
    except GenericityExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    doc = {
        "classes": [str(lam) for lam in lams],
        "r": r,
        "n": n,
        **trace.to_json_dict(),
    }
    if args.format == "json":
        _print_json(doc)
    elif args.format == "text":
        print(f"classes: {' ; '.join(doc['classes'])} (s={len(lams)} on Gr({r},{n}))")
        for no, level in enumerate(trace.levels, start=1):
            tag = " terminal" if level.terminal else ""
            print(
                f"level {no}: Gr({level.r},{level.n}){tag} "
                f"(rank {level.phi_rank}, nullity {level.phi_nullity})"
            )
            print(f"  kernel positions: {' ; '.join(level.kernel_positions)}")
            print(f"  lifted: {' ; '.join(level.lifted_strings)}")
        print(f"certificates: {' ; '.join(trace.certificates)}")
        print(f"final: {_format_ineq_text(trace.final)}")
        print(f"slack: {trace.final_slack}")
    else:
        for no, level in enumerate(trace.levels, start=1):
            tag = " terminal" if level.terminal else ""
            print(f"level {no}: Gr({level.r},{level.n}){tag}")
            print(_render_level(level))
            print()
        print(f"final: {_format_ineq_text(trace.final)} slack {trace.final_slack}")
    return EXIT_ZERO


# --- diagram -----------------------------------------------------------------


def cmd_diagram(args: argparse.Namespace) -> int:
    text = args.pattern.strip()
    if "/" in text:
        try:
            lam = parse_partition(text)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        print(render_pattern(lam))
        return EXIT_NONZERO
    if not text or set(text) - set("012"):
        raise CLIError(f"{text!r} is neither a partition nor a 012-string")
    if "1" not in text or "2" not in text:  # d = 0 or d = r: a 01-string
        word = StepString(text.replace("2", "1"), 1)
        print(render_pattern(string_to_partition(word)))
        return EXIT_NONZERO
    sigma = StepString(text, 2)
    zeros, ones, twos = sigma.counts
    d, r, n = twos, ones + twos, sigma.n
    try:
        cells = hat_Y(sigma, d, r, n)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    print(render_cells([cells], d, r, n, symbols="*"))
    for u, v in ((0, 1), (0, 2), (1, 2)):
        print()
        print(f"{u}{v}:")
        print(render_pattern(string_to_partition(substring_uv(sigma, u, v))))
    return EXIT_NONZERO


# --- plumbing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornkit",
        description="Decide and certify vanishing of Schubert class products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide vanishing of a class product")
    p_check.add_argument("classes", help='e.g. "0,1,3,3/4x5 ; 3,3,3,5/4x5"')
    p_check.add_argument("--method", default="all",
                         choices=("horn", "lr", "numeric", "all"))
    p_check.add_argument("--trials", type=_decimal, default=3,
                         help="independent flag samples for the numeric method")
    p_check.set_defaults(func=cmd_check)

    p_ineq = sub.add_parser("inequalities", help="list Horn inequalities")
    p_ineq.add_argument("r", type=_decimal)
    p_ineq.add_argument("n", type=_decimal)
    p_ineq.add_argument("s", type=_decimal)
    p_ineq.add_argument("--limit", type=_decimal, default=None)
    p_ineq.add_argument("--format", default="json", choices=("json", "text"),
                        help="one JSON object or one text line per inequality")
    p_ineq.set_defaults(func=cmd_inequalities)

    p_wit = sub.add_parser("witness",
                           help="certify a vanishing product by kernel descent")
    p_wit.add_argument("classes")
    p_wit.set_defaults(func=cmd_witness)
    for p in (p_check, p_wit):
        p.add_argument("--prime", type=_prime, default=DEFAULT_PRIME,
                       help="field characteristic for exact linear algebra")
        p.add_argument("--seed", type=_decimal, default=0, help="random seed")
        p.add_argument("--format", default="json",
                       choices=("json", "text", "diagram"),
                       help="output format; diagram also draws tangent patterns")

    p_diag = sub.add_parser("diagram", help="draw a tangent pattern")
    p_diag.add_argument("pattern", help="partition like 0,1,3,3/4x5 or a 012-string")
    p_diag.set_defaults(func=cmd_diagram)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else EXIT_PARSE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # The idiom of the signal module's docs: point stdout at devnull so
        # that the interpreter's own flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
