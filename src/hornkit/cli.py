"""Command-line front end.

Subcommands:

* ``check``        — decide whether a product of Schubert classes vanishes
                     (Horn recursion, Littlewood-Richardson expansion, and/or
                     the randomized exact tangent intersection).
* ``inequalities`` — stream the Horn inequalities for given (r, n, s).
* ``witness``      — run the kernel descent on a vanishing product and print
                     the certified violated inequality.
* ``diagram``      — draw the tangent pattern of a partition or 012-string.

Classes are written ``"0,1,3,3/4x5"`` (parts, then the rectangle r x cap)
and separated by ``';'``.  JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 nonzero / success, 10 product is zero, 2 bad input,
3 witness requested for a nonzero product, 4 random sampling exhausted,
1 internal disagreement.  The environment variable HORNKIT_SEED supplies
the default seed.

Start-up is part of every answer: a single ``check`` runs in a fresh
process, so the package imports only the standard-library modules it
uses (no ``dataclasses``, no ``inspect``; see ``hornkit._record``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from ._record import Record, setfield
from .exactla import DEFAULT_PRIME, is_prime
from .horn import enumerate_horn, horn_verdict, lr_oracle
from .strings import Partition, StepString, parse_partition, string_to_partition
from .tangent import (
    hat_X,
    hat_Y,
    opposite_cells,
    render_cells,
    render_pattern,
    transversality_verdict,
)
from .witness import (
    GenericityExhausted,
    NonVanishingProduct,
    WitnessTrace,
    find_witness,
)

__all__ = ["RunConfig", "main"]

EXIT_NONZERO = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_NOT_VANISHING = 3
EXIT_GENERICITY = 4
EXIT_ZERO = 10


class CLIError(Exception):
    """Bad input; the message goes to stderr and the exit code is 2."""


class RunConfig(Record):
    __slots__ = ("prime", "seed", "trials", "fmt")

    def __init__(
        self,
        prime: int = DEFAULT_PRIME,
        seed: int = 0,
        trials: int = 3,
        fmt: str = "json",
    ) -> None:
        if not is_prime(prime):
            raise CLIError(f"--prime {prime} is not a prime number")
        if trials < 1:
            raise CLIError("--trials must be at least 1")
        if fmt not in ("json", "text", "diagram"):
            raise CLIError(f"unknown format {fmt!r}")
        setfield(self, "prime", prime)
        setfield(self, "seed", seed)
        setfield(self, "trials", trials)
        setfield(self, "fmt", fmt)
        setfield(self, "_key", (prime, seed, trials, fmt))


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


# --- check -------------------------------------------------------------------


def cmd_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    lams, r, n = parse_classes(args.classes)
    wanted = ("horn", "lr", "numeric") if args.method == "all" else (args.method,)
    methods: dict[str, dict] = {}
    for name in wanted:
        if name == "horn":
            methods[name] = horn_verdict(lams, r, n).to_json_dict()
        elif name == "lr":
            methods[name] = {
                "nonzero": lr_oracle(lams, r, n),
                "method": "lr-oracle",
                "violated": None,
            }
        else:
            report = transversality_verdict(
                lams, seed=cfg.seed, trials=cfg.trials, p=cfg.prime
            )
            methods[name] = {
                "nonzero": report.nonzero,
                "method": "numeric",
                "violated": None,
                "achieved_dim": report.achieved_dim,
                "expected_dim": report.expected_dim,
            }
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
    if cfg.fmt == "json":
        _print_json(doc)
    else:
        if cfg.fmt == "diagram" and 0 < r < n:
            # One-step overlay: first class against the flag, second (if any)
            # against the opposite flag, further classes on their own grids.
            layers = [hat_X(lams[0]).free]
            if len(lams) > 1:
                layers.append(opposite_cells(hat_X(lams[1]).free, r, r, n))
            print(render_cells(layers, r, r, n))
            for extra in lams[2:]:
                print()
                print(render_cells([hat_X(extra).free], r, r, n, symbols="*"))
            print()
        print(f"classes: {' ; '.join(doc['classes'])} (s={len(lams)} on Gr({r},{n}))")
        for name, rep in methods.items():
            line = f"{name}: {'nonzero' if rep['nonzero'] else 'zero'}"
            if rep.get("violated"):
                v = rep["violated"]
                idx = " ".join(
                    "{" + ",".join(map(str, i)) + "}" for i in v["indices"]
                )
                line += f" (violated d={v['d']} indices {idx} rhs {v['rhs']} slack {v['slack']})"
            if "achieved_dim" in rep:
                line += f" (achieved {rep['achieved_dim']}, expected {rep['expected_dim']})"
            print(line)
        print(f"verdict: {'nonzero' if nonzero else 'zero'}")
    return EXIT_NONZERO if nonzero else EXIT_ZERO


# --- inequalities ------------------------------------------------------------


def _format_ineq_text(ineq) -> str:
    idx = " ".join("{" + ",".join(map(str, i)) + "}" for i in ineq.indices)
    return f"d={ineq.d} rhs={ineq.rhs} indices {idx}"


def cmd_inequalities(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        stream = enumerate_horn(args.r, args.n, args.s)
        count = 0
        for ineq in stream:
            if args.limit is not None and count >= args.limit:
                break
            if cfg.fmt == "json":
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
            cells.append(hat_X(lam).free)
        else:
            sigma = StepString(word, 2)
            cells.append(hat_Y(sigma, level.phi_nullity, level.r, level.n).full.free)
    return cells


def _render_level(level) -> str:
    d = level.phi_nullity if not level.terminal else level.r
    cells = _level_cells(level)
    if len(cells) == 2:
        layers = [cells[0], opposite_cells(cells[1], d, level.r, level.n)]
        return render_cells(layers, d, level.r, level.n)
    grids = [
        render_cells([c], d, level.r, level.n, symbols="*+#"[i % 3])
        for i, c in enumerate(cells)
    ]
    return "\n\n".join(grids)


def cmd_witness(args: argparse.Namespace, cfg: RunConfig) -> int:
    lams, r, n = parse_classes(args.classes)
    try:
        trace: WitnessTrace = find_witness(lams, r, n, seed=cfg.seed, p=cfg.prime)
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
    if cfg.fmt == "json":
        _print_json(doc)
    elif cfg.fmt == "text":
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


def cmd_diagram(args: argparse.Namespace, cfg: RunConfig) -> int:
    text = args.pattern.strip()
    if "/" in text:
        try:
            lam = parse_partition(text)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        print(render_pattern(hat_X(lam)))
        return EXIT_NONZERO
    if not text or set(text) - set("012"):
        raise CLIError(f"{text!r} is neither a partition nor a 012-string")
    if "2" not in text:
        lam = string_to_partition(StepString(text, 1))
        print(render_pattern(hat_X(lam)))
        return EXIT_NONZERO
    sigma = StepString(text, 2)
    zeros, ones, twos = sigma.counts
    d, r, n = twos, ones + twos, sigma.n
    if args.shape:
        try:
            given = tuple(int(x) for x in args.shape.split(","))
        except ValueError:
            raise CLIError(f"--shape {args.shape!r} is not d,r,n") from None
        if given != (d, r, n):
            raise CLIError(
                f"--shape {given} does not match the string's letter counts {(d, r, n)}"
            )
    try:
        model = hat_Y(sigma, d, r, n)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    print(render_cells([model.full.free], d, r, n, symbols="*"))
    for name, block in zip(("01", "02", "12"), model.blocks):
        print()
        print(f"{name}:")
        print(render_pattern(block))
    return EXIT_NONZERO


# --- plumbing ----------------------------------------------------------------


def _add_run_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # On subparsers the defaults are SUPPRESS so a flag given before the
    # subcommand is not clobbered; real defaults live on the top parser.
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--prime", type=int, default=d(DEFAULT_PRIME),
                        help="field characteristic for exact linear algebra")
    parser.add_argument("--seed", type=int, default=d(None),
                        help="random seed (default: $HORNKIT_SEED, then 0)")
    parser.add_argument("--trials", type=int, default=d(3),
                        help="independent flag samples for the numeric method")
    parser.add_argument("--format", default=d("json"),
                        choices=("json", "text", "diagram"),
                        help="output format (diagram applies to witness/diagram)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornkit",
        description="Decide and certify vanishing of Schubert class products.",
    )
    _add_run_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide vanishing of a class product")
    p_check.add_argument("classes", help='e.g. "0,1,3,3/4x5 ; 3,3,3,5/4x5"')
    p_check.add_argument("--method", default="all",
                         choices=("horn", "lr", "numeric", "all"))
    p_check.set_defaults(func=cmd_check)

    p_ineq = sub.add_parser("inequalities", help="list Horn inequalities")
    p_ineq.add_argument("r", type=int)
    p_ineq.add_argument("n", type=int)
    p_ineq.add_argument("s", type=int)
    p_ineq.add_argument("--limit", type=int, default=None)
    p_ineq.set_defaults(func=cmd_inequalities)

    p_wit = sub.add_parser("witness",
                           help="certify a vanishing product by kernel descent")
    p_wit.add_argument("classes")
    p_wit.set_defaults(func=cmd_witness)

    p_diag = sub.add_parser("diagram", help="draw a tangent pattern")
    p_diag.add_argument("pattern", help="partition like 0,1,3,3/4x5 or a 012-string")
    p_diag.add_argument("--shape", default=None,
                        help="d,r,n to validate a 012-string against")
    p_diag.set_defaults(func=cmd_diagram)
    for p in (p_check, p_ineq, p_wit, p_diag):
        _add_run_flags(p, top=False)
    return parser


def _seed_from_env() -> int:
    raw = os.environ.get("HORNKIT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CLIError(f"HORNKIT_SEED={raw!r} is not an integer") from None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else EXIT_PARSE
    try:
        seed = args.seed if args.seed is not None else _seed_from_env()
        cfg = RunConfig(args.prime, seed, args.trials, args.format)
        return args.func(args, cfg)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
