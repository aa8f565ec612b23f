"""Command-line front end.

Every subcommand reads and writes deterministic text, suitable for golden
file testing: identical inputs and flags produce byte-identical output.
Exit codes: 0 on success, 1 on domain errors (for example a non-pure braid,
a triple outside the trivial-group families, or a computation that ran out
of memory), 2 on usage or parse errors, undecodable input included, and 141
with nothing on stderr when the reader closes stdout early, as ``| head``
does.  ``main`` sets every exit code; handlers only print or raise.  Error
text goes to stderr.  File arguments accept ``-`` for stdin.  An argument
that starts with ``-`` and holds a comma before any ``=`` is a positional,
so a triple such as ``-1,-3,2`` is never taken for an option and errors
echo it as typed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .artin import (
    ArtinPresentation,
    artin_defect,
    compose,
    exponent_matrix,
    parse_presentation,
)
from .braids import artin_inverse, braid_to_artin, parse_braid
from .coset import Finite, FinitePresentation, enumerate_cosets
from .fourmanifolds import MovePath, classify_x4_with_path, export_kirby, form_invariants
from .triangle import enumerate_trivial, trivial_family
from .twogen import build_r2, format_tuple3, parse_tuple3, recognize_r2, tuple_add, tuple_neg
from .words import ParseError, _integer, format_word


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _int_option(text: str) -> int:
    """An integer option, read by the ASCII rule of the text grammars."""
    try:
        return _integer(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _format_path(path: MovePath) -> str:
    moves = (f"->{step.move}->({format_tuple3(step.result)})" for step in path.steps)
    return f"({format_tuple3(path.start)})" + "".join(moves)


def _cmd_verify(args: argparse.Namespace) -> None:
    n, relators = parse_presentation(_read_input(args.file))
    defect = artin_defect(n, relators)
    flag = "true" if not defect else "false"
    print(f"artin={flag} defect={format_word(defect)}")


def _same_input(a: str, b: str) -> bool:
    """Whether two file arguments name one input, such as ``-`` and
    ``/dev/stdin``.  Where a path cannot be stat'ed, or stdin has no file
    descriptor, only the same argument twice counts as one input."""
    try:
        stats = [os.fstat(sys.stdin.fileno()) if path == "-" else os.stat(path) for path in (a, b)]
    except OSError:
        return a == b
    return os.path.samestat(*stats)


def _cmd_compose(args: argparse.Namespace) -> None:
    # one input named twice is read once: stdin reads only once
    first = _read_input(args.first)
    second = first if _same_input(args.first, args.second) else _read_input(args.second)
    u = ArtinPresentation(*parse_presentation(first))
    r = ArtinPresentation(*parse_presentation(second))
    print(compose(u, r))


def _cmd_matrix(args: argparse.Namespace) -> None:
    n, relators = parse_presentation(_read_input(args.file))
    matrix = exponent_matrix(n, relators)
    for row in matrix.entries:
        print(" ".join(str(entry) for entry in row))
    print(f"det={matrix.det()}")
    print(f"symmetric={'true' if matrix.is_symmetric() else 'false'}")


def _cmd_braid(args: argparse.Namespace) -> None:
    p = args.convert(parse_braid(_read_input(args.file)))
    print(p)


def _cmd_tuple(args: argparse.Namespace) -> None:
    if args.action == "build":
        p = build_r2(parse_tuple3(args.args[0]))
        print(p)
    elif args.action == "recognize":
        p = ArtinPresentation(*parse_presentation(_read_input(args.args[0])))
        print(format_tuple3(recognize_r2(p)))
    elif args.action == "add":
        s = parse_tuple3(args.args[0])
        t = parse_tuple3(args.args[1])
        print(format_tuple3(tuple_add(s, t)))
    else:
        print(format_tuple3(tuple_neg(parse_tuple3(args.args[0]))))


def _cmd_classify(args: argparse.Namespace) -> None:
    t = parse_tuple3(args.tuple)
    manifold, path = classify_x4_with_path(t)
    inv = form_invariants(t)
    print(
        f"family={trivial_family(t).value} det={inv.det} signature={inv.signature} "
        f"parity={inv.parity.value} X4={manifold.value} path={_format_path(path)}"
    )


def _cmd_enum_trivial(args: argparse.Namespace) -> None:
    for t in enumerate_trivial(args.bound):
        manifold, _ = classify_x4_with_path(t)
        print(f"{format_tuple3(t)} family={trivial_family(t).value} X4={manifold.value}")


def _cmd_coset(args: argparse.Namespace) -> None:
    n, relators = parse_presentation(_read_input(args.file))
    result = enumerate_cosets(FinitePresentation(n, relators), args.max_cosets)
    if isinstance(result, Finite):
        print(f"order={result.order} cosets={result.cosets_defined}")
    else:
        print(f"exceeded={result.limit}")


def _cmd_export_kirby(args: argparse.Namespace) -> None:
    print(export_kirby(parse_tuple3(args.tuple)))


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string: str):
        # argparse's private hook that tells an option from a positional, and
        # the one place that knows about dash-led arguments.  No option of
        # this CLI holds a comma, so a comma before any "=" marks a positional
        # such as the triple -1,-3,2, while --bound=-1,2,3 stays an option.
        if arg_string.startswith("-") and "," in arg_string.partition("=")[0]:
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="artinpres",
        description="Artin presentation toolkit: verification, composition, "
        "braid bridge, coset enumeration, and the two-generator classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the defining identity of a presentation file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("compose", help="compose two Artin presentation files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("matrix", help="exponent-sum matrix, determinant, symmetry")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("braid2artin", help="Artin presentation of a framed pure braid file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_braid, convert=braid_to_artin)

    p = sub.add_parser("invert", help="presentation of the inverse of a framed pure braid file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_braid, convert=artin_inverse)

    p = sub.add_parser("tuple", help="two-generator family operations")
    actions = p.add_subparsers(dest="action", required=True)
    # a string metavar: argparse fails on a tuple one when an argument is missing
    for action, count, metavar in [("build", 1, "TRIPLE"), ("recognize", 1, "FILE"),
                                   ("add", 2, "TRIPLE"), ("neg", 1, "TRIPLE")]:
        actions.add_parser(action).add_argument("args", nargs=count, metavar=metavar)
    p.set_defaults(handler=_cmd_tuple)

    p = sub.add_parser("classify", help="family, invariants, 4-manifold, and move path")
    p.add_argument("tuple")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("enum-trivial", help="all trivial-group triples up to a bound")
    p.add_argument("--bound", type=_int_option, required=True)
    p.set_defaults(handler=_cmd_enum_trivial)

    p = sub.add_parser("coset", help="Todd-Coxeter coset enumeration of a presentation file")
    p.add_argument("file")
    p.add_argument("--max-cosets", type=_int_option, default=100_000)
    p.set_defaults(handler=_cmd_coset)

    p = sub.add_parser("export-kirby", help="framed-link descriptor of a triple")
    p.add_argument("tuple")
    p.set_defaults(handler=_cmd_export_kirby)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # as the SIGPIPE note of the signal docs does: devnull takes the
        # flush at exit, and 141 = 128 + SIGPIPE is a shell's exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):
        # OverflowError: a word too long to index, such as x1^(10^20)
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
