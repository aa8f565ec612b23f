"""Command-line front end.

Every subcommand reads and writes deterministic text, suitable for golden
file testing: identical inputs and flags produce byte-identical output.
Exit codes: 0 on success, 1 on domain errors (for example a non-pure braid,
a triple outside the trivial-group families, or a computation that gave up,
reported as RuntimeError, or ran out of memory), 2 on usage or parse errors.
Error text goes to stderr.  File arguments accept ``-`` for stdin.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from .artin import (
    ArtinPresentation,
    artin_defect,
    compose,
    exponent_matrix,
    format_presentation,
    parse_presentation,
)
from .braids import artin_inverse, braid_to_artin, parse_braid
from .coset import Exceeded, Finite, FinitePresentation, Strategy, enumerate_cosets
from .fourmanifolds import (
    MovePath,
    classify_x4_with_path,
    enumerate_trivial,
    export_kirby,
    form_invariants,
    trivial_family,
)
from .twogen import build_r2, format_tuple3, parse_tuple3, recognize_r2, tuple_add, tuple_neg
from .words import ParseError, format_word


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _format_path(path: MovePath) -> str:
    def tup(t):
        return f"({t[0]},{t[1]},{t[2]})"

    parts = [tup(path.start)]
    for step in path.steps:
        parts.append(f"->{step.move}->{tup(step.result)}")
    return "".join(parts)


def _cmd_verify(args: argparse.Namespace) -> int:
    n, relators = parse_presentation(_read_input(args.file))
    defect = artin_defect(n, relators)
    flag = "true" if not defect else "false"
    print(f"artin={flag} defect={format_word(defect)}")
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    u = ArtinPresentation(*parse_presentation(_read_input(args.first)))
    r = ArtinPresentation(*parse_presentation(_read_input(args.second)))
    composed = compose(u, r)
    print(format_presentation(composed.n, composed.relators))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    n, relators = parse_presentation(_read_input(args.file))
    matrix = exponent_matrix(n, relators)
    for row in matrix.entries:
        print(" ".join(str(entry) for entry in row))
    print(f"det={matrix.det()}")
    print(f"symmetric={'true' if matrix.is_symmetric() else 'false'}")
    return 0


def _cmd_braid(args: argparse.Namespace) -> int:
    p = args.convert(parse_braid(_read_input(args.file)))
    print(format_presentation(p.n, p.relators))
    return 0


def _cmd_tuple(args: argparse.Namespace) -> int:
    if args.action == "build":
        p = build_r2(parse_tuple3(args.args[0]))
        print(format_presentation(p.n, p.relators))
    elif args.action == "recognize":
        p = ArtinPresentation(*parse_presentation(_read_input(args.args[0])))
        print(format_tuple3(recognize_r2(p)))
    elif args.action == "add":
        s = parse_tuple3(args.args[0])
        t = parse_tuple3(args.args[1])
        print(format_tuple3(tuple_add(s, t)))
    else:
        print(format_tuple3(tuple_neg(parse_tuple3(args.args[0]))))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    t = parse_tuple3(args.tuple)
    family = trivial_family(t)
    if family is None:
        raise ValueError(f"{format_tuple3(t)} is outside the trivial-group families")
    manifold, path = classify_x4_with_path(t)
    inv = form_invariants(t)
    print(
        f"family={family.value} det={inv.det} signature={inv.signature} "
        f"parity={inv.parity.value} X4={manifold.value} path={_format_path(path)}"
    )
    return 0


def _cmd_enum_trivial(args: argparse.Namespace) -> int:
    for t in enumerate_trivial(args.bound):
        family = trivial_family(t)
        manifold, _ = classify_x4_with_path(t)
        print(f"{format_tuple3(t)} family={family.value} X4={manifold.value}")
    return 0


def _cmd_coset(args: argparse.Namespace) -> int:
    n, relators = parse_presentation(_read_input(args.file))
    result = enumerate_cosets(
        FinitePresentation(n, relators),
        max_cosets=args.max_cosets,
        strategy=Strategy(args.strategy),
    )
    if isinstance(result, Finite):
        print(f"order={result.order} cosets={result.cosets_defined}")
    elif isinstance(result, Exceeded):
        print(f"exceeded={result.limit}")
    else:
        raise TypeError(f"unexpected coset enumeration result {result!r}")
    return 0


def _cmd_export_kirby(args: argparse.Namespace) -> int:
    print(export_kirby(parse_tuple3(args.tuple)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("action", choices=["build", "recognize", "add", "neg"])
    p.add_argument("args", nargs="+")
    p.set_defaults(handler=_cmd_tuple)

    p = sub.add_parser("classify", help="family, invariants, 4-manifold, and move path")
    p.add_argument("tuple")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("enum-trivial", help="all trivial-group triples up to a bound")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_enum_trivial)

    p = sub.add_parser("coset", help="Todd-Coxeter coset enumeration of a presentation file")
    p.add_argument("file")
    p.add_argument("--max-cosets", type=int, default=100_000)
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.RELATOR_FIRST.value,
    )
    p.set_defaults(handler=_cmd_coset)

    p = sub.add_parser("export-kirby", help="framed-link descriptor of a triple")
    p.add_argument("tuple")
    p.set_defaults(handler=_cmd_export_kirby)

    return parser


_NEGATIVE_TUPLE = re.compile(r"-\d+,-?\d+,-?\d+")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a leading space keeps tuples like -1,-3,2 from parsing as option flags
    argv = [" " + arg if _NEGATIVE_TUPLE.fullmatch(arg) else arg for arg in argv]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # validate tuple argument counts up front for uniform usage errors
    if getattr(args, "command", None) == "tuple":
        expected = 2 if args.action == "add" else 1
        if len(args.args) != expected:
            print(
                f"error: tuple {args.action} takes {expected} argument(s)",
                file=sys.stderr,
            )
            return 2
    try:
        return args.handler(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
