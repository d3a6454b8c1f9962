"""
Command-line front end: enumeration, Wilf classification, canonical forms,
generating functions, roots, and verification as reproducible batch runs.

Identical invocations produce byte-identical output.  Results go to stdout
unless --out is given; diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure or data error, 2 usage error.  An omitted --depth
is the least that proves the Wilf classes of the pattern size asked for.

A flat key=value file passed with --config supplies defaults that explicit
flags override, for scripted runs.  The argument parsers are built on the
first run and shared by every later run in the process; ``run`` hands an op
that starts with a command word to that command's parser, so each such op
takes one argparse pass.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Decimal
from json.encoder import encode_basestring_ascii

from .canonical import (
    canonical_pair,
    canonical_partition,
    format_canonical_pair,
    format_canonical_partition,
)
from .encodings import ClassId, format_function, member_texts, parse_element
from .engine import (
    CollapseRow,
    collapse_row,
    collapse_rows,
    gf_crosscheck,
    proving_depth,
    verify_completeness,
    verify_soundness,
    wilf_classes,
)
from .errors import GFMismatchError, ParseError
from .genfun import avoid_gf, layered_root, lis_root

MAX_ENUMERATE_SIZE = 18  # bounds the 2^(n-1) rows enumerate prints; it counts nothing
# the library takes any size and depth; classify, verify and report list 2^(n-1)
# patterns, which c4 counts in seconds at MAX_PATTERN_SIZE; the depth limit is
# the largest proving depth there, so every size listed can be proved
MAX_PATTERN_SIZE = 12
MAX_DEPTH = max(proving_depth(c, MAX_PATTERN_SIZE) for c in ClassId)


def _int_in(low: int, high: int | None = None):
    """An argparse type for integers from low to high, or no upper end when high is None."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wilfcollapse",
        description=(
            "Exact enumeration and Wilf-class verification for the four "
            "permutation classes avoiding 312 together with one further "
            "size-3 pattern."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command word -> its parser, for _parse

    def add_command(name, help, handler, *, with_format, classes=("c1", "c2", "c3", "c4"),
                    max_n=None, with_depth=False):
        p = sub.add_parser(name, help=help)
        # checks after parsing report their usage errors through this parser
        p.set_defaults(command=name, parser=p, handler=handler)
        p.add_argument("--config", help="flat key=value file of option defaults")
        if with_format:
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", help="write output to this path instead of stdout")
        if classes:
            p.add_argument("--class", dest="class_id", required=True, choices=classes)
        if max_n is not None:
            p.add_argument("--n", type=_int_in(0, max_n), required=True)
        if with_depth:
            p.add_argument("--depth", type=_int_in(0, MAX_DEPTH),
                           help="default: the least depth that proves Wilf classes")
        return p

    add_command("enumerate", "list all class members of one size", _cmd_enumerate,
                with_format=True, max_n=MAX_ENUMERATE_SIZE)
    add_command("classify", "group size-n patterns by their avoider counting sequences",
                _cmd_classify, with_format=True, max_n=MAX_PATTERN_SIZE, with_depth=True)

    p = add_command("canon", "canonical form of a layered or sum-word pattern", _cmd_canon,
                    with_format=False, classes=("c3", "c4"))
    p.add_argument("--element", required=True)

    p = add_command("gf", "avoidance generating function of a pattern", _cmd_gf,
                    with_format=False, classes=("c3", "c4"))
    p.add_argument("--pattern", required=True)
    p.add_argument("--expand", type=_int_in(0), default=None, metavar="N",
                   help="also print series coefficients up to order N")

    p = add_command("roots", "table of separating real roots", _cmd_roots,
                    with_format=True, classes=())
    p.add_argument("--family", choices=["q", "layered"], required=True)
    p.add_argument("--max-n", type=_int_in(1), required=True)

    add_command("verify", "check the canonical grouping against avoider counts", _cmd_verify,
                with_format=False, max_n=MAX_PATTERN_SIZE, with_depth=True)

    p = add_command("report", "collapse table n, c_n, w_n, canonical count", _cmd_report,
                    with_format=True, with_depth=True)
    p.add_argument("--max-n", type=_int_in(1, MAX_PATTERN_SIZE), required=True)

    return parser


def _check_size_and_depth(args) -> None:
    """
    The rules that read two flags; each flag's own range is checked by its
    argparse type as it is parsed.  Reject a layered root table that stops
    before its first index 2, and a --depth that cannot separate patterns of
    size n: to depth n all size-n patterns share their counts, as every member
    below size n avoids them and at size n all but the pattern itself do.  An
    omitted --depth is ``engine.proving_depth`` of n; below that w_n may merge
    Wilf classes, and classify and report say so in a note on stderr.
    """
    parser = args.parser
    if args.command == "roots" and args.family == "layered" and args.max_n < 2:
        parser.error(f"--max-n {args.max_n} below 2, the first layered index")
    if "depth" not in args:
        return
    flag, size = ("--max-n", args.max_n) if args.command == "report" else ("--n", args.n)
    proving = proving_depth(args.class_id, size)
    if args.depth is None:
        args.depth = proving
    if size >= 2 and args.depth <= size:
        parser.error(f"--depth {args.depth} must exceed {flag} {size} to separate patterns")
    if args.depth < proving and args.command != "verify":  # verify reports the merge
        print(f"note: --depth {args.depth} is below D({size}) = {proving}, the depth that "
              f"proves Wilf classes of size {size}; w_n may merge classes", file=sys.stderr)


def _parse(argv: list[str]) -> argparse.Namespace:
    """
    One argparse pass per op.  An op that starts with a command word goes
    straight to that command's parser: the top-level parser's own pass would
    only pick the word and hand the rest over.  Leftover tokens are reported
    through the top-level parser, with its usage line, as its parse_args
    reports them.  Any other op (none, -h, an unknown word, a leading "--")
    goes through the top-level parser.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


@functools.cache
def _config_finder() -> argparse.ArgumentParser:
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    return finder


def _apply_config(argv: list[str]) -> list[str]:
    """
    Splice key=value pairs from a --config file in as defaults.  The flag is
    found by argparse, so every spelling it takes for --config is read; a
    --config without PATH is left for the subcommand's parser to report.
    Only a token whose part before "=" begins "--" and is a prefix of
    "--config" can name the flag; without one the finder's pass is skipped.
    """
    if not any(tok.startswith("--") and "--config".startswith(tok.partition("=")[0])
               for tok in argv):
        return argv
    try:
        path = _config_finder().parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return argv
    if path is None:
        return argv
    injected: list[str] = []
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is skipped
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if not key.strip():  # "--" would end option parsing
                raise ValueError(f"{path}, line {number}: no key in {line!r}")
            injected += [f"--{key.strip()}", value.strip()]
    # Defaults go right after the subcommand so explicit flags win.
    return argv[:1] + injected + argv[1:]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: tuple[str, ...], rows: list | tuple) -> str:
    # every field is an int, a header name, lis/layered or a .15f float: none
    # holds a comma, quote or line break, so none is quoted
    return "".join([",".join(map(str, row)) + "\n" for row in (header, *rows)])


def _cmd_enumerate(args) -> int:
    # the bytes json.dumps(indent=2, sort_keys=True) and csv.writer would
    # write, built directly: with an indent json.dumps runs its pure-Python
    # encoder, and csv.writer tests every field
    class_id, n = args.class_id, args.n
    elements = member_texts(class_id, n, "element")
    if args.format == "json":
        # every class has a member of every size, so the list is never empty
        body = ",\n    ".join(map(encode_basestring_ascii, elements))
        _emit(f'{{\n  "class": {encode_basestring_ascii(class_id.value)},\n'
              f'  "count": {len(elements)},\n  "elements": [\n    {body}\n  ],\n'
              f'  "n": {n}\n}}\n', args.out)
    else:
        # no text holds a quote or a line break, so a field is quoted exactly
        # when it holds a comma: every c1 element text does and no other
        # element text does; a permutation text does from size 2 on
        perms = member_texts(class_id, n, "permutation")
        qe = '"' if class_id is ClassId.AV_312_123 else ""
        qp = '"' if n >= 2 else ""
        mid, end = f"{qe},{qp}", f"{qp}\n{qe}"  # between the fields, between the rows
        rows = end.join([f"{e}{mid}{p}" for e, p in zip(elements, perms)])
        _emit(f"element,permutation\n{qe}{rows}{qp}\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    class_id = args.class_id
    groups = wilf_classes(class_id, args.n, args.depth)
    row = collapse_row(class_id, args.n, groups)
    if args.format == "json":
        fmt = format_function(class_id)
        payload = {
            "class": class_id.value,
            "depth": args.depth,
            **row._asdict(),
            "groups": [
                {"members": [fmt(m) for m in g.members], "counts": list(g.counts)}
                for g in groups
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_csv_text(CollapseRow._fields, [row]), args.out)
    return 0


def _cmd_canon(args) -> int:
    element = parse_element(args.class_id, args.element)
    if args.class_id is ClassId.AV_312_231:
        text = format_canonical_partition(canonical_partition(element))
    else:
        text = format_canonical_pair(canonical_pair(element))
    _emit(text + "\n", args.out)
    return 0


def _cmd_gf(args) -> int:
    gf = avoid_gf(args.class_id, parse_element(args.class_id, args.pattern))
    text = str(gf) + "\n"
    if args.expand is not None:
        # exact Decimal integers: no big int is ever converted to text
        coeffs = gf.decimal_coefficients(args.expand)
        # Python's int-to-string limit stays the bound on a printed coefficient;
        # 0 (no limit) on a Python without one, before 3.10.7
        limit = getattr(sys, "get_int_max_str_digits", int)()
        # adjusted() is the digit count - 1; copy_abs, as abs() rounds to 28 digits
        if limit and max(map(Decimal.copy_abs, coeffs)).adjusted() >= limit:
            k = next(k for k, c in enumerate(coeffs) if c.adjusted() >= limit)
            raise ValueError(
                f"the coefficient of t^{k} has more than {limit} digits; lower --expand"
            )
        # integers are never quoted, so these are the csv writer's bytes; !s, as
        # Decimal.__format__ takes twice as long as str
        text += "n,count\n" + "".join([f"{k},{c!s}\n" for k, c in enumerate(coeffs)])
    _emit(text, args.out)
    return 0


def _cmd_roots(args) -> int:
    q = args.family == "q"
    kind, root, first = ("lis", lis_root, 1) if q else ("layered", layered_root, 2)
    rows = [(kind, n, f"{root(n):.15f}") for n in range(first, args.max_n + 1)]
    if args.format == "json":
        # the bytes of json.dumps(payload, indent=2), built directly as in
        # enumerate: json writes a float as its repr, and the list is never empty
        body = "\n  },\n  {\n".join([
            f'    "kind": "{kind}",\n    "index": {index},\n    "value": {float(value)!r}'
            for kind, index, value in rows
        ])
        _emit(f"[\n  {{\n{body}\n  }}\n]\n", args.out)
    else:
        _emit(_csv_text(("kind", "index", "value"), rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    class_id = args.class_id
    lines = []
    failures = 0
    if class_id in (ClassId.AV_312_231, ClassId.AV_312_321):
        violations = verify_soundness(class_id, args.n, args.depth)
        lines.append(f"soundness,{f'{len(violations)} violations' if violations else 'ok'}")
        unseparated = verify_completeness(class_id, args.n, args.depth)
        lines.append(
            f"completeness,{f'{len(unseparated)} unseparated' if unseparated else 'ok'}"
        )
        failures += bool(violations) + bool(unseparated)
        try:
            checked = gf_crosscheck(class_id, args.n, args.depth)
            lines.append(f"gf_crosscheck,ok ({checked} patterns)")
        except GFMismatchError as exc:
            # the message holds commas, so the field is quoted as csv.writer quotes it
            failed = f"failed: {exc}".replace('"', '""')
            lines.append(f'gf_crosscheck,"{failed}"')
            failures += 1
    else:
        row = collapse_row(class_id, args.n, wilf_classes(class_id, args.n, args.depth))
        ok = row.w_n == row.canonical_count
        lines.append(f"wilf_count,{'ok' if ok else f'{row.w_n} != {row.canonical_count}'}")
        failures += not ok
    _emit("check,result\n" + "\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def _cmd_report(args) -> int:
    rows = collapse_rows(args.class_id, args.max_n, args.depth)
    if args.format == "json":
        _emit(json.dumps([r._asdict() for r in rows], indent=2) + "\n", args.out)
    else:
        _emit(_csv_text(CollapseRow._fields, rows), args.out)
    return 0


def run(argv: list[str]) -> int:
    try:
        argv = _apply_config(argv)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        args = _parse(argv)
        if "class_id" in args:
            args.class_id = ClassId(args.class_id)
        _check_size_and_depth(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
