"""Command-line surface.

Each command is one row of COMMANDS: its path, its help, its handler
and its arguments.  A handler takes the parsed arguments and returns
either its result, printed as is and put in the JSON envelope as is, or
a tuple (json_result, text, exit_code); a text of None prints nothing.
The envelope's params are the parsed arguments.

Exit codes: 0 success, 1 usage errors, 2 domain errors (any library
error, running out of memory, or output closed before it was all
written), 3 inconclusive certificate parameters.  All data output is
byte-stable: canonical orderings everywhere, no timestamps, and exact
values however many digits they have.  --json
wraps results as {command, params, result}, written as
json.dumps(envelope, indent=2, sort_keys=True) writes it.  One writer,
_json, writes it on every Python, in half to 60% of json.dumps's time
before 3.13, where json.dumps with indent runs the pure-Python encoder.
From 3.13 json.dumps is faster; it replaces _json when 3.12 support goes.

A line is parsed once, by its command's own parser, built on first
use.  The tree of all parsers is built only for a line that no command
parser takes whole (root or group help, an unknown command, tokens left
over), and it prints that line's help or usage error.  The common
options follow a command's whole path, never its group alone.

The module loads only what the table, cocycle and certificate commands
use; the bisection, tail and selftest handlers import groupoid, tails
and selftest themselves, so no other command pays for loading them.
(`import vdk` loads each submodule on the first use of one of its names.)
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from .cantor import (
    Alphabet,
    format_clopen,
    format_point,
    format_word,
    parse_clopen,
    parse_point,
    parse_word,
)
from .certificate import check_certificate, convolution_count, fixture, pingpong_verify
from .errors import ArityMismatch, VdkError
from .measure import deficit, integral_sqrt_rn, mu, rn_exponent, rn_profile
from .tables import (
    act_clopen,
    act_point,
    compose,
    embed_supported,
    format_table,
    inverse,
    parse_table,
    transporter,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1.  A parser with
    subcommands (the root, a group) refuses an option but help before its
    subcommand at once: argparse would refuse it only after the
    subcommand's parser, which exits 0 on a help flag further on."""

    subcommands = False

    def add_subparsers(self, **kwargs):
        self.subcommands = True
        return super().add_subparsers(**kwargs)

    def parse_known_args(self, args=None, namespace=None):
        # "-" and "--" are no options, and argparse reads any prefix of --help as help
        first = args[0] if args else ""
        help_or_no_option = first == "-h" or "--help".startswith(first)
        if self.subcommands and first.startswith("-") and not help_or_no_option:
            self.error("unrecognized arguments: %s" % first)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _alphabet(args) -> Alphabet:
    a = Alphabet(args.d, args.k)
    if args.m < 1:
        raise VdkError("factor count needs m >= 1, got m=%d" % args.m)
    if args.m != 1:
        raise ArityMismatch(
            "this command reads single-factor words and needs --m 1, got --m %d" % args.m
        )
    return a


def h_compose(args):
    a = _alphabet(args)
    return format_table(compose(parse_table(a, args.tables[0]), parse_table(a, args.tables[1])))


def h_inverse(args):
    return format_table(inverse(parse_table(_alphabet(args), args.table)))


def h_reduce(args):
    return format_table(parse_table(_alphabet(args), args.table))


def h_act(args):
    a = _alphabet(args)
    g = parse_table(a, args.table)
    operand = args.operand.strip()
    if operand.startswith("{"):
        return format_clopen(act_clopen(g, parse_clopen(a, operand)))
    return format_point(act_point(g, parse_point(a, operand)))


def h_measure(args):
    return str(mu(parse_clopen(_alphabet(args), args.clopen)))


def h_cocycle_profile(args):
    prof = rn_profile(parse_table(_alphabet(args), args.table))
    result = [{"word": format_word(w), "exponent": j} for w, j in prof]
    return result, "\n".join("%s %d" % (format_word(w), j) for w, j in prof), 0


def h_cocycle_at_point(args):
    a = _alphabet(args)
    j = rn_exponent(parse_table(a, args.table), parse_point(a, args.point))
    return j, str(j), 0


def h_cocycle_integral(args):
    v = integral_sqrt_rn(parse_table(_alphabet(args), args.table))
    return v.to_json(), str(v), 0


def h_deficit(args):
    a = _alphabet(args)
    s = parse_clopen(a, args.clopen)
    return str(deficit(s, [parse_table(a, t) for t in args.tables]))


def h_bisection_to_table(args):
    from .groupoid import parse_bisection, to_table

    return format_table(to_table(parse_bisection(_alphabet(args), args.bisection)))


def h_bisection_from_table(args):
    from .groupoid import bisection_to_json, format_bisection, from_table

    u = from_table(parse_table(_alphabet(args), args.table))
    return bisection_to_json(u), format_bisection(u), 0


def h_bisection_compose(args):
    from .groupoid import bisection_compose, bisection_to_json, format_bisection, parse_bisection

    a = _alphabet(args)
    u = bisection_compose(*(parse_bisection(a, b) for b in args.bisections))
    return bisection_to_json(u), format_bisection(u), 0


def h_bisection_is_full(args):
    from .groupoid import is_full, parse_bisection

    full = is_full(parse_bisection(_alphabet(args), args.bisection))
    return full, "true" if full else "false", 0


def h_tail_related(args):
    from .tails import related

    a = _alphabet(args)
    w = related(parse_point(a, args.points[0]), parse_point(a, args.points[1]))
    if w is None:
        return {"related": False, "witness": None}, "unrelated", 0
    return {"related": True, "witness": w.to_json()}, "related p=%d q=%d" % (w.p, w.q), 0


def h_tail_orbit(args):
    from .tails import orbit_fragment

    x = parse_point(_alphabet(args), args.point)
    pts = sorted(format_point(y) for y in orbit_fragment(x, args.level))
    return pts, "\n".join(pts), 0


def h_certificate_check(args):
    a = _alphabet(args)
    f, cert = fixture(args.fixture)
    rep = check_certificate(f, parse_word(a, args.nu), certificate=cert, strict=False)
    return rep.to_json(), "\n".join(rep.lines()), 0 if rep.verdict == "PASS" else 3


def h_certificate_pingpong(args):
    f, cert = fixture(args.fixture)
    pingpong_verify(cert)
    rank = len(f.elements) // 2
    result = {"certified": True, "rank": rank, "F_size": len(f.elements)}
    return result, "certified: the fixture pair generates a free group of rank %d" % rank, 0


def h_certificate_convolution(args):
    n = convolution_count(fixture(args.fixture)[0], args.len, workers=args.workers)
    return n, str(n), 0


def h_transporter(args):
    a = _alphabet(args)
    return format_table(transporter(parse_word(a, args.words[0]), parse_word(a, args.words[1])))


def h_embed(args):
    a = _alphabet(args)
    base = Alphabet(args.d, args.d)
    return format_table(embed_supported(parse_table(base, args.table), parse_word(a, args.nu)))


def h_selftest(args):
    from . import selftest

    return None, None, selftest.run()


TABLE = ("table", {"metavar": "TABLE"})
POINT = ("point", {"metavar": "POINT"})
CLOPEN = ("clopen", {"metavar": "CLOPEN"})
BISECTION = ("bisection", {"metavar": "BISECTION"})
FIXTURE = ("--fixture", {"default": "free2", "help": "frozen generator fixture (default free2)"})

GROUPS = {
    "cocycle": "Radon-Nikodym cocycle tools",
    "bisection": "groupoid bisections",
    "tail": "tail equivalence",
    "certificate": "non-amenability certificate tools",
}

# (path, help, handler, arguments): a group's commands follow one another,
# and the group is listed where its first command is
COMMANDS = [
    ("compose", "compose two tables (left acts last)", h_compose,
     [("tables", {"nargs": 2, "metavar": "TABLE"})]),
    ("inverse", "invert a table", h_inverse, [TABLE]),
    ("reduce", "canonical form of a table", h_reduce, [TABLE]),
    ("act", "apply a table to a point or clopen", h_act,
     [TABLE, ("operand", {"metavar": "POINT_OR_CLOPEN"})]),
    ("measure", "Bernoulli mass of a clopen", h_measure, [CLOPEN]),
    ("cocycle profile", "per-block exponents", h_cocycle_profile, [TABLE]),
    ("cocycle at-point", "exponent at a point", h_cocycle_at_point, [TABLE, POINT]),
    ("cocycle integral-sqrt", "exact integral of sqrt of the cocycle", h_cocycle_integral, [TABLE]),
    ("deficit", "max mass moved off a clopen", h_deficit,
     [CLOPEN, ("tables", {"nargs": "+", "metavar": "TABLE"})]),
    ("bisection to-table", "table of a full bisection", h_bisection_to_table, [BISECTION]),
    ("bisection from-table", "bisection of a table", h_bisection_from_table, [TABLE]),
    ("bisection compose", "compose bisections", h_bisection_compose,
     [("bisections", {"nargs": 2, "metavar": "BISECTION"})]),
    ("bisection is-full", "whether a bisection is full", h_bisection_is_full, [BISECTION]),
    ("tail related", "minimal witness or 'unrelated'", h_tail_related,
     [("points", {"nargs": 2, "metavar": "POINT"})]),
    ("tail orbit", "orbit fragment up to a depth", h_tail_orbit,
     [POINT, ("--level", {"type": int, "default": 2, "help": "prefix depth bound (default 2)"})]),
    ("certificate check", "evaluate the inequality chain", h_certificate_check, [
        ("--nu", {"required": True, "metavar": "WORD",
                  "help": "embedding word in the (d,k) alphabet"}),
        FIXTURE,
    ]),
    ("certificate pingpong-verify", "verify the freeness certificate", h_certificate_pingpong,
     [FIXTURE]),
    ("certificate convolution-count", "closed-walk count at a word length",
     h_certificate_convolution, [
        FIXTURE,
        ("--len", {"dest": "len", "metavar": "LENGTH", "type": int, "default": 12,
                   "help": "even word length (default 12)"}),
        ("--workers", {"type": int, "default": 1,
                       "help": "accepted for compatibility; has no effect"}),
     ]),
    ("transporter", "element carrying one cylinder onto another", h_transporter,
     [("words", {"nargs": 2, "metavar": "WORD"})]),
    ("embed", "embed a V_{d,d} table on the cylinder of nu", h_embed,
     [TABLE, ("nu", {"metavar": "WORD"})]),
    ("selftest", "run the invariant suite", h_selftest, []),
]

# parsed arguments that say which command runs, not what it runs on
_NOT_PARAMS = ("command", "subcommand", "handler", "json")

# the row of each command, by the tokens of its path
_ROWS = {tuple(row[0].split()): row for row in COMMANDS}


def _add_command(parser, path, handler, arguments):
    """Give parser the common options, then the command's own arguments and defaults."""
    parser.add_argument("--d", type=int, default=2, help="branching degree (default 2)")
    parser.add_argument("--k", type=int, default=1, help="root arity (default 1)")
    parser.add_argument("--m", type=int, default=1, help="product factors (default 1)")
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(handler=handler, command=path)
    return parser


@functools.cache
def _command_parser(tokens: tuple) -> _Parser:
    """The parser of one command, as the tree's parser for it reads its arguments."""
    path, _, handler, arguments = _ROWS[tokens]
    return _add_command(_Parser(prog="vdk " + path), path, handler, arguments)


@functools.cache
def _build() -> _Parser:
    """The whole tree: the root parser, a parser for each group and one for each command."""
    parser = _Parser(
        prog="vdk",
        description="Higman-Thompson groups V_{d,k}: "
        "exact actions, measures, cocycles, certificates.",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True, metavar="COMMAND")}
    for path, summary, handler, arguments in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            g = subparsers[""].add_parser(group, help=GROUPS[group])
            subparsers[group] = g.add_subparsers(
                dest="subcommand", required=True, metavar="SUBCOMMAND"
            )
        _add_command(subparsers[group].add_parser(name, help=summary), path, handler, arguments)
    return parser


def _parse(argv: list):
    """The arguments of argv, parsed once by its command's own parser.

    The command is the leading two tokens of argv, or else the leading
    one, that spell a path of COMMANDS.  A line with no such command,
    or with tokens its command's parser leaves over, goes to the tree,
    whose help and usage errors are worded from the root down.
    """
    for n in (2, 1):
        tokens = tuple(argv[:n])
        if tokens in _ROWS:
            args, rest = _command_parser(tokens).parse_known_args(argv[n:])
            if not rest:
                return args
    return _build().parse_args(argv)


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) of the types an
    envelope holds: dicts with str keys, lists, strs, ints, bools and
    None; TypeError for anything else.  indent is the newline and the
    spaces that start a line at the depth of value."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        for key in value:
            if type(key) is not str:
                raise TypeError("keys must be str, not %s" % type(key).__name__)
        items = [
            encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def main(argv=None) -> int:
    args = _parse(list(sys.argv[1:] if argv is None else argv))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values print with however many digits they have
    try:
        out = args.handler(args)
        result, text, code = out if isinstance(out, tuple) else (out, out, 0)
        if text is not None:
            if args.json:
                params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
                envelope = {"command": args.command, "params": params, "result": result}
                text = _json(envelope)
            print(text)
        sys.stdout.flush()
    except VdkError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere, so the
        # interpreter's flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was all written", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
