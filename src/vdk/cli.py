"""Command-line surface.

Exit codes: 0 success, 1 usage errors, 2 domain errors (any library
error, or running out of memory), 3 inconclusive certificate
parameters.  All data output is byte-stable: canonical orderings
everywhere, no timestamps.  --json wraps results as {command, params,
result}.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import selftest as selftest_mod
from .cantor import (
    Alphabet,
    format_clopen,
    format_point,
    parse_clopen,
    parse_point,
    parse_word,
)
from .certificate import check_certificate, convolution_count, fixture, pingpong_verify
from .errors import InconclusiveParameters, VdkError
from .groupoid import (
    bisection_compose,
    bisection_to_json,
    format_bisection,
    from_table,
    is_full,
    parse_bisection,
    to_table,
)
from .measure import deficit, integral_sqrt_rn, mu, rn_exponent, rn_profile
from .tables import (
    act_clopen,
    act_point,
    compose,
    embed_supported,
    format_table,
    format_word,
    inverse,
    parse_table,
    transporter,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _alphabet(args) -> Alphabet:
    return Alphabet(args.d, args.k, args.m)


def _params(args, **extra) -> dict:
    out = {"d": args.d, "k": args.k, "m": args.m}
    out.update(extra)
    return out


def h_compose(args):
    a = _alphabet(args)
    out = compose(parse_table(a, args.tables[0]), parse_table(a, args.tables[1]))
    s = format_table(out)
    return _params(args, tables=list(args.tables)), s, s, 0


def h_inverse(args):
    a = _alphabet(args)
    s = format_table(inverse(parse_table(a, args.table)))
    return _params(args, table=args.table), s, s, 0


def h_reduce(args):
    a = _alphabet(args)
    s = format_table(parse_table(a, args.table))
    return _params(args, table=args.table), s, s, 0


def h_act(args):
    a = _alphabet(args)
    g = parse_table(a, args.table)
    operand = args.operand.strip()
    if operand.startswith("{"):
        s = format_clopen(act_clopen(g, parse_clopen(a, operand)))
    else:
        s = format_point(act_point(g, parse_point(a, operand)))
    return _params(args, table=args.table, operand=args.operand), s, s, 0


def h_measure(args):
    a = _alphabet(args)
    s = str(mu(parse_clopen(a, args.clopen)))
    return _params(args, clopen=args.clopen), s, s, 0


def h_cocycle_profile(args):
    a = _alphabet(args)
    prof = rn_profile(parse_table(a, args.table))
    result = [{"word": format_word(w), "exponent": j} for w, j in prof]
    text = "\n".join("%s %d" % (format_word(w), j) for w, j in prof)
    return _params(args, table=args.table), result, text, 0


def h_cocycle_at_point(args):
    a = _alphabet(args)
    j = rn_exponent(parse_table(a, args.table), parse_point(a, args.point))
    return _params(args, table=args.table, point=args.point), j, str(j), 0


def h_cocycle_integral(args):
    a = _alphabet(args)
    v = integral_sqrt_rn(parse_table(a, args.table))
    return _params(args, table=args.table), v.to_json(), str(v), 0


def h_deficit(args):
    a = _alphabet(args)
    s = parse_clopen(a, args.clopen)
    elements = [parse_table(a, t) for t in args.tables]
    val = str(deficit(s, elements))
    return _params(args, clopen=args.clopen, tables=list(args.tables)), val, val, 0


def h_bisection_to_table(args):
    a = _alphabet(args)
    s = format_table(to_table(parse_bisection(a, args.bisection)))
    return _params(args, bisection=args.bisection), s, s, 0


def h_bisection_from_table(args):
    a = _alphabet(args)
    u = from_table(parse_table(a, args.table))
    return _params(args, table=args.table), bisection_to_json(u), format_bisection(u), 0


def h_bisection_compose(args):
    a = _alphabet(args)
    u = bisection_compose(
        parse_bisection(a, args.bisections[0]), parse_bisection(a, args.bisections[1])
    )
    return (
        _params(args, bisections=list(args.bisections)),
        bisection_to_json(u),
        format_bisection(u),
        0,
    )


def h_bisection_is_full(args):
    a = _alphabet(args)
    full = is_full(parse_bisection(a, args.bisection))
    return _params(args, bisection=args.bisection), full, "true" if full else "false", 0


def h_tail_related(args):
    from .tails import related

    a = _alphabet(args)
    w = related(parse_point(a, args.points[0]), parse_point(a, args.points[1]))
    if w is None:
        return _params(args, points=list(args.points)), {"related": False, "witness": None}, "unrelated", 0
    return (
        _params(args, points=list(args.points)),
        {"related": True, "witness": w.to_json()},
        "related p=%d q=%d" % (w.p, w.q),
        0,
    )


def h_tail_orbit(args):
    from .tails import orbit_fragment

    a = _alphabet(args)
    pts = sorted(
        format_point(y) for y in orbit_fragment(parse_point(a, args.point), args.level)
    )
    return _params(args, point=args.point, level=args.level), pts, "\n".join(pts), 0


def h_certificate_check(args):
    a = _alphabet(args)
    f, cert = fixture(args.fixture)
    nu = parse_word(a, args.nu)
    code = 0
    try:
        rep = check_certificate(f, nu, certificate=cert)
    except InconclusiveParameters as e:
        rep = e.report
        code = 3
    return (
        _params(args, nu=args.nu, fixture=args.fixture),
        rep.to_json(),
        "\n".join(rep.lines()),
        code,
    )


def h_certificate_pingpong(args):
    f, cert = fixture(args.fixture)
    pingpong_verify(cert)
    return (
        _params(args, fixture=args.fixture),
        {"certified": True, "rank": 2, "F_size": len(f.elements)},
        "certified: the fixture pair generates a free group of rank 2",
        0,
    )


def h_certificate_convolution(args):
    f, _ = fixture(args.fixture)
    n = convolution_count(f, args.length, workers=args.workers)
    return (
        _params(args, fixture=args.fixture, len=args.length, workers=args.workers),
        n,
        str(n),
        0,
    )


def h_transporter(args):
    a = _alphabet(args)
    g = transporter(parse_word(a, args.words[0]), parse_word(a, args.words[1]))
    s = format_table(g)
    return _params(args, words=list(args.words)), s, s, 0


def h_embed(args):
    a = _alphabet(args)
    base = Alphabet(args.d, args.d)
    g = embed_supported(parse_table(base, args.table), parse_word(a, args.nu))
    s = format_table(g)
    return _params(args, table=args.table, nu=args.nu), s, s, 0


def h_selftest(args):
    return None, None, None, selftest_mod.run()


@functools.cache
def _build() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, default=2, help="branching degree (default 2)")
    common.add_argument("--k", type=int, default=1, help="root arity (default 1)")
    common.add_argument("--m", type=int, default=1, help="product factors (default 1)")
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")

    parser = _Parser(prog="vdk", description="Higman-Thompson groups V_{d,k}: exact actions, measures, cocycles, certificates.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("compose", parents=[common], help="compose two tables (left acts last)")
    p.add_argument("tables", nargs=2, metavar="TABLE")
    p.set_defaults(handler=h_compose, command="compose")

    p = sub.add_parser("inverse", parents=[common], help="invert a table")
    p.add_argument("table", metavar="TABLE")
    p.set_defaults(handler=h_inverse, command="inverse")

    p = sub.add_parser("reduce", parents=[common], help="canonical form of a table")
    p.add_argument("table", metavar="TABLE")
    p.set_defaults(handler=h_reduce, command="reduce")

    p = sub.add_parser("act", parents=[common], help="apply a table to a point or clopen")
    p.add_argument("table", metavar="TABLE")
    p.add_argument("operand", metavar="POINT_OR_CLOPEN")
    p.set_defaults(handler=h_act, command="act")

    p = sub.add_parser("measure", parents=[common], help="Bernoulli mass of a clopen")
    p.add_argument("clopen", metavar="CLOPEN")
    p.set_defaults(handler=h_measure, command="measure")

    p = sub.add_parser("cocycle", parents=[common], help="Radon-Nikodym cocycle tools")
    csub = p.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    q = csub.add_parser("profile", parents=[common], help="per-block exponents")
    q.add_argument("table", metavar="TABLE")
    q.set_defaults(handler=h_cocycle_profile, command="cocycle profile")
    q = csub.add_parser("at-point", parents=[common], help="exponent at a point")
    q.add_argument("table", metavar="TABLE")
    q.add_argument("point", metavar="POINT")
    q.set_defaults(handler=h_cocycle_at_point, command="cocycle at-point")
    q = csub.add_parser("integral-sqrt", parents=[common], help="exact integral of sqrt of the cocycle")
    q.add_argument("table", metavar="TABLE")
    q.set_defaults(handler=h_cocycle_integral, command="cocycle integral-sqrt")

    p = sub.add_parser("deficit", parents=[common], help="max mass moved off a clopen")
    p.add_argument("clopen", metavar="CLOPEN")
    p.add_argument("tables", nargs="+", metavar="TABLE")
    p.set_defaults(handler=h_deficit, command="deficit")

    p = sub.add_parser("bisection", parents=[common], help="groupoid bisections")
    bsub = p.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    q = bsub.add_parser("to-table", parents=[common], help="table of a full bisection")
    q.add_argument("bisection", metavar="BISECTION")
    q.set_defaults(handler=h_bisection_to_table, command="bisection to-table")
    q = bsub.add_parser("from-table", parents=[common], help="bisection of a table")
    q.add_argument("table", metavar="TABLE")
    q.set_defaults(handler=h_bisection_from_table, command="bisection from-table")
    q = bsub.add_parser("compose", parents=[common], help="compose bisections")
    q.add_argument("bisections", nargs=2, metavar="BISECTION")
    q.set_defaults(handler=h_bisection_compose, command="bisection compose")
    q = bsub.add_parser("is-full", parents=[common], help="whether a bisection is full")
    q.add_argument("bisection", metavar="BISECTION")
    q.set_defaults(handler=h_bisection_is_full, command="bisection is-full")

    p = sub.add_parser("tail", parents=[common], help="tail equivalence")
    tsub = p.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    q = tsub.add_parser("related", parents=[common], help="minimal witness or 'unrelated'")
    q.add_argument("points", nargs=2, metavar="POINT")
    q.set_defaults(handler=h_tail_related, command="tail related")
    q = tsub.add_parser("orbit", parents=[common], help="orbit fragment up to a depth")
    q.add_argument("point", metavar="POINT")
    q.add_argument("--level", type=int, default=2, help="prefix depth bound (default 2)")
    q.set_defaults(handler=h_tail_orbit, command="tail orbit")

    p = sub.add_parser("certificate", parents=[common], help="non-amenability certificate tools")
    xsub = p.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    q = xsub.add_parser("check", parents=[common], help="evaluate the inequality chain")
    q.add_argument("--nu", required=True, metavar="WORD", help="embedding word in the (d,k) alphabet")
    q.add_argument("--fixture", default="free2", help="frozen generator fixture (default free2)")
    q.set_defaults(handler=h_certificate_check, command="certificate check")
    q = xsub.add_parser("pingpong-verify", parents=[common], help="verify the freeness certificate")
    q.add_argument("--fixture", default="free2")
    q.set_defaults(handler=h_certificate_pingpong, command="certificate pingpong-verify")
    q = xsub.add_parser("convolution-count", parents=[common], help="closed-walk count at a word length")
    q.add_argument("--fixture", default="free2")
    q.add_argument("--len", dest="length", type=int, default=12, help="even word length (default 12)")
    q.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    q.set_defaults(handler=h_certificate_convolution, command="certificate convolution-count")

    p = sub.add_parser("transporter", parents=[common], help="element carrying one cylinder onto another")
    p.add_argument("words", nargs=2, metavar="WORD")
    p.set_defaults(handler=h_transporter, command="transporter")

    p = sub.add_parser("embed", parents=[common], help="embed a V_{d,d} table on the cylinder of nu")
    p.add_argument("table", metavar="TABLE")
    p.add_argument("nu", metavar="WORD")
    p.set_defaults(handler=h_embed, command="embed")

    p = sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    p.set_defaults(handler=h_selftest, command="selftest")

    return parser


def main(argv=None) -> int:
    parser = _build()
    args = parser.parse_args(argv)
    try:
        params, result, text, code = args.handler(args)
    except VdkError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    if params is not None:
        if args.json:
            envelope = {"command": args.command, "params": params, "result": result}
            print(json.dumps(envelope, indent=2, sort_keys=True))
        else:
            print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
