"""Line-oriented command front-end.

Exit codes: 0 on pass/true, 1 on fail/false, 2 on usage or format
errors.  All stdout output is deterministic under a fixed seed; wall
time goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

# The other commands import their modules when they run, so that a process
# compiles and builds only what it uses; expr and freepairs serve most of them.
from . import expr, freepairs


def cmd_eval(args) -> int:
    print(expr.serialize(expr.parse_eval(args.expr)))
    return 0


def cmd_leq(args) -> int:
    ok = freepairs.leq(expr.parse_eval(args.left), expr.parse_eval(args.right))
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_join(args) -> int:
    x, y = expr.parse_eval(args.left), expr.parse_eval(args.right)
    print(expr.serialize(freepairs.join(x, y)))
    return 0


def cmd_rank(args) -> int:
    print(freepairs.rank(expr.parse_eval(args.expr)))
    return 0


def cmd_supp(args) -> int:
    print(" ".join(sorted(freepairs.support(expr.parse_eval(args.expr)))))
    return 0


def _print_verdict(verdict) -> int:
    print(verdict)
    return 0 if verdict.outcome is freepairs.Outcome.HOLDS else 1


def cmd_check_evaporation(args) -> int:
    verdict = freepairs.check_evaporation(
        args.alpha,
        args.beta,
        args.delta,
        args.i,
        args.j,
        expr.parse_eval(args.x),
        expr.parse_eval(args.y),
        expr.parse_eval(args.z),
    )
    return _print_verdict(verdict)


def cmd_check_lemma44(args) -> int:
    verdict = freepairs.check_cancellation(
        args.alpha, args.i, expr.parse_eval(args.x), expr.parse_eval(args.y)
    )
    return _print_verdict(verdict)


def cmd_con(args) -> int:
    from . import conlat
    L = conlat.parse_algebra(Path(args.file).read_text())
    if args.con_cmd == "conc":
        con, n = L.con_index, L.size
        print(f"conc size={len(con)} zero={len(con) - 1}")  # the identity is last
        for i, c in enumerate(con.cons):
            print(f"c{i} {c.serialize()}")
        for x in range(n):
            for y in range(n):
                print(f"theta {x} {y} = c{con.join(con.pmask[x * n + y])}")
        return 0
    if args.con_cmd == "theta":
        print(conlat.theta(L, args.x, args.y).serialize())
        return 0
    if args.con_cmd == "erosion":
        res = conlat.erosion(L, args.x0, args.x1, args.z)
        print(f"u0 {res.u0.serialize()}")
        print(f"u1 {res.u1.serialize()}")
        flags = [str(f).lower() for f in (res.congruent, *res.bounded, *res.member)]
        print("erosion congruent=%s bounded0=%s bounded1=%s member0=%s member1=%s" % tuple(flags))
        return 0 if res.ok else 1
    if args.con_cmd == "perm":
        ok = conlat.permutability(L, args.m)
        print("true" if ok else "false")
        return 0 if ok else 1
    if args.con_cmd == "quotient":
        Q, proj = conlat.quotient(L, conlat.theta(L, args.x, args.y))
        sys.stdout.write(conlat.format_algebra(Q))
        for x, b in enumerate(proj):
            print(f"proj {x} -> {b}")
        return 0
    if args.con_cmd == "wd":
        text = Path(args.mufile).read_text()
        mu = conlat.parse_semhom(text, len(L.con_index), lambda: conlat.conc(L).table)
        all_ok = True
        for x in range(mu.dom.size):
            ok = conlat.weakly_distributive_at(mu, x)
            all_ok &= ok
            print(f"wd at {x} {'true' if ok else 'false'}")
        print(f"weakly_distributive {'true' if all_ok else 'false'}")
        return 0 if all_ok else 1
    raise AssertionError(args.con_cmd)


def cmd_freeset(args) -> int:
    from . import freeset
    phi = freeset.parse_phi(Path(args.file).read_text())
    found = freeset.find_free(phi)
    if found is None:
        print("none")
        return 1
    print("free {%s}" % ",".join(found))
    return 0


def _generator_name(text: str) -> str:
    try:
        return expr.parse_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_name_set(text: str) -> frozenset:
    if text == "-":
        return frozenset()
    names = [name.strip() for name in text.split(",")]
    if "" in names:
        raise ValueError(f"empty name in {text!r}")
    from .conlat import distinct_names
    return frozenset(distinct_names(names))


def cmd_descent(args) -> int:
    from . import descent
    D = descent.parse_instance(Path(args.file).read_text())
    if args.descent_cmd == "validate":
        rep = descent.validate_instance(D)
        for line in rep.lines():
            print(line)
        return 0 if rep.ok else 1
    if args.descent_cmd == "er":
        ok = descent.check_er(
            D, args.r, args.k, _parse_name_set(args.xset), _parse_name_set(args.yset)
        )
        print("true" if ok else "false")
        return 0 if ok else 1
    if args.descent_cmd == "p":
        rep = descent.check_p(D, args.k, args.l)
        status = "true" if rep.ok else "false"
        extra = " vacuous" if rep.vacuous else ""
        print(f"P({args.k},{args.l}) {status} instances={rep.instances}{extra}")
        for r, X, Y in rep.failures:
            print(
                "fail r=%d X={%s} Y={%s}" % (r, ",".join(X), ",".join(Y))
            )
        return 0 if rep.ok else 1
    raise AssertionError(args.descent_cmd)


def cmd_suite(args) -> int:
    from . import suite
    for flag, value, least in (
        ("--cases", args.cases, 1),
        ("--max-rank", args.max_rank, 0),
        ("--omega-size", args.omega_size, 1),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    cfg = suite.SuiteConfig(
        seed=args.seed,
        cases=args.cases,
        max_rank=args.max_rank,
        omega_size=args.omega_size,
        corpus_dir=args.corpus,
    )
    start = time.monotonic()
    passed, results = suite.run_suites(cfg, only=args.only)
    elapsed = time.monotonic() - start
    for res in results:
        for line in res.lines:
            print(line)
    print(f"all-passed {'true' if passed else 'false'}")
    print(f"time {elapsed:.2f}s", file=sys.stderr)
    return 0 if passed else 1


@functools.cache  # one parser per process: main parses with it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slat",
        description="Exact computation in the generated distributive semilattice "
        "and congruence lattices of finite algebras.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to canonical form")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("leq", help="compare two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_leq)

    p = sub.add_parser("join", help="join two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_join)

    p = sub.add_parser("rank", help="rank of an expression's value")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("supp", help="support of an expression's value")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_supp)

    check = sub.add_parser("check", help="run a single law check")
    check_sub = check.add_subparsers(dest="check_cmd", required=True)

    p = check_sub.add_parser("evaporation")
    p.add_argument("--alpha", type=_generator_name, required=True)
    p.add_argument("--beta", type=_generator_name, required=True)
    p.add_argument("--delta", type=_generator_name, required=True)
    p.add_argument("--i", type=int, required=True, choices=(0, 1))
    p.add_argument("--j", type=int, required=True, choices=(0, 1))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(fn=cmd_check_evaporation)

    p = check_sub.add_parser("lemma44")
    p.add_argument("--alpha", type=_generator_name, required=True)
    p.add_argument("--i", type=int, required=True, choices=(0, 1))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=cmd_check_lemma44)

    con = sub.add_parser("con", help="congruence computations on an algebra file")
    con.add_argument("file")
    con_sub = con.add_subparsers(dest="con_cmd", required=True)
    con_sub.add_parser("conc")
    p = con_sub.add_parser("theta")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p = con_sub.add_parser("erosion")
    p.add_argument("x0", type=int)
    p.add_argument("x1", type=int)
    p.add_argument("z", type=int, nargs="+")
    p = con_sub.add_parser("perm")
    p.add_argument("m", type=int)
    p = con_sub.add_parser("quotient")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p = con_sub.add_parser("wd")
    p.add_argument("mufile")
    con.set_defaults(fn=cmd_con)

    p = sub.add_parser("freeset", help="search a map file for a free set")
    p.add_argument("file")
    p.set_defaults(fn=cmd_freeset)

    desc = sub.add_parser("descent", help="checks on a descent instance file")
    desc.add_argument("file")
    desc_sub = desc.add_subparsers(dest="descent_cmd", required=True)
    desc_sub.add_parser("validate")
    p = desc_sub.add_parser("er")
    p.add_argument("r", type=int)
    p.add_argument("k", type=int)
    p.add_argument("xset", help="comma-separated names, or - for empty")
    p.add_argument("yset", help="comma-separated names, or - for empty")
    p = desc_sub.add_parser("p")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    desc.set_defaults(fn=cmd_descent)

    p = sub.add_parser("suite", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--omega-size", type=int, default=4)
    p.add_argument("--only", default=None)
    p.add_argument("--corpus", default=None)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    # OSError covers unreadable paths; ValueError covers ParseError,
    # FormatError, DomainError and ReducedFormError.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deeply nested", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
