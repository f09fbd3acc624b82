"""Command line frontend: script execution, harness, example replication.

Subcommands:
    run <file>           execute a script
    harness              run the seeded proposition harness
    examples             list or replicate the shipped example families

Global options go before the subcommand: --format and --seed (else the
integer in TORSIONLAB_SEED, else 42).  A replication window comes from
``examples --window`` or a script's ``family`` statement.  Assassin scans
are exact, so no option bounds them.

Exit codes: 0 all claims hold, 1 a claim failed or a violation was found,
2 usage, parse, or script errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import reports
from .dsl import (
    CheckStatement,
    FamilyStatement,
    IdealStatement,
    NameRef,
    QueryStatement,
    RingStatement,
    RunExampleStatement,
    expand_element,
    expand_ideal,
    expand_ring,
    parse,
)
from .errors import NonConfluent, ParseError, TorsionlabError
from .families import (
    DEFAULT_LEVELS,
    DEFAULT_WINDOW,
    check_schedule,
    family_tags,
    get_family,
    replicate_example,
)
from .harness import DEFAULT_INSTANCES, DEFAULT_SEED, proposition_harness
from .ideals import (
    format_ideal,
    ideal_colon,
    ideal_colon_ideal,
    ideal_membership,
    ideal_radical,
    ideal_saturation,
    minimal_primes,
)
from .ring import check_local_confluence
from .spectrum import assassins_cyclic, format_prime, weak_assassins_cyclic
from .torsion import (
    fairness_report,
    gamma_large_cyclic,
    gamma_small_cyclic,
)


class _Session:
    def __init__(self, seed):
        self.seed = seed
        self.rings = {}
        self.ideals = {}  # name -> (ring name, IdealHandle)
        self.current_ring = None
        self.schedules = {}  # family tag -> (levels tuple, window)
        self.failed = False

    def ideal_named(self, name):
        if name not in self.ideals:
            raise TorsionlabError("undefined ideal %r" % name)
        return self.ideals[name]

    def ideals_named(self, *names):
        """The ideals under ``names``, which must live in one ring."""
        entries = [self.ideal_named(n) for n in names]
        if len({ring for ring, _ in entries}) > 1:
            raise TorsionlabError(
                "ideals %s live in different rings" % ", ".join(sorted(names)))
        return [handle for _, handle in entries]


def _execute_query(session, stmt):
    kind = stmt.kind
    if kind == "membership":
        element, name = stmt.arguments
        ideal = session.ideal_named(name.name)[1]
        return reports.membership_tree(ideal_membership(
            expand_element(element, ideal.ring), ideal))
    ideals = session.ideals_named(
        *[a.name for a in stmt.arguments if isinstance(a, NameRef)])
    if kind in ("gamma", "gammabar"):
        run = gamma_small_cyclic if kind == "gamma" else gamma_large_cyclic
        return reports.torsion_tree(run(*ideals))
    if kind == "saturation":
        return reports.saturation_tree(ideal_saturation(*ideals))
    if kind == "colon":
        if len(ideals) == 2:
            result = ideal_colon_ideal(*ideals)
        else:
            result = ideal_colon(ideals[0], expand_element(
                stmt.arguments[1], ideals[0].ring))
        return {"ideal": format_ideal(result), "complete": result.complete}
    (ideal,) = ideals
    if kind == "radical":
        return {"ideal": format_ideal(ideal_radical(ideal))}
    if kind == "minprimes":
        return {"primes": [format_prime(p) for p in minimal_primes(ideal)]}
    scan = assassins_cyclic if kind == "ass" else weak_assassins_cyclic
    return reports.assassin_tree(scan(ideal))


def _execute_statement(session, stmt):
    if isinstance(stmt, RingStatement):
        ring = expand_ring(stmt)
        failures = check_local_confluence(ring)
        if failures:
            raise NonConfluent(str(failures[0]))
        session.rings[stmt.name] = ring
        session.current_ring = stmt.name
        return {"ring": stmt.name, "variables": ring.num_vars,
                "rules": len(ring.rules)}
    if isinstance(stmt, IdealStatement):
        if session.current_ring is None:
            raise TorsionlabError("ideal %r defined before any ring"
                                  % stmt.name)
        ring = session.rings[session.current_ring]
        handle = expand_ideal(stmt, ring)
        session.ideals[stmt.name] = (session.current_ring, handle)
        return {"ideal": stmt.name, "value": format_ideal(handle)}
    if isinstance(stmt, QueryStatement):
        return _execute_query(session, stmt)
    if isinstance(stmt, CheckStatement):
        acting, relations = session.ideals_named(stmt.acting, stmt.relations)
        report = fairness_report(acting, relations)
        if not report.all_hold:
            session.failed = True
        return reports.fairness_tree(report)
    if isinstance(stmt, FamilyStatement):
        get_family(stmt.tag)
        levels = tuple(range(stmt.low, stmt.high + 1))
        check_schedule(levels, stmt.window)
        session.schedules[stmt.tag] = (levels, stmt.window)
        return {"family": stmt.tag, "levels": list(levels),
                "window": stmt.window}
    if isinstance(stmt, RunExampleStatement):
        levels, window = session.schedules.get(
            stmt.tag, (DEFAULT_LEVELS, DEFAULT_WINDOW))
        report = replicate_example(stmt.tag, levels, window, session.seed)
        if not report.all_pass:
            session.failed = True
        return reports.example_tree(report)
    raise TorsionlabError("unhandled statement")


def execute(script, seed=DEFAULT_SEED):
    """Run a parsed script; returns (report tree, exit code)."""
    session = _Session(seed)
    results = []
    for index, stmt in enumerate(script.statements):
        try:
            payload = _execute_statement(session, stmt)
        except TorsionlabError as exc:
            results.append({"statement": stmt.render().strip(),
                            "error": str(exc)})
            tree = {"statements": results, "status": "error",
                    "error_at": index + 1}
            return tree, 2
        results.append({"statement": stmt.render().strip(),
                        "result": payload})
    status = "fail" if session.failed else "ok"
    return {"statements": results, "status": status}, (
        1 if session.failed else 0)


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _level_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected a..b")
    try:
        low, high = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a..b with integers")
    if low > high:
        raise argparse.ArgumentTypeError("empty range")
    return tuple(range(low, high + 1))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="torsion submodules, assassins, and fairness checks "
                    "over truncated monomial-rewriting algebras")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (text or json-like structured)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default: TORSIONLAB_SEED or %d)"
                             % DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a script file")
    run.add_argument("file")

    harness = sub.add_parser("harness", help="run the proposition harness")
    harness.add_argument("--instances", type=_positive_int,
                         default=DEFAULT_INSTANCES)
    # SUPPRESS so the subparser does not clobber a seed parsed by the
    # global flag before the subcommand name.
    harness.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    examples = sub.add_parser("examples", help="replicate shipped examples")
    group = examples.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--run", metavar="TAG")
    examples.add_argument("--levels", type=_level_range, default=None,
                          metavar="A..B")
    examples.add_argument("--window", type=_positive_int,
                          default=DEFAULT_WINDOW,
                          help="trailing window for stabilization checks")
    return parser


def _seed_from(args, parser):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("TORSIONLAB_SEED", str(DEFAULT_SEED))
    try:
        return int(env)
    except ValueError:
        parser.error("TORSIONLAB_SEED must be an integer, not %r" % env)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt, seed = args.format, _seed_from(args, parser)

    if args.command == "run":
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        try:
            script = parse(source)
        except ParseError as exc:
            detail = exc.message
            if exc.expected:
                detail += " (expected: %s)" % ", ".join(exc.expected)
            print("parse error at line %d column %d: %s"
                  % (exc.line, exc.column, detail), file=sys.stderr)
            return 2
        tree, code = execute(script, seed)
        sys.stdout.write(reports.render(tree, fmt))
        return code

    if args.command == "harness":
        report = proposition_harness(args.instances, seed)
        sys.stdout.write(reports.render(reports.harness_tree(report), fmt))
        return 0 if report.ok else 1

    if args.command == "examples":
        if args.list:
            tree = {"examples": [
                {"tag": tag, "description": get_family(tag).description}
                for tag in family_tags()]}
            sys.stdout.write(reports.render(tree, fmt))
            return 0
        tag = args.run
        levels = args.levels if args.levels is not None else DEFAULT_LEVELS
        try:
            report = replicate_example(tag, levels, args.window, seed)
        except TorsionlabError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        sys.stdout.write(reports.render(reports.example_tree(report), fmt))
        return 0 if report.all_pass else 1

    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
