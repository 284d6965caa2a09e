"""Command-line front end.

    mvdatalog check PROGRAM [--prox FILE] [--phi FILE] ...
    mvdatalog fixpoint PROGRAM [--mode det|nondet] ...
    mvdatalog consequence PROGRAM --prox FILE [--phi FILE] ...
    mvdatalog query PROGRAM --goal "li(M, X)" [--at-least LEVEL] ...

Atoms are printed sorted by predicate, then arguments, one `atom = level`
per line.  --json emits {"system", "converged", "iterations", "atoms":
[{"atom", "level"}], "diagnostics"} with levels as one- or two-element
arrays.  Exit codes: 0 ok, 1 usage, 2 parse error, 3 safety or
stratification error (strict mode), 4 value violation (--strict-values),
5 iteration limit reached.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import values as V
from .lang import ParseError, SafetyError, parse_program
from .engine import fixpoint, stratify
from .implications import always_closed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SAFETY = 3
EXIT_VALUES = 4
EXIT_LIMIT = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _rule_numbers(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rule numbers, got {text!r}") from None


def _build_argparser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mvdatalog",
                 description="Multivalued Datalog evaluator and knowledge-base engine")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("check", "fixpoint", "consequence", "query"):
        sp = sub.add_parser(name)
        sp.add_argument("program", help="program file (.mvd)")
        sp.add_argument("--prox", help="proximity file (background knowledge)")
        sp.add_argument("--phi", help="function-set file")
        sp.add_argument("--mode", choices=("det", "nondet"), default="nondet")
        sp.add_argument("--max-iters", type=_int_at_least(1), default=10000)
        sp.add_argument("--safety", choices=("strict", "paper-examples"), default="strict")
        sp.add_argument("--strict-values", action="store_true")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--order", type=_rule_numbers, help="evaluation order, e.g. 2,3,1")
        if name == "query":
            sp.add_argument("--goal", required=True, help='goal atom, e.g. "li(M, X)"')
            sp.add_argument("--at-least", help='minimum answer level, e.g. "(0.4, 0.5)"')
            sp.add_argument("--depth-limit", type=_int_at_least(3), default=64)
    return ap


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (byte {exc.start})") from None


def _load_program(args):
    program = parse_program(_read(args.program), safety=args.safety)
    if args.order:
        program.order_directive = args.order
        n = len(program.proper_rules())
        if sorted(program.order_directive) != list(range(1, n + 1)):
            raise ParseError(f"--order must be a permutation of 1..{n}")
    return program


def _load_kb(args, program):
    """The knowledge base of the program and its --prox and --phi files,
    which it validates; `check` and `fixpoint` build it for that alone."""
    from .kb import (BackgroundKnowledge, PhiSpec, build_kb, parse_phi_file,
                     parse_proximity_file)
    bk = BackgroundKnowledge.empty()
    if args.prox:
        term_prox, pred_prox, _ = parse_proximity_file(_read(args.prox))
        bk = BackgroundKnowledge(term_prox, pred_prox)
    phi = parse_phi_file(_read(args.phi)) if args.phi else PhiSpec()
    return build_kb(program, bk, phi)


def _closure_violations(diagnostics):
    return [d for d in diagnostics if d.startswith("closure violation")]


def _render(args, system, atoms, converged, iterations, diagnostics) -> str:
    if args.json:
        payload = {
            "system": system,
            "converged": converged,
            "iterations": iterations,
            "atoms": [{"atom": str(a), "level": list(v) if isinstance(v, tuple) else [v]}
                      for a, v in atoms],
            "diagnostics": list(diagnostics),
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [f"{a} = {V.fmt(v)}" for a, v in atoms]
    lines.extend(f"# {d}" for d in diagnostics)
    return "\n".join(lines)


def _finish(args, system, atoms, report) -> int:
    print(_render(args, system, atoms, report.converged, report.iterations,
                  report.diagnostics))
    if args.strict_values and _closure_violations(report.diagnostics):
        print("error: derived values violate the value-system constraints "
              "(--strict-values)", file=sys.stderr)
        return EXIT_VALUES
    if not report.converged:
        return EXIT_LIMIT
    return EXIT_OK


def _run_check(args, program) -> int:
    diagnostics = list(program.warnings)
    order = stratify(program)
    diagnostics.extend(order.warnings)
    strata = " ".join("{" + ",".join(str(i) for i in s) + "}" for s in order.strata)
    diagnostics.append(f"stratification: evaluation order {strata or '(no rules)'}")
    for n, _, rule in program.proper_rules():
        impl = rule.impl
        if not always_closed(impl):
            name = f"({impl[0]}, {impl[1]})" if isinstance(impl, tuple) else impl
            diagnostics.append(
                f"values: rule {n} uses {name}, whose derived levels may leave "
                f"the {program.system} lattice")
    if args.json:
        print(_render(args, program.system, [], True, 0, diagnostics))
    else:
        for d in diagnostics:
            print(d)
    if any(d.startswith("stratification: negative dependencies") for d in diagnostics) \
            and args.safety == "strict":
        return EXIT_SAFETY
    return EXIT_OK


def run(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        program = _load_program(args)
        # without --prox and --phi a knowledge base only wraps the program
        kb = (_load_kb(args, program)
              if args.command in ("consequence", "query") or args.prox or args.phi
              else None)
        if args.command == "check":
            return _run_check(args, program)
        order = stratify(program)
        if order.warnings and args.safety == "strict" and program.order_directive is None:
            for w in order.warnings:
                print(f"error: {w}", file=sys.stderr)
            return EXIT_SAFETY
        system = program.system
        if args.command == "query":
            from .query import Goal, answer, parse_goal, parse_level
            goal_atom = parse_goal(args.goal, program)
            level = parse_level(args.at_least, system) if args.at_least else None
            result = answer(kb, Goal(goal_atom, level),
                            depth_limit=args.depth_limit, max_iters=args.max_iters)
            return _finish(args, system, result.answers, result.report)
        if args.command == "fixpoint":
            report = fixpoint(program, mode=args.mode, max_iters=args.max_iters)
        else:
            from .kb import consequence
            report = consequence(kb, max_iters=args.max_iters)
        return _finish(args, system, report.interpretation.sorted_items(), report)
    except SafetyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAFETY
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
