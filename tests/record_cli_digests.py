#!/usr/bin/env python3
"""Record the digest of every CLI run of a fixed matrix into
tests/data/cli_digests.json.

    python3 tests/record_cli_digests.py

Each run calls `mvdatalog.cli.run` in process, with the repository root as
the working directory and paths relative to it.  Its digest is the SHA-256
of its stdout, stderr and exit code, under the argv as `shlex.join` writes
it.  `tests/test_cli_digests.py` re-runs the matrix and names every run
whose digest moved.  Run this only at a commit whose output is trusted: a
change that moves a CLI byte re-records the file and says which runs moved
and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = pathlib.Path("tests") / "data"
DIGESTS = ROOT / DATA / "cli_digests.json"

# the usage and parse-error runs of tests/test_cli.py that read no file of
# their own, with its iteration-limit and threshold runs
EX1, EX12I, EX17, EX23 = (str(DATA / f"{name}.mvd") for name in ("ex1", "ex12i", "ex17", "ex23"))
EX23_KB = ["--prox", str(DATA / "ex23.prox"), "--phi", str(DATA / "ex23.phi")]
ERRORS = [
    ["frobnicate"],
    ["fixpoint", "no-such-file.mvd"],
    ["fixpoint", EX1, "--safety", "paper-examples", "--order", "1,1,2"],
    ["fixpoint", EX1, "--safety", "paper-examples", "--order", "a,b"],
    ["fixpoint", EX12I, "--max-iters", "0"],
    ["consequence", EX12I, "--max-iters", "0"],
    ["fixpoint", EX12I, "--max-iters", "many"],
    ["fixpoint", EX12I, "--max-iters", "2"],
    ["query", EX23, *EX23_KB, "--goal", "li(M, X)", "--depth-limit", "1"],
    ["query", EX23, *EX23_KB, "--goal", "lo(M, X, Y)"],
    ["query", EX23, *EX23_KB, "--goal", "li(M, X, Y)"],
    ["query", EX23, *EX23_KB, "--goal", "li(M, V)", "--at-least", "(0.9, 0.9)"],
    ["query", EX17, "--prox", str(DATA / "ex17.prox"), "--goal", "s(X, Y)"],
]

COMMANDS = [["check"], ["fixpoint", "--mode", "det"], ["fixpoint", "--mode", "nondet"],
            ["consequence"]]
TREES = [[], ["--tree"], ["--tree", "--depth-limit", "4"]]


def _goals(program, pred_prox) -> list:
    """Every predicate of the program and of its predicate proximity as a
    goal of variables alone and as one with the program's least constant
    first.  A predicate only the proximity names takes the arity of its
    first neighbour in the program."""
    arity = program.predicates()
    for pred in sorted(pred_prox.symbols - arity.keys()):
        arity[pred] = next(arity[q] for q in pred_prox.neighbours[pred] if q in arity)
    constant = min(program.constants())
    goals = []
    for pred, n in sorted(arity.items()):
        names = [f"X{i}" for i in range(n)]
        goals.append(f"{pred}({', '.join(names)})")
        goals.append(f"{pred}({', '.join([constant] + names[1:])})")
    return goals


def runs() -> list:
    """The argv of every run: each tests/data program with its .prox and
    .phi files, under every command and every goal, in both safety modes,
    with and without --json, and with and without --order (the proper
    rules backwards, where there are two or more); then `ERRORS`."""
    from mvdatalog.kb import ProximityRelation, parse_proximity_file
    from mvdatalog.lang import parse_program
    out = []
    for path in sorted((ROOT / DATA).glob("*.mvd")):
        program = parse_program(path.read_text(encoding="utf-8"), safety="paper-examples")
        prox = path.with_suffix(".prox")
        pred_prox = (parse_proximity_file(prox.read_text(encoding="utf-8"))[1] if prox.exists()
                     else ProximityRelation("predicates"))
        flags = [item for flag, suffix in (("--prox", ".prox"), ("--phi", ".phi"))
                 if path.with_suffix(suffix).exists()
                 for item in (flag, str(DATA / path.with_suffix(suffix).name))]
        rules = len(program.proper_rules())
        orders = [[]] + ([["--order", ",".join(map(str, range(rules, 0, -1)))]]
                         if rules > 1 else [])
        commands = COMMANDS + [["query", "--goal", goal, *tree]
                               for goal in _goals(program, pred_prox) for tree in TREES]
        for command in commands:
            for safety in ("strict", "paper-examples"):
                for json_flag in ([], ["--json"]):
                    for order in orders:
                        out.append([command[0], str(DATA / path.name), *flags, *command[1:],
                                    "--safety", safety, *json_flag, *order])
    return out + ERRORS


def digest(argv: list) -> str:
    """The SHA-256 of (stdout, stderr, exit code) of one in-process run,
    with the repository root as the working directory and argparse's
    usage text wrapped at 80 columns."""
    from mvdatalog.cli import run
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    text = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict:
    """argv, as `shlex.join` writes it -> the digest of its run."""
    return {shlex.join(argv): digest(argv) for argv in runs()}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    recorded = digests()
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
