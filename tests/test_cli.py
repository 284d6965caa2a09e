import json
import pathlib
import random
import subprocess
import sys

import pytest

from mvdatalog.cli import run
from mvdatalog.lang import parse_program

from conftest import DATA, load_kb

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def invoke(capsys, *argv):
    code = run([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fixpoint_ex1(capsys):
    code, out, _ = invoke(capsys, "fixpoint", DATA / "ex1.mvd",
                          "--mode", "nondet", "--safety", "paper-examples")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "p(a) = 0.8",
        "q(a, b) = 0.6",
        "q(b, a) = 0.9",
        "r(b) = 0.6",
        "s(a) = 0.3",
        "s(b) = 0.6",
    ]
    assert lines[-1] == "s(b) = 0.6"


def test_consequence_ex23(capsys):
    code, out, _ = invoke(capsys, "consequence", DATA / "ex23.mvd",
                          "--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert "li(M, B) = (0.42, 0.56)" in lines
    assert lines == sorted(lines)


def test_query_ex23(capsys):
    code, out, _ = invoke(capsys, "query", DATA / "ex23.mvd",
                          "--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi",
                          "--goal", "li(M, X)")
    assert code == 0
    assert out.strip().splitlines() == [
        "li(M, B) = (0.42, 0.56)",
        "li(M, V) = (0.42, 0.56)",
    ]


EX23_TREE = """\
goal li(M, X)
  subgoal li(~M, X)
    no
  subgoal lo(~M, X)
    body lo(~M, Y#r2) <- gc(Y#r2), mu(~M)
      subgoal gc(Y#r2)
        subgoal gc(Y#r2)
          no
        subgoal fv(Y#r2)
          fact fv(V)
            yes
      subgoal mu(~M)
        subgoal mu(~M)
          no
        subgoal mf(~M)
          fact mf(M)
            yes
"""


def test_query_tree(capsys, ex23_kb):
    """--tree prints the search tree after the answers, one row per line
    indented by its depth; under --json it adds a "tree" key whose nodes
    are the library's rows with their atoms and literals as text, and
    changes no other key."""
    from mvdatalog.query import Goal, build_tree, parse_goal
    argv = ["query", DATA / "ex23.mvd", "--prox", DATA / "ex23.prox",
            "--phi", DATA / "ex23.phi", "--goal", "li(M, X)"]
    code, plain, _ = invoke(capsys, *argv)
    assert code == 0
    assert invoke(capsys, *argv, "--tree") == (0, plain + EX23_TREE, "")
    plain_json = json.loads(invoke(capsys, *argv, "--json")[1])
    goal = Goal(parse_goal("li(M, X)", ex23_kb.program))
    for depth_limit in (64, 4):
        code, out, _ = invoke(capsys, *argv, "--json", "--tree",
                              "--depth-limit", depth_limit)
        assert code == 0
        payload = json.loads(out)
        tree = build_tree(ex23_kb, goal, depth_limit)
        assert tree.truncated == (depth_limit == 4)
        assert payload.pop("tree") == {
            "truncated": tree.truncated, "depth_limit": depth_limit,
            "nodes": [{**node._asdict(), "atom": node.atom and str(node.atom),
                       "literals": [str(lit) for lit in node.literals]}
                      for node in tree.walk()]}
        assert payload == plain_json


# t recurses, so its sub-goals repeat; u negates stop; the chain c1 .. c3
# reaches the depth limit of 10
MARKED = """%system fuzzy.
fact e(a, b) = 0.9.
fact e(b, a) = 0.8.
fact stop(b) = 0.5.
rule t(X, Y) <- e(X, Y) : godel, 1.0.
rule t(X, Y) <- e(X, Z), t(Z, Y) : godel, 0.9.
rule u(X) <- t(X, X), not stop(X) : godel, 0.8.
rule u(X) <- c1(X) : godel, 0.8.
rule c1(X) <- c2(X) : godel, 0.8.
rule c2(X) <- c3(X) : godel, 0.8.
rule c3(X) <- stop(X) : godel, 0.8.
"""

MARKED_TREE = """\
u(b) = 0.5
goal u(X)
  subgoal u(X)
    body u(X#r3) <- t(X#r3, X#r3), not stop(X#r3)
      subgoal t(X#r3, X#r3)
        subgoal t(X#r3, X#r3)
          body t(Y#r4, Y#r4) <- e(Y#r4, Y#r4)
            subgoal e(Y#r4, Y#r4)
              subgoal e(Y#r4, Y#r4)
                no
          body t(Y#r12, Y#r12) <- e(Y#r12, Z#r12), t(Z#r12, Y#r12)
            subgoal e(Y#r12, Z#r12)
              subgoal e(Y#r12, Z#r12)
                fact e(a, b)
                  yes
                fact e(b, a)
                  yes
            subgoal t(Z#r12, Y#r12)
              subgoal t(Z#r12, Y#r12)
                body t(X#r20, Y#r20) <- e(X#r20, Y#r20)
                  subgoal e(X#r20, Y#r20) (repeated)
                body t(X#r21, Y#r21) <- e(X#r21, Z#r21), t(Z#r21, Y#r21)
                  subgoal e(X#r21, Z#r21) (repeated)
                  subgoal t(Z#r21, Y#r21) (repeated)
      subgoal stop(X#r3) (negated)
        subgoal stop(X#r3)
          fact stop(b)
            yes
    body u(X#r39) <- c1(X#r39)
      subgoal c1(X#r39)
        subgoal c1(X#r39)
          body c1(X#r44) <- c2(X#r44)
            subgoal c2(X#r44)
              subgoal c2(X#r44)
                body c2(X#r50) <- c3(X#r50)
                  subgoal c3(X#r50)
                    subgoal c3(X#r50)
                      no (depth limit reached)
"""


def test_query_tree_marks_repeats_negations_and_cuts(tmp_path, capsys):
    """--tree marks a repeated sub-goal, a negated literal's sub-goal and a
    branch cut at the depth limit after the row they annotate."""
    program = tmp_path / "marked.mvd"
    program.write_text(MARKED)
    assert invoke(capsys, "query", program, "--goal", "u(X)", "--tree",
                  "--depth-limit", "10") == (0, MARKED_TREE, "")


def _reference_json_nodes(tree) -> list:
    """The nodes of a reference tree as `query --tree --json` prints them."""
    out, stack = [], [(tree.root, -1)]
    while stack:
        node, parent = stack.pop()
        out.append({"parent": parent, "kind": node.kind, "depth": node.depth,
                    "atom": node.atom and str(node.atom),
                    "literals": [str(lit) for lit in node.literals],
                    "connective": node.connective, "repeated": node.repeated,
                    "note": node.note})
        stack.extend((child, len(out) - 1) for child in reversed(node.children))
    return out


@pytest.mark.parametrize("name", ["ex17", "ex23"])
def test_query_tree_of_every_predicate_matches_the_reference(capsys, name):
    """Every predicate of the program and of its proximity file, posed as a
    goal of variables alone, prints the reference builder's tree under
    --tree --json, at a depth limit that cuts it and at one that does not."""
    from helpers import reference_build_tree
    from mvdatalog.query import Goal, parse_goal
    kb = load_kb(f"{name}.mvd", f"{name}.prox", f"{name}.phi")
    neighbours = kb.bk.pred_prox.neighbours
    arity = kb.program.predicates()
    for pred in sorted(kb.bk.pred_prox.symbols - arity.keys()):
        arity[pred] = next(arity[q] for q in neighbours[pred] if q in arity)
    assert kb.bk.pred_prox.symbols - kb.program.predicates().keys()
    argv = ["query", DATA / f"{name}.mvd", "--prox", DATA / f"{name}.prox",
            "--phi", DATA / f"{name}.phi", "--json", "--tree"]
    for pred, n in sorted(arity.items()):
        text = f"{pred}({', '.join(f'X{i}' for i in range(n))})"
        goal = Goal(parse_goal(text, kb.program))
        for depth_limit in (64, 4):
            code, out, err = invoke(capsys, *argv, "--goal", text, "--depth-limit", depth_limit)
            assert (code, err) == (0, ""), text
            reference = reference_build_tree(kb, goal, depth_limit)
            assert json.loads(out)["tree"] == {
                "truncated": reference.truncated, "depth_limit": depth_limit,
                "nodes": _reference_json_nodes(reference)}, (text, depth_limit)


def test_goal_on_a_predicate_only_the_proximity_file_names_has_its_arity(tmp_path, capsys):
    """A goal predicate that only the proximity file names has the arity of
    its neighbours in the program, a bottom-valued neighbour too, and a goal
    of another arity is the same parse error as one on a program predicate."""
    argv = ["query", DATA / "ex23.mvd", "--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi"]
    for pred in ("lo", "li"):
        assert invoke(capsys, *argv, "--goal", f"{pred}(M, X, Y)") == (
            2, "", f"error: line 1, col 1: goal predicate {pred!r} has arity 2, goal uses 3\n")
    assert invoke(capsys, "query", DATA / "ex17.mvd", "--prox", DATA / "ex17.prox",
                  "--goal", "s(X, Y)") == (
        2, "", "error: line 1, col 1: goal predicate 's' has arity 1, goal uses 2\n")
    code, out, _ = invoke(capsys, "query", DATA / "ex17.mvd", "--prox", DATA / "ex17.prox",
                          "--goal", "s(X)")
    assert (code, out) == (0, "s(a) = (0.6, 0.3)\ns(b) = (0.6, 0.3)\n")
    program, prox = tmp_path / "p.mvd", tmp_path / "p.prox"
    program.write_text("%system fuzzy.\nfact p(a) = 0.5.\n")
    prox.write_text("%domain predicates.\np ~ z = 0.0.\n")
    assert invoke(capsys, "query", program, "--prox", prox, "--goal", "z(X, Y)") == (
        2, "", "error: line 1, col 1: goal predicate 'z' has arity 1, goal uses 2\n")
    code, _, err = invoke(capsys, "query", program, "--prox", prox, "--goal", "z(X)")
    assert (code, err) == (0, "")


def test_query_threshold_filters_everything(capsys):
    code, out, _ = invoke(capsys, "query", DATA / "ex23.mvd",
                          "--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi",
                          "--goal", "li(M, V)", "--at-least", "(0.9, 0.9)")
    assert code == 0
    assert out.strip() == ""


def test_json_round_trip(capsys):
    code, text_out, _ = invoke(capsys, "fixpoint", DATA / "ex12i.mvd")
    code2, json_out, _ = invoke(capsys, "fixpoint", DATA / "ex12i.mvd", "--json")
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert payload["system"] == "ifs"
    assert payload["converged"] is True
    assert payload["iterations"] >= 1
    from mvdatalog import values as V
    rebuilt = [f"{e['atom']} = {V.fmt(tuple(e['level']) if len(e['level']) == 2 else e['level'][0])}"
               for e in payload["atoms"]]
    assert rebuilt == [l for l in text_out.strip().splitlines() if not l.startswith("#")]


def test_outputs_are_deterministic(capsys):
    a = invoke(capsys, "consequence", DATA / "ex23.mvd",
               "--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi", "--json")
    b = invoke(capsys, "consequence", DATA / "ex23.mvd",
               "--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi", "--json")
    assert a == b


def test_check_reports_diagnostics(capsys):
    code, out, _ = invoke(capsys, "check", DATA / "ex1.mvd", "--safety", "paper-examples")
    assert code == 0
    assert "negation" in out
    assert "{2} {3} {1}" in out
    # (lukasiewicz, godel) is a closed bipolar pair, (kleene, godel) is not
    code, out, _ = invoke(capsys, "check", DATA / "ex12b.mvd")
    assert code == 0
    assert out.splitlines() == [
        "stratification: evaluation order {1,2}",
        "values: rule 2 uses (kleene, godel), whose derived levels may leave the "
        "bipolar_b lattice"]


def test_exit_codes(tmp_path, capsys):
    # 3: strict safety
    code, _, err = invoke(capsys, "fixpoint", DATA / "ex1.mvd")
    assert code == 3 and "unsafe" in err
    # 2: parse error
    bad = tmp_path / "bad.mvd"
    bad.write_text("%system fuzzy.\nfact p(a = 0.5.\n")
    code, _, err = invoke(capsys, "fixpoint", bad)
    assert code == 2
    # 1: usage (unknown command handled by argparse)
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 1
    capsys.readouterr()
    # 5: iteration limit
    code, _, _ = invoke(capsys, "fixpoint", DATA / "ex12i.mvd", "--max-iters", "2")
    assert code == 5
    # 4: closure violation under --strict-values
    viol = tmp_path / "viol.mvd"
    viol.write_text("%system ifs.\nfact p(a) = (0.3, 0.3).\n"
                    "rule q(X) <- p(X) : fk, (0.5, 0.4).\n")
    code, out, _ = invoke(capsys, "fixpoint", viol, "--strict-values")
    assert code == 4
    code, out, _ = invoke(capsys, "fixpoint", viol)
    assert code == 0 and "closure violation" in out


def test_order_flag(capsys):
    code, out, _ = invoke(capsys, "fixpoint", DATA / "ex1.mvd",
                          "--safety", "paper-examples", "--order", "2,3,1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "s(b) = 0.6"
    code, _, err = invoke(capsys, "fixpoint", DATA / "ex1.mvd",
                          "--safety", "paper-examples", "--order", "1,1,2")
    assert code == 2 and "permutation" in err


def test_declared_system_mismatch_is_reported_once(tmp_path, capsys):
    """Both relations of a proximity file carry the system it declares; a
    mismatch with the program's is one problem, whatever the sections."""
    prox = tmp_path / "ivs.prox"
    prox.write_text("%system ivs.\n%domain terms.\na ~ b = (0.5, 0.6).\n"
                    "%domain predicates.\np ~ w = (0.5, 0.6).\n")
    code, out, err = invoke(capsys, "consequence", DATA / "ex1.mvd", "--prox", prox,
                            "--safety", "paper-examples")
    assert (code, out) == (2, "")
    assert err == ("error: proximity file declares ivs, program is fuzzy; "
                   "proximity a ~ b: fuzzy value must be a scalar, got (0.5, 0.6); "
                   "proximity p ~ w: fuzzy value must be a scalar, got (0.5, 0.6)\n")


def test_commands_stratify_once(monkeypatch, capsys):
    """`fixpoint` and `consequence` pass the order they checked on to the
    evaluation, which then does not stratify the program again."""
    from mvdatalog import engine
    calls = []
    stratify = engine.stratify

    def counted(program):
        calls.append(program)
        return stratify(program)

    monkeypatch.setattr(engine, "stratify", counted)
    runs = [("fixpoint", DATA / "ex1.mvd", "--safety", "paper-examples"),
            ("fixpoint", DATA / "ex17.mvd"),
            ("consequence", DATA / "ex23.mvd", "--prox", DATA / "ex23.prox",
             "--phi", DATA / "ex23.phi")]
    for argv in runs:
        calls.clear()
        assert invoke(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv
    # an order directive is taken as it stands: nothing is stratified
    calls.clear()
    assert invoke(capsys, "fixpoint", DATA / "ex1.mvd", "--safety", "paper-examples",
                  "--order", "2,3,1")[0] == 0
    assert calls == []


def _data_programs():
    """Each program under tests/data, with the proximity and function-set
    files of its name as flags."""
    for program in sorted(DATA.glob("*.mvd")):
        flags = []
        for flag, suffix in (("--prox", ".prox"), ("--phi", ".phi")):
            if program.with_suffix(suffix).exists():
                flags += [flag, program.with_suffix(suffix)]
        yield program, flags


def test_check_and_fixpoint_agree_on_the_exit_code(tmp_path, capsys):
    """`check` reports the order a run takes, the %order directive or
    --order when one is given, so its exit code is the run's: on every
    program under tests/data, in both safety modes, with and without
    --order (the rules backwards), and on two rules that negate each other
    under `%order 1,2.`, where stratify alone finds a negative cycle."""
    mutual = tmp_path / "mutual.mvd"
    mutual.write_text("%system fuzzy.\n%order 1,2.\nfact a = 0.9.\n"
                      "rule p <- a, not q : godel, 0.8.\nrule q <- a, not p : godel, 0.8.\n")
    code, out, _ = invoke(capsys, "check", mutual)
    assert code == 0 and out == "stratification: evaluation order {1} {2}\n"
    for program, flags in [*_data_programs(), (mutual, [])]:
        rules = len(parse_program(program.read_text(), safety="paper-examples").proper_rules())
        backwards = list(range(rules, 0, -1))
        orders = [[], ["--order", ",".join(map(str, backwards))]] if rules else [[]]
        for safety in ("strict", "paper-examples"):
            for order in orders:
                argv = [program, *flags, "--safety", safety, *order]
                code, out, _ = invoke(capsys, "check", *argv)
                assert code == invoke(capsys, "fixpoint", *argv)[0], argv
                if order and code == 0:
                    strata = " ".join(f"{{{n}}}" for n in backwards)
                    assert f"stratification: evaluation order {strata}\n" in out, argv


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "fixpoint", "no-such-file.mvd")
    assert code == 1


def test_cyclic_negation_strict_is_exit_3(tmp_path, capsys):
    cyc = tmp_path / "cyc.mvd"
    cyc.write_text("%system fuzzy.\nfact p = 0.4.\nfact q = 0.4.\n"
                   "rule p <- not q : godel, 0.5.\n"
                   "rule q <- not p : godel, 0.5.\n")
    code, out, _ = invoke(capsys, "check", cyc)
    assert code == 3 and "cyclic" in out
    code, _, err = invoke(capsys, "fixpoint", cyc)
    assert code == 3 and "cyclic" in err
    # an explicit order or the relaxed mode unblocks evaluation
    code, _, _ = invoke(capsys, "fixpoint", cyc, "--order", "1,2")
    assert code == 0
    code, _, _ = invoke(capsys, "fixpoint", cyc, "--safety", "paper-examples")
    assert code == 0


def test_strict_values_passes_clean_programs(capsys):
    code, _, _ = invoke(capsys, "consequence", DATA / "ex23.mvd",
                        "--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi",
                        "--strict-values")
    assert code == 0


def test_strict_values_violation_is_reported_by_every_command(tmp_path, capsys):
    viol = tmp_path / "viol.mvd"
    viol.write_text("%system ifs.\nfact p(a) = (0.3, 0.3).\n"
                    "rule q(X) <- p(X) : fk, (0.5, 0.4).\n")
    message = ("error: derived values violate the value-system constraints "
               "(--strict-values)")
    for extra in (["fixpoint"], ["consequence"], ["query", "--goal", "q(X)"]):
        code, _, err = invoke(capsys, extra[0], viol, *extra[1:], "--strict-values")
        assert code == 4, extra
        assert err.strip() == message, extra


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        run([str(a) for a in argv])
    return e.value.code, capsys.readouterr().err


def test_zero_max_iters_is_usage_error(capsys):
    for command in ("fixpoint", "consequence"):
        code, err = _usage_error(capsys, command, DATA / "ex12i.mvd", "--max-iters", "0")
        assert code == 1 and "error: argument --max-iters: must be at least 1" in err
    code, err = _usage_error(capsys, "fixpoint", DATA / "ex12i.mvd", "--max-iters", "many")
    assert code == 1 and "error: argument --max-iters: invalid int value: 'many'" in err


def test_non_numeric_order_is_usage_error(capsys):
    code, err = _usage_error(capsys, "fixpoint", DATA / "ex1.mvd",
                             "--safety", "paper-examples", "--order", "a,b")
    assert code == 1 and "error: argument --order" in err


def test_small_depth_limit_is_usage_error(capsys):
    code, err = _usage_error(capsys, "query", DATA / "ex23.mvd", "--prox", DATA / "ex23.prox",
                             "--goal", "li(M, X)", "--depth-limit", "1")
    assert code == 1 and "error: argument --depth-limit: must be at least 3" in err


def test_query_on_a_deep_search_tree(tmp_path, capsys):
    """A chain of 1,500 rules builds a search tree thousands of levels deep;
    the query answers, and prints the tree, without running out of stack."""
    n = 1500
    rules = "".join(f"rule p{i}(X) <- p{i + 1}(X) : godel, 1.0.\n" for i in range(n))
    deep = tmp_path / "deep.mvd"
    deep.write_text(f"%system fuzzy.\nfact p{n}(a) = 0.5.\n{rules}")
    code, out, err = invoke(capsys, "query", deep, "--goal", "p0(X)",
                            "--depth-limit", "100000")
    assert code == 0, err
    assert out == "p0(a) = 0.5\n"
    code, out, err = invoke(capsys, "query", deep, "--goal", "p0(X)",
                            "--depth-limit", "100000", "--tree")
    assert code == 0, err
    answers, goal, *rows = out.splitlines()
    assert (answers, goal) == ("p0(a) = 0.5", "goal p0(X)")
    assert rows[-1] == "  " * (3 * n + 3) + "yes"
    assert rows[-2] == "  " * (3 * n + 2) + f"fact p{n}(a)"


def test_query_with_a_constant_named_like_a_variable(tmp_path, capsys):
    """p(X) is not taken for a repeat of p(V0) when V0 is a constant, so the
    query answers what the consequence derives."""
    program = tmp_path / "v0.mvd"
    program.write_text("%system fuzzy. %const V0. fact p(V0) = 0.9. fact p(a) = 0.8. "
                       "rule s(X) <- p(V0), p(X) : godel, 1.0.\n")
    code, out, err = invoke(capsys, "query", program, "--goal", "s(Y)")
    assert code == 0, err
    assert out == "s(V0) = 0.9\ns(a) = 0.8\n"
    code, out, err = invoke(capsys, "consequence", program)
    assert code == 0, err
    assert "s(V0) = 0.9\ns(a) = 0.8\n" in out


def test_query_with_a_goal_variable_named_like_a_renamed_rule_variable(tmp_path, capsys):
    """The search tree renames rule variables to names no goal can write, so
    a goal variable named Y_r1 is not aliased with the renamed rule's Y."""
    program = tmp_path / "alias.mvd"
    program.write_text("%system fuzzy.\nfact p(c, a) = 0.9.\n"
                       "rule q(X, Y) <- p(X, Y) : godel, 1.0.\n")
    for goal in ("q(Z, a)", "q(Y_r1, a)", "q(X_r1, a)"):
        code, out, err = invoke(capsys, "query", program, "--goal", goal)
        assert code == 0, err
        assert out == "q(c, a) = 0.9\n", goal


@pytest.mark.parametrize("program_text, prox_text, goal, expected", [
    ("fact p(c, b) = 0.9.\nrule q(X) <- p(X, a) : godel, 1.0.\n", "a ~ b = 0.8.", "q(Y)",
     "q(c) = 0.8\n"),
    ("fact r(c) = 0.9.\nrule q(a) <- r(c) : godel, 1.0.\n", "a ~ b = 0.8.", "q(b)",
     "q(b) = 0.8\n"),
    ("fact r(f, c) = 0.9.\nrule s(X) <- r(X, X) : godel, 1.0.\n", "c ~ f = 0.8.", "s(Y)",
     "s(c) = 0.8\ns(f) = 0.8\n"),
    ("fact r(f, c) = 0.9.\nrule s(X) <- r(X, X) : godel, 1.0.\n", "c ~ f = 0.8.", "r(X, X)",
     "r(c, c) = 0.8\nr(f, f) = 0.8\n"),
])
def test_query_answers_atoms_reached_through_synonyms(tmp_path, capsys, program_text,
                                                      prox_text, goal, expected):
    """Answers derived only through a term synonym of a constant a rule
    writes, or of a repeated variable, are found as `consequence` finds them."""
    program, prox = tmp_path / "p.mvd", tmp_path / "p.prox"
    program.write_text("%system fuzzy.\n" + program_text)
    prox.write_text(f"%system fuzzy.\n%domain terms.\n{prox_text}\n")
    code, out, err = invoke(capsys, "query", program, "--prox", prox, "--goal", goal)
    assert code == 0, err
    assert out == expected


def test_non_utf8_program_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.mvd"
    bad.write_bytes("%system fuzzy.\nfact p(a) = 0.5.  # café\n".encode("latin-1"))
    code, _, err = invoke(capsys, "fixpoint", bad)
    assert code == 2 and err.startswith("error: ") and "not valid UTF-8" in err


def test_fractional_order_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "order.mvd"
    bad.write_text("%system fuzzy.\n%order 1.5.\nfact p(a) = 0.5.\n"
                   "rule q(X) <- p(X) : godel, 1.0.\n")
    code, _, err = invoke(capsys, "fixpoint", bad)
    assert code == 2
    assert err == "error: line 2, col 8: expected an integer, found '1.5'\n"


def test_fractional_phi_arity_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "arity.phi"
    bad.write_text("phi p/1.5 = meet.\n")
    code, _, err = invoke(capsys, "consequence", DATA / "ex23.mvd", "--phi", bad)
    assert code == 2
    assert err == "error: line 1, col 7: expected an integer, found '1.5'\n"


def test_proximity_level_of_the_wrong_shape_is_an_error(tmp_path, capsys):
    """A proximity file whose levels have the wrong shape for its declared
    system fails with an error line, not a traceback."""
    reflexive = "line 3, col 7: reflexive entry a ~ a must be the top element"
    cases = [
        ("ifs", "a ~ a = 0.5.\n", reflexive),
        ("ifs", "a ~ b = 0.5.\na ~ b = (0.5, 0.1).\n",
         "line 4, col 7: contradictory proximity entries for a ~ b"),
        ("ifs", "a ~ b = 0.5.\na ~ b = 0.5.\n",
         "proximity a ~ b: ifs value must be a pair, got 0.5"),
        ("fuzzy", "a ~ a = (1, 0).\n", reflexive),
    ]
    for system, entries, message in cases:
        prog = tmp_path / f"{system}.mvd"
        prog.write_text(f"%system {system}.\nfact p(a) = "
                        f"{'0.5' if system == 'fuzzy' else '(0.5, 0.1)'}.\n")
        prox = tmp_path / "bad.prox"
        prox.write_text(f"%system {system}.\n%domain terms.\n{entries}")
        code, out, err = invoke(capsys, "consequence", prog, "--prox", prox)
        assert (code, out, err) == (2, "", f"error: {message}\n"), entries


# Pieces that seeded mutations splice into the input files: tokens of the
# grammar, clauses, directives and levels, each well-formed or not.
SPLICES = ["(", ")", ",", ".", "=", "~", "<-", ":", "not ", "X", "Y", "a", "q", "0.5", "1.5",
           "-0.2", "(0.3, 0.4)", "(0.9, 0.9)", "1e400", "nan", "godel", "fk", "%const A.\n",
           "%order 2, 1.\n", "%system ivs.\n", "%domain predicates.\n",
           "fact r(a, b) = 0.7.\n", "rule p(X) <- q(X, Y), not p(Y) : godel, 0.9.\n",
           "rule p(X) <- p(X) : (godel, godel), 1.\n", "phi lo/2 = meet.\n", "a ~ b = 0.5.\n",
           "\n", "#", "\u00e9"]
GOALS = ["li(M, X)", "p(X)", "q(a, Y)", "r(X)", "s(X, X)", "t(X", "X", "", "zz(a, b, c)"]


def _mutated(rng, data: bytes) -> bytes:
    """data with one to three seeded edits: a span cut, a splice, a line
    repeated, or a byte that is not UTF-8."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(data))
        edit = rng.randrange(4)
        if edit == 0:
            data = data[:at] + data[at + rng.randint(1, 12):]
        elif edit == 1:
            data = data[:at] + rng.choice(SPLICES).encode() + data[at:]
        elif edit == 2:
            lines = data.splitlines(keepends=True) or [b""]
            line = rng.choice(lines)
            data = b"".join(lines) + line
        else:
            data = data[:at] + b"\xff" + data[at:]
    return data


def test_mutated_inputs_give_no_traceback(tmp_path, capsys):
    """No user input reaches a Python traceback: every run of a command on
    seeded mutations of the example files, its goal or its levels returns
    an exit code, or is a usage error that argparse raises."""
    rng = random.Random(21)
    stems = sorted(path.stem for path in DATA.glob("*.mvd"))
    codes = set()
    for trial in range(600):
        stem = rng.choice(stems)
        inputs = [(flag, DATA / f"{stem}{suffix}") for flag, suffix, chance
                  in (("", ".mvd", 1.0), ("--prox", ".prox", 0.8), ("--phi", ".phi", 0.6))
                  if (DATA / f"{stem}{suffix}").exists() and rng.random() < chance]
        mutate = rng.randrange(len(inputs) + 2)   # an input, the goal, or nothing
        argv = [rng.choice(("check", "fixpoint", "consequence", "query"))]
        for i, (flag, source) in enumerate(inputs):
            path = tmp_path / source.name
            data = source.read_bytes()
            path.write_bytes(_mutated(rng, data) if i == mutate else data)
            argv += [flag, str(path)] if flag else [str(path)]
        argv += ["--max-iters", "2000", "--mode", rng.choice(("det", "nondet")),
                 "--safety", rng.choice(("strict", "paper-examples"))]
        argv += [flag for flag in ("--json", "--strict-values") if rng.random() < 0.3]
        if rng.random() < 0.2:
            argv += ["--order", rng.choice(("1", "2,1", "1,2,3", "3,1,2", "0", "1,1"))]
        if argv[0] == "query":
            goal = rng.choice(GOALS).encode()
            if mutate == len(inputs):
                goal = _mutated(rng, goal)
            argv += ["--goal", goal.decode("utf-8", "replace")]
            if rng.random() < 0.3:
                argv += ["--at-least", rng.choice(("0.5", "(0.4, 0.5)", "2", "x", "(0.5"))]
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 1, (trial, argv)
        capsys.readouterr()
        assert code in range(6), (trial, argv)
        codes.add(code)
    assert codes >= {0, 2, 3}


def test_import_loads_no_numpy():
    """Importing the package and its CLI loads no numpy: it is a test dependency."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import mvdatalog, mvdatalog.cli; "
             "print(mvdatalog.__file__); print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    origin, numpy_loaded = done.stdout.split()
    assert pathlib.Path(origin).is_relative_to(SRC)
    assert numpy_loaded == "False"


# what `from mvdatalog import *` gives: the public names of the package
PACKAGE_NAMES = [
    "Atom", "BIPOLAR_A", "BIPOLAR_B", "BackgroundKnowledge", "Constant", "EvalOrder",
    "FUZZY", "FixpointReport", "Goal", "IFS", "IVS", "Interpretation", "KnowledgeBase",
    "LevelResult", "Literal", "ParseError", "PhiSpec", "Program", "ProximityRef",
    "ProximityRelation", "Rule", "SYSTEMS", "SafetyError", "SearchNode", "SearchTree",
    "Variable", "answer", "applicable", "apply_implication", "bipolar_level", "bottom",
    "build_kb", "build_tree", "check_safety", "closure_check", "consequence", "dt_step",
    "engine", "fixpoint", "fmt", "ground", "herbrand", "ifs_to_ivs", "implications",
    "is_model", "is_similarity", "ivs_to_ifs", "join", "kb", "lang", "leq", "level_fn",
    "meet", "mod_nt_step", "negate", "nt_step", "parse_goal", "parse_level",
    "parse_phi_file", "parse_program", "parse_proximity_file", "phi_apply",
    "print_program", "proximity_set", "query", "starting_facts", "stratify", "top",
    "unify", "validate", "validate_proximity", "values",
]
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'mvdatalog')"


def _fresh_interpreter(code: str) -> list:
    """Run code in a new interpreter on the sources; the JSON of its last line."""
    done = subprocess.run([sys.executable, "-c",
                           f"import json, sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_kb_and_query_on_first_use():
    loaded, star, names, same_consequence, same_answer, missing = _fresh_interpreter(
        "import mvdatalog\n"
        f"loaded = {LOADED}\n"
        "star = {}\n"
        "exec('from mvdatalog import *', star)\n"
        "del star['__builtins__']\n"
        "try:\n"
        "    mvdatalog.no_such_name\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "print(json.dumps([loaded, sorted(star), dir(mvdatalog),\n"
        "                  mvdatalog.consequence is mvdatalog.kb.consequence,\n"
        "                  mvdatalog.answer is mvdatalog.query.answer, missing]))\n")
    assert loaded == ["mvdatalog", "mvdatalog.engine", "mvdatalog.implications",
                      "mvdatalog.lang", "mvdatalog.values"]
    assert len(PACKAGE_NAMES) == 72
    assert star == names == PACKAGE_NAMES
    assert same_consequence and same_answer and missing


def test_each_command_loads_only_its_layers(tmp_path):
    files = ("--prox", DATA / "ex23.prox", "--phi", DATA / "ex23.phi")
    bad = tmp_path / "bad.prox"
    bad.write_text("garbage here\n")
    cases = [
        (("fixpoint", DATA / "ex23.mvd"), 0, set()),
        (("check", DATA / "ex23.mvd"), 0, set()),
        (("consequence", DATA / "ex23.mvd", *files), 0, {"mvdatalog.kb"}),
        (("query", DATA / "ex23.mvd", *files, "--goal", "li(M, X)"), 0,
         {"mvdatalog.kb", "mvdatalog.query"}),
        (("fixpoint", DATA / "ex23.mvd", "--prox", bad), 2, {"mvdatalog.kb"}),
        (("check", DATA / "ex23.mvd", "--prox", bad), 2, {"mvdatalog.kb"}),
    ]
    for argv, expected_code, layers in cases:
        code, loaded, err = _fresh_interpreter(
            "import contextlib, io\n"
            "from mvdatalog.cli import run\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = run({[str(a) for a in argv]!r})\n"
            f"print(json.dumps([code, {LOADED}, err.getvalue()]))\n")
        assert code == expected_code, (argv, err)
        assert set(loaded) & {"mvdatalog.kb", "mvdatalog.query"} == layers, argv
        if code == 2:
            assert err == ("error: line 1, col 1: proximity entries must follow "
                           "a %domain directive\n")
