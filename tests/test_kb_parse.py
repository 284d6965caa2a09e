"""The entry fast path of the proximity parser against the general parser.

`kb.parse_proximity_file` reads an entry on one line by `kb._ENTRY_RE`;
everything else goes to the general parser from the same offset, as every
line of a function-set file does.  On seeded mutations of the benchmark's
proximity and function-set texts and of the files in tests/data, each
parser must give exactly what it gives with the entry pattern forced never
to match: the same relations (pairs and neighbours in the same order,
symbols, declared system), the same function set, or the same
`ParseError` text, line and column."""

import random
import re

from mvdatalog import kb
from mvdatalog.lang import ParseError

from conftest import DATA, load_workloads

MUTATIONS = 12
# characters the mutations insert: token pieces, whitespace, comments,
# non-ASCII letters and digits, and characters that start no token
INSERTED = list(" \t\n~=.,()/#%-_0159aAzZ") + ["é", "٣", "$", "..", "0.1234567891",
                                                "%domain terms.", "%domain predicates."]


class _MatchSpy:
    """Stands in for a fast-path pattern and counts the lines it matches."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matched = 0

    def match(self, text, pos):
        m = self.pattern.match(text, pos)
        self.matched += m is not None
        return m


class _NeverMatch:
    def match(self, text, pos):
        return None


def _texts():
    """(parser name, text) of every proximity and function-set text."""
    W = load_workloads()
    inputs = [W.proximity_input(shape[0], variant)
              for shape in W.PROXIMITY_SHAPES for variant in range(W.VARIANTS)]
    texts = [("prox", pi.prox) for pi in inputs] + [("phi", pi.phi) for pi in inputs]
    texts += [("prox", path.read_text(encoding="utf-8")) for path in sorted(DATA.glob("*.prox"))]
    texts += [("phi", path.read_text(encoding="utf-8")) for path in sorted(DATA.glob("*.phi"))]
    return texts


def _mutated(rng, text):
    """text with one seeded edit: a character inserted (anywhere, or after
    a digit), deleted or replaced, a line repeated, dropped or moved, an entry made reflexive,
    or a level or function changed on a repeated line."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    pos = rng.randrange(len(text) + 1)
    kind = rng.randrange(9)
    if kind == 0:
        return text[:pos] + rng.choice(INSERTED) + text[pos:]
    if kind == 8:           # after a digit: a number goes on, to ten decimals
        pos = rng.choice([m.end() for m in re.finditer(r"[0-9]", text)] or [pos])
        return text[:pos] + rng.choice(INSERTED + ["123456789"] * 4) + text[pos:]
    if kind == 1:
        return text[:pos] + text[pos + 1:]
    if kind == 2:
        return text[:pos] + rng.choice(INSERTED) + text[pos + 1:]
    if kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif kind == 4:
        del lines[k]
    elif kind == 5:
        lines.insert(rng.randrange(len(lines) + 1), lines.pop(k))
    elif kind == 6 and "~" in lines[k]:
        lines[k] = re.sub(r"(\w+)(\s*~\s*)(\w+)", r"\1\2\1", lines[k], count=1)
    else:
        changed = (lines[k].replace("0.", "0.1", 1).replace("meet", "product", 1)
                   .replace("product", "meet-product", 1))
        lines.insert(rng.randrange(len(lines) + 1), changed)
    return "\n".join(lines)


def _outcome(name, text):
    """What a parser makes of text, in a form that compares exactly."""
    try:
        if name == "phi":
            return list(kb.parse_phi_file(text).by_functor.items())
        term_prox, pred_prox, system = kb.parse_proximity_file(text)
    except ParseError as error:
        return (str(error), error.line, error.col)
    return system, [(rel.domain, rel.system, list(rel.pairs.items()), sorted(rel.symbols),
                     [(s, list(others.items())) for s, others in rel.neighbours.items()])
                    for rel in (term_prox, pred_prox)]


def test_fast_paths_agree_with_the_general_parser(monkeypatch):
    rng = random.Random(24)
    cases = []
    for name, text in _texts():
        cases.append((name, text))
        cases += [(name, _mutated(rng, text)) for _ in range(MUTATIONS)]
    fast = [_outcome(name, text) for name, text in cases]
    monkeypatch.setattr(kb, "_ENTRY_RE", _NeverMatch())
    general = [_outcome(name, text) for name, text in cases]
    for case, got, expected in zip(cases, fast, general):
        assert got == expected, case
    # the mutations reach both results and errors of both parsers
    errors = [name for (name, _), got in zip(cases, fast) if isinstance(got, tuple)
              and isinstance(got[0], str) and got[0].startswith("line ")]
    assert {"prox", "phi"} <= set(errors)
    assert len(errors) < len(cases) - len(_texts())


def test_fast_paths_read_the_entry_lines(monkeypatch):
    """Every entry line of the unmutated proximity texts is read by the
    pattern, none by the general parser."""
    entry = _MatchSpy(kb._ENTRY_RE)
    monkeypatch.setattr(kb, "_ENTRY_RE", entry)
    lines = 0
    for name, text in _texts():
        if name == "prox":
            kb.parse_proximity_file(text)
            lines += sum("~" in line for line in text.split("\n"))
    assert entry.matched == lines > 64 * 10
