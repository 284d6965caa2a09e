"""Guard: a fixed subset of the benchmark's pool items still produces the
output digests recorded in benchmarks/digests.json.

Each digest hashes every atom's level together with the iteration count,
so any change to levels or to nondet's step sequence fails here."""

import json

import pytest

import mvdatalog

from conftest import BENCHMARKS, load_workloads

DIGESTS = json.loads((BENCHMARKS / "digests.json").read_text(encoding="utf-8"))
W = load_workloads()

CLOSURE_ITEMS = [(shape, variant) for shape in ("chain8-godel", "cyc6-fg2-neg")
                 for variant in (0, 5)]
PROXIMITY_ITEM = ("ivs4-prod", 2)
QUERY_VARIANT = 3
QUERY_GOALS = (0, 9, 16, 47)


def _assert_ok(op, digests):
    assert W.check(op, op.run(), digests) == [], op.key


@pytest.mark.parametrize("shape,variant", CLOSURE_ITEMS)
def test_closure_digests(shape, variant):
    agreement = {}
    for mode in ("det", "nondet"):
        _assert_ok(W.closure_op(mvdatalog, shape, variant, mode, agreement),
                   DIGESTS["closure"])


def test_proximity_digest():
    _assert_ok(W.proximity_op(mvdatalog, *PROXIMITY_ITEM), DIGESTS["proximity"])


def test_query_digests():
    texts = W.query_input(QUERY_VARIANT)
    kb = W.load_kb(mvdatalog, texts.program, texts.prox, texts.phi)
    for index in QUERY_GOALS:
        _assert_ok(W.query_op(mvdatalog, kb, QUERY_VARIANT, index), DIGESTS["query"])
