"""Guard: every run of the CLI matrix of `record_cli_digests.runs` prints
the bytes recorded in tests/data/cli_digests.json.

A change that moves a CLI byte re-records the file with
`python3 tests/record_cli_digests.py` and says which runs moved and why."""

import json

import record_cli_digests as R


def test_cli_runs_match_their_recorded_digests():
    recorded = json.loads(R.DIGESTS.read_text(encoding="utf-8"))
    now = R.digests()
    problems = [f"added: {argv}" for argv in now if argv not in recorded]
    problems += [f"missing: {argv}" for argv in recorded if argv not in now]
    problems += [f"moved: {argv}" for argv, digest in now.items()
                 if argv in recorded and recorded[argv] != digest]
    assert not problems, "\n".join(problems)
