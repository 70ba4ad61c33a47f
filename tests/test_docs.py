"""The README's examples run: the domain file parses and round-trips, and
the library snippet plans and replays."""

from __future__ import annotations

import re
from pathlib import Path

from beliefhtn import parse, parse_bundle, serialize
from beliefhtn.planner import STALL_THRESHOLD

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_example(first_line: str) -> str:
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    (example,) = [b for b in blocks if b.startswith(first_line + "\n")]
    return example


def test_readme_domain_example_parses_and_round_trips():
    text = readme_example("beliefhtn-domain 1")
    bundle = parse_bundle(text)
    assert bundle.domfile.name == "mini"
    canonical = serialize(bundle.domfile)
    assert parse(canonical) == bundle.domfile
    assert serialize(parse(canonical)) == canonical


def test_readme_library_snippet_runs():
    namespace: dict = {}
    exec(readme_example("from beliefhtn import builtin_bundle, plan, simulate"), namespace)
    assert namespace["report"].outcome == "success"


def test_readme_idl_sentence_states_the_stall_threshold():
    text = " ".join(README.read_text(encoding="utf-8").split())
    (count,) = re.findall(r"IDL: (\d+) or more consecutive WAIT/IDLE turns", text)
    assert int(count) == STALL_THRESHOLD
