"""The domain-file example in README.md parses and round-trips."""

from __future__ import annotations

import re
from pathlib import Path

from beliefhtn import parse, parse_bundle, serialize

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_domain_example() -> str:
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    (example,) = [b for b in blocks if b.startswith("beliefhtn-domain 1\n")]
    return example


def test_readme_domain_example_parses_and_round_trips():
    text = readme_domain_example()
    bundle = parse_bundle(text)
    assert bundle.domfile.name == "mini"
    canonical = serialize(bundle.domfile)
    assert parse(canonical) == bundle.domfile
    assert serialize(parse(canonical)) == canonical
