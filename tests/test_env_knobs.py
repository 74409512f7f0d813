"""The ``REPRO_*`` environment knobs are exactly the documented ones.

docs/performance.md keeps one table of every environment variable the
``repro`` package reads (name, default, reader).  Every such name in
``src/repro`` is a whole string literal, so collecting those literals
finds them all; the test fails when they and the table disagree, so a
new knob cannot land undocumented and a deleted one cannot linger in
the docs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _names_in_source() -> set:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _names_in_table() -> set:
    text = (ROOT / "docs" / "performance.md").read_text()
    section = text.split("\n## Environment knobs\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.M))


def test_knob_table_lists_exactly_the_names_the_package_reads():
    documented = _names_in_table()
    read = _names_in_source()
    assert sorted(read - documented) == [], "undocumented knobs"
    assert sorted(documented - read) == [], "documented knobs nothing reads"
