"""README's tables that restate the code must match it."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from qcs import experiments

README = Path(__file__).resolve().parent.parent / "README.md"


def kind_table() -> dict[str, str]:
    """The initial-value kind table: kind -> its keys cell."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| kind | keys |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kind, keys = (cell.strip() for cell in line.strip("|").split("|", 1))
        rows[kind.strip("`")] = keys
    return rows


def test_the_kind_table_lists_every_kind_with_its_fields():
    table = kind_table()
    assert set(table) == set(experiments._INITIAL_KINDS)
    for kind, keys in table.items():
        tokens = set(re.findall(r"`([a-z][a-z0-9_]*)`", keys)) - {"true", "false"}
        fields = {f.name for f in dataclasses.fields(experiments._INITIAL_KINDS[kind])}
        assert tokens == fields, kind
