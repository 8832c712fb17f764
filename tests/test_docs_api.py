"""Every ``from ... import ...`` in ``docs/api.md``'s python blocks runs.

The API listing quotes import statements; a name that is deleted or
moved must take its listing with it.  A ``...`` in a name list is the
listing's "and more" placeholder and is skipped.  The plan keys it
quotes must be the registry's, and so must the strategy keys of
DESIGN.md's axis table.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
API_MD = ROOT / "docs" / "api.md"
DESIGN_MD = ROOT / "DESIGN.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
FROM_IMPORT = re.compile(r"^from\s+([\w.]+)\s+import\s+(\([^)]*\)|.*)$",
                         re.M)


def doc_imports():
    """``(module, names)`` of each from-import, with ``...`` dropped."""
    found = []
    for block in BLOCK.finditer(API_MD.read_text(encoding="utf-8")):
        for match in FROM_IMPORT.finditer(block.group(1)):
            names = re.sub(r"#.*", "", match.group(2)).strip("() \n")
            found.append((match.group(1), [
                name for name in map(str.strip, names.split(","))
                if name and name != "..."]))
    return found


DOC_IMPORTS = doc_imports()


def test_listing_quotes_imports():
    assert len(DOC_IMPORTS) >= 15


@pytest.mark.parametrize("module, names", [
    pytest.param(module, names, id=f"{module}:{names[0]}")
    for module, names in DOC_IMPORTS
])
def test_doc_import_runs(module, names):
    statement = f"from {module} import {', '.join(names)}"
    exec(compile(statement, str(API_MD), "exec"), {})


def test_quoted_plan_keys_match_the_registry():
    """The ``get_plan(...)`` union names every key and alias, and the
    ``plan_keys()`` comment lists the registry keys in order."""
    from repro.systems.plans import ALIASES, plan_keys

    text = API_MD.read_text(encoding="utf-8")
    union = re.search(r"system = get_plan\((.*?)\)\.build", text, re.S)
    assert set(re.findall(r'"([\w-]+)"', union.group(1))) == \
        set(plan_keys()) | set(ALIASES)
    comment = re.search(r"^plan_keys\(\)\s+#(.*(?:\n\s+#.*)*)", text, re.M)
    listed = re.sub(r"\s*#\s*", " ", comment.group(1))
    assert [key.strip() for key in listed.split(",")] == plan_keys()


@pytest.mark.parametrize("axis, registry", [
    ("PartitionStrategy", "PARTITIONS"), ("StorageLayout", "STORAGES"),
    ("IndexPlan", "INDEX_PLANS"), ("AggregationStrategy", "AGGREGATIONS"),
])
def test_design_axis_rows_list_the_registry_keys(axis, registry):
    """Each row of DESIGN.md's axis table quotes exactly its registry's
    keys, in registry order."""
    from repro.systems import strategies

    text = DESIGN_MD.read_text(encoding="utf-8")
    row = re.search(rf"^\| `{axis}` \| (.*?) \|", text, re.M)
    assert re.findall(r"`([\w-]+)`", row.group(1)) == \
        list(getattr(strategies, registry))
