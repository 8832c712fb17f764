"""Every ``from ... import ...`` in ``docs/api.md``'s python blocks runs.

The API listing quotes import statements; a name that is deleted or
moved must take its listing with it.  A ``...`` in a name list is the
listing's "and more" placeholder and is skipped.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parent.parent / "docs" / "api.md"
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
