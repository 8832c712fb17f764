"""Every ``from ... import ...`` in ``docs/api.md``'s python blocks runs.

The API listing quotes import statements; a name that is deleted or
moved must take its listing with it.  A ``...`` in a name list is the
listing's "and more" placeholder and is skipped.  The plan keys it
quotes must be the registry's, and so must the strategy keys of
DESIGN.md's axis table.  Every ``__all__`` entry resolves, and every
definition in ``src/repro`` has a caller outside ``tests/``.
"""

from __future__ import annotations

import ast
import importlib
import re
import shutil
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


# ---------------------------------------------------------------------------
# src holds what the system calls
# ---------------------------------------------------------------------------

SRC = ROOT / "src" / "repro"
#: files here call the package; any mention of a name counts, so the
#: ``bench/e2e`` tracer's string targets do too
CALLER_DIRS = ("bench", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_]\w*")

#: definitions kept although nothing calls them: qualname -> reason.  A
#: name kept as public API is listed in ``docs/api.md`` instead, which
#: counts as a caller.
NO_CALLER: dict = {}


def _read_names(nodes) -> set:
    """Every name the nodes read: each ``name`` and each ``obj.attr``."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _module_name(path: Path, src: Path = SRC) -> str:
    dotted = ".".join(path.relative_to(src.parent).with_suffix("").parts)
    return dotted.removesuffix(".__init__")


def _all_of(tree: ast.Module) -> list:
    """The module's ``__all__`` entries."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


def src_definitions(src: Path = SRC):
    """``(definitions, entry)`` of the package at ``src``.

    ``definitions`` maps a name to ``(qualname, checked, body)`` for each
    top-level function or class and each method so named; ``checked``
    leaves out private methods.  A class's body is its decorators, bases,
    class-level statements and dunder methods: they run whenever the
    class is used.  ``entry`` holds what runs without a caller: the names
    module-level code reads (it runs on import) and every ``__all__``
    entry.
    """
    definitions, entry = {}, set()

    def define(name, qualname, checked, body):
        definitions.setdefault(name, []).append((qualname, checked, body))

    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        entry.update(_all_of(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define(node.name, f"{module}.{node.name}", True, [node])
            elif isinstance(node, ast.ClassDef):
                body = [*node.decorator_list, *node.bases, *node.keywords]
                for item in node.body:
                    name = getattr(item, "name", "")
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not (name.startswith("__")
                                     and name.endswith("__"))):
                        define(name, f"{module}.{node.name}.{name}",
                               not name.startswith("_"), [item])
                    else:
                        body.append(item)
                define(node.name, f"{module}.{node.name}", True, body)
            else:
                entry |= _read_names([node])
    return definitions, entry


def outside_mentions() -> set:
    """Every word of the caller directories' files and of ``docs/api.md``."""
    paths = [API_MD] + [
        path for name in CALLER_DIRS for path in (ROOT / name).rglob("*")
        if path.is_file() and "__pycache__" not in path.parts]
    return {word for path in paths for word in
            WORD.findall(path.read_text(encoding="utf-8", errors="ignore"))}


def uncalled_definitions(src: Path = SRC) -> list:
    """Qualnames of the checked definitions no caller reaches.

    Name-level: reading a name reaches every definition so named, and a
    reached definition's body reaches what it reads in turn.  The walk
    starts from module-level code, ``__all__``, the caller directories
    and ``docs/api.md``; ``tests/`` is not a caller.
    """
    definitions, entry = src_definitions(src)
    reached, todo = set(), list(entry | outside_mentions())
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, _, body in definitions.get(name, ()):
            todo.extend(_read_names(body) - reached)
    return sorted(qualname for name, found in definitions.items()
                  if name not in reached
                  for qualname, checked, _ in found if checked)


def test_every_src_definition_has_a_caller():
    """A top-level function or class, or a public method, of ``src/repro``
    that only tests call belongs under ``tests/``, in ``docs/api.md`` as
    public API with its reason, or in :data:`NO_CALLER`."""
    uncalled = uncalled_definitions()
    assert uncalled == sorted(NO_CALLER), (
        f"no caller outside tests: {sorted(set(uncalled) - set(NO_CALLER))}"
        f"; in NO_CALLER but called: {sorted(set(NO_CALLER) - set(uncalled))}")


def test_guard_names_an_uncalled_definition(tmp_path):
    """The walk is not vacuous: one more top-level ``def`` that nothing
    reads, in a copy of the package, is reported under its name."""
    copy = tmp_path / "repro"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "core" / "tree.py", "a", encoding="utf-8") as out:
        out.write("\n\ndef nothing_reads_me():\n    return layer_nodes(0)\n")
    assert uncalled_definitions(copy) == sorted(
        [*NO_CALLER, "repro.core.tree.nothing_reads_me"])


def _modules_with_all():
    return [_module_name(path) for path in sorted(SRC.rglob("*.py"))
            if _all_of(ast.parse(path.read_text(encoding="utf-8")))]


@pytest.mark.parametrize("module", _modules_with_all())
def test_every_all_entry_resolves(module):
    """``__all__`` is an entry point of the caller guard, so each name it
    lists must exist."""
    imported = importlib.import_module(module)
    missing = [name for name in imported.__all__
               if not hasattr(imported, name)]
    assert missing == [], f"{module}.__all__ lists missing {missing}"
