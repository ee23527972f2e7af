"""Every module-level function and class, and every public method, in
`src/mrdg` has a user.

A name counts as used when it appears, as a whole word, anywhere in
`src/mrdg/*.py` or `perfbench/*.py` besides its own definition.  Code that
only tests call belongs in the tests.  Methods whose names start with `_` are
not checked, and a public method shares its count with every other
definition or attribute of the same name: a text search cannot tell which
class an attribute call resolves to, so it can miss an orphan but never
flags a used name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mrdg").glob("*.py"))
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)


def checked_names():
    """(qualified name, bare name) of every module-level def and public method."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, DEFS):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCS) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_module_level_name_is_used_outside_tests():
    files = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
    corpus = "\n".join(path.read_text() for path in files)
    orphans = [
        qual
        for qual, name in checked_names()
        if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) <= 1
    ]
    assert not orphans, f"names with no caller in src/ or perfbench/: {orphans}"
