"""Every module-level function and class in `src/mrdg` has a user.

A name counts as used when it appears, as a whole word, anywhere in
`src/mrdg/*.py` or `perfbench/*.py` besides its own definition.  Code that
only tests call belongs in the tests.  Methods are not checked: a text
search cannot tell which class an attribute call resolves to.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mrdg").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_module_level_name_is_used_outside_tests():
    files = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
    corpus = "\n".join(path.read_text() for path in files)
    orphans = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, DEFS)
        and len(re.findall(rf"\b{re.escape(node.name)}\b", corpus)) <= 1
    ]
    assert not orphans, f"names with no caller in src/ or perfbench/: {orphans}"
