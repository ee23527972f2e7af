"""Every module-level function and class, and every public method, in
`src/mrdg` has a user.

A name counts as used when it appears, as a whole word, anywhere in
`src/mrdg/*.py` or `perfbench/*.py` besides its own definition.  Code that
only tests call belongs in the tests.  Methods whose names start with `_` are
not checked, and a public method shares its count with every other
definition or attribute of the same name: a text search cannot tell which
class an attribute call resolves to, so it can miss an orphan but never
flags a used name.

Likewise every parameter with a default takes two values in those files:
some call sets it, and not every call sets it to one literal.  Calls are
matched by name in the same way.  And every name a module imports at module
level is used in that module, and no module imports scipy.
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


# what a call passes through *args or **kwargs: some value, not readable
_EXPR = object()


def defaulted_params():
    """(qualified name, called name, parameter, positional index or None) of
    every parameter with a default of a function in `src/mrdg`.

    A method's index skips `self`; `__init__` is called by its class name.
    """
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owners = {
            id(item): node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, FUNCS):
                continue
            owner = owners.get(id(node))
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if owner is not None and not static:
                positional = positional[1:]
            called = owner.name if owner is not None and node.name == "__init__" else node.name
            qual = ".".join(filter(None, [path.stem, owner and owner.name, node.name]))
            for index in range(len(positional) - len(args.defaults), len(positional)):
                yield qual, called, positional[index].arg, index
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qual, called, arg.arg, None


def set_value(call: ast.Call, param: str, index: int | None):
    """The node a call passes for a parameter, `_EXPR` when it cannot be
    read (after a starred argument, or through **kwargs), None if unset."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if index is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return _EXPR
            if i == index:
                return arg
    if any(kw.arg is None for kw in call.keywords):
        return _EXPR
    return None


def test_every_defaulted_parameter_takes_two_values_outside_tests():
    # a default that no call overrides, or that every call overrides with
    # the same literal, is an option only tests use
    files = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    single = []
    for qual, called, param, index in defaulted_params():
        values = [set_value(call, param, index) for call in calls.get(called, [])]
        unset = all(v is None for v in values)
        one_literal = all(isinstance(v, ast.Constant) for v in values) and (
            len({ast.dump(v) for v in values}) == 1
        )
        if unset or one_literal:
            single.append(f"{qual}({param})")
    assert not single, f"parameters only tests set to another value: {single}"


def test_every_module_level_import_is_used():
    # `__init__.py` imports to re-export
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.stem}: {bound}")
    assert not unused, f"imported but unused: {unused}"


def test_no_module_imports_scipy():
    # the solver runs on numpy alone; the benchmark imports scipy only to
    # report its version
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imports in src/mrdg: {found}"
