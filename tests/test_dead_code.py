"""No dead definitions in src/ or in tests/oracles.py: every module-level
function and class, and every public method, of src/nestevo is referred to
somewhere in src/ or perfbench/ other than at its own definition, and every
one of tests/oracles.py somewhere in tests/.  Code that only the tests call
belongs in tests/oracles.py, and an oracle that no test uses is removed.

A reference is an identifier read from the syntax tree: a name, an
attribute, an imported name, or a word of a string that is not a docstring
(perfbench patches its probes by strings such as "Front.__init__").
The package's __init__.py only re-exports names, so its imports are not
references.  Click commands are reached through their group.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nestevo"
TESTS = ROOT / "tests"

ALLOWED = {
    # Acceptance criterion 4 (tests/test_acceptance.py) checks it, and the
    # README documents it as the library's one-solution dynamic fitness.
    "dynamic_fitness",
    # The paper's hybrid classification/distillation loss, kept as a
    # desk-scale formula utility for library callers.
    "hybrid_loss",
}


def _trees(folders):
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of a module and its defs."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _references(*folders: Path) -> set[str]:
    refs: set[str] = set()
    for path, tree in _trees(folders):
        skip = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                refs.add(node.name)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skip):
                refs.update(re.findall(r"\w+", node.value))
    return refs


def _is_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def _definitions(paths):
    """(module, qualified name, name) of each module-level function and
    class and each public method in the modules at `paths`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, defs) or _is_command(node):
                continue
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def test_every_definition_in_src_is_reached():
    refs = _references(PACKAGE, ROOT / "perfbench")
    dead = [f"{module}.{qualname}" for module, qualname, name
            in _definitions(sorted(PACKAGE.glob("*.py")))
            if name not in refs and name not in ALLOWED]
    assert dead == []


def test_every_oracle_is_used_by_a_test():
    refs = _references(TESTS)
    dead = [f"{module}.{qualname}" for module, qualname, name
            in _definitions([TESTS / "oracles.py"]) if name not in refs]
    assert dead == []


def test_allowlist_names_live_definitions():
    names = {name for _, _, name in _definitions(sorted(PACKAGE.glob("*.py")))}
    assert ALLOWED <= names
