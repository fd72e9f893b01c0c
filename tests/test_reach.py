"""Every function, class and method in the package is reached from the package.

A module-level function or class that no ``ast.Name`` in ``src/planevar``
carries by its bare name, and no ``ast.Attribute`` on its module's name
(``_vfcore.vf_sweep``), and a method whose name no ``ast.Attribute`` carries,
is code that only tests run, unless ``planevar/__init__.py`` imports it: it
proves nothing about the CLI or the suite and should move into the tests or
go. A method is reached only through an attribute (``obj.name``), because a
bare name is a local or a global. A module-level definition is not reached
through an attribute on anything else, so numpy's ``.dot`` would not keep a
module-level ``dot`` alive. Method names are still matched bare, so a same-named
method of another class counts as a use (``Triangle.contains`` and
``Rectangle.contains`` would keep a ``Line.contains`` alive): the guard finds
orphans, it does not prove that a method is called. Dunder methods are called
by Python itself and are not listed.

An export that nothing else in the package names is reached only by its
users, so each such name needs a reason in ``EXPORTS``, as each unreached
definition does in ``ALLOWED``.
"""

import ast
from pathlib import Path

import planevar

SRC = Path(planevar.__file__).parent

# "module.qualname" -> why the definition stays although nothing in the package names it
ALLOWED = {
    "_vfcore.candidate_lines": "perfbench/tracer.py spans it by name (ROADMAP, item 1)",
    "_vfcore.vf_of_indices": "perfbench/tracer.py spans it by name (ROADMAP, item 1)",
    "cli._Parser.error": "argparse calls it on a bad command line",
    "variation.verify_estimate": "perfbench/checks.py recomputes each estimate from its witness with it",
}

# exported name that nothing else in src/planevar names -> why the library keeps it
EXPORTS: dict[str, str] = {}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _named(trees) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """(bare names, attribute names, (owner name, attribute name) pairs) that
    the package's code carries."""
    names, attributes, owned = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    owned.add((node.value.id, node.attr))
    return names, attributes, owned


def _exported(trees) -> set[str]:
    return {alias.name for node in ast.walk(trees["__init__"])
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, is a method) of each module-level function or
    class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def unreached() -> list[str]:
    trees = _trees()
    names, attributes, owned = _named(trees)
    exported = _exported(trees)
    return [qualname for module, tree in trees.items()
            for qualname, name, method in _definitions(tree, module)
            if name not in exported and (name not in attributes if method
                                         else name not in names and (module, name) not in owned)]


def test_every_definition_is_reached_from_the_package():
    orphans = [name for name in unreached() if name not in ALLOWED]
    assert orphans == [], ("definitions that nothing in src/planevar names; move them "
                           "into the tests, delete them, or allow them with a reason: "
                           + ", ".join(orphans))


def test_the_allowlist_names_only_unreached_definitions():
    stale = sorted(set(ALLOWED) - set(unreached()))
    assert stale == [], f"allowed definitions that the package now names, or that are gone: {stale}"


def unreached_exports() -> list[str]:
    """Exported names that no ``ast.Name`` or ``ast.Attribute`` in the package carries."""
    trees = _trees()
    names, attributes, _ = _named(trees)
    return sorted(_exported(trees) - names - attributes)


def test_every_unreached_export_has_a_reason():
    missing = [name for name in unreached_exports() if name not in EXPORTS]
    assert missing == [], ("exports that nothing in src/planevar names; give each a caller, "
                           "move it into the tests, or list it with a reason: "
                           + ", ".join(missing))


def test_the_export_list_names_only_unreached_exports():
    stale = sorted(set(EXPORTS) - set(unreached_exports()))
    assert stale == [], f"listed exports that the package now names, or no longer exports: {stale}"
