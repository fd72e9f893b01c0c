"""Every defaulted parameter in the package is set by some call inside it.

A parameter with a default that no call in ``src/planevar`` passes is an
option with one value in use: it doubles the configurations to test and
should be a constant. A dataclass field with a default is a parameter of
the class's constructor. Calls are matched to definitions by bare name, so a
call to any function of the same name counts as a caller.
"""

import ast
from pathlib import Path

import planevar

SRC = Path(planevar.__file__).parent

# "module.qualname(param)" -> why the default stays although no call sets it
ALLOWED = {
    "cli.main(argv)": "None reads sys.argv; tests pass argument lists",
}


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter that has a default."""
    pos = fn.args.posonlyargs + fn.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0  # self / cls is never passed explicitly
    first = len(pos) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _has_default(value: ast.expr | None) -> bool:
    """True for a field's ``= default``; ``field(...)`` counts when it gives one."""
    if isinstance(value, ast.Call) and _callee(value) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _defaulted_fields(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, positional index) of each dataclass field that has a default."""
    fields = [item for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return [(f.target.id, i) for i, f in enumerate(fields) if _has_default(f.value)]


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, defaulted parameters) for functions, methods
    and dataclass constructors."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, _defaulted(node, False)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                yield f"{module}.{node.name}", node.name, _defaulted_fields(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           _defaulted(item, True))


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unset_options() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # bare name -> (most positional arguments, keyword names, spreads *args/**kw)
    calls: dict[str, tuple[int, set, bool]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _callee(node) is None:
                continue
            n_pos, kws, spread = calls.get(_callee(node), (0, set(), False))
            spread = spread or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            kws |= {k.arg for k in node.keywords}
            calls[_callee(node)] = (max(n_pos, len(node.args)), kws, spread)
    unset = []
    for module, tree in trees.items():
        for qualname, name, params in _definitions(tree, module):
            n_pos, kws, spread = calls.get(name, (0, set(), False))
            for param, index in params:
                passed = spread or param in kws or (index is not None and index < n_pos)
                if not passed:
                    unset.append(f"{qualname}({param})")
    return unset


def test_every_defaulted_parameter_is_set_by_some_caller():
    unset = [name for name in unset_options() if name not in ALLOWED]
    assert unset == [], ("parameters with defaults that no call in src/planevar passes; "
                         "make them constants or allow them with a reason: "
                         + ", ".join(unset))


def test_the_allowlist_names_only_unset_parameters():
    stale = sorted(set(ALLOWED) - set(unset_options()))
    assert stale == [], f"allowed options that a caller now sets, or that are gone: {stale}"
