"""Static checks on the package source."""

import ast
from pathlib import Path

import mixedval

SRC = Path(mixedval.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by import statements that the module never refers to.

    A name listed in the module's __all__ counts as referred to.
    """
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        unused = _unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            found[path.name] = sorted(unused)
    assert not found, f"unused imports: {found}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n__all__ = ['lcm']\nos.getcwd()\n")
    assert _unused_imports(tree) == {"gcd"}


# decorators that register what they decorate, so the definition is used
REGISTRARS = {"_suite"}


def _registered(node: ast.FunctionDef | ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in REGISTRARS
        for d in node.decorator_list
    )


def _unreferenced_private_definitions(trees: dict[str, ast.Module]) -> set[str]:
    """Private module-level functions and classes no module refers to.

    A reference is a name, an attribute or an imported name anywhere in
    any of the modules; a definition that a registering decorator names
    is used by that registration.
    """
    defined: set[tuple[str, str]] = set()
    used: set[str] = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and not _registered(node)
            ):
                defined.add((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
                used.add(node.name)
    return {f"{module}.{name}" for module, name in defined if name not in used}


def test_no_private_function_or_class_is_left_unused():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert not _unreferenced_private_definitions(trees)


def test_the_scan_sees_an_unused_private_function():
    a = ast.parse(
        "def _used(): pass\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
        "@_suite('x')\ndef _registered_check(): pass\n"
        "def __getattr__(name): pass\n"
    )
    b = ast.parse("from a import _used\n_used()\n")
    assert _unreferenced_private_definitions({"a": a, "b": b}) == {"a._dead", "a._Gone"}
