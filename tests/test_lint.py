"""Static checks on the package source."""

import ast
from pathlib import Path
from typing import Callable

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

Definition = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def _registered(node: Definition) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in REGISTRARS
        for d in node.decorator_list
    )


def _private(module: str, node: Definition) -> bool:
    return node.name.startswith("_") and not node.name.startswith("__")


def _linalg_function(module: str, node: Definition) -> bool:
    return module == "linalg" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _unreferenced_definitions(
    trees: dict[str, ast.Module], checked: Callable[[str, Definition], bool]
) -> set[str]:
    """Module-level functions and classes, those that checked(module,
    definition) selects, that no module refers to.

    A reference is a name, an attribute or an imported name anywhere in
    any of the modules, the defining one included; a definition that a
    registering decorator names is used by that registration.
    """
    defined: set[tuple[str, str]] = set()
    used: set[str] = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and checked(module, node)
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


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_no_private_function_or_class_is_left_unused():
    assert not _unreferenced_definitions(_package_trees(), _private)


def test_no_linalg_function_is_left_unused():
    # the kernel's public routines are internal to the package: one that
    # no module refers to, linalg itself included, is dead code
    assert not _unreferenced_definitions(_package_trees(), _linalg_function)


def test_the_scan_sees_an_unused_private_function():
    a = ast.parse(
        "def _used(): pass\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
        "@_suite('x')\ndef _registered_check(): pass\n"
        "def __getattr__(name): pass\n"
    )
    b = ast.parse("from a import _used\n_used()\n")
    assert _unreferenced_definitions({"a": a, "b": b}, _private) == {"a._dead", "a._Gone"}


def test_the_scan_sees_an_unused_linalg_function():
    linalg = ast.parse(
        "def int_row(): pass\n"
        "def int_rows(): return int_row()\n"
        "def rref(): pass\n"
        "def _dead(): pass\n"
    )
    geometry = ast.parse("from .linalg import int_rows\ndef rank(): pass\n")
    trees = {"linalg": linalg, "geometry": geometry}
    assert _unreferenced_definitions(trees, _linalg_function) == {"linalg.rref", "linalg._dead"}
