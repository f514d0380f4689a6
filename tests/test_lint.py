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

Definition = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def _registered(node: Definition) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in REGISTRARS
        for d in node.decorator_list
    )


def _unreferenced_definitions(trees: dict[str, ast.Module], exported: set[str]) -> set[str]:
    """Module-level functions and classes that no module refers to, those
    the package exports and dunders apart.

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
                and node.name not in exported
                and not (node.name.startswith("__") and node.name.endswith("__"))
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


def test_no_unexported_function_or_class_is_left_unused():
    # what the package does not export is internal to it: a definition
    # that no module refers to is dead code
    assert not _unreferenced_definitions(_package_trees(), set(mixedval.__all__))


def test_no_private_function_or_class_is_left_unused():
    dead = _unreferenced_definitions(_package_trees(), set(mixedval.__all__))
    assert not {name for name in dead if name.split(".")[1].startswith("_")}


def test_no_linalg_function_is_left_unused():
    # the kernel's routines are internal to the package: one that no
    # module refers to, linalg itself included, is dead code
    dead = _unreferenced_definitions(_package_trees(), set(mixedval.__all__))
    assert not {name for name in dead if name.startswith("linalg.")}


def test_the_scan_sees_an_unused_private_function():
    a = ast.parse(
        "def _used(): pass\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
        "@_suite('x')\ndef _registered_check(): pass\n"
        "def __getattr__(name): pass\n"
    )
    b = ast.parse("from a import _used\n_used()\n")
    assert _unreferenced_definitions({"a": a, "b": b}, set()) == {"a._dead", "a._Gone"}


def test_the_scan_sees_an_unused_linalg_function():
    # and an unused public helper anywhere; an exported name is used
    linalg = ast.parse(
        "def int_row(): pass\n"
        "def int_rows(): return int_row()\n"
        "def rref(): pass\n"
        "def _dead(): pass\n"
    )
    geometry = ast.parse(
        "from .linalg import int_rows\n"
        "def helper(): pass\n"
        "def convex_hull(): pass\n"
    )
    trees = {"linalg": linalg, "geometry": geometry}
    assert _unreferenced_definitions(trees, {"convex_hull"}) == {"linalg.rref", "linalg._dead", "geometry.helper"}
