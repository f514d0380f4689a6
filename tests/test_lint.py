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
