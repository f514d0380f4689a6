"""Static checks on the package source."""

import ast
from pathlib import Path

import mixedval

SRC = Path(mixedval.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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


def _references(tree: ast.Module) -> set[str]:
    """Names the module reads, attributes it takes and names it imports.

    A module-level definition's references to its own name, as in a
    recursion or a method annotated with its class, do not count.
    """
    used: set[str] = set()
    for stmt in tree.body:
        found: set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update({node.asname or node.name, node.name})
        if isinstance(stmt, Definition):
            found.discard(stmt.name)
        used |= found
    return used


def _unreferenced_definitions(trees: dict[str, ast.Module], exported: set[str]) -> set[str]:
    """Module-level functions and classes that no module refers to, those
    the package exports and dunders apart.

    A reference is one that _references finds in any of the modules, the
    defining one included; a definition that a registering decorator
    names is used by that registration.
    """
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, Definition)
        and node.name not in exported
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not _registered(node)
    }
    used = set().union(*map(_references, trees.values()))
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


def _vertex_scalings(tree: ast.Module) -> list[int]:
    """Lines of the _scaled(...) calls whose argument reads a `.vertices`,
    directly or through a comprehension or a sum over them, outside a
    function named _ints: a polytope's vertices are scaled once, by
    Polytope._ints, and read from it everywhere else."""
    exempt = {
        id(node)
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "_ints"
        for node in ast.walk(f)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_scaled"
        and id(node) not in exempt
        and any(isinstance(n, ast.Attribute) and n.attr == "vertices" for arg in node.args for n in ast.walk(arg))
    )


def test_no_module_scales_a_polytopes_vertices():
    found = {name: lines for name, tree in _package_trees().items() if (lines := _vertex_scalings(tree))}
    assert not found, f"_scaled on a polytope's vertices (read Polytope._ints): {found}"


def test_the_scan_sees_a_scaling_of_vertices():
    tree = ast.parse(
        "class Polytope:\n"
        "    def _ints(self): return _scaled(self.vertices)\n"
        "D, ints = _scaled(P.vertices)\n"
        "D, ints = _scaled([v for S in summands for v in S.vertices])\n"
        "D, ints = geometry._scaled(P.vertices + Q.vertices)\n"
        "D, (qi,) = _scaled([q])\n"
        "D, pts = P._ints\n"
        "D, pts = _scaled(vertices)\n"
    )
    assert _vertex_scalings(tree) == [3, 4, 5]


def _caller_trees() -> dict[str, ast.Module]:
    """The code that may call the package's public API: its modules but
    __init__, which only re-exports, the scripts, and the benchmark but
    its test. A name that only tests call is dead code."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    paths += [p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "test_bench.py"]
    return {str(p): ast.parse(p.read_text(), str(p)) for p in paths}


def _uncalled_exports(callers: dict[str, ast.Module], exported: set[str]) -> set[str]:
    return exported - set().union(*map(_references, callers.values()))


def _uncalled_members(package: dict[str, ast.Module], callers: dict[str, ast.Module]) -> set[str]:
    """Public methods and properties of the package's classes whose name
    the callers never take as an attribute or read as a name."""
    used = set().union(*map(_references, callers.values()))
    return {
        f"{cls.name}.{member.name}"
        for tree in package.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and member.name not in used
    }


def test_every_exported_name_has_a_caller_outside_the_tests():
    assert not _uncalled_exports(_caller_trees(), set(mixedval.__all__))


def test_every_public_member_has_a_caller_outside_the_tests():
    assert not _uncalled_members(_package_trees(), _caller_trees())


def test_the_scan_sees_an_export_that_only_its_definition_calls():
    geometry = ast.parse(
        "def hull(): return volume()\n"
        "def volume(): pass\n"
        "def loop(n): return loop(n - 1)\n"
        "class Box:\n"
        "    def grow(self) -> Box: return Box()\n"
    )
    script = ast.parse("from mixedval import dilate\n")
    exported = {"hull", "volume", "loop", "Box", "dilate"}
    assert _uncalled_exports({"geometry": geometry, "script": script}, exported) == {"hull", "loop", "Box"}


def test_the_scan_sees_a_member_that_nothing_calls():
    geometry = ast.parse(
        "class Box:\n"
        "    def __init__(self): self.size = 0\n"
        "    def _grow(self): pass\n"
        "    @property\n"
        "    def area(self): return self.size\n"
        "    def width(self): return self.width()\n"
        "    def dead(self): pass\n"
    )
    script = ast.parse("from geometry import Box\nprint(Box().area, Box.size)\n")
    trees = {"geometry": geometry, "script": script}
    assert _uncalled_members({"geometry": geometry}, trees) == {"Box.dead"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module the tree imports, at any depth, relative ones with their
    dots; `from . import name` imports `.name`."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            found.update("." * node.level + a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + node.module)
    return found


def _import_time_modules(tree: ast.Module) -> set[str]:
    """The modules the tree imports when it is itself imported: those of its
    module-level statements, class bodies included, but not function
    bodies or an `if TYPE_CHECKING:` block."""
    found: set[str] = set()
    pending = list(tree.body)
    while pending:
        stmt = pending.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name) and stmt.test.id == "TYPE_CHECKING":
            pending += stmt.orelse
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            found |= _imported_modules(ast.Module(body=[stmt], type_ignores=[]))
        for field in ("body", "orelse", "finalbody", "handlers"):
            pending += getattr(stmt, field, [])
    return found


def test_no_package_module_imports_dataclasses():
    # the decorator execs generated code for every class at import, and
    # the module pulls in inspect and ast: the value classes are plain
    users = {name for name, tree in _package_trees().items() if "dataclasses" in _imported_modules(tree)}
    assert not users


def test_the_cli_imports_each_commands_modules_only_when_it_runs():
    # a command that does not need them must not pay for compiling them
    tree = ast.parse((SRC / "cli.py").read_text())
    assert not _import_time_modules(tree) & {".verify", ".dissections", ".positivity"}


def test_the_scan_sees_an_import_time_import():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import json\n"
        "from .geometry import dilate\n"
        "if TYPE_CHECKING:\n"
        "    from .dissections import Dissection\n"
        "try:\n"
        "    from . import verify\n"
        "except ImportError:\n"
        "    pass\n"
        "def run():\n"
        "    from .positivity import cylinder_lower_bound\n"
        "class Box:\n"
        "    from dataclasses import field\n"
    )
    assert _import_time_modules(tree) == {"typing", "json", ".geometry", ".verify", "dataclasses"}
    assert ".positivity" in _imported_modules(tree)
