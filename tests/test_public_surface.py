"""The package holds no name that only the tests or demos use: neither an
export nor a module-level function or class.

A name counts as read where the library or the benchmark really reaches the
package's object: as a bare name in the module that defines it (outside its
own definition) or in a file that imports it from the package, or as an
attribute of an alias bound to the package or to one of its modules.  A
local variable, an attribute of some other object, or a function of the
same name defined elsewhere does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lattice_choquard"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def exported_names() -> dict[str, str]:
    """Each exported name, with the module it is imported from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def module_definitions() -> dict[str, str]:
    """Each module-level function and class of the package, with its module;
    no two modules define one name, so a read of a name reads its one
    definition."""
    defined = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in defined, node.name
                defined[node.name] = path.stem
    return defined


def _from_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "lattice_choquard"


def names_read(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    imported, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                bound = alias.asname or alias.name
                (aliases if alias.name in MODULES else imported).add(bound)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lattice_choquard":
                    aliases.add(alias.asname or alias.name.split(".")[0])
    if path.parent == PACKAGE:  # the module that defines a name reads it bare
        defined = {**module_definitions(), **exported_names()}
        imported |= {name for name, mod in defined.items() if mod == path.stem}
    names = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)  # a definition reading itself
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported and node.id != own:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    names.add(node.attr)
    return names


def _callers() -> list[Path]:
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return callers + list((ROOT / "bench").glob("*.py"))


def test_every_exported_name_is_read_by_the_library_or_bench():
    read = set().union(*(names_read(p) for p in _callers()))
    exported = exported_names()
    assert len(exported) > 40  # the parse found the export list
    assert sorted(set(exported) - read) == []


def test_every_module_level_definition_is_read_by_the_library_or_bench():
    # a helper that a change leaves behind, read only by the tests, fails here
    read = set().union(*(names_read(p) for p in _callers()))
    defined = module_definitions()
    assert len(defined) > 100  # the parse found the definitions
    assert sorted(set(defined) - read) == []
