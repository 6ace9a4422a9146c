"""The package exports no name that only the tests or demos use.

A name counts as read where the library or the benchmark really reaches the
package's object: as a bare name in the module that defines it or in a file
that imports it from the package, or as an attribute of an alias bound to
the package or to one of its modules.  A local variable, an attribute of
some other object, or a function of the same name defined elsewhere does not
count.
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
        imported |= {name for name, mod in exported_names().items() if mod == path.stem}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
    return names


def test_every_exported_name_is_read_by_the_library_or_bench():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += (ROOT / "bench").glob("*.py")
    read = set().union(*(names_read(p) for p in callers))
    exported = exported_names()
    assert len(exported) > 40  # the parse found the export list
    assert sorted(set(exported) - read) == []
