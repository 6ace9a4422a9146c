"""The package exports no name that only the tests or demos use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lattice_choquard"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def names_read(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_is_read_by_the_library_or_bench():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += (ROOT / "bench").glob("*.py")
    read = set().union(*(names_read(p) for p in callers))
    exported = exported_names()
    assert len(exported) > 40  # the parse found the export list
    assert sorted(exported - read) == []
