"""numpy stays the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

import dctc


def test_package_imports_only_the_standard_library_and_numpy():
    """Every import in every module under ``src/dctc`` names a standard
    library module, numpy, or the package itself."""
    modules = sorted(Path(dctc.__file__).parent.rglob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or relative: the package itself
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top in ("numpy", "dctc"), \
                    f"{path.name} imports {name}"


def test_only_qmat_reads_the_hermitian_basis():
    """``qmat``'s coordinate map is the one reader of ``hermitian_basis``:
    no other module under ``src/dctc`` names it, so none holds, passes or
    returns a basis."""
    modules = sorted(Path(dctc.__file__).parent.rglob("*.py"))
    readers = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a Name, an Attribute, an import alias or the definition
            if "hermitian_basis" in (getattr(node, key, None) for key in ("id", "attr", "name")):
                readers.add(path.name)
    assert readers == {"qmat.py"}
