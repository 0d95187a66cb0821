"""Package-wide checks: the runtime imports only the standard library and
numpy, and every public name a module lists is there."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import orbitrecur

PACKAGE = Path(orbitrecur.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def imported_roots(path):
    """Top-level names of the absolute imports anywhere in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_stdlib_and_numpy_only():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = {(path.name, root) for path in sorted(PACKAGE.glob("*.py"))
               for root in imported_roots(path) if root not in allowed}
    assert outside == set()


def test_every_all_entry_resolves():
    missing = [(name, entry) for name in MODULES
               for module in [importlib.import_module(f"orbitrecur.{name}")]
               for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []
