'''
Guards on the package's module surface.

Every exported name must exist, and modules reach each other only through
public names, so a deletion that leaves a stale export or a new private
cross-module import fails here rather than in a user's code.
'''

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conformal_retrieval

PACKAGE_DIR = Path(conformal_retrieval.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"conformal_retrieval.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def private_imports(path):
    '''(module, name) for each underscore name imported from the package.'''
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").startswith(
            "conformal_retrieval")
        if internal:
            found.extend((node.module, alias.name) for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_no_private_cross_module_imports():
    found = {path.name: private_imports(path)
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
