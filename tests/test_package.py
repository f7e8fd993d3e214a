import ast
from pathlib import Path

import flowsteer


def test_every_exported_name_resolves():
    # a stale string in __all__ only fails on `from flowsteer import *`
    missing = [name for name in flowsteer.__all__ if not hasattr(flowsteer, name)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    # a private name is free to change with its own module; another module that
    # needs it should get a public name instead
    package = Path(flowsteer.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            inside = node.level > 0 or (node.module or "").split(".")[0] == "flowsteer"
            found += [
                f"{path.name}: {alias.name} from {node.module}"
                for alias in node.names
                if inside and alias.name.startswith("_")
            ]
    assert found == []


def test_no_module_imports_inside_a_function():
    # an import deferred into a function hides the module's dependencies and import cost
    package = Path(flowsteer.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(found) == []
