import ast
import re
from pathlib import Path

import flowsteer
from flowsteer.config import SCHEMA, SECTIONS


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


def test_every_config_error_names_a_schema_key():
    # a typo in a key path ships an error that points at no real key
    keys = {f"{section}.{key}" for section, key, *_ in SCHEMA}
    package = Path(flowsteer.__file__).parent
    checked, found = 0, []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            callee = getattr(node, "func", None)
            if getattr(callee, "id", getattr(callee, "attr", None)) != "ConfigError" or not node.args:
                continue
            first, where = node.args[0], f"{path.name}:{node.lineno}"
            if isinstance(first, ast.Constant) and re.fullmatch(r"\w+\.\w+", str(first.value)):
                checked += 1
                if first.value not in keys:
                    found.append(f"{where}: {first.value}")
            elif isinstance(first, ast.JoinedStr) and isinstance(first.values[0], ast.Constant):
                checked += 1
                prefix = first.values[0].value
                if "." not in prefix or prefix.partition(".")[0] not in SECTIONS:
                    found.append(f"{where}: {prefix}...")
    assert checked and found == []


def test_each_section_class_raises_only_its_own_keys(section_raises):
    # a bound checked in another section's class, or under a computed key, has no
    # single owner that a reader or the range-check tests can find
    stray = [
        f"{kind.__name__}: {key}"
        for section, (kind, keys) in section_raises.items()
        for key in keys
        if key is None or key.partition(".")[0] != section
    ]
    assert all(keys for _, keys in section_raises.values()) and stray == []


def test_no_key_is_range_checked_by_two_classes():
    # a second class checking a section's key in its __post_init__ is a second
    # bound that can drift from the section's own
    package = Path(flowsteer.__file__).parent
    owners = {}
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if getattr(method, "name", None) != "__post_init__":
                    continue
                for node in ast.walk(method):
                    call = getattr(node, "exc", None)
                    if getattr(getattr(call, "func", None), "id", None) == "ConfigError":
                        key = ast.unparse(call.args[0])
                        owners.setdefault(key, set()).add(f"{path.name}:{cls.name}")
    assert len(owners) >= 20
    assert {key: names for key, names in owners.items() if len(names) > 1} == {}
