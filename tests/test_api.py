import ast
import importlib
from pathlib import Path

import lenumbers

# the README's Library section, and the types its functions take and return
DOCUMENTED = {
    "generic_le",
    "lambda_numbers",
    "milnor",
    "parse",
    "Frame",
    "LeRecord",
    "Polynomial",
}


def test_public_names_are_the_documented_ones():
    assert set(lenumbers.__all__) == DOCUMENTED
    namespace = {}
    exec("from lenumbers import *", namespace)
    assert DOCUMENTED <= set(namespace)


def test_checkers_are_reached_through_their_module():
    checks = importlib.import_module("lenumbers.checks")
    assert lenumbers.checks is checks
    assert callable(checks.check_funbound)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    # __init__.py imports to re-export
    unused = {}
    for path in sorted(Path(lenumbers.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text()))
            if names:
                unused[path.name] = names
    assert unused == {}
