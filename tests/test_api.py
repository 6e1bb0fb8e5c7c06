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


def test_cli_imports_only_public_names():
    # the command line is a client of the package, like any other caller
    tree = ast.parse((Path(lenumbers.__file__).parent / "cli.py").read_text())
    private = sorted(
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    )
    assert private == []


def test_unchecked_polynomials_are_built_only_by_poly_and_groebner():
    # poly._trusted skips Polynomial.__init__'s checks; only partial,
    # set_var_zero, unpickling and the Groebner kernel vouch for their terms
    users = set()
    for path in sorted(Path(lenumbers.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "_trusted" in names:
                users.add(path.name)
    assert users == {"poly.py", "groebner.py"}


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private names a module defines, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_referenced():
    # a helper that a deletion leaves without callers shows up here
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(lenumbers.__file__).parent.glob("*.py"))
    }
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {
        name: sorted(_private_definitions(tree) - referenced) for name, tree in trees.items()
    }
    assert {k: v for k, v in unreferenced.items() if v} == {}
