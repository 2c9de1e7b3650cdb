"""Source hygiene: no module-level import in the package or the tests goes
unused, no module-level private name of the package outlives its last use,
and the inversion catalog names each identity in one place only."""

import ast
import pathlib

import pytest

from opinv.inversion import ALL_IDENTITIES

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "opinv").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _private_definitions(tree: ast.Module):
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stores = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for s in stores for t in ast.walk(s) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _read_names(tree: ast.Module):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_private_module_name_is_used_in_the_package(path):
    used = set().union(*(_read_names(ast.parse(p.read_text(), str(p))) for p in PACKAGE))
    defined = _private_definitions(ast.parse(path.read_text(), str(path)))
    assert sorted((line, name) for name, line in defined.items() if name not in used) == []


def test_each_identity_is_named_once_in_inversion_as_its_table_key():
    # the catalog table is the one place that names an identity, so no
    # dispatch on an identity's name can come back
    path = ROOT / "src" / "opinv" / "inversion.py"
    tree = ast.parse(path.read_text(), str(path))
    tables = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["_CATALOG"]]
    assert len(tables) == 1 and isinstance(tables[0], ast.Dict)
    assert [key.value for key in tables[0].keys] == list(ALL_IDENTITIES)
    strings = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert {name: strings.count(name) for name in ALL_IDENTITIES} == dict.fromkeys(ALL_IDENTITIES, 1)
