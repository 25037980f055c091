"""Every name the package exports has a use besides its own definition and
its re-export: in the program, in a demo or in the acceptance tests.  A
name that only other tests reach is dead code with tests of its own."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _exported_names():
    tree = ast.parse((ROOT / "src" / "satiss" / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _used_names(path):
    """Names a module reads, as a name or an attribute; definitions and
    imports are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def test_every_export_has_a_use():
    paths = [p for p in sorted((ROOT / "src" / "satiss").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_used_names, paths))
    assert [name for name in _exported_names() if name not in used] == []
