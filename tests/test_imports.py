import ast
import pathlib

import cancelkit


def _unused_imports(path):
    """Names a module imports and never references; an import line
    marked `# noqa` is an intended re-export."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*":
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    src = pathlib.Path(cancelkit.__file__).parent
    tests = pathlib.Path(__file__).parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    offenders = [o for p in paths for o in _unused_imports(p)]
    assert offenders == []
