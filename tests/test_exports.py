import ast
from pathlib import Path

import nwlearn


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in nwlearn.__all__ if not hasattr(nwlearn, name)]
    assert missing == []
    assert len(set(nwlearn.__all__)) == len(nwlearn.__all__)


def test_every_import_in_the_package_is_used():
    unused = []
    package = sorted(p for p in Path(nwlearn.__file__).parent.glob("*.py") if p.name != "__init__.py")
    for path in package + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
