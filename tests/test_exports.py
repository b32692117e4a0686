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


def test_every_private_top_level_name_is_used_elsewhere_in_the_package():
    # a module-level _name that no other statement of the package reads is dead code
    defined, used = {}, set()
    for path in sorted(Path(nwlearn.__file__).parent.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            where = (path.name, i)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                names = [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined.update((name, where) for name in names if name.startswith("_") and not name.startswith("__"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add((node.id, where))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, where))
                elif isinstance(node, ast.alias):
                    used.add((node.name, where))
    unused = [f"{where[0]} {name}" for name, where in defined.items()
              if not any(n == name and w != where for n, w in used)]
    assert unused == []


def test_every_dataclass_field_is_read_somewhere():
    # a field that no code reads as an attribute is an option nothing honours;
    # EpochStats is exempt, dataclasses.asdict writes it whole to curves.jsonl
    package = Path(nwlearn.__file__).parent
    root = package.parents[1]
    fields = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", ())]
            if isinstance(node, ast.ClassDef) and node.name != "EpochStats" and any(
                    isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = set()
    for path in sorted(package.glob("*.py")) + sorted((root / "tests").glob("*.py")) + sorted(
            (root / "perfbench").glob("*.py")):
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert fields and [f"{cls}.{name}" for cls, name in fields if name not in read] == []


def test_every_public_method_and_property_of_a_package_class_is_read_outside_the_tests():
    # a method that only tests call is API that nothing needs; Dataset.examples,
    # the row view of the columns, is kept as public API on purpose (ROADMAP)
    package = Path(nwlearn.__file__).parent
    sources = sorted(package.glob("*.py")) + sorted((package.parents[1] / "perfbench").glob("*.py"))
    methods, read = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        if path.parent == package:
            methods += [(cls.name, stmt.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                        for stmt in cls.body if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
    unread = [f"{cls}.{name}" for cls, name in methods if name not in read]
    assert methods and unread == ["Dataset.examples"]
