import ast
from pathlib import Path

import rprime


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from rprime import *", namespace)  # AttributeError on a stale name
    assert [name for name in rprime.__all__ if name not in namespace] == []
    assert len(set(rprime.__all__)) == len(rprime.__all__)


def test_characters_imports_no_package_module_but_errors():
    # fields and analytic import characters, never the other way round
    source = Path(rprime.__file__).with_name("characters.py").read_text(encoding="utf-8")
    relative, absolute = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(a.name for a in node.names)
    assert relative <= {"errors"}
    assert not any(name.split(".")[0] == "rprime" for name in absolute)
