import ast
import os
import subprocess
import sys
from pathlib import Path

import rprime


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from rprime import *", namespace)  # AttributeError on a stale name
    assert [name for name in rprime.__all__ if name not in namespace] == []
    assert len(set(rprime.__all__)) == len(rprime.__all__)


def _package_imports(module):
    # the relative imports of rprime/<module>.py, and any absolute one of rprime
    source = Path(rprime.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    relative, absolute = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(a.name for a in node.names)
    return relative | {name for name in absolute if name.split(".")[0] == "rprime"}


def test_characters_imports_no_package_module_but_errors():
    # fields and analytic import characters, never the other way round
    assert _package_imports("characters") <= {"errors"}


def test_forms_imports_no_package_module_but_errors():
    # fields imports forms, never the other way round
    assert _package_imports("forms") <= {"errors"}


def test_importing_the_package_leaves_hashlib_out():
    # hashlib maps OpenSSL, about 3.5 MB of RSS once numpy is loaded; only
    # the table cache's fingerprint needs it, and imports it when called
    src = str(Path(rprime.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = "import sys, rprime, rprime.cli; print(sorted(m for m in sys.modules if 'hashlib' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    assert proc.stdout == "[]\n"
