"""Every name a package module imports is used in that module, and the
package's cold start loads no heavy standard-library machinery."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perfectcover

PACKAGE = Path(perfectcover.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by imports (other than from __future__) that no
    expression of the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport json\nprint(sep, json)\n"
    assert unused_imports(source) == ["path"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# Modules a CLI process must not load: `dataclasses` brings `inspect`,
# `ast`, `dis` and `tokenize`, and `fractions` brings `decimal`.
COLD_START_FORBIDDEN = ("dataclasses", "inspect", "fractions", "decimal")

_COLD_START_SCRIPT = """
import json, sys
before = set(sys.modules)
import perfectcover, perfectcover.cli, perfectcover.groupfile
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cold_start_loads_no_heavy_stdlib_modules():
    # Compared against the interpreter's own start-up set, so a .pth file
    # that preloads one of these modules cannot make the test fail.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "perfectcover.cli" in loaded
    assert [m for m in COLD_START_FORBIDDEN if m in loaded] == []
