"""Every name a package module imports is used in that module, the
package's cold start loads no heavy standard-library machinery, and each
command loads only the layers it calls."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import perfectcover
from perfectcover.cli import main

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

ROOT = Path(__file__).resolve().parents[1]


def fresh_imports(code: str) -> list[str]:
    """Modules a fresh interpreter loads while running `code`.

    Compared against the interpreter's own start-up set, so a .pth file
    that preloads a module cannot make a test fail."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def package_modules(loaded: list[str]) -> set[str]:
    return {name for name in loaded if name.split(".")[0] == "perfectcover"}


def test_cold_start_loads_no_heavy_stdlib_modules():
    # Every module, not one command's path: a heavy import anywhere in the
    # package would reach some command.
    names = ", ".join(f"perfectcover.{p.stem}" for p in MODULES)
    loaded = fresh_imports(f"import perfectcover, {names}")
    assert package_modules(loaded) == {"perfectcover"} | {
        f"perfectcover.{p.stem}" for p in MODULES
    }
    assert [m for m in COLD_START_FORBIDDEN if m in loaded] == []


def test_family_file_parse_loads_only_the_group_kernel():
    family = ROOT / "bench" / "families" / "k1-cover.txt"
    loaded = fresh_imports(
        "import perfectcover.groupfile\n"
        f"perfectcover.groupfile.parse_family_file({str(family)!r})"
    )
    assert package_modules(loaded) == {
        "perfectcover",
        "perfectcover.errors",
        "perfectcover.perms",
        "perfectcover.groups",
        "perfectcover.catalog",
        "perfectcover.groupfile",
    }


def test_cli_verify_loads_no_builder(tmp_path):
    family = tmp_path / "family.txt"
    family.write_text("group A5 catalog:A5\nparams d=2 k=1\n")
    cert = tmp_path / "cert.json"
    args = ["construct", str(family), "--seed", "7", "--budget", "2", "-o", str(cert)]
    assert main(args) == 0
    loaded = package_modules(
        fresh_imports(
            "from perfectcover import cli\n"
            f"assert cli.main(['verify', {str(cert)!r}]) == 0"
        )
    )
    assert "perfectcover.certificates" in loaded
    assert "perfectcover.construction" not in loaded
    assert "perfectcover.covering" not in loaded


def test_cli_catalog_loads_neither_verifier_nor_builder():
    loaded = package_modules(
        fresh_imports(
            "from perfectcover import cli\n"
            "assert cli.main(['catalog']) == 0"
        )
    )
    assert "perfectcover.catalog" in loaded
    assert "perfectcover.certificates" not in loaded
    assert "perfectcover.construction" not in loaded


def test_version_matches_pyproject():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert perfectcover.__version__ == match.group(1)
