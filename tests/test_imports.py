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


def unreachable_definitions(package: Path) -> list[str]:
    """The top-level functions, classes and constants of the package that
    no chain of name references reaches from `cli.main` or from a module's
    top-level statements that define nothing.

    A name is read where an expression names it: bare, from the module that
    defines it or imports it with `from .module import name`, or as the
    attribute of a module imported with `from . import module`.  A reached
    class reaches everything its body names.
    """
    definitions = {}  # (module, name) -> defining statements
    starts = []  # (module, statement) read on import
    imports = {}  # module -> {local name: (module, name), or (module, None)}
    for path in sorted(package.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        local = imports[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    local[alias.asname or alias.name] = target
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            else:
                names = []
            for name in names:
                definitions.setdefault((module, name), []).append(node)
            if not names:
                starts.append((module, node))
    for local in imports.values():
        for name, (module, attr) in local.items():
            if attr is None and module not in imports:  # `from . import __version__`
                local[name] = ("__init__", module)

    def read(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if (module, sub.id) in definitions:
                    yield module, sub.id
                elif sub.id in imports[module] and imports[module][sub.id][1]:
                    yield imports[module][sub.id]
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                source, attr = imports[module].get(sub.value.id, (None, ""))
                if attr is None:
                    yield source, sub.attr

    reached = {("cli", "main")}
    todo = [("cli", "main")]
    for module, node in starts:
        todo.extend(read(module, node))
    while todo:
        key = todo.pop()
        reached.add(key)
        for node in definitions.get(key, []):
            todo.extend(ref for ref in read(key[0], node) if ref not in reached)
    return sorted(f"{m}.{name}" for m, name in definitions if (m, name) not in reached)


def test_reachability_scan_follows_imports_and_attributes(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import helpers\nfrom .core import run as go\n"
        "def main():\n    go()\n    helpers.TABLE\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    (tmp_path / "core.py").write_text(
        "def run():\n    return _step()\ndef _step():\n    pass\n"
        "def unused():\n    return run()\n"
    )
    (tmp_path / "helpers.py").write_text(
        "TABLE = {}\nSPARE = 1\nclass Orphan:\n    pass\nprint(SPARE)\n"
    )
    assert unreachable_definitions(tmp_path) == ["core.unused", "helpers.Orphan"]


def test_every_definition_is_reachable_from_the_cli():
    # Code that no command reaches is library surface nothing checks in
    # use: delete it, or move an oracle next to the tests that read it.
    assert unreachable_definitions(PACKAGE) == []


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
