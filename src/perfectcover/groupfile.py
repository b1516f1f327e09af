"""Text file formats: single groups and construction families.

Group file: first contentful line `degree N`, then one permutation per
line in 1-based cycle notation; `#` starts a comment.  Family file: lines
`group <name> <path>` plus one `params d=<d> k=<k>` line; a path of the
form `catalog:<NAME>` pulls a built-in group instead of reading a file.
"""

from __future__ import annotations

import os

from . import catalog
from .errors import InputError
from .groups import PermGroup
from .perms import parse_cycles


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_group_text(text: str, source: str = "<group>") -> PermGroup:
    lines = list(_content_lines(text))
    if not lines:
        raise InputError(f"{source}: empty group file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "degree":
        raise InputError(f"{source}:{lineno}: expected 'degree N', got {header!r}")
    try:
        degree = int(parts[1])
    except ValueError:
        raise InputError(f"{source}:{lineno}: bad degree {parts[1]!r}") from None
    if degree < 1:
        raise InputError(f"{source}:{lineno}: degree must be positive")
    gens = []
    for lineno, line in lines[1:]:
        try:
            gens.append(parse_cycles(line, degree))
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from None
    return PermGroup(degree, gens)


def parse_group_file(path: str) -> PermGroup:
    with open(path) as fh:
        return parse_group_text(fh.read(), source=path)


def resolve_group(spec: str, base_dir: str = ".") -> PermGroup:
    """A group from `catalog:<NAME>` or from a group file path."""
    if spec.startswith("catalog:"):
        return catalog.get(spec[len("catalog:"):])
    path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
    return parse_group_file(path)


def parse_family_file(path: str):
    """Returns (names, groups, d, k) from a family file."""
    with open(path) as fh:
        text = fh.read()
    base_dir = os.path.dirname(os.path.abspath(path))
    names: list[str] = []
    groups: list[PermGroup] = []
    d = k = None
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "group":
            if len(parts) != 3:
                raise InputError(
                    f"{path}:{lineno}: expected 'group <name> <path>'"
                )
            names.append(parts[1])
            groups.append(resolve_group(parts[2], base_dir))
        elif parts[0] == "params":
            for token in parts[1:]:
                if "=" not in token:
                    raise InputError(f"{path}:{lineno}: bad parameter {token!r}")
                key, value = token.split("=", 1)
                try:
                    value = int(value)
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: parameter {key} must be an integer"
                    ) from None
                if key == "d":
                    d = value
                elif key == "k":
                    k = value
                else:
                    raise InputError(f"{path}:{lineno}: unknown parameter {key!r}")
        else:
            raise InputError(f"{path}:{lineno}: unknown directive {parts[0]!r}")
    if d is None or k is None:
        raise InputError(f"{path}: missing 'params d=<d> k=<k>' line")
    return names, groups, d, k
