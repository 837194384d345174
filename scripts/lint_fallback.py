#!/usr/bin/env python
"""The lint gate for images without ``ruff``: the three checks a
refactor most often trips, stdlib only.

- unused imports (pyflakes F401; ``__init__.py`` re-exports, the
  explicit ``import x as x`` re-export, names in ``__all__`` and
  ``# noqa`` lines are exempt),
- line length (pycodestyle E501; the limit is ``[tool.ruff]
  line-length`` in ``pyproject.toml``),
- trailing whitespace (W291 / W293).

Usage: ``python scripts/lint_fallback.py [paths...]`` (default: ``src
tests benchmarks examples scripts``, the trees ``scripts/check.sh`` hands to
``ruff check``). Exits 1 when anything is reported.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "scripts")


def line_length() -> int:
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    match = re.search(r"^line-length\s*=\s*(\d+)", text, re.MULTILINE)
    return int(match.group(1)) if match else 79


def unused_imports(tree: ast.Module) -> "list[tuple[int, str]]":
    """``(line, name)`` of every imported name the module never reads.
    A name counts as read if it appears as an identifier anywhere, is
    listed in ``__all__``, or occurs in a string annotation."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*" and alias.asname != alias.name:
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in words)


def check_file(path: Path, limit: int) -> "list[str]":
    text = path.read_text("utf-8")
    lines = text.splitlines()
    shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
    problems = []

    def report(lineno: int, code: str, message: str) -> None:
        if "# noqa" not in lines[lineno - 1]:
            problems.append(f"{shown}:{lineno}: {code} {message}")

    for lineno, line in enumerate(lines, 1):
        if len(line) > limit:
            report(lineno, "E501", f"line too long ({len(line)} > {limit})")
        if line != line.rstrip():
            report(lineno, "W291", "trailing whitespace")
    if path.name != "__init__.py":
        for lineno, name in unused_imports(ast.parse(text, str(path))):
            report(lineno, "F401", f"{name!r} imported but unused")
    return problems


def main(argv: "list[str]") -> int:
    limit = line_length()
    problems = []
    for root in argv or DEFAULT_PATHS:
        root = (ROOT / root) if not Path(root).is_absolute() else Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            problems.extend(check_file(path, limit))
    print("\n".join(problems) if problems else "lint fallback: clean")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
