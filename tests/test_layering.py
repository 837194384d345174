"""Import layering: lower packages never import the layers above."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER = ("_util", "graph", "generators", "algorithms", "engine")
UPPER = ("repro.experiments", "repro.cli")
#: The upward edges that remain, kept exact so a new one is a decision.
ALLOWED = {("behavior/run.py", "repro.experiments.config"),
           ("behavior/run.py", "repro.experiments.graph_cache"),
           ("obs/stats.py", "repro.experiments.reporting"),
           ("obs/stats.py", "repro.experiments.corpus")}


def _imports(*packages):
    """``(file, imported repro module)`` for every import statement."""
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    assert node.level == 0, f"relative import in {path}"
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                yield from ((path.relative_to(SRC).as_posix(), name)
                            for name in names if name.startswith("repro"))


def test_lower_layers_do_not_import_upward():
    assert [e for e in _imports(*LOWER) if e[1].startswith(UPPER)] == []


def test_util_imports_only_util():
    assert [e for e in _imports("_util")
            if not e[1].startswith("repro._util")] == []


def test_upward_allow_list_is_exact():
    assert {e for e in _imports("behavior", "obs")
            if e[1].startswith(UPPER)} == ALLOWED
