"""The documents point at code that exists.

Every ``src/``, ``tests/``, ``benchmarks/``, ``scripts/`` or
``examples/`` path a current document names must exist, and every
pytest-style id ``file.py::Name[::name]`` must name a definition in
that file. ``<placeholder>`` segments and ``*`` are globs that must
match something. CHANGES.md is history, and names what it removed, so
it is not checked.
"""

from __future__ import annotations

import ast
import re

import pytest

from tests.conftest import REPO_ROOT

DOCS = sorted(["DESIGN.md", "README.md", "EXPERIMENTS.md",
               *(p.relative_to(REPO_ROOT).as_posix()
                 for p in (REPO_ROOT / "docs").glob("*.md"))])

#: A path under one of the five code roots, not itself the tail of a
#: longer path (``<checkout>/src`` names no file here).
PATH = re.compile(
    r"(?<![\w/.<>$-])((?:src|tests|benchmarks|scripts|examples)/[\w./*<>-]*)")
#: ``file.py::Name`` with an optional ``::name`` inside it.
NODE_ID = re.compile(r"([\w./-]+\.py)::(\w+)(?:::(\w+))?")


def _text(doc: str) -> str:
    return (REPO_ROOT / doc).read_text("utf-8")


def _exists(path: str) -> bool:
    pattern = re.sub(r"<[^>/]*>", "*", path.rstrip(".,;:)"))
    if "*" in pattern:
        return any(REPO_ROOT.glob(pattern.rstrip("/")))
    return (REPO_ROOT / pattern).exists()


def _defined(body: "list[ast.stmt]") -> "dict[str, ast.stmt]":
    """Names bound by the definitions and assignments of a body."""
    names: dict[str, ast.stmt] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update((t.id, node) for t in targets
                         if isinstance(t, ast.Name))
    return names


def _resolves(file: str, name: str, member: str) -> bool:
    # an id names its file from the repo root, or from the package
    # root as the layer docs do (``engine/kernels.py::Kernels``)
    path = next((p for p in (REPO_ROOT / file,
                             REPO_ROOT / "src" / "repro" / file)
                 if p.is_file()), None)
    if path is None:
        return False
    found = _defined(ast.parse(path.read_text("utf-8")).body).get(name)
    if found is None or not member:
        return found is not None
    return (isinstance(found, ast.ClassDef)
            and member in _defined(found.body))


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_exist(doc):
    missing = sorted({m for m in PATH.findall(_text(doc))
                      if not _exists(m)})
    assert not missing, f"{doc} names missing paths: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_named_ids_resolve(doc):
    broken = sorted({"::".join(filter(None, m))
                     for m in NODE_ID.findall(_text(doc))
                     if not _resolves(*m)})
    assert not broken, f"{doc} names unresolved ids: {broken}"


def test_the_checks_catch_a_stale_name():
    assert not _exists("benchmarks/test_fig14_spread_single_alg.py")
    assert _exists("benchmarks/artifacts/<profile>/")
    assert not _exists("benchmarks/artifacts/*.md")
    assert _resolves("tests/test_doc_links.py", "NODE_ID", "")
    assert not _resolves("tests/test_ensemble_fast.py",
                         "TestBlockedKernels", "test_gone")
    assert not _resolves("tests/test_ensemble_fast.py", "PairwiseBlocks",
                         "")
    assert NODE_ID.findall("`_util/segments.py::first_occurrences(x)`") \
        == [("_util/segments.py", "first_occurrences", "")]
    assert PATH.findall("PYTHONPATH=<checkout>/src python") == []
