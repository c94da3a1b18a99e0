"""Every function in CI's ``mypy --strict`` scope is fully annotated.

``mypy --strict`` rejects a def that leaves any parameter or its return
unannotated.  mypy is a lint-job tool, not a test dependency, so this
test applies that one rule with :mod:`ast` over the same paths, and an
unannotated def fails here as well as in CI.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The paths CI's "Mypy --strict" step checks.
MYPY_SCOPE = (
    "src/repro/analyze",
    "src/repro/core",
    "src/repro/store.py",
    "src/repro/cdg/cycles.py",
    "tools",
)


def scope_files() -> list[Path]:
    files: list[Path] = []
    for entry in MYPY_SCOPE:
        path = ROOT / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def unannotated(source: str) -> list[str]:
    """``name:line`` of each def missing a parameter or return annotation."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        bare = [a.arg for a in params if a.annotation is None and a.arg not in ("self", "cls")]
        if bare or node.returns is None:
            missing.append(f"{node.name}:{node.lineno}")
    return missing


def test_unannotated_finds_incomplete_defs():
    source = (
        "def ok(self, a: int, *b: str, c: int = 1, **d: object) -> None: ...\n"
        "def no_return(a: int): ...\n"
        "def bare_param(a) -> int: ...\n"
        "def bare_star(*a) -> int: ...\n"
        "class C:\n"
        "    def m(self, predicate) -> bool: ...\n"
    )
    assert unannotated(source) == ["no_return:2", "bare_param:3", "bare_star:4", "m:6"]


def test_mypy_scope_is_fully_annotated():
    files = scope_files()
    # Every scope entry resolves to code (a mistyped path would pass vacuously).
    for entry in MYPY_SCOPE:
        assert any(f == ROOT / entry or ROOT / entry in f.parents for f in files), entry
    assert len(files) > 30
    missing = {
        str(path.relative_to(ROOT)): found
        for path in files
        if (found := unannotated(path.read_text()))
    }
    assert missing == {}
