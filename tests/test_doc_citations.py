"""Every file and test the documentation cites exists.

Scans the documents that describe the current tree (``DOCS`` at the
repository root, and ``docs/*.md``) and the CI workflow, which cannot run
here, for two kinds of citation and resolves each one without running
anything:

* ``<file>.py::<name>[::<name>]`` — the file must exist, relative to the
  repository root or to ``src/repro``, and define that class/function
  chain at module level (checked on the file's AST);
* ``<top-level dir>/<path>`` — the file or directory must exist.  The
  source tree counts from ``src/repro``, so prose such as ``src/dst``
  (source/destination) is not read as a path.

The change log names files as they were when each entry was written, and
the paper and related-work notes quote other code bases, so neither is
scanned.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".github/workflows/ci.yml")
TOP_DIRS = ("src/repro", "tests", "tools", "benchmarks", "docs", "examples", "perfbench")

NODE_ID = re.compile(r"(?<![\w/.*-])([\w./-]+\.py)::(\w+(?:::\w+)*)")
REPO_PATH = re.compile(r"(?<![\w/.*<-])((?:%s)/[\w./*<>{}-]*[\w*<>{}-])" % "|".join(TOP_DIRS))


def _documents():
    return [ROOT / name for name in DOCS] + sorted((ROOT / "docs").glob("*.md"))


def _defines(path: Path, chain: list) -> bool:
    body = ast.parse(path.read_text(), str(path)).body
    for name in chain:
        found = [
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def _broken_citations(text: str) -> list:
    broken = []
    for match in NODE_ID.finditer(text):
        file, chain = match.group(1), match.group(2).split("::")
        path = next(
            (base / file for base in (ROOT, ROOT / "src" / "repro") if (base / file).is_file()),
            None,
        )
        if path is None or not _defines(path, chain):
            broken.append(match.group(0))
    for match in REPO_PATH.finditer(text):
        cited = match.group(1)
        if any(c in cited for c in "*<>{}"):  # a pattern, not a path
            continue
        if not (ROOT / cited).exists():
            broken.append(cited)
    return broken


def test_every_doc_citation_resolves():
    broken = [
        f"{doc.relative_to(ROOT).as_posix()}: {cited}"
        for doc in _documents()
        for cited in _broken_citations(doc.read_text())
    ]
    assert broken == [], f"{len(broken)} citation(s) do not resolve:\n" + "\n".join(broken)


def test_checker_flags_missing_files_and_tests():
    text = (
        "`tests/test_doc_citations.py::test_checker`"
        " `test_doc_citations.py::test_checker_flags_missing_files_and_tests`"
        " `benchmarks/bench_table1.py`"
        " `tests/test_doc_citations.py::test_checker_flags_missing_files_and_tests`"
        " `core/theorems.py::uturn_allowed` `tools/ci_*_check.py`"
        " --replay tests/fuzz/corpus --replay tests/fuzz/corpora."
        " src/dst pairs, src/dst/length/age"
    )
    assert _broken_citations(text) == [
        "tests/test_doc_citations.py::test_checker",
        "test_doc_citations.py::test_checker_flags_missing_files_and_tests",
        "benchmarks/bench_table1.py",
        "tests/fuzz/corpora",
    ]
