"""Every file, test and name the documentation cites exists.

Scans the documents that describe the current tree (``DOCS`` at the
repository root, and ``docs/*.md``) and the CI workflow, which cannot run
here, for three kinds of citation and resolves each one:

* ``<file>.py::<name>[::<name>]`` — the file must exist, relative to the
  repository root or to ``src/repro``, and define that class/function
  chain at module level (checked on the file's AST);
* ``<top-level dir>/<path>`` — the file or directory must exist.  The
  source tree counts from ``src/repro``, so prose such as ``src/dst``
  (source/destination) is not read as a path;
* a backticked dotted name ``repro.<module>[.<attr>...]`` — it must
  resolve by import and ``getattr`` (importing the package, nothing
  more).  The ``## Deprecations`` section of ``docs/API.md`` lists what
  is gone, so its names are exempt.

The first two are checked without importing anything.

The change log names files as they were when each entry was written, and
the paper and related-work notes quote other code bases, so neither is
scanned.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".github/workflows/ci.yml")
TOP_DIRS = ("src/repro", "tests", "tools", "benchmarks", "docs", "examples", "perfbench")

NODE_ID = re.compile(r"(?<![\w/.*-])([\w./-]+\.py)::(\w+(?:::\w+)*)")
REPO_PATH = re.compile(r"(?<![\w/.*<-])((?:%s)/[\w./*<>{}-]*[\w*<>{}-])" % "|".join(TOP_DIRS))
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")
#: The one section whose names are cited as removed.
EXEMPT_SECTION = ("docs/API.md", "## Deprecations")


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


def _resolves(name: str) -> bool:
    """``name`` is a module, or an attribute chain reached from one."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[: i + 1]))
        except ModuleNotFoundError:
            return False
    return True


def _without_exempt_section(doc: str, text: str) -> str:
    name, heading = EXEMPT_SECTION
    if doc != name or heading not in text:
        return text
    head, _, rest = text.partition(heading)
    _, sep, tail = rest.partition("\n## ")
    return head + sep + tail


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
    for match in DOTTED_NAME.finditer(text):
        if not _resolves(match.group(1)):
            broken.append(match.group(1))
    return broken


def test_every_doc_citation_resolves():
    broken = [
        f"{doc.relative_to(ROOT).as_posix()}: {cited}"
        for doc in _documents()
        for cited in _broken_citations(
            _without_exempt_section(doc.relative_to(ROOT).as_posix(), doc.read_text())
        )
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
        " `repro.sim.metrics` `repro.sweep(...).results` `repro.sim.runner.run_point`"
        " `repro.obs.REGISTRY` `repro.fuzz.run_instantiations` `repro.core.adaptiveness`"
    )
    assert _broken_citations(text) == [
        "tests/test_doc_citations.py::test_checker",
        "test_doc_citations.py::test_checker_flags_missing_files_and_tests",
        "benchmarks/bench_table1.py",
        "tests/fuzz/corpora",
        "repro.obs.REGISTRY",
        "repro.fuzz.run_instantiations",
        "repro.core.adaptiveness",
    ]


def test_only_the_deprecations_section_is_exempt():
    text = (
        "## Observability\n`repro.obs.REGISTRY`\n"
        "## Deprecations\n- `repro.fuzz.run_instantiations`\n"
        "## Full symbol index\n`repro.sim.sweep_rates`\n"
    )
    kept = _without_exempt_section("docs/API.md", text)
    assert _broken_citations(kept) == ["repro.obs.REGISTRY", "repro.sim.sweep_rates"]
    assert _without_exempt_section("README.md", text) == text
