"""Regenerate docs/API_INDEX.md: one line per public symbol, from docstrings.

(The hand-written API guide lives in docs/API.md; this index complements it.)
Run from the repository root:  PYTHONPATH=src python tools/gen_api_index.py
(no arguments); tests/test_api_index.py checks the committed file is current.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "docs" / "API_INDEX.md"

#: Words whose period does not end a sentence.
ABBREVIATIONS = ("e.g.", "i.e.", "etc.", "vs.", "cf.", "et al.", "Fig.", "Eq.", "Sec.")


def first_sentence(doc: str) -> str:
    """The first sentence of a docstring's first paragraph, on one line.

    A sentence ends at ``.``, ``!`` or ``?`` followed by whitespace (or at
    the paragraph's end), unless the period closes an abbreviation.
    """
    paragraph = " ".join(doc.strip().split("\n\n")[0].split())
    for match in re.finditer(r"[.!?](?=\s|$)", paragraph):
        if not paragraph[: match.end()].endswith(ABBREVIATIONS):
            return paragraph[: match.end()]
    return paragraph


def render() -> str:
    """The index text, one line per public symbol of every repro module."""
    import repro

    lines = [
        "# API index",
        "",
        "Auto-generated from docstrings (`python tools/gen_api_index.py`).",
        "One line per public symbol: the first sentence of its docstring.",
        "The curated guide to the everyday surface is [API.md](API.md);",
        "the differential fuzzing harness is documented in"
        " [FUZZING.md](FUZZING.md).",
        "",
    ]
    for modinfo in sorted(
        pkgutil.walk_packages(repro.__path__, "repro."), key=lambda m: m.name
    ):
        if modinfo.name.endswith("__main__"):
            continue
        mod = importlib.import_module(modinfo.name)
        public: list[tuple[str, str, str]] = []
        for name in sorted(getattr(mod, "__all__", []) or vars(mod)):
            if name.startswith("_"):
                continue
            obj = vars(mod).get(name)
            if obj is None or inspect.ismodule(obj):
                continue
            if getattr(obj, "__module__", None) != modinfo.name:
                continue
            doc = first_sentence(inspect.getdoc(obj) or "").rstrip(".")
            kind = "class" if inspect.isclass(obj) else (
                "func" if callable(obj) else "const"
            )
            public.append((name, kind, doc))
        if not public:
            continue
        mdoc = first_sentence(inspect.getdoc(mod) or "")
        lines.append(f"## `{modinfo.name}`")
        lines.append("")
        if mdoc:
            lines.append(mdoc)
            lines.append("")
        for name, kind, doc in public:
            entry = f"- **`{name}`** ({kind})"
            if doc:
                entry += f" — {doc}"
            lines.append(entry)
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str]) -> None:
    if argv:
        sys.exit("usage: python tools/gen_api_index.py (takes no arguments)")
    OUT.write_text(render())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main(sys.argv[1:])
