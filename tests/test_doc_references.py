"""Every Markdown file the code cites must exist in the repository.

A docstring that says "see DESIGN.md" while no such file exists sends
the reader nowhere, and lets the rationale it promises go missing
unnoticed.  This scans ``src/`` and ``benchmarks/`` for ``*.md`` names
and resolves each against the repository: a name with a directory part
must exist at that path from the root, a bare name anywhere in the tree.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: A cited Markdown file name, with an optional relative directory part.
_MD_NAME = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*[\w.-]+\.md)\b")

_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".perfbench"}


def _cited_names() -> dict[str, list[str]]:
    cited: dict[str, list[str]] = {}
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or _SKIP_DIRS & set(path.parts):
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for number, line in enumerate(text.splitlines(), 1):
                for name in _MD_NAME.findall(line):
                    where = f"{path.relative_to(ROOT)}:{number}"
                    cited.setdefault(name, []).append(where)
    return cited


def _markdown_in_repo() -> set[str]:
    return {
        path.relative_to(ROOT).as_posix()
        for path in ROOT.rglob("*.md")
        if not _SKIP_DIRS & set(path.parts)
    }


def _exists(name: str, present: set[str]) -> bool:
    if "/" in name:
        return name.lstrip("./") in present
    return any(path.rsplit("/", 1)[-1] == name for path in present)


def test_cited_markdown_files_exist():
    present = _markdown_in_repo()
    missing = {
        name: where
        for name, where in _cited_names().items()
        if not _exists(name, present)
    }
    assert not missing, f"cited Markdown files that do not exist: {missing}"


def test_reference_scan_sees_a_citation():
    """The scanner itself works: a known-good citation is found."""
    assert _MD_NAME.findall("see perfbench/README.md and DESIGN.md.") == [
        "perfbench/README.md", "DESIGN.md",
    ]
    assert _exists("README.md", _markdown_in_repo())
    assert not _exists("DESIGN.md", _markdown_in_repo())
