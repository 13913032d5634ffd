"""Every file the docs name exists.

Each backticked ``path/to/file.py|md|json|yml|toml`` in README.md,
EXPERIMENTS.md, DESIGN.md and ``docs/*.md`` must resolve against the
repo root, ``src/`` or ``src/repro/`` (the three spellings the docs
use).  No document is excepted: history that names deleted files
lives in ``CHANGES.md``, which is not checked.
"""

import re
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_DOCS = sorted(
    [_REPO / "README.md", _REPO / "EXPERIMENTS.md", _REPO / "DESIGN.md"]
    + list((_REPO / "docs").glob("*.md")))
_PATH = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.(?:py|md|json|yml|toml))`")
_ROOTS = (_REPO, _REPO / "src", _REPO / "src" / "repro")


@pytest.mark.parametrize("doc", _DOCS, ids=lambda path: path.name)
def test_every_backticked_path_resolves(doc):
    named = sorted(set(_PATH.findall(doc.read_text())))
    dangling = [path for path in named
                if not any((root / path).exists() for root in _ROOTS)]
    assert not dangling, f"{doc.name} names files that do not exist"
