"""Every file the docs name exists, and every claim count is the real one.

Each backticked ``path/to/file.py|md|json|yml|toml`` in README.md,
EXPERIMENTS.md, DESIGN.md and ``docs/*.md`` must resolve against the
repo root, ``src/`` or ``src/repro/`` (the three spellings the docs
use).  No document is excepted: history that names deleted files
lives in ``CHANGES.md``, which is not checked.

The documents that state how many claims the registry holds (README,
EXPERIMENTS, the observability, performance and robustness docs and
the build-and-verify notes) must state ``len(CLAIMS)``.
"""

import re
from pathlib import Path

import pytest

from repro.obs.claims import CLAIMS

_REPO = Path(__file__).resolve().parent.parent
_DOCS = sorted(
    [_REPO / "README.md", _REPO / "EXPERIMENTS.md", _REPO / "DESIGN.md"]
    + list((_REPO / "docs").glob("*.md")))
_PATH = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.(?:py|md|json|yml|toml))`")
_ROOTS = (_REPO, _REPO / "src", _REPO / "src" / "repro")

_COUNTING = sorted(
    [_REPO / "README.md", _REPO / "EXPERIMENTS.md"]
    + [_REPO / "docs" / f"{name}.md"
       for name in ("OBSERVABILITY", "PERFORMANCE", "ROBUSTNESS")]
    + list(_REPO.glob(".*/skills/*/SKILL.md")))
#: "N claims" (also "all N claims", across a line break), "N-claim",
#: "N rows —" and the --check summary "N passed, 0 failed"
_CLAIM_COUNT = re.compile(
    r"\b(\d+)(?:\s+claims\b|-claim\b|\s+rows\s+—|\s+passed,\s+\d+\s+failed)")


@pytest.mark.parametrize("doc", _DOCS, ids=lambda path: path.name)
def test_every_backticked_path_resolves(doc):
    named = sorted(set(_PATH.findall(doc.read_text())))
    dangling = [path for path in named
                if not any((root / path).exists() for root in _ROOTS)]
    assert not dangling, f"{doc.name} names files that do not exist"


def test_every_stated_claim_count_is_the_registry_size():
    stated = {doc.name: {int(count) for count
                         in _CLAIM_COUNT.findall(doc.read_text())}
              for doc in _COUNTING}
    assert any(stated.values()), "no document states a claim count"
    wrong = {name: sorted(counts) for name, counts in stated.items()
             if counts - {len(CLAIMS)}}
    assert not wrong, f"the registry holds {len(CLAIMS)} claims"
