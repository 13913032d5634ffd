"""Golden vectors: the real-bytes kernels may get faster, never different.

``golden_vectors.json`` holds sha256 digests of ``deflate`` (levels
1/6/9), ``aes128_ctr`` and the ``findall`` match list over the inputs
below.  They were captured from the per-byte implementations at commit
6fccd7d (the parent of the C-speed rewrite) with::

    PYTHONPATH=<checkout>/src python tests/algos/test_golden_vectors.py

which prints the JSON; re-capture only for a deliberate format change.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.algos import Pattern, aes128_ctr, deflate
from repro.workloads import TextCorpus

PAGE_BYTES = 64 * 1024
KEY = b"dpdpu-aes128-key"
NONCE = b"dpdpunce"
PATTERNS = [r"data[a-z]+", r"^[A-Z][a-z]*|[a-z]+\.$", r"(ab|a)*c?\d*"]
GOLDEN_PATH = Path(__file__).with_name("golden_vectors.json")


def _inputs():
    inputs = {
        # the hostbench recipe: generate() could come back a byte short
        f"corpus{seed}": TextCorpus(seed=seed).generate(
            PAGE_BYTES + 1)[:PAGE_BYTES]
        for seed in range(5)
    }
    inputs["zeros"] = bytes(PAGE_BYTES)
    inputs["random"] = random.Random(7).randbytes(20_000)
    for size in range(4):
        inputs[f"len{size}"] = b"abc"[:size]
    return inputs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(data: bytes) -> dict:
    row = {f"deflate{level}": _sha(deflate(data, level))
           for level in (1, 6, 9)}
    row["aes128_ctr"] = _sha(aes128_ctr(data, KEY, NONCE))
    for pattern in PATTERNS:
        matches = Pattern(pattern).findall(data)
        row[f"findall {pattern}"] = _sha(json.dumps(matches).encode())
    return row


INPUTS = _inputs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_outputs_match_parent_commit(golden, name):
    assert _digests(INPUTS[name]) == golden[name]


if __name__ == "__main__":
    print(json.dumps({name: _digests(data)
                      for name, data in INPUTS.items()},
                     indent=1, sort_keys=True))
