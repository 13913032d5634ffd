"""Synthetic natural-language corpus generation (for Figure 1).

The paper compresses "natural language datasets of various sizes".
This generator produces deterministic pseudo-English: a Zipf-
distributed vocabulary of word shapes with punctuation and sentence
structure, which DEFLATE compresses at roughly the 2.5–3.5x ratios
typical of real text — so the real-bytes compression path behaves
realistically without shipping a dataset.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List

from ..sim.stats import fold_sum

__all__ = ["TextCorpus", "make_text"]

_SYLLABLES = (
    "ta re mi no ka so da li ver en tion al ing er st on an th "
    "data base sys tem query page disk net work cloud proc"
).split()

_VOCABULARY_SIZE = 4096
_ZIPF_S = 1.2       # word frequency ~ rank^-s


class TextCorpus:
    """A deterministic pseudo-natural-language generator."""

    def __init__(self, seed: int = 1234):
        rng = random.Random(seed)
        self._words = self._build_vocabulary(rng, _VOCABULARY_SIZE)
        # Zipf weights: rank^-s.
        weights = [1.0 / ((rank + 1) ** _ZIPF_S)
                   for rank in range(_VOCABULARY_SIZE)]
        total = fold_sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)
        self._seed = seed

    @staticmethod
    def _build_vocabulary(rng: random.Random, size: int) -> List[str]:
        words = set()
        while len(words) < size:
            n_syllables = rng.randint(1, 4)
            words.add("".join(rng.choice(_SYLLABLES)
                              for _ in range(n_syllables)))
        return sorted(words)

    def _pick_word(self, rng: random.Random) -> str:
        # the last word also takes a target past a rounded-down total
        return self._words[bisect_left(self._cumulative, rng.random(), 0,
                                       len(self._cumulative) - 1)]

    def generate(self, nbytes: int, stream_seed: int = 0) -> bytes:
        """Generate exactly ``nbytes`` of text, cut mid-word if need be."""
        if nbytes < 0:
            raise ValueError("negative size")
        if not nbytes:
            return b""
        rng = random.Random(self._seed * 1_000_003 + stream_seed)
        out: List[str] = []
        joined = -1      # len(" ".join(out)): separators *between* words
        sentence_len = 0
        while joined < nbytes:
            word = self._pick_word(rng)
            sentence_len += 1
            if sentence_len == 1:
                word = word.capitalize()
            if sentence_len >= rng.randint(6, 14):
                word += "."
                sentence_len = 0
            out.append(word)
            joined += len(word) + 1
        return " ".join(out).encode()[:nbytes]


def make_text(nbytes: int) -> bytes:
    """One-shot corpus generation (always the same text for a size)."""
    return TextCorpus().generate(nbytes)
