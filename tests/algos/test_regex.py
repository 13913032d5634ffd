"""Regex engine correctness, cross-checked against Python's re."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import Pattern, compile_pattern, findall, regex, search
from repro.algos.regex import RegexSyntaxError
from repro.workloads import TextCorpus


class TestBasics:
    def test_literal_match(self):
        assert search("abc", "xxabcxx") == (2, 5)

    def test_no_match_returns_none(self):
        assert search("abc", "xyz") is None

    def test_dot_matches_any_but_newline(self):
        assert search("a.c", "abc") == (0, 3)
        assert search("a.c", "a\nc") is None

    def test_star_is_greedy(self):
        assert search("ab*", "abbbb") == (0, 5)

    def test_plus_requires_one(self):
        assert search("ab+", "a") is None
        assert search("ab+", "abb") == (0, 3)

    def test_optional(self):
        assert search("colou?r", "color") == (0, 5)
        assert search("colou?r", "colour") == (0, 6)

    def test_alternation(self):
        assert search("cat|dog", "hotdog") == (3, 6)

    def test_grouping_with_repeat(self):
        assert search("(ab)+", "ababab") == (0, 6)

    def test_empty_pattern_matches_empty(self):
        assert search("", "anything") == (0, 0)


class TestClassesAndEscapes:
    def test_char_class_range(self):
        assert search("[a-c]+", "zzabcz") == (2, 5)

    def test_negated_class(self):
        assert search("[^0-9]+", "123abc456") == (3, 6)

    def test_digit_shorthand(self):
        assert search(r"\d+", "order 9432 shipped") == (6, 10)

    def test_word_shorthand(self):
        assert search(r"\w+", "  hello  ") == (2, 7)

    def test_whitespace_shorthand(self):
        assert search(r"\s+", "ab  cd") == (2, 4)

    def test_negated_shorthand(self):
        assert search(r"\D+", "12ab34") == (2, 4)

    def test_escaped_metachar(self):
        assert search(r"a\.b", "a.b") == (0, 3)
        assert search(r"a\.b", "axb") is None

    def test_class_with_escape(self):
        assert search(r"[\d,]+", "1,234 units") == (0, 5)

    def test_literal_dash_at_end_of_class(self):
        assert search(r"[a-]+", "-a-") == (0, 3)


class TestAnchors:
    def test_start_anchor(self):
        assert search("^abc", "abcdef") == (0, 3)
        assert search("^abc", "xabc") is None

    def test_end_anchor(self):
        assert search("abc$", "xyzabc") == (3, 6)
        assert search("abc$", "abcx") is None

    def test_fullmatch_by_both_anchors(self):
        assert search("^a+$", "aaaa") == (0, 4)
        assert search("^a+$", "aaab") is None


class TestFindall:
    def test_non_overlapping_matches(self):
        assert findall("ab", "ababab") == [(0, 2), (2, 4), (4, 6)]

    def test_count(self):
        pattern = compile_pattern(r"\d+")
        assert pattern.count(b"1 22 333 4444") == 4

    def test_zero_width_matches_advance(self):
        assert len(findall("a*", "bbb")) == 4   # before each b + at end

    def test_leftmost_longest(self):
        assert findall("a+", "aaabaa") == [(0, 3), (4, 6)]


class TestAgainstStdlib:
    PATTERNS = [
        r"abc",
        r"a+b*c?",
        r"(ab|cd)+e",
        r"[0-9a-f]+",
        r"x[^y]*y",
        r"(a|b)*abb",
    ]
    TEXTS = [
        "",
        "abc",
        "aaabbbccc",
        "abcdcdcde",
        "deadbeef99",
        "xqqqy",
        "abababb",
        "zzzzzz",
    ]

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("text", TEXTS)
    def test_search_agrees_with_re(self, pattern, text):
        ours = search(pattern, text)
        theirs = re.search(pattern, text)
        if theirs is None:
            assert ours is None
        else:
            assert ours is not None
            # Both are leftmost; POSIX-longest can exceed re's backtrack
            # choice, so compare starts and ensure our span is a match.
            assert ours[0] == theirs.start()
            assert re.fullmatch(pattern, text[ours[0]:ours[1]])

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(alphabet="ab", max_size=20))
    def test_property_star_alternation(self, text):
        ours = search("(a|b)*abb", text)
        theirs = re.search("(a|b)*abb", text)
        assert (ours is None) == (theirs is None)

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(alphabet="abc0123", max_size=24))
    def test_property_digit_runs(self, text):
        ours = [span for span in findall(r"\d+", text)]
        theirs = [m.span() for m in re.finditer(r"\d+", text)]
        assert ours == theirs


def _leftmost_longest_by_re(pattern: bytes, text: bytes):
    """``findall`` rebuilt from ``re.fullmatch`` over every (start, end).

    ``fullmatch(text, pos, endpos)`` asks "is this exact slice in the
    language", which is independent of backtracking order, so the oracle
    is leftmost-*longest* for any anchor-free pattern, alternation too.
    """
    compiled = re.compile(pattern)
    out, pos, n = [], 0, len(text)
    while pos <= n:
        found = next(((start, end)
                      for start in range(pos, n + 1)
                      for end in range(n, start - 1, -1)
                      if compiled.fullmatch(text, start, end)), None)
        if found is None:
            break
        out.append(found)
        pos = found[1] if found[1] > found[0] else found[0] + 1
    return out


_ATOMS = st.sampled_from(
    [b"a", b"b", b"c", b"[ab]", b"[^a]", b"[a-c1]", b".", br"\d", br"\w"])
_QUANTIFIERS = st.sampled_from([b"", b"", b"*", b"+", b"?"])
_PIECES = st.tuples(_ATOMS, _QUANTIFIERS).map(b"".join)
_SEQUENCES = st.lists(_PIECES, min_size=1, max_size=4).map(b"".join)
_GROUPS = st.tuples(
    st.lists(_SEQUENCES, min_size=1, max_size=3).map(b"|".join),
    _QUANTIFIERS,
).map(lambda pair: b"(" + pair[0] + b")" + pair[1])
_PATTERNS = st.lists(st.one_of(_PIECES, _GROUPS),
                     min_size=1, max_size=4).map(b"".join)


class TestDifferentialAgainstRe:
    @settings(max_examples=300, deadline=None)
    @given(pattern=_PATTERNS,
           text=st.text(alphabet="abc1 \n", max_size=16))
    def test_findall_is_leftmost_longest(self, pattern, text):
        text = text.encode()
        assert (Pattern(pattern).findall(text)
                == _leftmost_longest_by_re(pattern, text))

    @settings(max_examples=100, deadline=None)
    @given(pattern=_PATTERNS,
           texts=st.lists(st.text(alphabet="abc1 \n", max_size=16),
                          min_size=2, max_size=4))
    def test_rows_filled_by_one_text_serve_the_next(self, pattern, texts):
        # One Pattern, several texts: stale rows would show up here.
        shared = Pattern(pattern)
        for text in texts:
            text = text.encode()
            assert shared.findall(text) == Pattern(pattern).findall(text)


class TestAnchorsInTheDfa:
    """``^``/``$`` are not byte transitions; the lazy DFA must still
    honour them at offset 0 and at ``len(text)`` only."""

    def test_match_ending_on_the_last_byte(self):
        assert search("b$", "ab") == (1, 2)
        assert search("a*$", "baa") == (1, 3)
        assert search("ab+", "xabb") == (1, 4)

    def test_empty_match_at_end(self):
        assert findall("$", "ab") == [(2, 2)]
        assert findall("a|$", "ba") == [(1, 2), (2, 2)]
        assert search("x*$", "ab") == (2, 2)

    def test_empty_match_at_start_only(self):
        assert findall("^", "ab") == [(0, 0)]
        assert findall("^a", "aa") == [(0, 1)]
        assert findall("(^|b)a", "aba") == [(0, 1), (1, 3)]

    def test_both_anchors_on_empty_text(self):
        assert search("^$", "") == (0, 0)
        assert search("$^", "") == (0, 0)
        assert search("^$", "a") is None

    def test_start_anchor_after_end_anchor_needs_empty_text(self):
        # ``$^`` at offset 1 of "a": at the end, but not at the start.
        # The offset-0 entry state and the mid-text one hold the same
        # NFA states here and must still be told apart.
        assert search("$^", "a") is None
        assert Pattern("$^").match_at(b"a", 1) is None

    def test_anchor_mid_pattern_never_matches_mid_text(self):
        assert search("a$b", "ab") is None
        assert search("a^b", "ab") is None


class TestDfaCache:
    def test_compile_pattern_returns_the_cached_pattern(self):
        assert compile_pattern(r"cache[a-z]+") is compile_pattern(
            r"cache[a-z]+")

    def test_second_findall_reuses_the_rows(self):
        pattern = compile_pattern(r"data[a-z]+|\d+$")
        text = b"some data here, datum there, dataset 42"

        def filled():
            return [sum(entry is not None for entry in row)
                    for row in pattern._rows]

        first = pattern.findall(text)
        after_first = filled()
        assert sum(after_first) > 0
        assert pattern.findall(text) == first
        assert filled() == after_first          # nothing new to learn
        assert compile_pattern(r"data[a-z]+|\d+$") is pattern

    def test_dead_transitions_are_cached_too(self):
        pattern = Pattern("ab")
        assert pattern._rows[pattern._entry] == [None] * 256
        assert pattern.search(b"zzzz") is None
        # A search marks the bytes a match can start with, which takes
        # the whole mid-text entry row, dead transitions included ...
        entry_row = pattern._rows[pattern._entry]
        assert None not in entry_row
        assert entry_row[ord("z")] == -1
        after_a = entry_row[ord("a")]
        assert after_a >= 0
        # ... every other row still learns one byte at a time.
        assert pattern._rows[after_a] == [None] * 256
        assert pattern._rows[pattern._entry_at_start].count(None) == 255
        assert pattern.search(b"zazb") is None
        assert pattern._rows[after_a].count(None) == 255
        assert pattern._rows[after_a][ord("z")] == -1


def _count_scans(monkeypatch):
    calls = []
    scan = Pattern._scan

    def counted(self, text, start, n):
        calls.append(start)
        return scan(self, text, start, n)

    monkeypatch.setattr(Pattern, "_scan", counted)
    return calls


class TestScanStarts:
    """Work counts, not clocks: which offsets a search scans from."""

    def test_only_bytes_that_can_start_a_match_are_scanned_from(
            self, monkeypatch):
        page = TextCorpus(seed=13).generate(64 * 1024)
        calls = _count_scans(monkeypatch)
        matches = Pattern(r"data[a-z]+").findall(page)
        assert matches == [m.span() for m in
                           re.finditer(rb"data[a-z]+", page)]
        assert len(calls) <= page.count(b"d") + 1
        assert len(calls) < len(page) / 20

    def test_a_pattern_that_matches_empty_is_scanned_at_every_offset(
            self, monkeypatch):
        calls = _count_scans(monkeypatch)
        assert len(findall("a*", "bbabb")) == 6
        assert calls == [0, 1, 2, 3, 4, 5]      # one scan, one match

    def test_offset_zero_and_the_end_are_always_tried(self, monkeypatch):
        calls = _count_scans(monkeypatch)
        assert findall("^b|a$", "bcba") == [(0, 1), (3, 4)]
        assert findall("c|$", "bb") == [(2, 2)]
        assert calls == [0, 3, 4, 0, 2]

    @settings(max_examples=100, deadline=None)
    @given(pattern=_PATTERNS, text=st.text(alphabet="abc1 \n", max_size=16))
    def test_search_is_the_first_findall_match(self, pattern, text):
        found = Pattern(pattern).findall(text)
        assert Pattern(pattern).search(text) == (found[0] if found
                                                 else None)


class TestStateCap:
    """``_MAX_DFA_STATES`` bounds memory and changes no match."""

    def test_exponential_dfa_stays_under_the_cap(self):
        # The 15th byte from the end of a match is an "a": the DFA must
        # remember the last 15 bytes, 2**15 states in all.
        source = "(a|b)*a" + "(a|b)" * 14
        rng = random.Random(13)
        text = bytes(rng.choice(b"ab") for _ in range(64 * 1024))
        pattern = Pattern(source)
        seen = []
        intern = pattern._intern

        def watched(states, at_start=False):
            state_id = intern(states, at_start)
            seen.append(len(pattern._rows))
            return state_id

        pattern._intern = watched
        matches = pattern.findall(text)
        assert max(seen) == regex._MAX_DFA_STATES      # it did fill up
        assert len(pattern._rows) == len(pattern._sets) == len(
            pattern._accepts) == len(pattern._accepts_at_end) == len(
            pattern._ids) <= regex._MAX_DFA_STATES
        # greedy backtracking is leftmost-longest for this pattern
        assert matches == [m.span() for m in re.finditer(
            source.replace("(", "(?:").encode(), text)]

    @settings(max_examples=100, deadline=None)
    @given(pattern=_PATTERNS, cap=st.integers(3, 6),
           texts=st.lists(st.text(alphabet="abc1 \n", max_size=24),
                          min_size=1, max_size=3))
    def test_a_tiny_cap_changes_no_match(self, pattern, cap, texts):
        uncapped = [Pattern(pattern).findall(text) for text in texts]
        default = regex._MAX_DFA_STATES
        try:
            regex._MAX_DFA_STATES = cap
            capped = Pattern(pattern)
            assert [capped.findall(text) for text in texts] == uncapped
            assert len(capped._rows) <= cap
        finally:
            regex._MAX_DFA_STATES = default


class TestSyntaxErrors:
    @pytest.mark.parametrize("pattern", [
        "(", "(ab", "a)", "[abc", "*a", "+", "?", "a\\",
    ])
    def test_malformed_patterns_rejected(self, pattern):
        with pytest.raises((RegexSyntaxError, ValueError)):
            Pattern(pattern)

    def test_reversed_range_rejected(self):
        with pytest.raises(RegexSyntaxError):
            Pattern("[z-a]")


class TestLinearTime:
    def test_pathological_pattern_completes(self):
        # (a?)^25 a^25 against a^25 — catastrophic for backtrackers.
        n = 25
        pattern = "a?" * n + "a" * n
        text = "a" * n
        assert search(pattern, text) == (0, n)
