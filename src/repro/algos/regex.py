"""A Thompson-NFA regular expression engine, from scratch.

The real algorithm behind the ``regex`` DP kernel (BlueField-2's RegEx
ASIC accelerates exactly this kind of streaming pattern scan).  The
NFA is run through a lazily built DFA, so the engine keeps its
guaranteed O(pattern x text) time — no backtracking blow-ups — while a
byte costs one table lookup once its transition has been seen; the DFA
never holds more states than bytes scanned.  This matches the behaviour
of hardware DFA/NFA engines.

Supported syntax: literals, ``.``, ``*``, ``+``, ``?``, alternation
``|``, grouping ``(...)``, character classes ``[a-z]`` / ``[^a-z]``,
anchors ``^`` and ``$``, and escapes (``\\d``, ``\\w``, ``\\s``, and
escaped metacharacters).  Patterns operate on **bytes**, as a data-path
scanner would.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

__all__ = ["Pattern", "compile_pattern", "search", "findall"]


class RegexSyntaxError(ValueError):
    """Raised for malformed patterns."""


# -- parsing into an AST ---------------------------------------------------

# AST nodes are tuples: ("char", frozenset_of_byte_values) |
# ("concat", a, b) | ("alt", a, b) | ("star", a) | ("plus", a) |
# ("opt", a) | ("empty",) | ("start",) | ("end",)

_METACHARS = set(b"\\.[]()*+?|^$")

_CLASS_SHORTHANDS = {
    ord("d"): frozenset(range(ord("0"), ord("9") + 1)),
    ord("w"): frozenset(
        list(range(ord("a"), ord("z") + 1)) +
        list(range(ord("A"), ord("Z") + 1)) +
        list(range(ord("0"), ord("9") + 1)) + [ord("_")]
    ),
    ord("s"): frozenset(b" \t\n\r\f\v"),
}

_ANY_BYTE = frozenset(range(256)) - {ord("\n")}


class _Parser:
    """Recursive-descent parser for the supported syntax."""

    def __init__(self, pattern: bytes):
        self._pattern = pattern
        self._pos = 0

    def parse(self):
        node = self._alternation()
        if self._pos != len(self._pattern):
            raise RegexSyntaxError(
                f"unexpected {chr(self._pattern[self._pos])!r} at "
                f"position {self._pos}"
            )
        return node

    def _peek(self) -> Optional[int]:
        if self._pos < len(self._pattern):
            return self._pattern[self._pos]
        return None

    def _take(self) -> int:
        byte = self._pattern[self._pos]
        self._pos += 1
        return byte

    def _alternation(self):
        node = self._concat()
        while self._peek() == ord("|"):
            self._take()
            node = ("alt", node, self._concat())
        return node

    def _concat(self):
        parts = []
        while True:
            byte = self._peek()
            if byte is None or byte in (ord("|"), ord(")")):
                break
            parts.append(self._repeat())
        if not parts:
            return ("empty",)
        node = parts[0]
        for part in parts[1:]:
            node = ("concat", node, part)
        return node

    def _repeat(self):
        node = self._atom()
        while True:
            byte = self._peek()
            if byte == ord("*"):
                self._take()
                node = ("star", node)
            elif byte == ord("+"):
                self._take()
                node = ("plus", node)
            elif byte == ord("?"):
                self._take()
                node = ("opt", node)
            else:
                return node

    def _atom(self):
        byte = self._take()
        if byte == ord("("):
            node = self._alternation()
            if self._peek() != ord(")"):
                raise RegexSyntaxError("unbalanced parenthesis")
            self._take()
            return node
        if byte == ord("["):
            return ("char", self._char_class())
        if byte == ord("."):
            return ("char", _ANY_BYTE)
        if byte == ord("^"):
            return ("start",)
        if byte == ord("$"):
            return ("end",)
        if byte == ord("\\"):
            return ("char", self._escape())
        if byte in (ord("*"), ord("+"), ord("?")):
            raise RegexSyntaxError("quantifier with nothing to repeat")
        return ("char", frozenset([byte]))

    def _escape(self) -> FrozenSet[int]:
        if self._peek() is None:
            raise RegexSyntaxError("dangling escape")
        byte = self._take()
        if byte in _CLASS_SHORTHANDS:
            return _CLASS_SHORTHANDS[byte]
        upper = byte | 0x20
        if chr(byte).isalpha() and upper in _CLASS_SHORTHANDS:
            # \D, \W, \S: complements
            return frozenset(range(256)) - _CLASS_SHORTHANDS[upper]
        special = {ord("n"): ord("\n"), ord("t"): ord("\t"),
                   ord("r"): ord("\r"), ord("0"): 0}
        return frozenset([special.get(byte, byte)])

    def _char_class(self) -> FrozenSet[int]:
        negate = False
        if self._peek() == ord("^"):
            self._take()
            negate = True
        members: Set[int] = set()
        first = True
        while True:
            byte = self._peek()
            if byte is None:
                raise RegexSyntaxError("unterminated character class")
            if byte == ord("]") and not first:
                self._take()
                break
            first = False
            byte = self._take()
            if byte == ord("\\"):
                members |= self._escape()
                continue
            if (self._peek() == ord("-")
                    and self._pos + 1 < len(self._pattern)
                    and self._pattern[self._pos + 1] != ord("]")):
                self._take()                      # consume '-'
                high = self._take()
                if high == ord("\\"):
                    high = min(self._escape())
                if high < byte:
                    raise RegexSyntaxError("reversed range in class")
                members |= set(range(byte, high + 1))
            else:
                members.add(byte)
        if negate:
            return frozenset(range(256)) - frozenset(members)
        return frozenset(members)


# -- NFA construction (Thompson) ---------------------------------------------

_EPSILON = None
_START_ANCHOR = "^"
_END_ANCHOR = "$"
_DEAD = -1               # DFA state id: no NFA state survives
#: DFA states (~2 KiB each) a pattern may hold before it starts over
_MAX_DFA_STATES = 1024


class _Nfa:
    """NFA with epsilon transitions; states are integers."""

    def __init__(self):
        self.transitions: List[List[Tuple[object, int]]] = []
        self.start = self._new_state()
        self.accept: int = -1

    def _new_state(self) -> int:
        self.transitions.append([])
        return len(self.transitions) - 1

    def add(self, src: int, label: object, dst: int) -> None:
        self.transitions[src].append((label, dst))


def _build(node, nfa: _Nfa) -> Tuple[int, int]:
    """Return (entry, exit) state pair for the AST node."""
    kind = node[0]
    if kind == "char":
        entry, exit_ = nfa._new_state(), nfa._new_state()
        nfa.add(entry, node[1], exit_)
        return entry, exit_
    if kind == "empty":
        entry = nfa._new_state()
        return entry, entry
    if kind in ("start", "end"):
        entry, exit_ = nfa._new_state(), nfa._new_state()
        anchor = _START_ANCHOR if kind == "start" else _END_ANCHOR
        nfa.add(entry, anchor, exit_)
        return entry, exit_
    if kind == "concat":
        a_in, a_out = _build(node[1], nfa)
        b_in, b_out = _build(node[2], nfa)
        nfa.add(a_out, _EPSILON, b_in)
        return a_in, b_out
    if kind == "alt":
        entry, exit_ = nfa._new_state(), nfa._new_state()
        a_in, a_out = _build(node[1], nfa)
        b_in, b_out = _build(node[2], nfa)
        nfa.add(entry, _EPSILON, a_in)
        nfa.add(entry, _EPSILON, b_in)
        nfa.add(a_out, _EPSILON, exit_)
        nfa.add(b_out, _EPSILON, exit_)
        return entry, exit_
    if kind in ("star", "opt", "plus"):
        entry, exit_ = nfa._new_state(), nfa._new_state()
        inner_in, inner_out = _build(node[1], nfa)
        nfa.add(entry, _EPSILON, inner_in)
        if kind != "plus":
            nfa.add(entry, _EPSILON, exit_)
        nfa.add(inner_out, _EPSILON, exit_)
        if kind != "opt":
            nfa.add(inner_out, _EPSILON, inner_in)
        return entry, exit_
    raise AssertionError(f"unknown AST node {kind!r}")


class Pattern:
    """A compiled pattern: a lazy DFA over the Thompson NFA.

    DFA states are interned sets of NFA states; each has a 256-entry
    transition row whose entries are filled the first time a byte is
    seen in that state (``_DEAD`` ends a scan early).  Rows live as long
    as the pattern, so a second scan pays list indexing per byte and
    nothing else — :func:`compile_pattern` caches patterns for that.
    A pattern that needs more than ``_MAX_DFA_STATES`` states drops
    them and refills: same matches, bounded memory.
    """

    def __init__(self, pattern):
        if isinstance(pattern, str):
            pattern = pattern.encode()
        self.pattern = bytes(pattern)
        ast = _Parser(self.pattern).parse()
        nfa = _Nfa()
        entry, exit_ = _build(ast, nfa)
        nfa.add(nfa.start, _EPSILON, entry)
        nfa.accept = exit_
        self._nfa = nfa
        self._ids: Dict[Tuple[FrozenSet[int], bool], int] = {}
        self._sets: List[FrozenSet[int]] = []
        self._rows: List[List[Optional[int]]] = []
        #: per DFA state: is it accepting mid-text / at the end of text
        self._accepts: List[bool] = []
        self._accepts_at_end: List[bool] = []
        # ``^`` only holds at offset 0, so scans from there start in
        # their own state; mid-text closures never follow an anchor.
        self._entry_at_start = self._intern({nfa.start}, at_start=True)
        self._entry = self._intern({nfa.start})

    # -- lazy DFA ----------------------------------------------------------

    def _closure(self, states: Set[int], at_start: bool,
                 at_end: bool) -> Set[int]:
        """Epsilon (and satisfied-anchor) closure of ``states``."""
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for label, dst in self._nfa.transitions[state]:
                follow = (
                    label is _EPSILON
                    or (label == _START_ANCHOR and at_start)
                    or (label == _END_ANCHOR and at_end)
                )
                if follow and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def _intern(self, states: Set[int], at_start: bool = False) -> int:
        """DFA state id of the closure of ``states`` (``_DEAD`` if empty)."""
        if not states:
            return _DEAD
        closed = frozenset(self._closure(states, at_start, False))
        state_id = self._ids.get((closed, at_start))
        if state_id is None:
            if len(self._sets) >= _MAX_DFA_STATES:
                # Full: forget every state but the two entries, ids 0
                # and 1 — in place, a running scan holds these lists.
                del (self._sets[2:], self._accepts[2:],
                     self._accepts_at_end[2:])
                self._rows[:] = [None] * 256, [None] * 256
                self._ids = {key: state_id for key, state_id
                             in self._ids.items() if state_id < 2}
            state_id = self._ids[closed, at_start] = len(self._sets)
            self._sets.append(closed)
            self._rows.append([None] * 256)
            self._accepts.append(self._nfa.accept in closed)
            # ``$`` holds only once the whole text is consumed.
            self._accepts_at_end.append(
                self._nfa.accept in self._closure(closed, at_start, True))
        return state_id

    def _step(self, state_id: int, byte: int) -> int:
        """Fill and return one transition-row entry."""
        moved = {
            dst
            for state in self._sets[state_id]
            for label, dst in self._nfa.transitions[state]
            if isinstance(label, frozenset) and byte in label
        }
        row = self._rows[state_id]      # interning may drop the DFA
        target = row[byte] = self._intern(moved)
        return target

    def _start_marks(self, text: bytes) -> bytearray:
        """One flag per offset ``0..len(text)``: can a match begin there?

        Not on a byte the entry state's row, all of it filled here,
        has a dead transition for.  Offset 0 has its own entry state
        and ``len(text)`` no byte (``$`` can still match): both are set.
        """
        entry = self._entry
        row = self._rows[entry]
        step = self._step
        marks = bytearray(text.translate(bytes(
            # a state accepting the empty string matches at any offset
            self._accepts[entry] or
            (step(entry, byte) if row[byte] is None else row[byte]) >= 0
            for byte in range(256))))
        marks.append(1)
        marks[0] = 1
        return marks

    def match_at(self, text: bytes, start: int) -> Optional[int]:
        """Longest match beginning exactly at ``start``; returns end.

        ``None`` if no match starts there.  Zero-length matches return
        ``start`` itself.
        """
        text = bytes(text)
        return self._scan(text, start, len(text))

    def _scan(self, text: bytes, start: int, n: int) -> Optional[int]:
        """:meth:`match_at` over ``bytes`` of known length ``n``."""
        rows = self._rows
        accepts = self._accepts
        state = self._entry if start else self._entry_at_start
        best = None
        for pos in range(start, n):
            if accepts[state]:
                best = pos
            byte = text[pos]
            target = rows[state][byte]
            if target is None:
                target = self._step(state, byte)
            if target < 0:
                return best
            state = target
        return n if self._accepts_at_end[state] else best

    def _leftmost(self, text: bytes, marks: bytearray,
                  pos: int) -> Optional[Tuple[int, int]]:
        """Leftmost-longest match starting at or after ``pos``, tried
        only where ``marks`` (:meth:`_start_marks` of ``text``) is set."""
        n = len(text)
        start = marks.find(1, pos)
        while start >= 0:
            end = self._scan(text, start, n)
            if end is not None:
                return (start, end)
            start = marks.find(1, start + 1)
        return None

    def search(self, text) -> Optional[Tuple[int, int]]:
        """First (leftmost-longest) match as ``(start, end)``."""
        if isinstance(text, str):
            text = text.encode()
        text = bytes(text)
        return self._leftmost(text, self._start_marks(text), 0)

    def findall(self, text) -> List[Tuple[int, int]]:
        """All non-overlapping matches, leftmost-longest."""
        if isinstance(text, str):
            text = text.encode()
        text = bytes(text)
        out: List[Tuple[int, int]] = []
        marks = self._start_marks(text)
        found = self._leftmost(text, marks, 0)
        while found is not None:
            out.append(found)
            start, end = found
            found = self._leftmost(text, marks,
                                   end if end > start else start + 1)
        return out

    def count(self, text) -> int:
        """Number of non-overlapping matches."""
        return len(self.findall(text))

    def __repr__(self) -> str:
        return f"Pattern({self.pattern!r})"


@lru_cache(maxsize=64)
def compile_pattern(pattern) -> Pattern:
    """Compile ``pattern`` (str or bytes) into a :class:`Pattern`.

    Cached, so repeated scans with one pattern share its DFA rows.
    """
    return Pattern(pattern)


def search(pattern, text) -> Optional[Tuple[int, int]]:
    """One-shot search; see :meth:`Pattern.search`."""
    return compile_pattern(pattern).search(text)


def findall(pattern, text) -> List[Tuple[int, int]]:
    """One-shot findall; see :meth:`Pattern.findall`."""
    return compile_pattern(pattern).findall(text)
