"""Colored omega-automata over finite alphabets and their text format.

An automaton here is a finite transition structure whose transitions carry
non-negative integer colors.  Acceptance is supplied by the membership
functions, not stored with the structure, so the same object can be read as a
rerailing automaton, a parity automaton, or a co-Buchi automaton.
"""

from __future__ import annotations

from dataclasses import dataclass


# Largest state count a text may declare: 64 times the largest automata of
# the benchmark (4096 states), while the successor table of a two-letter
# automaton this size still takes only about 100 MB.
MAX_STATES = 1 << 18


class RafError(ValueError):
    """Malformed automaton text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class UnreachableStatesError(ValueError):
    """Raised by operations requiring every state to be reachable."""

    def __init__(self, states):
        self.states = tuple(states)
        super().__init__("unreachable states: %s" % (", ".join(str(q) for q in self.states)))


@dataclass(frozen=True)
class Alphabet:
    """Ordered tuple of distinct symbol names; the order is canonical."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        seen = set()
        for sym in self.symbols:
            if not sym or any(ch.isspace() for ch in sym):
                raise ValueError("bad symbol name %r" % (sym,))
            if sym in seen:
                raise ValueError("duplicate symbol %r" % (sym,))
            seen.add(sym)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def index(self, symbol):
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError("symbol %r not in alphabet" % (symbol,)) from None


class AutomatonStructure:
    """Complete-or-partial transition structure with colored transitions.

    Transitions are stored as a sorted tuple of (src, symbol, dst, color)
    quadruples with symbols given by alphabet index.  A (src, symbol, dst)
    triple may appear with at most one color.
    """

    def __init__(self, alphabet, state_count, transitions, initial, state_names=None):
        if state_count <= 0:
            raise ValueError("state_count must be positive")
        if not 0 <= initial < state_count:
            raise ValueError("initial state %d out of range" % initial)
        self.alphabet = alphabet
        self.state_count = state_count
        self.initial = initial
        seen = {}
        for (src, sym, dst, color) in transitions:
            if not 0 <= src < state_count or not 0 <= dst < state_count:
                raise ValueError("transition endpoint out of range: %r" % ((src, sym, dst, color),))
            if not 0 <= sym < len(alphabet):
                raise ValueError("symbol index out of range: %r" % ((src, sym, dst, color),))
            if color < 0:
                raise ValueError("negative color: %r" % ((src, sym, dst, color),))
            key = (src, sym, dst)
            if key in seen and seen[key] != color:
                raise ValueError("conflicting colors for transition %r" % (key,))
            seen[key] = color
        self.transitions = tuple(sorted((s, a, d, c) for (s, a, d), c in seen.items()))
        if state_names is not None:
            state_names = dict(state_names)
            stray = sorted(q for q in state_names if not 0 <= q < state_count)
            if stray:
                raise ValueError("name given for missing state %d" % stray[0])
            if len(set(state_names.values())) != len(state_names):
                raise ValueError("state display names must be unique")
        self.state_names = state_names
        succ = [[[] for _ in range(len(alphabet))] for _ in range(state_count)]
        for (src, sym, dst, color) in self.transitions:
            succ[src][sym].append((dst, color))
        self._succ = succ

    def successors(self, state, symbol):
        """All (dst, color) pairs for the given state and symbol index."""
        return self._succ[state][symbol]

    def successor_states(self, state, symbol):
        return [dst for (dst, _c) in self._succ[state][symbol]]

    @property
    def max_color(self):
        return max((c for (_s, _a, _d, c) in self.transitions), default=0)

    @property
    def colors(self):
        return sorted({c for (_s, _a, _d, c) in self.transitions})

    def state_name(self, state):
        if self.state_names and state in self.state_names:
            return self.state_names[state]
        return str(state)

    def reachable_states(self):
        seen = {self.initial}
        todo = [self.initial]
        while todo:
            q = todo.pop()
            for row in self._succ[q]:
                for (dst, _c) in row:
                    if dst not in seen:
                        seen.add(dst)
                        todo.append(dst)
        return seen

    def __eq__(self, other):
        if not isinstance(other, AutomatonStructure):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and self.state_count == other.state_count
                and self.initial == other.initial
                and self.transitions == other.transitions)

    def __repr__(self):
        return "AutomatonStructure(states=%d, transitions=%d, initial=%d)" % (
            self.state_count, len(self.transitions), self.initial)


def validate_complete(aut):
    """Return the (state, symbol index) pairs lacking any outgoing transition."""
    return [(q, a) for q in range(aut.state_count) for a in range(len(aut.alphabet))
            if not aut.successors(q, a)]


def parse_automaton(text):
    """Parse the versioned automaton text format.

    Layout: a `raf 1` header, then `alphabet`, `states`, `initial`, optional
    `name <k> "<display>"` lines and `trans <src> <sym> <dst> <color>` lines.
    `#` starts a comment.  Duplicate identical transitions are tolerated.
    """
    return _parse_raf_body(_numbered_lines(text), require_version="raf 1", with_colors=True)


def serialize_automaton(aut):
    """Render an automaton in the text format with a canonical line order."""
    return "\n".join(["raf 1"] + _body_lines(aut)) + "\n"


def _body_lines(aut, with_colors=True):
    """The alphabet, states, initial, name and trans lines of an automaton body.

    Without colors the trans lines have three fields, as `_parse_raf_body`
    reads them with `with_colors=False`.
    """
    out = ["alphabet " + " ".join(aut.alphabet.symbols),
           "states %d" % aut.state_count,
           "initial %d" % aut.initial]
    if aut.state_names:
        for q in sorted(aut.state_names):
            out.append('name %d "%s"' % (q, aut.state_names[q]))
    symbols = aut.alphabet.symbols
    if with_colors:
        out.extend("trans %d %s %d %d" % (src, symbols[sym], dst, color)
                   for (src, sym, dst, color) in aut.transitions)
    else:
        out.extend("trans %d %s %d" % (src, symbols[sym], dst)
                   for (src, sym, dst, _color) in aut.transitions)
    return out


def _numbered_lines(text):
    result = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            result.append((lineno, line))
    return result


def _parse_name_line(rest, lineno):
    parts = rest.split(None, 1)
    if len(parts) != 2:
        raise RafError("name needs a state and a quoted display string", lineno)
    try:
        state = int(parts[0])
    except ValueError:
        raise RafError("bad state index %r" % parts[0], lineno) from None
    display = parts[1].strip()
    if len(display) < 2 or display[0] != '"' or display[-1] != '"':
        raise RafError("display name must be double-quoted", lineno)
    return state, display[1:-1]


def _parse_state_count(rest, lineno):
    """The count of a `states` line; above MAX_STATES it is refused before any allocation."""
    try:
        count = int(rest)
    except ValueError:
        raise RafError("bad state count %r" % rest, lineno) from None
    if count > MAX_STATES:
        raise RafError("state count %d above the limit %d" % (count, MAX_STATES), lineno)
    return count


def _parse_raf_body(lines, require_version, with_colors, start=0, stop_words=()):
    """Shared parser for automaton bodies; returns the automaton (and the

    position after the body when stop_words are given)."""
    idx = start
    if require_version is not None:
        if idx >= len(lines) or lines[idx][1] != require_version:
            lineno = lines[idx][0] if idx < len(lines) else None
            raise RafError("expected %r header" % require_version, lineno)
        idx += 1
    alphabet = None
    state_count = None
    initial = None
    names = {}
    colors = {}
    while idx < len(lines):
        lineno, line = lines[idx]
        word = line.split(None, 1)[0]
        if word in stop_words:
            break
        idx += 1
        rest = line[len(word):].strip()
        if word == "alphabet":
            if alphabet is not None:
                raise RafError("duplicate alphabet line", lineno)
            alphabet = Alphabet(tuple(rest.split()))
        elif word == "states":
            state_count = _parse_state_count(rest, lineno)
        elif word == "initial":
            try:
                initial = int(rest)
            except ValueError:
                raise RafError("bad initial state %r" % rest, lineno) from None
        elif word == "name":
            state, display = _parse_name_line(rest, lineno)
            if state in names:
                raise RafError("duplicate name for state %d" % state, lineno)
            names[state] = display
        elif word == "trans":
            parts = rest.split()
            want = 4 if with_colors else 3
            if len(parts) != want:
                raise RafError("trans needs %d fields" % want, lineno)
            if alphabet is None:
                raise RafError("trans before alphabet", lineno)
            try:
                src = int(parts[0])
                dst = int(parts[2])
                color = int(parts[3]) if with_colors else 0
            except ValueError:
                raise RafError("bad transition fields %r" % rest, lineno) from None
            try:
                sym = alphabet.index(parts[1])
            except ValueError:
                raise RafError("unknown symbol %r" % parts[1], lineno) from None
            key = (src, sym, dst)
            if colors.setdefault(key, color) != color:
                raise RafError("conflicting colors for transition %r" % (key,), lineno)
        else:
            raise RafError("unknown directive %r" % word, lineno)
    if alphabet is None:
        raise RafError("missing alphabet")
    if state_count is None:
        raise RafError("missing state count")
    if initial is None:
        raise RafError("missing initial state")
    try:
        aut = AutomatonStructure(alphabet, state_count,
                                 [key + (c,) for key, c in colors.items()], initial,
                                 state_names=names or None)
    except ValueError as exc:
        raise RafError(str(exc)) from None
    if stop_words:
        return aut, idx
    return aut


def equireach_relation(aut):
    """All ordered state pairs jointly reachable under a common input word.

    Computed as reachability in the self-product from (initial, initial); the
    result is reflexive on reachable states and symmetric.  Raises
    UnreachableStatesError when some state is never reached at all.
    """
    nsym = len(aut.alphabet)
    start = (aut.initial, aut.initial)
    seen = {start}
    todo = [start]
    while todo:
        (p, q) = todo.pop()
        for a in range(nsym):
            for p2 in aut.successor_states(p, a):
                for q2 in aut.successor_states(q, a):
                    pair = (p2, q2)
                    if pair not in seen:
                        seen.add(pair)
                        todo.append(pair)
    covered = {p for (p, _q) in seen}
    missing = [q for q in range(aut.state_count) if q not in covered]
    if missing:
        raise UnreachableStatesError(missing)
    return frozenset(seen)
