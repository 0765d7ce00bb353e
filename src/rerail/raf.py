"""Colored omega-automata over finite alphabets and their text format.

An automaton here is a finite transition structure whose transitions carry
non-negative integer colors.  Acceptance is supplied by the membership
functions, not stored with the structure, so the same object can be read as a
rerailing automaton, a parity automaton, or a co-Buchi automaton.  The `raf`,
`cocoa` and `flochain` formats read every automaton body with one reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .scc import reachable


# Largest state count a text may declare: 64 times the largest automata of
# the benchmark (4096 states), while the successor table of a two-letter
# automaton this size still takes only about 100 MB.  A raf body may declare
# at most that table's 2 * MAX_STATES cells, states times symbols.
MAX_STATES = 1 << 18


class RafError(ValueError):
    """Malformed automaton text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class SiteError(ValueError):
    """A construction error about one item; `site` names it as a text does: the directive and
    leading fields of a line holding it, such as ("trans", src, symbol index, dst)."""

    def __init__(self, message, *site):
        super().__init__(message)
        self.site = site


@dataclass(frozen=True)
class Alphabet:
    """Ordered tuple of distinct symbol names; the order is canonical.

    `positions` maps each symbol to its index.  No symbol may hold `#`,
    which starts a comment in the text formats, or `.` and `;`, which
    separate the symbols and the stem of a lasso.
    """

    symbols: tuple
    positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must not be empty")
        positions = {}
        for sym in self.symbols:
            if not sym or any(ch.isspace() for ch in sym):
                raise ValueError("bad symbol name %r" % (sym,))
            if any(ch in "#.;" for ch in sym):
                raise ValueError("symbol %r holds a reserved character (# . ;)" % (sym,))
            if sym in positions:
                raise ValueError("duplicate symbol %r" % (sym,))
            positions[sym] = len(positions)
        object.__setattr__(self, "positions", positions)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def index(self, symbol):
        try:
            return self.positions[symbol]
        except KeyError:
            raise ValueError("symbol %r not in alphabet" % (symbol,)) from None


class AutomatonStructure:
    """Complete-or-partial transition structure with colored transitions.

    The moves are stored once, as successor rows that library code reads:
    `_succ[src][symbol]` is the tuple of (dst, color) pairs of a state and symbol
    index, sorted by dst.  A (src, symbol, dst) triple may appear with at most one
    color.  `transitions`, any iterable, is walked once, and an error names the
    first faulty transition in input order.  `colors` is the sorted tuple of the
    colors used and `max_color` the largest of them, 0 when there is no transition.
    """

    def __init__(self, alphabet, state_count, transitions, initial, state_names=None):
        if state_count <= 0:
            raise SiteError("state_count must be positive", "states")
        if not 0 <= initial < state_count:
            raise SiteError("initial state %d out of range" % initial, "initial")
        self.alphabet = alphabet
        self.state_count = state_count
        self.initial = initial
        nsym = len(alphabet)
        seen = {}
        setdefault = seen.setdefault
        for (src, sym, dst, color) in transitions:
            if not 0 <= src < state_count or not 0 <= dst < state_count:
                fault = "transition endpoint out of range: %r"
            elif not 0 <= sym < nsym:
                fault = "symbol index out of range: %r"
            elif color < 0:
                fault = "negative color: %r"
            elif setdefault((src, sym, dst), color) == color:
                continue
            else:
                raise SiteError("conflicting colors for transition %r" % ((src, sym, dst),),
                                "trans", src, sym, dst)
            raise SiteError(fault % ((src, sym, dst, color),), "trans", src, sym, dst)
        if state_names is not None:
            state_names = dict(state_names)
            stray = sorted(q for q in state_names if not 0 <= q < state_count)
            if stray:
                raise SiteError("name given for missing state %d" % stray[0], "name", stray[0])
            for name in state_names.values():
                _check_name(name)
            if len(set(state_names.values())) != len(state_names):
                raise ValueError("state display names must be unique")
        self.state_names = state_names
        self.colors = tuple(sorted(set(seen.values())))
        self.max_color = self.colors[-1] if self.colors else 0
        # Rows are tuples, which the cyclic collector stops tracking once it has
        # seen them hold ints only.  A cell holds a 1-tuple until a second
        # successor arrives, then a list, sorted by dst and made a tuple once at
        # the end.  The table itself stays a list: as small automata die, tuples
        # of their state counts would fill the interpreter's tuple free lists.
        succ = [[()] * nsym for _ in range(state_count)]
        wide = []
        for (src, sym, dst), color in seen.items():
            row = succ[src]
            cell = row[sym]
            if not cell:
                row[sym] = ((dst, color),)
            elif type(cell) is tuple:
                row[sym] = [cell[0], (dst, color)]
                wide.append((row, sym))
            else:
                cell.append((dst, color))
        for (row, sym) in wide:
            row[sym] = tuple(sorted(row[sym]))
        self._succ = list(map(tuple, succ))

    @property
    def transitions(self):
        """The sorted tuple of (src, symbol, dst, color) quadruples, derived from the
        rows on each access and never stored; library code reads the rows instead."""
        return tuple([(src, sym, dst, color) for src, row in enumerate(self._succ)
                      for sym, cell in enumerate(row) for (dst, color) in cell])

    def successors(self, state, symbol):
        """All (dst, color) pairs for the given state and symbol index, sorted by dst.

        The result is the automaton's own row, a read-only tuple shared by every
        call; the constructor builds all rows in one pass over the distinct transitions.
        """
        return self._succ[state][symbol]

    def successor_states(self, state, symbol):
        return [dst for (dst, _c) in self._succ[state][symbol]]

    def state_name(self, state):
        if self.state_names and state in self.state_names:
            return self.state_names[state]
        return str(state)

    def reachable_states(self):
        succ = self._succ
        return set(reachable([self.initial],
                             lambda q: [dst for row in succ[q] for (dst, _c) in row]))

    def __eq__(self, other):
        if not isinstance(other, AutomatonStructure):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and self.state_count == other.state_count
                and self.initial == other.initial
                and self._succ == other._succ)

    def __repr__(self):
        return "AutomatonStructure(states=%d, transitions=%d, initial=%d)" % (
            self.state_count, sum(len(cell) for row in self._succ for cell in row), self.initial)


def _check_name(name):
    """Refuse a state name that a `name` line cannot carry: `#` or a line break."""
    if "#" in name or name.splitlines() not in ([], [name]):
        raise ValueError("state name %r holds '#' or a line break" % (name,))


def validate_complete(aut):
    """Return the (state, symbol index) pairs lacking any outgoing transition."""
    return [(q, a) for q, row in enumerate(aut._succ) for a, targets in enumerate(row)
            if not targets]


def complete_reachable_states(aut):
    """The states reachable from the initial state, each checked for a move on every symbol.

    Unreachable states, which no run visits, may lack moves; a reachable
    state that lacks one is a ValueError.
    """
    reach = aut.reachable_states()
    missing = [(q, x) for (q, x) in validate_complete(aut) if q in reach]
    if missing:
        raise ValueError("input automaton incomplete at %s" % (missing[:5],))
    return reach


def parse_automaton(text):
    """Parse the versioned automaton text format.

    Layout: a `raf 1` header, then `alphabet`, `states`, `initial`, optional
    `name <k> "<display>"` lines and `trans <src> <sym> <dst> <color>` lines.
    `#` starts a comment.  Duplicate identical transitions are tolerated.
    """
    return _read_automaton(_numbered_lines(text))


def _read_automaton(lines):
    return _parse_raf_body(_expect_header(lines, "raf 1"), with_colors=True, start=1)[0]


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
    form = "trans %d %s %d %d" if with_colors else "trans %d %s %d%.0s"   # %.0s drops the color
    out.extend([form % (src, symbol, dst, color) for src, row in enumerate(aut._succ)
                for symbol, cell in zip(aut.alphabet.symbols, row) for (dst, color) in cell])
    return out


def _numbered_lines(text):
    """The (1-based number, content) of each line left non-blank once its comment is cut."""
    raws = text.splitlines()
    if "#" in text:
        raws = [raw.partition("#")[0] for raw in raws]
    return [(lineno, line) for lineno, raw in enumerate(raws, start=1) if (line := raw.strip())]


def _expect_header(lines, header):
    """The numbered `lines` of a text, refused unless the first one is `header`."""
    if not lines or lines[0][1] != header:
        raise RafError("expected %r header" % header, lines[0][0] if lines else None)
    return lines


def _line_of(body, site, alphabet):
    """The number of the first line of `body` (all read) holding a SiteError's `site`, or None."""
    for lineno, line in body:
        parts = line.split()
        if site and parts[0] == site[0]:
            if site[0] == "trans":
                parts[2] = alphabet.positions[parts[2]]
            if tuple(map(int, parts[1:len(site)])) == site[1:]:
                return lineno
    return None


def _parse_alphabet(symbols, lineno):
    """The alphabet of an `alphabet` line's symbols; a bad one is a RafError naming the line."""
    try:
        return Alphabet(tuple(symbols))
    except ValueError as exc:
        raise RafError(str(exc), lineno) from None


def _check_cells(state_count, alphabet, body):
    """Refuse a body of over 2 * MAX_STATES cells, states times symbols, at its states line."""
    if state_count * len(alphabet) > 2 * MAX_STATES:
        raise RafError("%d states times %d symbols above the limit of %d cells"
                       % (state_count, len(alphabet), 2 * MAX_STATES),
                       _line_of(body, ("states",), alphabet))


def _read_body(lines, start, directives, width, alphabet=None, stop_words=(), floating=False):
    """Read the directive lines of a body up to a line starting with one of `stop_words`
    or the end of `lines`; returns the position after the body and a dict of what it gives.

    `directives` names the lines the body takes besides `trans` lines of `width` fields (five
    with a color): `alphabet`, `states`, `initial` and `name` for a raf body, a cocoa level
    or an rlta block; `states`, `name` and `label` for a `floating` block, whose symbols are
    its tracker's `alphabet`.  A fault one line shows is a RafError naming it; whole-body
    checks are the caller's.  The dict holds the value of each `alphabet`, `states` and
    `initial` line; under `name` and `label`, state -> display name or tracker state; under
    `trans`, each distinct (src, symbol index, dst) -> its color, 0 without one, or for a
    floating block each (src, symbol index) -> its one dst.
    """
    got = {"name": {}, "label": {}, "trans": {}}
    moves = got["trans"]
    idx = start
    while idx < len(lines):
        lineno, line = lines[idx]
        parts = line.split()
        word = parts[0]
        if word == "trans":
            idx += 1
            if len(parts) != width:
                raise RafError("trans needs %d fields" % (width - 1), lineno)
            if alphabet is None:
                raise RafError("trans before alphabet", lineno)
            try:
                src = int(parts[1])
                dst = int(parts[3])
                color = int(parts[4]) if width == 5 else 0
            except ValueError:
                raise RafError("bad transition fields %r" % line[5:].strip(), lineno) from None
            sym = alphabet.positions.get(parts[2])
            if sym is None:
                raise RafError("unknown symbol %r" % parts[2], lineno)
            if floating:
                if moves.setdefault((src, sym), dst) != dst:
                    raise RafError("conflicting targets for state %d on %s" % (src, parts[2]),
                                   lineno)
            elif moves.setdefault((src, sym, dst), color) != color:
                raise RafError("conflicting colors for transition %r" % ((src, sym, dst),), lineno)
            continue
        if word in stop_words:
            break
        idx += 1
        rest = line[len(word):].strip()
        if word not in directives:
            raise RafError("unknown directive %r" % word, lineno)
        if word in got and word not in ("name", "label"):
            raise RafError("duplicate %s line" % word, lineno)
        if word == "alphabet":
            got[word] = alphabet = _parse_alphabet(parts[1:], lineno)
        elif word == "states":
            try:
                count = got[word] = int(rest)
            except ValueError:
                raise RafError("bad state count %r" % rest, lineno) from None
            if count < 0:
                raise RafError("negative state count %d" % count, lineno)
            if count > MAX_STATES:
                raise RafError("state count %d above the limit %d" % (count, MAX_STATES), lineno)
        elif word == "initial":
            try:
                got[word] = int(rest)
            except ValueError:
                raise RafError("bad initial state %r" % rest, lineno) from None
        else:
            if word == "name":
                fields = rest.split(None, 1)
                if len(fields) != 2:
                    raise RafError("name needs a state and a quoted display string", lineno)
                try:
                    state = int(fields[0])
                except ValueError:
                    raise RafError("bad state index %r" % fields[0], lineno) from None
                value = fields[1].strip()
                if len(value) < 2 or value[0] != '"' or value[-1] != '"':
                    raise RafError("display name must be double-quoted", lineno)
                value = value[1:-1]
            else:
                if len(parts) != 3:
                    raise RafError("label needs a state and a tracker state", lineno)
                try:
                    state, value = int(parts[1]), int(parts[2])
                except ValueError:
                    raise RafError("bad label fields %r" % rest, lineno) from None
            if state in got[word]:
                raise RafError("duplicate %s for state %d" % (word, state), lineno)
            got[word][state] = value
    return idx, got


def _parse_raf_body(lines, with_colors, start, stop_words=(), cls=AutomatonStructure, label=""):
    """Read an automaton body with `_read_body` and build it as `cls`.

    Returns the automaton and the position after its body.  A SiteError
    names the first line holding its site; an error no single line holds,
    such as a subclass's, is prefixed with `label` instead.
    """
    idx, got = _read_body(lines, start, ("alphabet", "states", "initial", "name"),
                          5 if with_colors else 4, stop_words=stop_words)
    for word, missing in (("alphabet", "alphabet"), ("states", "state count"),
                          ("initial", "initial state")):
        if word not in got:
            raise RafError("missing " + missing)
    body, alphabet = lines[start:idx], got["alphabet"]
    _check_cells(got["states"], alphabet, body)
    try:
        aut = cls(alphabet, got["states"], [key + (c,) for key, c in got["trans"].items()],
                  got["initial"], state_names=got["name"] or None)
    except ValueError as exc:
        lineno = _line_of(body, getattr(exc, "site", ()), alphabet)
        raise RafError((label if lineno is None else "") + str(exc), lineno) from None
    return aut, idx


def equireach_relation(aut):
    """All ordered state pairs jointly reachable under a common input word.

    Computed as reachability in the self-product from (initial, initial); the
    result is reflexive on reachable states and symmetric.
    """
    nsym = len(aut.alphabet)
    succ = aut.successor_states
    return frozenset(reachable([(aut.initial, aut.initial)],
                               lambda pq: [(p2, q2) for a in range(nsym)
                                           for p2 in succ(pq[0], a) for q2 in succ(pq[1], a)]))
