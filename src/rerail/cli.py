"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 2 for a checked negative
verdict (counterexample found, property violated, unrealizable), 1 for
errors.  Negative verdicts print a machine-readable witness on the last
output line.  All outputs are deterministic.
"""

from __future__ import annotations

import argparse
import sys

from . import build as build_mod
from . import cobuchi, floating, synthesis
from .games import solve
from .lasso import (SEMANTICS, bounded_equivalence, format_lasso, membership_function,
                    parse_lasso)
from .raf import (Alphabet, AutomatonStructure, RafError, _numbered_lines, _read_automaton,
                  serialize_automaton, validate_complete)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(1)


def _at_least(least):
    def bound(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError("bounds must be >= %d" % least)
        return value
    return bound


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_any(path):
    """The object in a file, read by the reader its first non-comment line names."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = _numbered_lines(handle.read())
    if not lines:
        raise RafError("empty input file %s" % path)
    reader = {"raf": _read_automaton, "cocoa": cobuchi._read_chain,
              "flochain": floating._read_floating_chain}.get(lines[0][1].split()[0])
    if reader is None:
        raise RafError("unrecognized format header %r in %s" % (lines[0][1], path))
    return reader(lines)


def _load_automaton(path):
    obj = _load_any(path)
    if not isinstance(obj, AutomatonStructure):
        raise ValueError("%s: expected an automaton file ('raf 1')" % path)
    return obj


def cmd_membership(args):
    obj = _load_any(args.input)
    member = membership_function(obj, args.sem)
    word = parse_lasso(args.lasso, obj.alphabet)
    if member(word):
        print("accept")
        return 0
    print("reject")
    print(format_lasso(word, obj.alphabet))
    return 2


def cmd_decompose(args):
    aut = _load_automaton(args.input)
    chain = cobuchi.decompose_rerailing(aut)
    _write_text(args.output, cobuchi.serialize_chain(chain))
    print("levels: %d" % len(chain))
    return 0


def cmd_rlta(args):
    obj = _load_any(args.chain)
    if not isinstance(obj, cobuchi.Chain):
        raise ValueError("%s: expected a 'cocoa 1' chain file" % args.chain)
    fchain = floating.residualize_chain(obj)
    print("rlta states: %d" % fchain.rlta.state_count)
    if args.output:
        _write_text(args.output, floating.serialize_floating_chain(fchain))
    return 0


def cmd_build_min(args):
    obj = _load_any(args.chain)
    if isinstance(obj, cobuchi.Chain):
        obj = floating.residualize_chain(obj)
    elif isinstance(obj, floating.FloatingChain):
        # a flochain file need not hold the normalized levels build_minimal relies on
        obj = floating.FloatingChain(obj.rlta, map(floating.minimize_floating, obj.levels))
    else:
        raise ValueError("%s: expected a 'cocoa 1' or 'flochain 1' file" % args.chain)
    aut = build_mod.build_minimal(obj)
    _write_text(args.output, serialize_automaton(aut))
    return 0


def cmd_minimize(args):
    aut = _load_automaton(args.input)
    result = build_mod.minimize_rerailing(aut)
    _write_text(args.output, serialize_automaton(result))
    return 0


def cmd_equiv(args):
    a = _load_any(args.a)
    b = _load_any(args.b)
    witness = bounded_equivalence(a, args.sem_a, b, args.sem_b,
                                  args.bound_stem, args.bound_cycle)
    if witness is None:
        print("equivalent (within bounds)")
        return 0
    print("not equivalent")
    print(format_lasso(witness, a.alphabet))
    return 2


def cmd_verify(args):
    aut = _load_automaton(args.input)
    failures = build_mod.verify_rerailing_bounded(aut, args.bound_stem, args.bound_cycle)
    if not failures:
        print("rerailing property holds (stem<=%d, cycle<=%d)"
              % (args.bound_stem, args.bound_cycle))
        return 0
    first = failures[0]
    ((state, pos), color, reason) = first.violations[0]
    print("rerailing property violated on %d lasso(s)" % len(failures))
    print("%s state=%d pos=%d color=%d reason=%s"
          % (format_lasso(first.lasso, aut.alphabet), state, pos, color, reason))
    return 2


def cmd_realizability(args):
    aut = _load_automaton(args.input)
    io = synthesis.IoAlphabet(Alphabet(tuple(args.inputs.split(","))),
                              Alphabet(tuple(args.outputs.split(","))))
    arena = synthesis.build_realizability_game(aut, io)
    if args.dump_game:
        print(arena.dump_table(), end="")
    w0, _w1 = solve(arena)
    if arena.initial in w0:
        print("realizable")
        return 0
    print("unrealizable")
    print("vertex=%d" % arena.initial)
    return 2


def _automaton_stats(aut, heading=None):
    prefix = "" if heading is None else heading + " "
    print("%sstates: %d" % (prefix, aut.state_count))
    count = sum(len(cell) for row in aut._succ for cell in row)
    print("%stransitions: %d" % (prefix, count))
    if heading is None:
        print("alphabet: %s" % " ".join(aut.alphabet.symbols))
        print("initial: %d" % aut.initial)
        print("max color: %d" % aut.max_color)
        print("colors: %s" % " ".join(str(c) for c in aut.colors))
        complete = not validate_complete(aut)
        # complete, so one transition per (state, symbol) exactly when deterministic
        deterministic = complete and count == aut.state_count * len(aut.alphabet)
        print("complete: %s" % ("yes" if complete else "no"))
        print("deterministic: %s" % ("yes" if deterministic else "no"))
        print("color-homogeneous: %s"
              % ("yes" if build_mod.check_color_homogeneous(aut) else "no"))


def cmd_stats(args):
    obj = _load_any(args.input)
    if isinstance(obj, AutomatonStructure):
        _automaton_stats(obj)
    elif isinstance(obj, cobuchi.Chain):
        print("levels: %d" % len(obj))
        for i, level in enumerate(obj.levels, start=1):
            _automaton_stats(level, heading="level %d" % i)
    else:
        print("rlta states: %d" % obj.rlta.state_count)
        print("levels: %d" % len(obj))
        for i, level in enumerate(obj.levels, start=1):
            print("level %d states: %d" % (i, level.state_count))
            print("level %d transitions: %d" % (i, len(level.delta)))
    return 0


def _build_parser():
    parser = _Parser(prog="rerail",
                     description="Rerailing automata: membership, decomposition, "
                                 "minimization, verification and realizability.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("membership", help="decide lasso membership under a semantics")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--sem", default="rerailing", choices=SEMANTICS)
    p.add_argument("--lasso", required=True,
                   help="word as 'stem;cycle' with '.'-separated symbols, e.g. ';a.d'")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("decompose", help="split a rerailing automaton into co-Buchi levels")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rlta", help="build the residual tracker and floating chain")
    p.add_argument("--chain", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_rlta)

    p = sub.add_parser("build-min", help="build the minimal rerailing automaton of a chain")
    p.add_argument("--chain", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build_min)

    p = sub.add_parser("minimize", help="minimize a rerailing automaton end to end")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("equiv", help="compare two objects on all bounded lassos")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--sem-a", default="rerailing", choices=SEMANTICS)
    p.add_argument("--sem-b", default="rerailing", choices=SEMANTICS)
    p.add_argument("--bound-stem", type=_at_least(0), default=4)
    p.add_argument("--bound-cycle", type=_at_least(1), default=4)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("verify", help="check the rerailing property on bounded lassos")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--bound-stem", type=_at_least(0), default=4)
    p.add_argument("--bound-cycle", type=_at_least(1), default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("realizability", help="decide realizability of a specification")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--inputs", required=True, help="comma-separated input letters")
    p.add_argument("--outputs", required=True, help="comma-separated output letters")
    p.add_argument("--dump-game", action="store_true")
    p.set_defaults(func=cmd_realizability)

    p = sub.add_parser("stats", help="print structural statistics of any input file")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except SystemExit:
        raise
    except (RafError, ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
