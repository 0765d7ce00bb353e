import contextlib
import io
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rerail
from rerail import build as build_mod
from rerail import cli as cli_mod
from rerail import cobuchi as cobuchi_mod
from rerail import floating as floating_mod
from rerail import raf as raf_mod
from rerail.cli import main
from rerail.cobuchi import parse_chain
from rerail.floating import parse_floating_chain
from rerail.raf import (Alphabet, AutomatonStructure, parse_automaton,
                        serialize_automaton)

import oracles
from conftest import data_path


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


MINIMAL5 = str(data_path("minimal_rerail5.raf"))
CHAIN3 = str(data_path("chain3_uniform.chain"))
FLOCHAIN3 = str(data_path("chain3_uniform.flochain"))


def test_membership_accept(capsys):
    assert run_cli("membership", "-i", MINIMAL5, "--lasso", ";a.d") == 0
    assert capsys.readouterr().out == "accept\n"


def test_membership_reject_prints_witness(capsys):
    assert run_cli("membership", "-i", MINIMAL5, "--lasso", ";d") == 2
    assert capsys.readouterr().out == "reject\n;d\n"


def test_membership_chain_semantics(capsys):
    assert run_cli("membership", "-i", CHAIN3, "--sem", "chain", "--lasso", ";a") == 0
    assert capsys.readouterr().out == "accept\n"
    assert run_cli("membership", "-i", FLOCHAIN3, "--sem", "floating",
                   "--lasso", ";c") == 2


def test_membership_semantics_object_mismatch(capsys):
    assert run_cli("membership", "-i", MINIMAL5, "--sem", "chain",
                   "--lasso", ";a") == 1
    assert "error:" in capsys.readouterr().err


def test_membership_bad_lasso(capsys):
    assert run_cli("membership", "-i", MINIMAL5, "--lasso", ";a.z") == 1
    assert "error:" in capsys.readouterr().err


def test_decompose_then_equiv(tmp_path, capsys):
    out = str(tmp_path / "levels.chain")
    assert run_cli("decompose", "-i", MINIMAL5, "-o", out) == 0
    assert capsys.readouterr().out == "levels: 3\n"
    assert len(parse_chain((tmp_path / "levels.chain").read_text())) == 3
    assert run_cli("equiv", "-a", MINIMAL5, "-b", out, "--sem-b", "chain",
                   "--bound-stem", "2", "--bound-cycle", "2") == 0
    assert capsys.readouterr().out == "equivalent (within bounds)\n"


def test_rlta_command(tmp_path, capsys):
    out = str(tmp_path / "chain.flochain")
    assert run_cli("rlta", "--chain", CHAIN3, "-o", out) == 0
    assert capsys.readouterr().out == "rlta states: 1\n"
    fchain = parse_floating_chain((tmp_path / "chain.flochain").read_text())
    assert len(fchain) == 3


def test_build_min_and_verify(tmp_path, capsys):
    out = str(tmp_path / "min.raf")
    assert run_cli("build-min", "--chain", FLOCHAIN3, "-o", out) == 0
    assert capsys.readouterr().out == ""
    aut = parse_automaton((tmp_path / "min.raf").read_text())
    assert aut.state_count == 5
    assert run_cli("verify", "-i", out, "--bound-stem", "2", "--bound-cycle", "2") == 0
    assert capsys.readouterr().out == "rerailing property holds (stem<=2, cycle<=2)\n"


def _chain3_files(tmp_path):
    return CHAIN3, FLOCHAIN3


def _unnormalized_files(tmp_path):
    """A DPW's chain, and its residualized levels left unminimized, which normalization shrinks."""
    rng = random.Random(111)
    chain = cobuchi_mod.decompose_rerailing(
        oracles.random_dpw(rng, rng.randint(3, 6), 2, rng.randint(1, 4)))
    rlta, _tuples = cobuchi_mod.build_rlta_chain(chain)
    fchain = floating_mod.FloatingChain(
        rlta, [floating_mod.residualize(a, rlta) for a in chain.levels])
    (tmp_path / "in.chain").write_text(cobuchi_mod.serialize_chain(chain))
    (tmp_path / "in.flochain").write_text(floating_mod.serialize_floating_chain(fchain))
    return str(tmp_path / "in.chain"), str(tmp_path / "in.flochain")


@pytest.mark.parametrize("chain_files", [_chain3_files, _unnormalized_files],
                         ids=["chain3", "unnormalized"])
def test_build_min_from_cocoa_matches_floating_route(tmp_path, capsys, chain_files):
    cocoa, flochain = chain_files(tmp_path)
    via_cocoa = tmp_path / "a.raf"
    via_floating = tmp_path / "b.raf"
    assert run_cli("build-min", "--chain", cocoa, "-o", str(via_cocoa)) == 0
    assert run_cli("build-min", "--chain", flochain, "-o", str(via_floating)) == 0
    capsys.readouterr()
    assert via_cocoa.read_text() == via_floating.read_text()
    assert run_cli("equiv", "-a", str(via_cocoa), "-b", str(via_floating),
                   "--bound-stem", "2", "--bound-cycle", "2") == 0


@pytest.mark.parametrize("argv,message", [
    (["minimize", "-i", CHAIN3, "-o"], "%s: expected an automaton file ('raf 1')" % CHAIN3),
    (["rlta", "--chain", MINIMAL5, "-o"], "%s: expected a 'cocoa 1' chain file" % MINIMAL5),
    (["build-min", "--chain", MINIMAL5, "-o"],
     "%s: expected a 'cocoa 1' or 'flochain 1' file" % MINIMAL5),
])
def test_command_refuses_the_wrong_kind_of_file(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, str(out)) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("argv", [["rlta"], ["build-min", "-o", "out.raf"]])
def test_rising_chain_is_an_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv[0], "--chain", data_path("chain3_rising.chain"), *argv[1:]) == 1
    assert capsys.readouterr().err == ("error: chain levels are not weakly falling: level 3 "
                                       "accepts a word that level 1 rejects\n")
    assert not (tmp_path / "out.raf").exists()


def test_equiv_refuses_two_alphabets(capsys):
    assert run_cli("equiv", "-a", MINIMAL5, "-b", str(data_path("hd_cobuchi5.raf"))) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: operands use different alphabets\n")


def test_minimize_idempotent_files(tmp_path, capsys):
    source = AutomatonStructure(Alphabet(("a", "b")), 3,
                                [(0, 0, 1, 2), (0, 1, 0, 1), (1, 0, 2, 2),
                                 (1, 1, 0, 1), (2, 0, 0, 2), (2, 1, 2, 1)], 0)
    raw = str(tmp_path / "in.raf")
    once = str(tmp_path / "once.raf")
    twice = str(tmp_path / "twice.raf")
    (tmp_path / "in.raf").write_text(serialize_automaton(source))
    assert run_cli("minimize", "-i", raw, "-o", once) == 0
    assert run_cli("minimize", "-i", once, "-o", twice) == 0
    capsys.readouterr()

    def structure_lines(path):
        # state names track provenance and differ between runs
        return [line for line in path.read_text().splitlines()
                if not line.startswith("name ")]

    assert structure_lines(tmp_path / "once.raf") == structure_lines(tmp_path / "twice.raf")
    small = parse_automaton((tmp_path / "once.raf").read_text())
    assert small.state_count <= source.state_count


def test_out_of_memory_is_an_error_without_a_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(_aut):
        raise MemoryError()
    monkeypatch.setattr(build_mod, "minimize_rerailing", exhausted)
    assert run_cli("minimize", "-i", MINIMAL5, "-o", str(tmp_path / "out.raf")) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: out of memory\n")
    assert not (tmp_path / "out.raf").exists()


def test_equiv_reports_counterexample(tmp_path, capsys):
    accept = AutomatonStructure(Alphabet(("a",)), 1, [(0, 0, 0, 0)], 0)
    reject = AutomatonStructure(Alphabet(("a",)), 1, [(0, 0, 0, 1)], 0)
    pa = tmp_path / "acc.raf"
    pb = tmp_path / "rej.raf"
    pa.write_text(serialize_automaton(accept))
    pb.write_text(serialize_automaton(reject))
    assert run_cli("equiv", "-a", str(pa), "-b", str(pb),
                   "--bound-stem", "2", "--bound-cycle", "2") == 2
    assert capsys.readouterr().out == "not equivalent\n;a\n"


def test_equiv_rejects_unknown_semantics(capsys):
    assert run_cli("equiv", "-a", CHAIN3, "-b", CHAIN3, "--sem-a", "chian",
                   "--sem-b", "chain") == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'chian'" in err
    assert "needs a" not in err
    assert run_cli("equiv", "-a", CHAIN3, "-b", CHAIN3, "--sem-a", "chain",
                   "--sem-b", "chian") == 1
    assert "invalid choice: 'chian'" in capsys.readouterr().err


def test_verify_reports_violation(tmp_path, capsys):
    bad = AutomatonStructure(Alphabet(("a",)), 3,
                             [(0, 0, 1, 0), (0, 0, 2, 0),
                              (1, 0, 1, 2), (2, 0, 2, 1)], 0)
    path = tmp_path / "bad.raf"
    path.write_text(serialize_automaton(bad))
    assert run_cli("verify", "-i", str(path),
                   "--bound-stem", "1", "--bound-cycle", "1") == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rerailing property violated on 1 lasso(s)"
    assert out[1] == ";a state=2 pos=0 color=1 reason=parity-mismatch"


@pytest.mark.parametrize("stem, cycle, code", [("a", "b", 0), ("b", "a", 2)])
def test_membership_on_a_long_stem(tmp_path, capsys, stem, cycle, code):
    path = tmp_path / "one.raf"
    path.write_text("raf 1\nalphabet a b\nstates 1\ninitial 0\n"
                    "trans 0 a 0 1\ntrans 0 b 0 2\n")
    lasso = ".".join([stem] * 3000) + ";" + cycle
    assert run_cli("membership", "-i", str(path), "--lasso", lasso) == code
    assert capsys.readouterr().out.split("\n")[0] == ("accept" if code == 0 else "reject")


PARITY_DET_GAP = ("raf 1\nalphabet a b\nstates 2\ninitial 0\ntrans 0 a 1 2\n"
                  "trans 1 a 1 2\ntrans 1 b 0 1\n")


def test_membership_parity_det_names_a_missing_transition(tmp_path, capsys):
    path = tmp_path / "gap.raf"
    path.write_text(PARITY_DET_GAP)
    assert run_cli("membership", "-i", str(path), "--sem", "parity-det",
                   "--lasso", ";b") == 1
    assert capsys.readouterr().err == (
        "error: automaton has no transition at state 0 on symbol 'b'\n")


@pytest.mark.parametrize("sem", ["rerailing", "parity-exists", "cobuchi"])
def test_membership_color_semantics_refuse_a_lasso_with_no_run(tmp_path, capsys, sem):
    path = tmp_path / "gap.raf"
    path.write_text("raf 1\nalphabet a b\nstates 1\ninitial 0\ntrans 0 a 0 2\n")
    assert run_cli("membership", "-i", str(path), "--sem", sem, "--lasso", ";b") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no infinite run: automaton incomplete along the lasso\n"


def test_verify_ignores_incomplete_unreachable_states(tmp_path, capsys):
    path = tmp_path / "unreachable.raf"
    path.write_text("raf 1\nalphabet a b\nstates 3\ninitial 0\ntrans 0 a 0 0\n"
                    "trans 0 b 1 1\ntrans 1 a 1 2\ntrans 1 b 0 1\ntrans 2 a 2 0\n")
    assert run_cli("minimize", "-i", str(path), "-o", str(tmp_path / "small.raf")) == 0
    assert run_cli("verify", "-i", str(path)) == 0
    assert capsys.readouterr().out == "rerailing property holds (stem<=4, cycle<=4)\n"


def spec_file(tmp_path, name, accept):
    io_symbols = ("r|g", "r|w", "n|g", "n|w")
    transitions = [(0, x, 0, 2 if accept(sym) else 1)
                   for x, sym in enumerate(io_symbols)]
    spec = AutomatonStructure(Alphabet(io_symbols), 1, transitions, 0)
    path = tmp_path / name
    path.write_text(serialize_automaton(spec))
    return str(path)


def test_realizability_verdicts(tmp_path, capsys):
    grant = spec_file(tmp_path, "grant.raf", lambda s: s.endswith("g"))
    request = spec_file(tmp_path, "request.raf", lambda s: s.startswith("r"))
    assert run_cli("realizability", "-i", grant,
                   "--inputs", "r,n", "--outputs", "g,w") == 0
    assert capsys.readouterr().out == "realizable\n"
    assert run_cli("realizability", "-i", request,
                   "--inputs", "r,n", "--outputs", "g,w") == 2
    assert capsys.readouterr().out == "unrealizable\nvertex=0\n"


def test_realizability_of_a_spec_missing_a_move_is_an_error(tmp_path, capsys):
    spec = AutomatonStructure(Alphabet(("r|g", "n|g")), 1, [(0, 0, 0, 0)], 0)
    path = tmp_path / "partial.raf"
    path.write_text(serialize_automaton(spec))
    assert run_cli("realizability", "-i", str(path), "--inputs", "r,n", "--outputs", "g") == 1
    assert capsys.readouterr().err == "error: input automaton incomplete at [(0, 1)]\n"


def test_realizability_ignores_incomplete_unreachable_states(tmp_path, capsys):
    spec = AutomatonStructure(Alphabet(("i0|o", "i1|o")), 2, [(0, 0, 0, 0), (0, 1, 0, 0)], 0)
    path = tmp_path / "unreachable.raf"
    path.write_text(serialize_automaton(spec))
    assert run_cli("realizability", "-i", str(path), "--dump-game",
                   "--inputs", "i0,i1", "--outputs", "o") == 0
    assert capsys.readouterr().out == (
        'vertex 0 owner 0 color 0 name "0" succ 2\n'
        'vertex 1 owner 0 color 0 name "1" succ 4\n'
        'vertex 2 owner 1 color 0 name "0 / o" succ 3\n'
        'vertex 3 owner 1 color 0 name "{0}:0" succ 0\n'
        'vertex 4 owner 1 color 0 name "1 / o" succ 5\n'
        'vertex 5 owner 0 color 1 name "{}:1" succ 5\n'
        "realizable\n")


def test_realizability_dump_game(tmp_path, capsys):
    grant = spec_file(tmp_path, "grant.raf", lambda s: s.endswith("g"))
    assert run_cli("realizability", "-i", grant, "--dump-game",
                   "--inputs", "r,n", "--outputs", "g,w") == 0
    assert capsys.readouterr().out == (
        'vertex 0 owner 0 color 2 name "0" succ 1 3\n'
        'vertex 1 owner 1 color 2 name "0 / g" succ 2\n'
        'vertex 2 owner 1 color 2 name "{0}:2" succ 0\n'
        'vertex 3 owner 1 color 2 name "0 / w" succ 4\n'
        'vertex 4 owner 0 color 1 name "{0}:1" succ 0\n'
        "realizable\n")


def test_stats_automaton(capsys):
    assert run_cli("stats", "-i", MINIMAL5) == 0
    assert capsys.readouterr().out == (
        "states: 5\n"
        "transitions: 47\n"
        "alphabet: a b c d\n"
        "initial: 0\n"
        "max color: 3\n"
        "colors: 0 1 2 3\n"
        "complete: yes\n"
        "deterministic: no\n"
        "color-homogeneous: yes\n")


def test_stats_chain_and_flochain(capsys):
    assert run_cli("stats", "-i", CHAIN3) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "levels: 3"
    assert out[1] == "level 1 states: 2"
    assert run_cli("stats", "-i", FLOCHAIN3) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rlta states: 1"
    assert out[1] == "levels: 3"


def test_zero_level_chain_round_trip(tmp_path, capsys):
    # All colors 0: a universal language, decomposed into a chain with no levels.
    source = tmp_path / "zero.raf"
    source.write_text("raf 1\nalphabet a b\nstates 1\ninitial 0\n"
                      "trans 0 a 0 0\ntrans 0 b 0 0\n")
    chain = tmp_path / "zero.chain"
    assert run_cli("decompose", "-i", str(source), "-o", str(chain)) == 0
    assert capsys.readouterr().out == "levels: 0\n"
    assert chain.read_text() == "cocoa 1\ncount 0\nalphabet a b\n"
    assert run_cli("stats", "-i", str(chain)) == 0
    assert capsys.readouterr().out == "levels: 0\n"
    assert run_cli("rlta", "--chain", str(chain)) == 0
    assert capsys.readouterr().out == "rlta states: 1\n"
    built = tmp_path / "built.raf"
    assert run_cli("build-min", "--chain", str(chain), "-o", str(built)) == 0
    assert run_cli("equiv", "-a", str(built), "-b", str(source),
                   "--bound-stem", "3", "--bound-cycle", "3") == 0
    assert capsys.readouterr().out == "equivalent (within bounds)\n"


def test_missing_file_is_an_error(tmp_path, capsys):
    assert run_cli("stats", "-i", str(tmp_path / "nope.raf")) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_format_header(tmp_path, capsys):
    path = tmp_path / "odd.txt"
    path.write_text("banana 1\n")
    assert run_cli("stats", "-i", str(path)) == 1
    assert "unrecognized format" in capsys.readouterr().err


def test_oversized_state_count(tmp_path, capsys):
    path = tmp_path / "huge.raf"
    path.write_text("raf 1\nalphabet a b\nstates 100000000000\ninitial 0\n")
    assert run_cli("stats", "-i", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: state count 100000000000 above the limit")
    assert "Traceback" not in err


def test_oversized_floating_block(tmp_path, capsys):
    # 262,144 states over 3 symbols: a block whose co-Buchi reading would
    # hold 786,432 transitions is refused before its labels are read.
    path = tmp_path / "huge.flochain"
    path.write_text("flochain 1\nrlta\nalphabet a b c\nstates 1\ninitial 0\n"
                    "trans 0 a 0\ntrans 0 b 0\ntrans 0 c 0\n"
                    "floating 1\nstates 262144\nlabel 0 0\n")
    assert run_cli("membership", "-i", str(path), "--sem", "floating", "--lasso", ";a") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 10: 262144 states times 3 symbols above the limit")
    assert "Traceback" not in err


def test_argparse_failures(capsys):
    assert run_cli("no-such-command") == 1
    capsys.readouterr()
    assert run_cli("membership", "-i", MINIMAL5) == 1
    capsys.readouterr()
    for command in (("verify", "-i", MINIMAL5), ("equiv", "-a", MINIMAL5, "-b", MINIMAL5)):
        assert run_cli(*command, "--bound-stem", "-1") == 1
        assert "bounds must be >= 0" in capsys.readouterr().err
        assert run_cli(*command, "--bound-cycle", "0") == 1
        assert "bounds must be >= 1" in capsys.readouterr().err


def test_bounds_past_the_lasso_limit_are_refused(capsys):
    # minimal5 has four symbols: stem 10^9 is refused at once, and 5/5 would build
    # 1,365 * 1,364 candidate lassos, above the limit of 2^20.
    for command in (("verify", "-i", MINIMAL5), ("equiv", "-a", MINIMAL5, "-b", MINIMAL5)):
        assert run_cli(*command, "--bound-stem", "1000000000") == 1
        assert capsys.readouterr().err == (
            "error: lasso bounds stem 1000000000, cycle 4 over 4 symbols give over 2^64 "
            "candidate lassos, above the limit of 1048576\n")
        assert run_cli(*command, "--bound-stem", "5", "--bound-cycle", "5") == 1
        assert capsys.readouterr().err == (
            "error: lasso bounds stem 5, cycle 5 over 4 symbols give 1861860 "
            "candidate lassos, above the limit of 1048576\n")


def test_stem_bound_zero(tmp_path, capsys):
    out = str(tmp_path / "min.raf")
    assert run_cli("build-min", "--chain", FLOCHAIN3, "-o", out) == 0
    assert run_cli("verify", "-i", out, "--bound-stem", "0", "--bound-cycle", "2") == 0
    assert capsys.readouterr().out == "rerailing property holds (stem<=0, cycle<=2)\n"
    assert run_cli("equiv", "-a", MINIMAL5, "-b", out,
                   "--bound-stem", "0", "--bound-cycle", "2") == 0
    assert capsys.readouterr().out == "equivalent (within bounds)\n"
    accept = AutomatonStructure(Alphabet(("a",)), 1, [(0, 0, 0, 0)], 0)
    reject = AutomatonStructure(Alphabet(("a",)), 1, [(0, 0, 0, 1)], 0)
    (tmp_path / "acc.raf").write_text(serialize_automaton(accept))
    (tmp_path / "rej.raf").write_text(serialize_automaton(reject))
    assert run_cli("equiv", "-a", str(tmp_path / "acc.raf"), "-b", str(tmp_path / "rej.raf"),
                   "--bound-stem", "0", "--bound-cycle", "1") == 2
    assert capsys.readouterr().out == "not equivalent\n;a\n"


def test_module_entry_point():
    # The child imports the same rerail package as this process, whether
    # that came from PYTHONPATH, an install or pytest's pythonpath setting.
    package_root = os.path.dirname(os.path.dirname(rerail.__file__))
    path = [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "rerail", "membership", "-i", MINIMAL5,
         "--lasso", ";a"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0
    assert proc.stdout == "accept\n"


def test_header_after_comments_is_found(tmp_path, capsys):
    path = tmp_path / "commented.raf"
    path.write_text("# a comment\n\n   # another\nraf 1 # version\nalphabet a\nstates 1\n"
                    "initial 0\ntrans 0 a 0 0\n")
    assert run_cli("stats", "-i", str(path)) == 0
    assert capsys.readouterr().out.startswith("states: 1\n")
    (tmp_path / "blank.raf").write_text("\n# only comments\n\n")
    assert run_cli("stats", "-i", str(tmp_path / "blank.raf")) == 1
    assert "empty input file" in capsys.readouterr().err


@pytest.mark.parametrize("path", [MINIMAL5, CHAIN3, FLOCHAIN3])
def test_load_tokenizes_a_file_once(monkeypatch, path):
    calls = []
    numbered_lines = raf_mod._numbered_lines

    def counting(text):
        calls.append(len(text))
        return numbered_lines(text)

    for module in (cli_mod, raf_mod, cobuchi_mod, floating_mod):
        monkeypatch.setattr(module, "_numbered_lines", counting, raising=False)
    cli_mod._load_any(path)
    assert len(calls) == 1


FUZZ_SEEDS = {"raf": MINIMAL5, "cocoa": CHAIN3, "flochain": FLOCHAIN3}
FUZZ_TOKENS = ["0", "1", "7", "-1", "99999999", "1.5", "٣", "a", "z", "a.b", "#", '"',
               "", "raf", "cocoa", "flochain", "count", "automaton", "floating", "rlta",
               "alphabet", "states", "initial", "name", "label", "trans"]
FUZZ_EDIT = st.tuples(st.sampled_from(["drop", "copy", "swap", "token", "insert", "char"]),
                      st.integers(0, 999), st.integers(0, 999), st.sampled_from(FUZZ_TOKENS))


def _mutate(text, edits):
    """Apply line-level and token-level edits to a text."""
    lines = text.splitlines()
    for (op, i, j, token) in edits:
        if not lines:
            lines = [token]
        i %= len(lines)
        words = lines[i].split(" ")
        if op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(j % (len(lines) + 1), lines[i])
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            words[j % len(words)] = token
            lines[i] = " ".join(words)
        elif op == "insert":
            words.insert(j % (len(words) + 1), token)
            lines[i] = " ".join(words)
        else:
            k = j % (len(lines[i]) + 1)
            lines[i] = lines[i][:k] + token[:1] + lines[i][k + 1:]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(FUZZ_SEEDS)), st.lists(FUZZ_EDIT, min_size=1, max_size=4))
def test_fuzzed_texts_fail_cleanly(fuzz_path, fmt, edits):
    """A mutated text either reads or raises ValueError (RafError among them);
    the CLI then exits 0 or 1, never with a traceback."""
    with open(FUZZ_SEEDS[fmt], encoding="utf-8") as handle:
        text = _mutate(handle.read(), edits)
    parse = {"raf": parse_automaton, "cocoa": parse_chain,
             "flochain": parse_floating_chain}[fmt]
    try:
        parse(text)
    except ValueError:
        pass
    fuzz_path.write_text(text, encoding="utf-8")
    try:
        cli_mod._load_any(str(fuzz_path))
        loaded = True
    except ValueError:
        loaded = False
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli("stats", "-i", str(fuzz_path))
    assert code == (0 if loaded else 1)
    assert "Traceback" not in err.getvalue()
