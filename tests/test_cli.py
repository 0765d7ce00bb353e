import os
import subprocess
import sys

import pytest

import rerail
from rerail.cli import main
from rerail.cobuchi import parse_chain
from rerail.floating import parse_floating_chain
from rerail.raf import (Alphabet, AutomatonStructure, parse_automaton,
                        serialize_automaton)

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


def test_build_min_from_cocoa_matches_floating_route(tmp_path, capsys):
    via_cocoa = str(tmp_path / "a.raf")
    via_floating = str(tmp_path / "b.raf")
    assert run_cli("build-min", "--chain", CHAIN3, "-o", via_cocoa) == 0
    assert run_cli("build-min", "--chain", FLOCHAIN3, "-o", via_floating) == 0
    capsys.readouterr()
    assert run_cli("equiv", "-a", via_cocoa, "-b", via_floating,
                   "--bound-stem", "2", "--bound-cycle", "2") == 0


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
