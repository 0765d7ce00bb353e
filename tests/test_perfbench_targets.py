"""The benchmark tracer's hooks name functions and classes that exist, and its
counter hooks read results that have the attributes they expect.

perfbench/tracer.py wraps library calls by module and attribute name, and a
missing name or a changed result attribute breaks only the benchmark run.
These tests load the tracer by path, resolve every TARGETS entry in rerail,
and run each traced layer once under an installed tracer.
"""

import importlib
import importlib.util
import os
import random

import oracles
from conftest import load_text
from rerail import build, lasso, raf, synthesis
from rerail.raf import Alphabet, AutomatonStructure
from rerail.synthesis import IoAlphabet

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for (metric, module_name, attribute, method, _hook) in targets:
        assert module_name.startswith("rerail."), metric
        module = importlib.import_module(module_name)
        assert hasattr(module, attribute), "%s: %s.%s" % (metric, module_name, attribute)
        if method is not None:
            owner = getattr(module, attribute)
            assert method in vars(owner), "%s: %s.%s.%s" % (metric, module_name, attribute,
                                                           method)


def test_counter_hooks_read_the_results_of_every_layer():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        nondeterministic = raf.parse_automaton(load_text("minimal_rerail5.raf"))
        build.minimize_rerailing(oracles.random_dpw(random.Random(0), 4, 2, 3))
        build.minimize_rerailing(nondeterministic)
        # the hand-drawn variant fails the property on short lassos
        assert build.verify_rerailing_bounded(nondeterministic, 1, 2)
        io = IoAlphabet(Alphabet(("r", "n")), Alphabet(("g", "w")))
        grant = AutomatonStructure(io.combined, 1,
                                   [(0, x, 0, 2 - x % 2) for x in range(4)], 0)
        assert synthesis.realizability(grant, io)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert {name for name, value in tracer.counters.items() if value <= 0} == set()


def test_parity_det_sweeps_record_member_calls():
    """The memoized parity-det binder still calls the traced member_parity_det."""
    tracer = load_tracer().Tracer()
    dpw = oracles.random_dpw(random.Random(1), 4, 2, 3)
    tracer.install()
    try:
        assert lasso.bounded_equivalence(dpw, "rerailing", dpw, "parity-det", 3, 3) is None
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    calls = tracer.stats["lasso.member"][0]
    assert 0 < calls < sum(1 for _w in lasso.enumerate_lassos(2, 3, 3))
