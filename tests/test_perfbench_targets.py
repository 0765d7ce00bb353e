"""The benchmark tracer's hooks name functions and classes that exist.

perfbench/tracer.py wraps library calls by module and attribute name, and a
missing name breaks only the benchmark run.  This test loads the tracer by
path, without installing it, and resolves every TARGETS entry in rerail.
"""

import importlib
import importlib.util
import os

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
