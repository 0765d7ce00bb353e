"""Spans and counters around the library's public calls, installed from outside.

`Tracer.install()` replaces each traced function at every module binding in
the `rerail` package (the library imports names directly, so
`cobuchi.solve` and `synthesis.solve` are separate bindings of
`games.solve`) and wraps `__init__` of the traced classes.  `uninstall()`
puts the originals back.

Every wrapped call is a span with a parent; a span's self time is its
duration minus the durations of its direct child spans.  Calls made once per
lasso or per SCC decomposition are frequent, so they only add to per-name
timers and counters; the other spans are also kept as records, up to
SPAN_LIMIT of them, and can be written out with `write_spans`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric prefix, module, attribute, class attribute or None, counter hook)
TARGETS = [
    ("raf.parse_automaton", "rerail.raf", "parse_automaton", None, "parsed"),
    ("raf.serialize_automaton", "rerail.raf", "serialize_automaton", None, None),
    ("scc.scc_decomposition", "rerail.scc", "scc_decomposition", None, None),
    ("lasso.LassoProduct", "rerail.lasso", "LassoProduct", "__init__", "product"),
    ("lasso.analysis", "rerail.lasso", "_ProductAnalysis", "__init__", None),
    ("lasso.member", "rerail.lasso", "member_rerailing", None, None),
    ("lasso.member", "rerail.lasso", "member_parity_exists", None, None),
    ("lasso.member", "rerail.lasso", "member_parity_det", None, None),
    ("lasso.member", "rerail.lasso", "member_cobuchi", None, None),
    ("lasso.bounded_equivalence", "rerail.lasso", "bounded_equivalence", None, None),
    ("lasso.enumerate_lassos", "rerail.lasso", "enumerate_lassos", None, "lassos"),
    ("games.solve", "rerail.games", "solve", None, "solve"),
    ("games.GameArena", "rerail.games", "GameArena", "__init__", "arena"),
    ("cobuchi.decompose_rerailing", "rerail.cobuchi", "decompose_rerailing", None, None),
    ("cobuchi.residual_tracking_single", "rerail.cobuchi", "residual_tracking_single",
     None, None),
    ("cobuchi.compute_Rij", "rerail.cobuchi", "compute_Rij", None, "rij"),
    ("cobuchi.build_rlta_chain", "rerail.cobuchi", "build_rlta_chain", None, "rlta"),
    ("cobuchi.parse_chain", "rerail.cobuchi", "parse_chain", None, None),
    ("floating.residualize", "rerail.floating", "residualize", None, "level"),
    ("floating.residualize_chain", "rerail.floating", "residualize_chain", None, None),
    ("floating.minimize_floating", "rerail.floating", "minimize_floating", None, None),
    ("build.build_minimal", "rerail.build", "build_minimal", None, "output"),
    ("build.minimize_rerailing", "rerail.build", "minimize_rerailing", None, None),
    ("build.verify_rerailing_bounded", "rerail.build", "verify_rerailing_bounded",
     None, "violations"),
    ("synthesis.build_realizability_game", "rerail.synthesis",
     "build_realizability_game", None, "synthesis"),
    ("synthesis.realizability", "rerail.synthesis", "realizability", None, None),
]

SPAN_LIMIT = 200_000

# Boundaries crossed once per lasso or per SCC decomposition: timers only.
AGGREGATE_ONLY = frozenset({"lasso.LassoProduct", "lasso.analysis", "lasso.member",
                            "scc.scc_decomposition"})


def _count_lassos(tracer, iterator):
    for word in iterator:
        tracer.counters["lasso.lassos"] += 1
        yield word


def _hook(kind, tracer, args, result):
    """Add the counters of one finished call; returns the (possibly wrapped) result."""
    c = tracer.counters
    if kind == "parsed":
        c["raf.transitions_parsed"] += len(result.transitions)
    elif kind == "product":
        c["lasso.product_nodes"] += len(args[0].adjacency)
    elif kind == "lassos":
        return _count_lassos(tracer, result)
    elif kind == "solve":
        c["games.solve.vertices"] += args[0].vertex_count
    elif kind == "arena":
        if tracer.stack and tracer.stack[-1][1] == "cobuchi.compute_Rij":
            c["cobuchi.rij_arena_vertices"] += args[0].vertex_count
    elif kind == "rij":
        c["cobuchi.rij_tuples"] += len(result.tuples)
    elif kind == "rlta":
        c["cobuchi.rlta_states"] += result[0].state_count
    elif kind == "level":
        c["floating.level_states"] += result.state_count
    elif kind == "output":
        c["build.output_states"] += result.state_count
    elif kind == "violations":
        c["build.violations"] += sum(len(v.violations) for v in result)
    elif kind == "synthesis":
        c["synthesis.arena_vertices"] += result.vertex_count
    return result


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [id, name, start, child seconds]
        self.stats = {}          # name -> [calls, inclusive seconds, self seconds]
        self.counters = dict.fromkeys(
            ["raf.transitions_parsed", "lasso.product_nodes", "lasso.lassos",
             "games.solve.vertices", "cobuchi.rij_arena_vertices", "cobuchi.rij_tuples",
             "cobuchi.rlta_states", "floating.level_states", "build.output_states",
             "build.violations", "synthesis.arena_vertices"], 0)
        self.spans = []          # (id, parent id, name, start, end)
        self.dropped_spans = 0
        self.missing = []        # targets absent from the library
        self._next_id = 1
        self._saved = []

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Run fn(*args, **kwargs) as one span named `name`."""
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(frame)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - frame[2]
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[3]
            if parent is not None:
                parent[3] += duration
            if name not in AGGREGATE_ONLY:
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((frame[0], parent[0] if parent else 0, name,
                                       frame[2], end))
                else:
                    self.dropped_spans += 1
        if hook is not None:
            result = _hook(hook, self, args, result)
        return result

    def _wrapper(self, name, original, hook):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, hook)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def install(self):
        """Patch every binding of each target in the loaded `rerail` modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rerail" or key.startswith("rerail.")]
        for (name, module_name, attr, method, hook) in TARGETS:
            owner = getattr(sys.modules.get(module_name), attr, None)
            if owner is None or (method is not None and not hasattr(owner, method)):
                self.missing.append(name)
                continue
            if method is not None:
                original = owner.__dict__[method]
                self._saved.append((owner, method, original))
                setattr(owner, method, self._wrapper(name, original, hook))
                continue
            wrapper = self._wrapper(name, owner, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is owner:
                        self._saved.append((module, key, owner))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for (owner, key, original) in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for (span_id, parent, name, start, end) in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, passes):
    """Per-layer metrics, each divided by the number of traced passes.

    `<name>.s` is self time in seconds, `<name>.calls` a call count, and the
    remaining names are counters; every value is per pass over the batch.
    """
    def stat(name, field):
        return tracer.stats.get(name, [0, 0.0, 0.0])[field]

    def self_s(name):
        return stat(name, 2)

    c = tracer.counters
    sweep_s = stat("build.verify_rerailing_bounded", 1) + stat("lasso.bounded_equivalence", 1)
    totals = {
        "cobuchi.compute_Rij.s": (self_s("cobuchi.compute_Rij"), "s"),
        "cobuchi.compute_Rij.calls": (stat("cobuchi.compute_Rij", 0), "count"),
        "cobuchi.rij_arena_vertices": (c["cobuchi.rij_arena_vertices"], "count"),
        "cobuchi.rij_tuples": (c["cobuchi.rij_tuples"], "count"),
        "cobuchi.build_rlta_chain.s": (self_s("cobuchi.build_rlta_chain"), "s"),
        "cobuchi.rlta_states": (c["cobuchi.rlta_states"], "count"),
        "cobuchi.residual_tracking_single.s": (self_s("cobuchi.residual_tracking_single"), "s"),
        "cobuchi.decompose_rerailing.s": (self_s("cobuchi.decompose_rerailing"), "s"),
        "cobuchi.parse_chain.s": (self_s("cobuchi.parse_chain"), "s"),
        "games.solve.s": (self_s("games.solve"), "s"),
        "games.solve.calls": (stat("games.solve", 0), "count"),
        "games.solve.vertices": (c["games.solve.vertices"], "count"),
        "games.GameArena.s": (self_s("games.GameArena"), "s"),
        "floating.residualize.s": (self_s("floating.residualize"), "s"),
        "floating.minimize_floating.s": (self_s("floating.minimize_floating"), "s"),
        "floating.level_states": (c["floating.level_states"], "count"),
        "build.build_minimal.s": (self_s("build.build_minimal"), "s"),
        "build.output_states": (c["build.output_states"], "count"),
        "lasso.LassoProduct.s": (self_s("lasso.LassoProduct"), "s"),
        "lasso.LassoProduct.calls": (stat("lasso.LassoProduct", 0), "count"),
        "lasso.product_nodes": (c["lasso.product_nodes"], "count"),
        "lasso.analysis.s": (self_s("lasso.analysis"), "s"),
        "lasso.member.s": (self_s("lasso.member"), "s"),
        "lasso.member.calls": (stat("lasso.member", 0), "count"),
        "lasso.bounded_equivalence.s": (self_s("lasso.bounded_equivalence"), "s"),
        "lasso.enumerate_lassos.s": (self_s("lasso.enumerate_lassos"), "s"),
        "lasso.lassos": (c["lasso.lassos"], "count"),
        "scc.scc_decomposition.s": (self_s("scc.scc_decomposition"), "s"),
        "scc.scc_decomposition.calls": (stat("scc.scc_decomposition", 0), "count"),
        "build.verify_rerailing_bounded.s": (self_s("build.verify_rerailing_bounded"), "s"),
        "build.violations": (c["build.violations"], "count"),
        "synthesis.build_realizability_game.s":
            (self_s("synthesis.build_realizability_game"), "s"),
        "synthesis.arena_vertices": (c["synthesis.arena_vertices"], "count"),
        "raf.parse_automaton.s": (self_s("raf.parse_automaton"), "s"),
        "raf.serialize_automaton.s": (self_s("raf.serialize_automaton"), "s"),
        "raf.transitions_parsed": (c["raf.transitions_parsed"], "count"),
    }
    metrics = {name: {"value": value / passes, "unit": unit}
               for name, (value, unit) in totals.items()}
    rates = {
        "games.solve.vertices_per_s": (c["games.solve.vertices"], stat("games.solve", 1)),
        "lasso.lassos_per_s": (c["lasso.lassos"], sweep_s),
        "raf.transitions_per_s": (c["raf.transitions_parsed"], stat("raf.parse_automaton", 1)),
    }
    for name, (num, den) in rates.items():
        metrics[name] = {"value": _ratio(num, den), "unit": "1/s"}
    return metrics
