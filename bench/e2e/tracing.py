"""Span recorder for the traced pass of the end-to-end benchmark.

Spans are recorded from here only — nothing under ``src/`` knows about
them.  The traced pass wraps calls *into* each layer (this repo's
modules) in two ways, both undone when the pass ends:

* **rebinding** of public callables: class attributes
  (``HistogramBuilder.build_rowstore``, ``MicroBatcher.run``, ...) and
  module-level functions in *every* ``repro`` module that imported them
  (``find_best_split`` lives in ``repro.core.split`` but is called
  through ``repro.systems.base``);
* **proxies** on one system object's public strategy attributes
  (``partition``, ``index_plan``, ``aggregation``, ``loss``, ``codec``),
  so the stateless strategy singletons are never touched.

A span is ``[name, layer, phase, start, seconds, parent, op, calls,
tally]``.  Callables invoked tens of thousands of times per operation
(``MergingSketch.*``) *aggregate*: one span per (parent, name)
accumulates seconds and calls instead of one span per call.

Two partitions of an operation's time come out of one span list:

* a **layer**'s busy time is the sum of its spans' *self* time — a
  span's seconds minus the seconds of its child spans;
* a **phase**'s time is the self time of every span whose innermost
  phase-labelled enclosing span (itself included) carries that phase.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

NAME, LAYER, PHASE, START, SECONDS, PARENT, OP, CALLS, TALLY = range(9)


class _Proxy:
    """Stands in for one object: the attributes in ``traced`` replace
    the target's, every other attribute passes through."""

    def __init__(self, target, traced):
        self.__dict__.update(traced)
        self.__dict__["_target"] = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    def __init__(self):
        #: in recording order, so a parent always precedes its children
        self.spans = []
        self.op = 0
        #: rebinding targets that no longer exist in the program
        self.missing = []
        self._stack = []
        self._aggregates = {}
        self._undo = []

    def reset(self):
        """Forget the spans recorded so far (the wrappers stay)."""
        del self.spans[:]
        self._aggregates.clear()

    # -- recording -----------------------------------------------------

    def wrap(self, fn, name, layer, phase=None, aggregate=False,
             tally=None):
        """``fn`` recording one span per call (or per parent when
        ``aggregate``); ``tally(args, result)`` adds a work count."""
        spans, stack, aggregates = self.spans, self._stack, self._aggregates
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = aggregates.get((self.op, parent, name)) \
                if aggregate else None
            if index is None:
                index = len(spans)
                spans.append([name, layer, phase, clock(), 0.0, parent,
                              self.op, 0, 0])
                if aggregate:
                    aggregates[(self.op, parent, name)] = index
            span = spans[index]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[SECONDS] += clock() - start
                span[CALLS] += 1
                stack.pop()
            if tally is not None:
                span[TALLY] += tally(args, result)
            return result

        return traced

    def proxy(self, target, layer, methods):
        """A stand-in for ``target`` whose ``methods`` (name -> phase)
        record spans in ``layer``."""
        owner = type(target).__name__
        return _Proxy(target, {
            method: self.wrap(getattr(target, method),
                              f"{owner}.{method}", layer, phase)
            for method, phase in methods.items()
        })

    # -- rebinding -----------------------------------------------------

    def rebind_attr(self, owner, attr, layer, **options):
        """Replace ``owner.attr`` (a class attribute) until ``uninstall``."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(
            original, f"{owner.__name__}.{attr}", layer, **options))
        self._undo.append((owner, attr, original))

    def rebind_function(self, module, attr, layer, **options):
        """Replace the function ``module.attr`` under that name in every
        loaded ``repro`` module that holds it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        traced = self.wrap(original, attr, layer, **options)
        for name, holder in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(holder, attr, None) is original:
                setattr(holder, attr, traced)
                self._undo.append((holder, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer):
    """Rebind every public callable the layer metrics are defined on."""
    from repro.cluster import comm, transform
    from repro.core import gbdt, split
    from repro.core.histogram import Histogram, HistogramBuilder
    from repro.core.tree import Tree
    from repro.data import dataset
    from repro.serve import scenarios
    from repro.serve.batcher import MicroBatcher
    from repro.serve.compiler import CompiledEnsemble
    from repro.serve.registry import ModelRegistry
    from repro.serve.replica import ReplicaSet
    from repro.serve.sharded import ShardedReplicaSet
    from repro.sketch import proposer
    from repro.sketch.quantile import MergingSketch
    from repro.systems.executor import TrainingSession

    def entries(args, result):
        return result[1]

    def rows(args, result):
        features = args[1]
        return features.shape[0] if hasattr(features, "shape") \
            else features.num_rows

    for attr in ("update", "merge", "query"):
        tracer.rebind_attr(MergingSketch, attr, "sketch", phase="sketch",
                           aggregate=True)
    tracer.rebind_function(proposer, "propose_candidates", "sketch",
                           phase="sketch", aggregate=True)
    tracer.rebind_function(proposer, "propose_candidates_exact", "sketch",
                           aggregate=True)
    tracer.rebind_function(dataset, "apply_cuts", "data.dataset",
                           phase="bin")
    tracer.rebind_function(dataset, "bin_dataset", "data.dataset",
                           phase="bin")
    tracer.rebind_function(transform, "horizontal_to_vertical",
                           "cluster.transform", phase="transform")
    for attr in ("build_rowstore", "build_colstore_layer",
                 "build_colstore_hybrid", "build_colstore_columnwise"):
        tracer.rebind_attr(HistogramBuilder, attr, "core.histogram",
                           tally=entries)
    tracer.rebind_attr(HistogramBuilder, "subtract", "core.histogram")
    tracer.rebind_attr(Histogram, "add_inplace", "core.histogram")
    tracer.rebind_function(split, "find_best_split", "core.split")
    for attr in ("record_collective", "allreduce_histograms",
                 "reduce_scatter_histograms", "ps_push_histograms",
                 "broadcast_bytes", "gather_bytes", "exchange_split_infos"):
        tracer.rebind_function(comm, attr, "cluster.comm")
    for attr in ("__init__", "run", "step"):
        tracer.rebind_attr(TrainingSession, attr, "systems.executor")
    tracer.rebind_function(gbdt, "evaluate", "core.gbdt", phase="eval")
    tracer.rebind_attr(Tree, "predict", "core.gbdt", phase="eval")

    tracer.rebind_function(scenarios, "build_trace", "serve.scenarios")
    tracer.rebind_function(scenarios, "audit_priority_admission",
                           "serve.scenarios")
    tracer.rebind_attr(scenarios.ScenarioRunner, "run", "serve.scenarios")
    tracer.rebind_attr(MicroBatcher, "run", "serve.batcher")
    tracer.rebind_attr(ReplicaSet, "dispatch", "serve.replica")
    tracer.rebind_attr(ShardedReplicaSet, "dispatch", "serve.sharded")
    tracer.rebind_attr(ReplicaSet, "deploy", "serve.registry")
    tracer.rebind_attr(ShardedReplicaSet, "deploy", "serve.registry")
    tracer.rebind_attr(ModelRegistry, "shards", "serve.registry")
    for attr in ("raw_scores", "add_raw_scores"):
        tracer.rebind_attr(CompiledEnsemble, attr, "serve.compiler",
                           tally=rows)


def instrument_system(tracer, system):
    """Put span-recording proxies on one executor's strategy attributes."""
    strategies = "systems.strategies"
    system.partition = tracer.proxy(
        system.partition, strategies, {"compute_stats": "stats"})
    system.index_plan = tracer.proxy(
        system.index_plan, strategies,
        {"build_layer": "histogram", "after_layer": "node-split"})
    system.aggregation = tracer.proxy(
        system.aggregation, strategies,
        {"find_splits": "split-find", "apply_splits": "node-split"})
    system.loss = tracer.proxy(system.loss, "core.loss",
                               {"gradients": "gradient"})
    stack = system.codec
    system.codec = _Proxy(stack, {
        payload: tracer.proxy(getattr(stack, payload), "cluster.codecs",
                              {"encode": None, "decode": None})
        for payload in ("histogram", "placement", "index")
    })


# -- reading the spans -------------------------------------------------

def self_seconds(spans):
    """Per span: its seconds minus the seconds of its child spans."""
    own = [span[SECONDS] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[SECONDS]
    return own


def summarise(spans, num_ops):
    """Per-operation means: layer and span-name self seconds, calls and
    tallies, phase seconds, and the total self time."""
    own = self_seconds(spans)
    layers = defaultdict(lambda: {"busy_s": 0.0, "calls": 0, "tally": 0})
    names = defaultdict(lambda: {"busy_s": 0.0, "calls": 0, "tally": 0})
    phases = defaultdict(float)
    anchor = []   # phase of the innermost labelled enclosing span
    for span, seconds in zip(spans, own):
        phase = span[PHASE]
        if phase is None and span[PARENT] >= 0:
            phase = anchor[span[PARENT]]
        anchor.append(phase)
        if phase is not None:
            phases[phase] += seconds / num_ops
        for table, key in ((layers, span[LAYER]), (names, span[NAME])):
            cell = table[key]
            cell["busy_s"] += seconds / num_ops
            cell["calls"] += span[CALLS] / num_ops
            cell["tally"] += span[TALLY] / num_ops
    return {
        "layers": dict(layers), "names": dict(names),
        "phases": dict(phases),
        "covered_s": sum(own) / num_ops,
        "min_self_s": min(own, default=0.0),
    }


def write_chrome_trace(path, spans, missing, meta):
    """``trace/v1``: the spans as complete events, loadable in
    ``chrome://tracing`` / Perfetto (one track per operation)."""
    origin = min((span[START] for span in spans), default=0.0)
    events = [
        {
            "name": span[NAME], "cat": span[LAYER], "ph": "X",
            "pid": 1, "tid": span[OP],
            "ts": (span[START] - origin) * 1e6,
            "dur": span[SECONDS] * 1e6,
            "args": {"id": index, "parent": span[PARENT],
                     "phase": span[PHASE], "calls": span[CALLS],
                     "tally": span[TALLY]},
        }
        for index, span in enumerate(spans)
    ]
    with open(path, "w") as out:
        json.dump({"schema": "trace/v1", "meta": meta,
                   "missing": missing, "displayTimeUnit": "ms",
                   "traceEvents": events}, out)
