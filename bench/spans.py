"""Spans around calls into seqdec's public functions, from outside.

``Tracer.install`` replaces each listed function by a wrapper wherever a
seqdec module holds it: the defining module, every module that imported
it by name, and module-level tables such as ``analysis.CHECKERS``.  Calls
inside seqdec, such as ``decidedness`` inside ``minimize``, are therefore
spanned too.  ``uninstall`` puts the originals back.

A span records its name, start, end, parent span and operation id.  Spans
are kept in memory, in flat integer arrays, and written out when the run
ends.  A layer's self time is its spans' durations minus their children's;
``cli.self_ms`` is what is left of the operation after every other span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# span name -> (module, function) pairs it covers
SPANS = {
    "heuristics.compile": [
        ("heuristics", "compile_rule"),
        ("heuristics", "csr_compile"),
        ("heuristics", "osr_compile"),
        ("heuristics", "config_compile"),
        ("heuristics", "segment_tree_automaton"),
    ],
    "heuristics.evaluate": [
        ("heuristics", "csr_evaluate"),
        ("heuristics", "osr_evaluate"),
        ("heuristics", "config_evaluate"),
    ],
    "automaton.evaluate": [("automaton", "evaluate")],
    "automaton.decidedness": [("automaton", "decidedness")],
    "automaton.minimize": [("automaton", "minimize")],
    "automaton.verify_stopping": [("automaton", "verify_stopping")],
    "analysis.stopping_time": [("analysis", "stopping_time")],
    "analysis.uniform_bound": [("analysis", "uniform_bound_search")],
    "analysis.decisive_set": [("analysis", "decisive_set")],
    "analysis.check_monotonicity": [("analysis", "check_monotonicity")],
    "analysis.check_informational_dominance": [("analysis", "check_informational_dominance")],
    "analysis.check_replacement": [("analysis", "check_replacement")],
    "analysis.check_sequential_alpha": [("analysis", "check_sequential_alpha")],
    "analysis.check_sequential_nbc": [("analysis", "check_snbc")],
    "analysis.check_neutrality": [("analysis", "check_neutrality")],
    "analysis.check_acyclicity": [("analysis", "check_acyclicity")],
    "analysis.identify": [("analysis", "identify_csr"), ("analysis", "identify_osr")],
    "analysis.agreement": [("analysis", "agreement_count")],
    "machines.load": [("machines", "from_json_dict")],
    "machines.tm_run": [("machines", "tm_run")],
}

CHECKER_SPANS = [name for name in SPANS if name.startswith("analysis.check_")]

# (module, function) -> (counter name, how to count one call's result)
COUNTERS = {
    ("heuristics", "csr_compile"): ("heuristics.states_built", lambda r: len(r.states)),
    ("heuristics", "osr_compile"): ("heuristics.states_built", lambda r: len(r.states)),
    # config_compile returns this function's automaton, so it is counted once
    ("heuristics", "segment_tree_automaton"): ("heuristics.states_built", lambda r: len(r.states)),
    ("analysis", "agreement_count"): ("analysis.agreement_checked", int),
    ("machines", "tm_run"): ("machines.tm_steps", lambda r: r.steps),
    **{
        ("analysis", SPANS[span][0][1]): (span + "_checked", lambda r: r.checked)
        for span in CHECKER_SPANS
    },
}

OP_SPAN = "op"

# every per-layer metric with its unit, in report order: "_ms" is self time
# of the span of that name, "_calls" its number of spans, the rest counters
PER_LAYER = [
    ("cli.self_ms", "ms"),
    ("heuristics.compile_ms", "ms"),
    ("heuristics.states_built", "count"),
    ("heuristics.evaluate_ms", "ms"),
    ("automaton.evaluate_ms", "ms"),
    ("automaton.evaluate_calls", "count"),
    ("automaton.decidedness_ms", "ms"),
    ("automaton.minimize_ms", "ms"),
    ("automaton.verify_stopping_ms", "ms"),
    ("analysis.stopping_time_ms", "ms"),
    ("analysis.uniform_bound_ms", "ms"),
    ("analysis.decisive_set_ms", "ms"),
    *[(span + suffix, unit) for span in CHECKER_SPANS for suffix, unit in (("_ms", "ms"), ("_checked", "count"))],
    ("analysis.identify_ms", "ms"),
    ("analysis.agreement_ms", "ms"),
    ("analysis.agreement_checked", "count"),
    ("machines.load_ms", "ms"),
    ("machines.tm_run_ms", "ms"),
    ("machines.tm_run_calls", "count"),
    ("machines.tm_steps", "count"),
]


class Tracer:
    def __init__(self):
        self.span_names = [OP_SPAN] + list(SPANS)
        self.name_id = {n: i for i, n in enumerate(self.span_names)}
        self.names = array("i")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.starts.append(0)
        self.ends.append(0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: int, end: int) -> None:
        self.stack.pop()
        self.starts[idx] = start
        self.ends[idx] = end

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self._open(0)

    def end_op(self, idx: int, start: int, end: int) -> None:
        self._close(idx, start, end)

    def _wrap(self, fn, span: str, counter):
        tracer = self
        name_id = self.name_id[span]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, clock())
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    # -- installing

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "seqdec"]
        for span, targets in SPANS.items():
            for mod_name, fn_name in targets:
                home = sys.modules.get(f"seqdec.{mod_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    self.absent.append(f"seqdec.{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(original, span, COUNTERS.get((mod_name, fn_name)))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._restore.append((value, key, original))
                                    value[key] = wrapper

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    # -- reporting

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name over every recorded span."""
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        total: dict[str, int] = defaultdict(int)
        for i in range(n):
            total[self.span_names[self.names[i]]] += self.ends[i] - self.starts[i] - child[i]
        return total

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for i in self.names:
            counts[self.span_names[i]] += 1
        return counts

    def metrics(self, traced_ops: int) -> dict[str, float]:
        """Every per-layer metric, as a mean per traced operation."""
        self_ns = self.self_times_ns()
        calls = self.call_counts()
        values = {}
        for name, _ in PER_LAYER:
            if name == "cli.self_ms":
                total = self_ns.get(OP_SPAN, 0) / 1e6
            elif name.endswith("_ms"):
                total = self_ns.get(name[: -len("_ms")], 0) / 1e6
            elif name.endswith("_calls"):
                total = calls.get(name[: -len("_calls")], 0)
            else:
                total = self.counts.get(name, 0)
            values[name] = total / traced_ops
        return values

    def layer_shares(self) -> dict[str, float]:
        """Share of all traced operation time spent in each layer's self time."""
        self_ns = self.self_times_ns()
        whole = sum(self_ns.values()) or 1
        layers: dict[str, int] = defaultdict(int)
        for span, ns in self_ns.items():
            layers["cli" if span == OP_SPAN else span.split(".")[0]] += ns
        return {layer: ns / whole for layer, ns in sorted(layers.items())}

    def write_spans(self, path: str) -> None:
        """One line per span: op, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.span_names
            for i in range(len(self.names)):
                fh.write(
                    f"{self.ops[i]}\t{i}\t{self.parents[i]}\t{names[self.names[i]]}\t"
                    f"{self.starts[i]}\t{self.ends[i]}\n"
                )
