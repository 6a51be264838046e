"""Per-layer tracing from outside the program.

The tracer replaces public homlab functions by timing wrappers in every
homlab module namespace that binds them (a module that did
``from .containers import count_independent_sets_exact`` holds its own
binding, which is wrapped too).  Each call records a span
``(id, name, start, end, parent, thread)`` in memory; counters are kept
beside the spans.  Nothing inside homlab changes.

A CLI call of a traced round runs under its own tracer in its own process
(see probe.py) and writes its spans to a file; merge() adds them here.
"""

from __future__ import annotations

import itertools
import resource
import sys
import threading
import time
from collections import defaultdict


def _graph_or_hyper(args, kwargs):
    from homlab.graphs import Graph

    return "graph" if isinstance(args[0], Graph) else "hypergraph"


def _precondition_variant(args, kwargs):
    from homlab.graphs import Graph

    variant = kwargs.get("variant", args[3] if len(args) > 3 else None)
    if variant is None:
        variant = "graph" if isinstance(args[0], Graph) else "uniform"
    return variant


def _reconstruct_variant(args, kwargs):
    from homlab.graphs import Graph

    return "r2" if isinstance(args[0], Graph) else f"r{args[0].r}"


def _count_segments(tracer, result, args, kwargs):
    tracer.counters["containers.segments"] += len(result.segments)


def _count_copies(tracer, result, args, kwargs):
    tracer.counters["graphs.count_induced_p4.copies"] += len(result[2])


def _count_dp_states(tracer, result, args, kwargs):
    tracer.counters["tournaments.dp_states"] += 1 << args[0].n


def _count_premise(tracer, result, args, kwargs):
    tracer.counters["homogeneous.premise.attempts"] += 1
    tracer.counters["homogeneous.premise.ok"] += int(result.premise_ok)


def _count_qualifying(tracer, result, args, kwargs):
    config = args[0]
    if config.kind != "hypergraph-container-sample":
        return
    import workloads

    tracer.counters["experiments.qualifying.attempts"] += len(workloads.hyper_attempts(config))
    tracer.counters["experiments.qualifying.rows"] += sum(
        1 for row in result if not row.verdict.startswith("error")
    )


# (module, qualified name, variant function, counter function).  Names are
# looked up in the defining module; "Graph.from_edges" is a classmethod.
TRACED = [
    ("containers", "verify_degree_precondition", _precondition_variant, None),
    ("containers", "count_independent_sets_exact", _graph_or_hyper, None),
    ("containers", "kw_fingerprint", None, _count_segments),
    ("containers", "scythe_fingerprint", None, _count_segments),
    ("containers", "reconstruct_segments", _reconstruct_variant, None),
    ("experiments", "exhaustive_graph_container_check", None, None),
    ("experiments", "spot_check_vectorized", None, None),
    ("experiments", "run_experiment", None, _count_qualifying),
    ("experiments", "emit_report", None, None),
    ("generators", "gnp", None, None),
    ("generators", "random_uniform_hypergraph", None, None),
    ("generators", "random_independent_set", None, None),
    ("generators", "overlay_construction", None, None),
    ("generators", "random_cograph", None, None),
    ("generators", "perturb_edges", None, None),
    ("generators", "random_tournament", None, None),
    ("graphs", "Graph.from_edges", None, None),
    ("graphs", "count_induced_p4", None, _count_copies),
    ("graphs", "read_graph", None, None),
    ("graphs", "write_graph", None, None),
    ("homogeneous", "hom_exact", None, None),
    ("homogeneous", "max_clique", None, None),
    ("homogeneous", "count_homogeneous_k", None, None),
    ("homogeneous", "check_tk_property", None, None),
    ("homogeneous", "verify_count_lower_bound", None, _count_premise),
    ("tournaments", "dist_to_transitive_exact", None, _count_dp_states),
    ("tournaments", "dist_to_transitive_bruteforce", None, None),
    ("tournaments", "cyclic_triangle_count", None, None),
    ("tournaments", "count_transitive_subtournaments", None, None),
    ("params", "compute_params", None, None),
    ("params", "verify_inequality_chain", None, None),
]

VARIANTS = {
    "containers.verify_degree_precondition": ("graph", "uniform"),
    "containers.count_independent_sets_exact": ("graph", "hypergraph"),
    "containers.reconstruct_segments": ("r2", "r3"),
}


def span_names() -> list[str]:
    """Every span name the tracer can record, variants expanded."""
    names = []
    for module, qualname, _, _ in TRACED:
        base = f"{module}.{qualname}"
        names += [f"{base}.{v}" for v in VARIANTS[base]] if base in VARIANTS else [base]
    return names


class Tracer:
    """Span and counter recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, variant_fn, counter_fn):
        tracer = self

        def traced(*args, **kwargs):
            label = name if variant_fn is None else f"{name}.{variant_fn(args, kwargs)}"
            stack = tracer._stack()
            # a worker thread's outermost call belongs to whatever the main
            # thread is running (run_experiment's thread pool)
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(tracer._ids)
            wall0, cpu0 = time.perf_counter(), _cpu()
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                tracer.spans.append((sid, label, wall0, end, parent, threading.get_ident()))
            if name == "experiments.run_experiment":
                tracer.counters["experiments.run_experiment.cpu_s"] += _cpu() - cpu0
                tracer.counters["experiments.run_experiment.wall_s"] += end - wall0
            if counter_fn is not None:
                counter_fn(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        import homlab.cli  # noqa: F401  (binds every module the CLI uses)
        import homlab.experiments  # noqa: F401

        wrappers = {}
        for module, qualname, variant_fn, counter_fn in TRACED:
            mod = sys.modules[f"homlab.{module}"]
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr].__func__
                wrapped = self._wrap(name, original, variant_fn, counter_fn)
                self._patches.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, classmethod(wrapped))
            else:
                original = getattr(mod, qualname)
                wrappers[id(original)] = (original, self._wrap(name, original, variant_fn, counter_fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "homlab" and not modname.startswith("homlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def merge(self, doc: dict) -> None:
        """Add the spans and counters another process wrote (a traced CLI call)."""
        offset = next(self._ids) + 10**6
        for sid, label, start, end, parent, thread in doc["spans"]:
            parent = parent + offset if parent is not None else None
            self.spans.append((sid + offset, label, start, end, parent, ("cli", thread)))
        self._ids = itertools.count(offset + 10**6)
        for key, value in doc["counters"].items():
            self.counters[key] += value


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children, to the
    microsecond (os.times() counts in 10 ms clock ticks)."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def self_times(spans) -> dict[str, float]:
    """Exclusive time per span name.

    Wall time between consecutive span boundaries goes to the spans that are
    open and have no open child; when several are (threads), it is split
    evenly among them.  So the values sum to the time covered by any span,
    never more than the wall time of the traced phase.
    """
    if not spans:
        return {}
    events = []
    for sid, label, start, end, parent, _thread in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    info = {sid: (label, parent) for sid, label, _s, _e, parent, _t in spans}
    open_spans: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    out: dict[str, float] = defaultdict(float)
    last = events[0][0]
    for when, is_start, sid in events:
        if leaves and when > last:
            share = (when - last) / len(leaves)
            for leaf in leaves:
                out[info[leaf][0]] += share
        last = when
        parent = info[sid][1]
        if is_start:
            open_spans.add(sid)
            if open_children[sid] == 0:
                leaves.add(sid)
            if parent in open_spans:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_spans.discard(sid)
            leaves.discard(sid)
            if parent in open_spans:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(out)


def summarize(spans) -> dict[str, dict[str, float]]:
    """calls, busy_s (sum of durations) and self_s per span name."""
    table: dict[str, dict[str, float]] = {}
    for _sid, label, start, end, _parent, _thread in spans:
        row = table.setdefault(label, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
    for label, value in self_times(spans).items():
        table.setdefault(label, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})["self_s"] = value
    return table
