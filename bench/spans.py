"""Per-layer tracing from outside the package.

Each traced function is wrapped at every module attribute that binds it
(``ariset.riccati.solve_sylvester``, ``ariset.analysis.reduce_blocks``,
``ariset.cli.schur_family``, ...), so calls between modules and within a
module are both seen. Nothing under ``src/`` changes: the wrappers are
installed for a traced pass and removed after it.

A span records its name, start, end (integer nanoseconds), parent span
and operation id. Spans are kept in memory; the caller writes them out at
the end of the run. Self time is a span's duration minus the part of its
interval that its child spans cover; computed in integer nanoseconds, the
self times of one operation sum exactly to its wall time.
"""

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

TARGETS = {
    "linalg": (
        "real_schur_ordered",
        "solve_sylvester",
        "solve_lyapunov_stable",
        "schur_complement",
        "definiteness",
    ),
    "systems": ("spectral_split", "pbh_classify"),
    "riccati": (
        "solve_base_are",
        "reduce",
        "full_rank_simplified_solution",
        "schur_family",
        "degenerate_classify",
        "ric_residual",
    ),
    "analysis": (
        "extremal_solutions",
        "boundedness",
        "parametrize",
        "recover_parameter",
        "feedback_flip",
        "verify",
    ),
    "cli": ("main",),
}
ROOT = "op"


def target_names():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "raised", "extra")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.raised = False
        self.extra = None

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.raised, self.extra]


def _sylvester_order(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    return np.shape(f)[0] * np.shape(g)[0]


def _family_members(args, kwargs, result):
    return len(result)


EXTRA = {
    "linalg.solve_sylvester": _sylvester_order,
    "riccati.schur_family": _family_members,
}


class Tracer:
    """Span recorder for one package; records only inside ``operation``."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.ops = []
        self._stack = []
        self._op = None

    def _wrap(self, name, fn):
        tracer = self
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0, tracer._stack[-1], tracer._op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Replace every binding of every target by its wrapper."""
        prefix = self.package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        patched = []
        try:
            for mod_name, fns in TARGETS.items():
                home = getattr(self.package, mod_name)
                for fn_name in fns:
                    fn = getattr(home, fn_name)
                    wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, fn))
            yield
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    @contextmanager
    def operation(self, label):
        """Root span of one benchmark operation."""
        op = len(self.ops)
        self.ops.append(label)
        root = Span(ROOT, 0, -1, op)
        self._stack = [len(self.spans)]
        self.spans.append(root)
        self._op = op
        root.start = time.perf_counter_ns()
        try:
            yield
        finally:
            root.end = time.perf_counter_ns()
            self._op = None
            self._stack = []


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span."""
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        reach = span.start
        for j in sorted(kids[i], key=lambda k: spans[k].start):
            lo = max(spans[j].start, reach)
            hi = min(spans[j].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def self_sum_gaps(spans, selfs):
    """Per operation: sum of self times minus the root span's duration
    (zero for a well-formed trace)."""
    sums = {}
    walls = {}
    for span, own in zip(spans, selfs):
        sums[span.op] = sums.get(span.op, 0) + own
        if span.parent < 0:
            walls[span.op] = span.end - span.start
    return {op: sums[op] - walls.get(op, 0) for op in sums}


def _under(spans, i, name):
    parent = spans[i].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans, n_ops):
    """Per-layer metrics over ``n_ops`` traced operations."""
    selfs = self_times(spans)
    names = target_names()
    calls = dict.fromkeys(names + [ROOT], 0)
    raised = dict.fromkeys(names, 0)
    own = dict.fromkeys(names + [ROOT], 0)
    flops = 0.0
    max_order = 0
    tried = 0
    members = 0
    family_ns = 0
    wall_ns = 0
    for i, (span, s) in enumerate(zip(spans, selfs)):
        calls[span.name] += 1
        own[span.name] += s
        if span.parent < 0:
            wall_ns += span.end - span.start
            continue
        raised[span.name] += span.raised
        if span.name == "linalg.solve_sylvester" and span.extra is not None:
            flops += 2.0 / 3.0 * float(span.extra) ** 3
            max_order = max(max_order, span.extra)
        elif span.name == "riccati.schur_family":
            family_ns += span.end - span.start
            members += span.extra or 0
        elif span.name == "riccati.reduce" and _under(spans, i, "riccati.schur_family"):
            tried += 1
    per_op = 1.0 / max(n_ops, 1)
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (calls[name] * per_op, "count/op")
        metrics[f"{name}.self_ms"] = (own[name] * 1e-6 * per_op, "ms/op")
        metrics[f"{name}.raised"] = (raised[name] * per_op, "count/op")
    metrics["op.self_ms"] = (own[ROOT] * 1e-6 * per_op, "ms/op")
    metrics["linalg.solve_sylvester.kron_flops"] = (flops * per_op, "flop/op")
    metrics["linalg.solve_sylvester.max_order"] = (max_order, "count")
    family_calls = calls["riccati.schur_family"]
    metrics["riccati.schur_family.subsets_tried"] = (tried * per_op, "count/op")
    metrics["riccati.schur_family.members"] = (members * per_op, "count/op")
    metrics["riccati.schur_family.useful_ratio"] = (
        (members - family_calls) / tried if tried else 0.0, "ratio")
    metrics["riccati.schur_family.wall_share"] = (
        family_ns / wall_ns if wall_ns else 0.0, "ratio")
    return metrics, selfs


def top_self(spans, selfs, ops_in_group, k=3):
    """The ``k`` names with the largest self time over the given ops."""
    totals = {}
    for span, s in zip(spans, selfs):
        if span.op in ops_in_group:
            totals[span.name] = totals.get(span.name, 0) + s
    whole = sum(totals.values()) or 1
    best = sorted(totals.items(), key=lambda kv: -kv[1])[:k]
    return [(name, ns / whole) for name, ns in best]
