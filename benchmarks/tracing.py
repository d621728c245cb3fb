"""Spans recorded from outside the program, and the per-layer metrics they give.

The benchmark records its own spans around the calls it makes (load, set-up,
loop, output).  A traced run also patches the public functions of the
``ftcc`` layers *in the namespace of the module that calls them*, so the
program's own code is untouched and an untraced run executes exactly what a
user runs.  A patch target that no longer exists is skipped, and the metrics
that depend on it read as absent (``None``) instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(slots=True)
class Span:
    """One timed call.  ``parent`` and ``index`` are positions in
    ``Tracer.spans`` (-1: no parent); ``run_id`` numbers the benchmark
    operation the call belongs to."""

    name: str
    index: int
    parent: int
    run_id: int
    start: float
    end: float = 0.0
    extra: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class RoundExtra:
    """What a fabric round records besides its span."""

    callback_s: float   # time in the caller's send/receive callbacks
    sent: int           # messages, read from the SyncFabric argument
    delivered: int


class Tracer:
    """In-memory span recorder; the spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run_id = 0

    def begin(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, len(self.spans), parent, self.run_id, perf_counter())
        self.stack.append(span.index)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                extra = s.extra
                if isinstance(extra, RoundExtra):
                    extra = [extra.callback_s, extra.sent, extra.delivered]
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.run_id, extra]))
                fh.write("\n")


# What a span keeps of a call's result: only small counts.
EXTRAS = {
    "consensus.bootstrap": lambda r: r.rounds_used,
    "gains.token": lambda r: [r.hop_count, r.flood_count, r.rounds],
}

# (module that makes the call, attribute patched there, span name)
PATCHES = (
    ("ftcc.consensus", "round_exchange", "graph.round"),
    ("ftcc.gains", "round_exchange", "graph.round"),
    ("ftcc.runtime", "exact_average_fixed_rounds", "consensus.agree"),
    ("ftcc.runtime", "finite_time_average", "consensus.bootstrap"),
    ("ftcc.consensus", "common_kernel_vector", "linalg.kernel"),
    ("ftcc.gains", "eigen_left", "linalg.eigen_left"),
    ("ftcc.runtime", "elect_leader", "gains.election"),
    ("ftcc.runtime", "run_token_protocol", "gains.token"),
    ("ftcc.gains", "place_for_agent", "gains.placement"),
    ("ftcc.runtime", "require_jointly_controllable_observable", "plant.check"),
    ("ftcc.scenario", "require_jointly_controllable_observable", "plant.check"),
)


def _wrap_call(tracer: Tracer, name: str, fn):
    extra = EXTRAS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if extra is not None:
            span.extra = extra(result)
        return result

    return wrapper


def _wrap_round(tracer: Tracer, fn):
    """Time a fabric round and the caller's send/receive callbacks in it."""

    @functools.wraps(fn)
    def wrapper(fabric, send, receive):
        callback_s = 0.0

        def timed(callback):
            def inner(*args):
                nonlocal callback_s
                t0 = perf_counter()
                try:
                    return callback(*args)
                finally:
                    callback_s += perf_counter() - t0

            return inner

        sent0, delivered0 = fabric.sent_count, fabric.delivered_count
        span = tracer.begin("graph.round")
        try:
            return fn(fabric, timed(send), timed(receive))
        finally:
            tracer.end(span)
            span.extra = RoundExtra(
                callback_s,
                fabric.sent_count - sent0,
                fabric.delivered_count - delivered0,
            )

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Patch every target that exists and restore them all on exit.

    Yields the set of span names whose target was found.
    """
    saved = []
    found = set()
    try:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if name == "graph.round":
                wrapped = _wrap_round(tracer, fn)
            else:
                wrapped = _wrap_call(tracer, name, fn)
            saved.append((module, attr, fn))
            setattr(module, attr, wrapped)
            found.add(name)
        yield found
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _pct(values, q=50, scale=1.0):
    return float(np.percentile(values, q)) * scale if len(values) else None


def _share(part, whole):
    return part / whole if whole > 0 else None


def layer_metrics(tracer: Tracer, timed: set, first_pass: set, found: set) -> dict:
    """Per-layer metrics from the spans of the operations in ``timed``.

    Counts are totals over ``first_pass``, one pass over the workload's
    scenarios, so they repeat exactly between runs with the same seed.
    Times are medians (or the named percentile) over every timed call;
    ``*_ms`` totals of a layer are medians over operations.
    """
    spans = [s for s in tracer.spans if s.run_id in timed]
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def kids(s, name=None):
        return [c for c in children.get(s.index, ()) if name is None or c.name == name]

    def self_time(s) -> float:
        t = s.seconds - sum(c.seconds for c in kids(s))
        if isinstance(s.extra, RoundExtra):
            t -= s.extra.callback_s
        return t

    def subtree(s):
        for c in kids(s):
            yield c
            yield from subtree(c)

    def named(name, runs=timed):
        return [s for s in spans if s.name == name and s.run_id in runs]

    def first(name):
        return named(name, first_pass)

    def present(name, value):
        return value if name in found else None

    def ms(name, q=50):
        return _pct([s.seconds for s in named(name)], q, 1e3)

    def ms_per_op(name):
        totals = dict.fromkeys((op.run_id for op in ops), 0.0)
        for s in named(name):
            totals[s.run_id] += s.seconds
        return present(name, _pct(list(totals.values()), 50, 1e3))

    def total_s(name):
        return sum(s.seconds for s in named(name))

    ops = named("bench.op")
    rounds = named("graph.round")
    round_self = [self_time(s) for s in rounds]
    agree_self = [
        a.seconds
        - sum(self_time(d) for d in subtree(a) if not d.name.startswith("consensus."))
        for a in named("consensus.agree")
    ]
    step_self = []
    for loop in named("runtime.loop"):
        agrees = sorted(kids(loop, "consensus.agree"), key=lambda a: a.start)
        if agrees:
            gaps = [b.start - a.end for a, b in zip(agrees, agrees[1:])]
            gaps.append(loop.end - agrees[-1].end)
            gaps[0] += agrees[0].start - loop.start
            step_self += gaps
    tokens = [s.extra for s in first("gains.token") if s.extra is not None]

    return {
        "graph.round_self_us.p50": _pct(round_self, 50, 1e6),
        "graph.round_self_us.p90": _pct(round_self, 90, 1e6),
        "graph.round_self_share": _share(sum(round_self), total_s("bench.op")),
        "graph.rounds": present("graph.round", len(first("graph.round"))),
        "graph.messages_sent": present(
            "graph.round", sum(s.extra.sent for s in first("graph.round"))
        ),
        "graph.delivered_per_sent": _share(
            sum(s.extra.delivered for s in rounds), sum(s.extra.sent for s in rounds)
        ),
        "consensus.agree_ms.p50": ms("consensus.agree"),
        "consensus.agree_ms.p90": ms("consensus.agree", 90),
        "consensus.agree_self_ms.p50": _pct(agree_self, 50, 1e3),
        "consensus.agree_share": present(
            "consensus.agree",
            _share(total_s("consensus.agree"), total_s("runtime.loop")),
        ),
        "consensus.bootstrap_ms": ms("consensus.bootstrap"),
        "consensus.rounds_per_agreement": _pct(
            [len(kids(a, "graph.round")) for a in first("consensus.agree")]
        ),
        "consensus.bootstrap_rounds": present(
            "consensus.bootstrap",
            sum(s.extra for s in first("consensus.bootstrap") if s.extra is not None),
        ),
        "linalg.kernel_calls": present("linalg.kernel", len(first("linalg.kernel"))),
        "linalg.kernel_ms": ms_per_op("linalg.kernel"),
        "linalg.eigen_left_calls": present(
            "linalg.eigen_left", len(first("linalg.eigen_left"))
        ),
        "linalg.eigen_left_ms": ms_per_op("linalg.eigen_left"),
        "gains.token_ms": ms("gains.token"),
        "gains.token_hops": present("gains.token", sum(t[0] for t in tokens)),
        "gains.token_floods": present("gains.token", sum(t[1] for t in tokens)),
        "gains.token_rounds": present("gains.token", sum(t[2] for t in tokens)),
        "gains.token_share": present(
            "gains.token",
            _share(total_s("gains.token"), total_s("runtime.initialize")),
        ),
        "gains.placement_calls": present(
            "gains.placement", len(first("gains.placement"))
        ),
        "gains.election_ms": ms("gains.election"),
        "gains.election_rounds": present(
            "gains.election",
            sum(len(kids(s, "graph.round")) for s in first("gains.election")),
        ),
        "plant.check_ms": ms("plant.check"),
        "runtime.step_self_ms.p50": _pct(step_self, 50, 1e3),
        "runtime.setup_self_ms": _pct(
            [self_time(s) for s in named("runtime.initialize")], 50, 1e3
        ),
        "runtime.csv_ms": ms("runtime.csv"),
        "scenario.load_ms": ms("scenario.load"),
        "trace.unattributed_share": _share(
            sum(self_time(s) for s in ops), total_s("bench.op")
        ),
    }
