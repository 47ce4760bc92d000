"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the calls that cross from one
softgrand module into another: the CLI into codes and harness, the harness
into codes, channel, decoder and the process pool, the decoder into
patterns and softout.  Each wrapped call records a span (id, parent id,
name, start, end, value) in memory; the spans are written out when the run
ends.  Pool workers are forked from the traced process, so they inherit the
wrappers; each pool task returns its worker's spans with its result.

Nothing here edits the package's files: wrappers replace names in the
module namespaces of a freshly imported copy of the package, and the next
fresh import drops them.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

_now = time.perf_counter_ns

# The tracer that forked pool workers find when a task arrives.
_ACTIVE = None

SPAN_COLUMNS = ("span_id", "parent_id", "name", "start_ns", "end_ns", "value")

HARNESS_SPANS = ("harness.run_sweep", "harness.collect", "harness.task")


def _children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory span recorder for one traced round."""

    def __init__(self):
        self.spans = []
        self.stack = [None]
        self.pools = []  # (workers, wall_ns, worker_cpu_s) per pool
        self.pool_tasks = 0
        self.tables = {}  # id -> order table seen in this process
        self.worker_tables = []  # (patterns, bytes) reported by pool tasks
        self._count = 0

    def _new_id(self):
        self._count += 1
        return os.getpid() * 10**9 + self._count

    def _wrap(self, owner, attr, name, value=None, static=False):
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer.stack[-1]
            tracer.stack.append(sid)
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _now()
                tracer.stack.pop()
            tracer.spans.append((sid, parent, name, t0, t1,
                                 None if value is None else value(out)))
            return out

        setattr(owner, attr, staticmethod(traced) if static else traced)

    def _wrap_order_table(self, decoder):
        orig = decoder.order_table
        tracer = self

        def order_table(order):
            table = orig(order)
            if id(table) not in tracer.tables:
                tracer.tables[id(table)] = table
                grow = table.extend_to

                def extend_to(count):
                    before = table.count
                    t0 = _now()
                    grow(count)
                    if table.count != before:
                        tracer.spans.append((tracer._new_id(), tracer.stack[-1],
                                             "patterns.extend", t0, _now(),
                                             table.count - before))

                table.extend_to = extend_to
            return table

        decoder.order_table = order_table

    def table_sizes(self):
        """(patterns, bytes) of every order table this process has seen."""
        return [(int(t.count), sum(v.nbytes for v in vars(t).values()
                                   if isinstance(v, np.ndarray)))
                for t in self.tables.values()]

    def install(self, cli):
        """Wrap the cross-module calls of a freshly imported package."""
        global _ACTIVE
        _ACTIVE = self
        harness, decoder, softout, channel = (
            sys.modules[f"softgrand.{m}"]
            for m in ("harness", "decoder", "softout", "channel"))
        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "parse_and_validate", "cli.parse")
        self._wrap(cli, "make_rlc", "codes.build")
        self._wrap(cli, "run_sweep", "harness.run_sweep")
        self._wrap(cli, "collect_error_query_distribution", "harness.collect")
        self._wrap(harness, "encode", "codes.encode")
        self._wrap(harness, "transmit", "channel.transmit")
        self._wrap(channel.SoftObservation, "from_flip_probs", "channel.bsc_obs",
                   static=True)
        self._wrap(harness, "decode", "decoder.decode", value=lambda out: out.q)
        self._wrap(softout, "log_p_incorrect_cum", "softout.report")
        self._wrap(softout, "p_incorrect_cum", "softout.report")
        self._wrap(decoder, "LlrReport", "softout.report")
        self._wrap_order_table(decoder)
        harness.ProcessPoolExecutor = _pool_class(self)


def _run_task(job):
    """Pool-worker side of a traced task: run it, return result and spans."""
    fn, args, parent = job
    tracer = _ACTIVE
    tracer.spans = []
    sid = tracer._new_id()
    tracer.stack = [sid]
    t0 = _now()
    result = fn(*args)
    tracer.spans.append((sid, parent, "harness.task", t0, _now(), None))
    return result, tracer.spans, tracer.table_sizes()


def _pool_class(tracer):
    class TracedPool(ProcessPoolExecutor):
        """Process pool that counts starts and tasks and collects worker spans."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._workers = max_workers or os.cpu_count()
            self._sid = tracer._new_id()
            self._parent = tracer.stack[-1]
            tracer.stack.append(self._sid)
            self._t0 = _now()
            self._cpu0 = _children_cpu_s()

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            jobs = [(fn, args, self._sid) for args in zip(*iterables)]
            tracer.pool_tasks += len(jobs)
            results = []
            for result, spans, tables in super().map(_run_task, jobs, timeout=timeout,
                                                     chunksize=chunksize):
                tracer.spans.extend(spans)
                tracer.worker_tables.extend(tables)
                results.append(result)
            return results

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait=wait, **kwargs)
            if self._sid is not None:
                t1 = _now()
                tracer.stack.remove(self._sid)
                tracer.spans.append((self._sid, self._parent, "harness.pool",
                                     self._t0, t1, None))
                tracer.pools.append((self._workers, t1 - self._t0,
                                     _children_cpu_s() - self._cpu0))
                self._sid = None

    return TracedPool


def _union_ns(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(tracer, base_outcome_trials):
    """Per-layer figures of one traced round.

    ``base_outcome_trials`` is the number of trials the workload asks for
    before escalation (trials per point times points; 0 for fig1, which
    has no escalation).
    """
    spans = tracer.spans
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
        children.setdefault(s[1], []).append(s)

    def durs(name):
        return [(s[4] - s[3]) / 1e3 for s in by_name.get(name, ())]  # us

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    trials = len(by_name.get("channel.transmit", ()))
    decodes = by_name.get("decoder.decode", ())
    shallow = [(s[4] - s[3]) / 1e3 for s in decodes if s[5] <= 16]
    deep = [s for s in decodes if s[5] > 1024]
    deep_ns = sum(s[4] - s[3] for s in deep)

    harness_self_ns = 0
    for name in HARNESS_SPANS:
        for s in by_name.get(name, ()):
            kids = [(c[3], c[4]) for c in children.get(s[0], ())]
            harness_self_ns += (s[4] - s[3]) - _union_ns(kids, s[3], s[4])

    (main,) = by_name["cli.main"]
    trial_spans = by_name.get("harness.run_sweep", []) + by_name.get("harness.collect", [])
    write_ns = main[4] - max(s[4] for s in trial_spans)

    pool_capacity_ns = sum(w * wall for w, wall, _ in tracer.pools)
    pool_cpu_s = sum(cpu for _, _, cpu in tracer.pools)
    tables = tracer.table_sizes() + tracer.worker_tables

    escalation = trials - base_outcome_trials if base_outcome_trials else 0
    return {
        "cli.write_s": write_ns / 1e9,
        "codes.encode_us": mean(durs("codes.encode")),
        "channel.transmit_us": mean(durs("channel.transmit")),
        "channel.bsc_obs_us": mean(durs("channel.bsc_obs")),
        "harness.self_us_per_trial": harness_self_ns / 1e3 / trials if trials else 0.0,
        "harness.trials": trials,
        "harness.escalation_trials": escalation,
        "harness.pool_starts": len(tracer.pools),
        "harness.pool_tasks": tracer.pool_tasks,
        "harness.pool_efficiency": (pool_cpu_s * 1e9 / pool_capacity_ns
                                    if pool_capacity_ns else 0.0),
        "decoder.calls": len(decodes),
        "decoder.queries": sum(s[5] for s in decodes),
        "decoder.shallow_call_us": mean(shallow),
        "decoder.queries_per_s": (sum(s[5] for s in deep) * 1e9 / deep_ns
                                  if deep_ns else 0.0),
        "softout.report_us": (sum(durs("softout.report")) / len(decodes)
                              if decodes else 0.0),
        "patterns.table_build_s": sum(durs("patterns.extend")) / 1e6,
        "patterns.table_patterns": max((p for p, _ in tables), default=0),
        "patterns.table_mb": max((b for _, b in tables), default=0) / 1e6,
    }


def write_spans(path, spans):
    """Write the spans of one traced round as CSV."""
    with open(path, "w") as fh:
        fh.write(",".join(SPAN_COLUMNS) + "\n")
        for s in spans:
            fh.write(",".join("" if v is None else str(v) for v in s) + "\n")
