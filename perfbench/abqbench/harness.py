"""The closed-loop driver shared by the workloads, and the metrics.

One client sends the next operation when the previous one returns.  Rounds
are generated before they start and are not timed; a run attempts whole
rounds until the timed phase has lasted the requested seconds and at least
MIN_OPS operations have completed.  Outputs are reduced to plain data and
checked against the benchmark's own computations after each
round, outside the timed phase; checks that need sympy wait until peak
memory has been read.
"""

import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from . import all_modules, model_queries, nori_integer, trace

WORKLOADS = {w.name: w for w in (model_queries.Workload,
                                 all_modules.Workload,
                                 nori_integer.Workload)}

MIN_OPS = 100
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "out")


class Checker:
    """Checks each output once against the benchmark's own computation; a
    repeated operation must be answered as the first time.  Workloads whose
    checks need sympy defer them until the timed phase is over."""

    def __init__(self, workload):
        self.workload = workload
        self.deferred = getattr(workload, "deferred_checks", False)
        self.first = {}
        self.pending = []
        self.errors = []

    def add(self, op, out):
        if op in self.first:
            if out != self.first[op]:
                self.errors.append("a repeated operation was answered "
                                   "differently")
            return
        self.first[op] = out
        if self.deferred:
            self.pending.append((op, out))
        else:
            self._check(op, out)

    def end_round(self):
        if not self.deferred:  # repeats stay within a round
            self.first.clear()

    def finish(self):
        for op, out in self.pending:
            self._check(op, out)
        self.pending = []
        return self.errors

    def _check(self, op, out):
        err = self.workload.check(op, out)
        if err:
            self.errors.append(err)


def run_rounds(workload, checker, first_round, seconds, tracer=None):
    """Run whole rounds for the given seconds; returns (next round,
    latencies, failures, timed seconds)."""
    latencies = []
    failed = 0
    timed = 0.0
    r = first_round
    while timed < seconds or len(latencies) < MIN_OPS:
        ops = workload.make_round(r)
        r += 1
        outputs = []
        t_round = perf_counter()
        for op in ops:
            span = tracer.open("op." + op.kind) if tracer else None
            t0 = perf_counter()
            try:
                out = workload.execute(op)
            except Exception:  # a failed operation is counted, not fatal
                out = _FAILED
                traceback.print_exc(file=sys.stderr)
            t1 = perf_counter()
            if tracer:
                tracer.close(span)
            if out is _FAILED:
                failed += 1
            else:
                latencies.append(t1 - t0)
            outputs.append((op, out))
        timed += perf_counter() - t_round
        for op, out in outputs:
            if out is not _FAILED:
                checker.add(op, workload.plain(out))
        checker.end_round()
    return r, latencies, failed, timed


class _Failed:
    pass


_FAILED = _Failed()


def end_to_end(latencies, timed, setup_s, peak_kb):
    lat = sorted(latencies)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_per_s": (len(lat) / timed, "ops/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, n_ops, overhead):
    """Per-operation calls and self seconds of each span name, layer
    shares, input-reuse ratios and counters, from the traced phase."""
    dur, own = tracer.self_times()
    ops = set(tracer.roots("op."))
    setup = set(tracer.roots("setup"))
    # Attribute every span to the root it descends from.
    root_of = []
    for i in range(len(tracer.name)):
        p = tracer.parent[i]
        root_of.append(i if p < 0 else root_of[p])
    op_time = sum(dur[i] for i in ops)
    calls, self_s, setup_calls, setup_self = {}, {}, {}, {}
    membership_implies = 0
    names = tracer.names
    member_id = tracer.name_id("abcat.SerreKernelOracle.membership")
    implies_id = tracer.name_id("formulas.implies_all")
    inside_member = [False] * len(tracer.name)
    for i in range(len(tracer.name)):
        nid = tracer.name[i]
        p = tracer.parent[i]
        inside_member[i] = p >= 0 and (inside_member[p]
                                       or tracer.name[p] == member_id)
        if nid == implies_id and inside_member[i]:
            membership_implies += 1
        if root_of[i] in ops and i not in ops:
            calls[nid] = calls.get(nid, 0) + 1
            self_s[nid] = self_s.get(nid, 0.0) + own[i]
        elif root_of[i] in setup and i not in setup:
            setup_calls[nid] = setup_calls.get(nid, 0) + 1
            setup_self[nid] = setup_self.get(nid, 0.0) + own[i]
    out = {}
    span_names = sorted({s for _, _, s in trace.TARGETS} - {"formats.parse"})
    for s in span_names:
        nid = tracer.name_id(s)
        out[s + ".calls"] = (calls.get(nid, 0) / n_ops, "1/op")
        out[s + ".self_s"] = (self_s.get(nid, 0.0) / n_ops, "s/op")
    nid = tracer.name_id("formats.parse")
    out["formats.parse.calls"] = (setup_calls.get(nid, 0), "count")
    out["formats.parse.self_s"] = (setup_self.get(nid, 0.0), "s")
    for s in ("linalg.smith_normal_form", "representations.evaluate_path",
              "quivers.path_basis", "fpmodules.UnderlyingData"):
        n = calls.get(tracer.name_id(s), 0)
        out[s + ".distinct_ratio"] = (
            len(tracer.distinct.get(s, ())) / n if n else 0.0, "ratio")
    out["linalg.max_entry_bits"] = (tracer.max_entry_bits, "bits")
    n_member = calls.get(member_id, 0)
    out["abcat.SerreKernelOracle.membership.implies_all_per_call"] = (
        membership_implies / n_member if n_member else 0.0, "1/call")
    # Layer shares of the operations' time; "bench" is time in no span.
    shares = {}
    for nid, t in self_s.items():
        layer = names[nid].split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + t
    groups = {"linalg.integer": trace.INTEGER_LINALG,
              "linalg.field": trace.FIELD_LINALG}
    for group, members in groups.items():
        shares[group] = sum(self_s.get(tracer.name_id(m), 0.0)
                            for m in members)
    shares["bench"] = sum(own[i] for i in ops)
    for layer in LAYERS:
        out[layer + ".self_share"] = (
            100.0 * shares.get(layer, 0.0) / op_time if op_time else 0.0, "%")
    out["trace.overhead_pct"] = (overhead, "%")
    out["trace.spans_per_op"] = (
        sum(calls.values()) / n_ops if n_ops else 0.0, "1/op")
    return out


LAYERS = ("linalg", "linalg.integer", "linalg.field", "subobjects", "quivers",
          "representations", "fpmodules", "formulas", "dsl", "abcat",
          "simplicial", "nori", "bench")


def run(name, seed, seconds, traced, process_start, clock):
    """Run one workload; returns (result dict, errors)."""
    workload = WORKLOADS[name](seed)
    tracer = trace.Tracer() if traced else None
    if tracer:
        tracer.install()
        root = tracer.open("setup")
    workload.setup()
    for op in workload.warmup_ops():
        workload.execute(op)
    if tracer:
        tracer.close(root)
        tracer.uninstall()
    setup_s = clock() - process_start

    checker = Checker(workload)
    if not tracer:
        _, lat, failed, timed = run_rounds(workload, checker, 0, seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(lat, timed, setup_s, peak_kb)
    else:
        half = seconds / 2.0
        nxt, lat_u, failed, timed_u = run_rounds(workload, checker, 0, half)
        tracer.distinct.clear()  # count inputs of the traced phase only
        tracer.max_entry_bits = 0
        tracer.install()
        try:
            _, lat_t, failed_t, timed_t = run_rounds(workload, checker, nxt,
                                                     half, tracer)
        finally:
            tracer.uninstall()
        failed += failed_t
        overhead = 100.0 * ((timed_t / len(lat_t)) / (timed_u / len(lat_u))
                            - 1.0)
        metrics = per_layer(tracer, len(lat_t), overhead)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "trace-%s-seed%d.tsv"
                                  % (name, seed)))
        lat = lat_u + lat_t
    errors = checker.finish()
    result = {
        "correct": not errors,
        "attempted": len(lat) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, errors
