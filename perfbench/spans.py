"""Span recording around the program's public functions, and the per-layer
metrics computed from the spans.

``install`` replaces each target function, in every loaded ``hetsel``
module that binds it, with a wrapper that records a span: name, start,
end, parent span, pid, thread and run id. Spans stay in memory. Pool
workers forked while the wrappers are installed record their own spans and
write them to ``spans-<pid>.json`` when they exit; ``collect`` merges them
with the spans of this process.

A target that no longer exists is listed in ``Tracer.missing`` and its
metrics read 0; the run goes on.
"""
from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import multiprocessing.util
import os
import resource
import sys
import threading
import time

import numpy as np

# (module, function, span name, kind). "kernel" and "fit" spans carry extra
# attributes; "evaluator" wraps a factory whose returned function is timed.
TARGETS = (
    ("cli", "read_records", "cli.read_records", "plain"),
    ("deconv", "kernel_marginals", "deconv.kernel_marginals", "kernel"),
    ("deconv", "fit_weights", "deconv.fit_weights", "fit"),
    ("deconv", "clfdr_by_group", "deconv.clfdr", "plain"),
    ("deconv", "oracle_clfdr", "deconv.oracle_clfdr", "plain"),
    ("selection", "oracle_thresholds", "selection.oracle_thresholds", "plain"),
    ("selection", "calibrate_thresholds", "selection.calibrate_thresholds", "plain"),
    ("selection", "build_units", "selection.build_units", "plain"),
    ("selection", "select_dd", "selection.select_dd", "plain"),
    ("selection", "select_oracle", "selection.select_oracle", "plain"),
    ("selection", "select_clfdr_stepup", "selection.baselines", "plain"),
    ("selection", "select_bh", "selection.baselines", "plain"),
    ("model", "zvalue_pvalue", "model.zvalue_pvalue", "plain"),
    ("rvalue", "rvalue_vary_mu0", "rvalue.scan", "plain"),
    ("rvalue", "rvalue_vary_alpha", "rvalue.scan", "plain"),
    ("rvalue", "dd_mu0_evaluator", "rvalue.replay", "evaluator"),
    ("sim", "run_replications", "sim.run_replications", "plain"),
    ("sim", "generate", "sim.generate", "plain"),
)

ROOT_SPAN = "cli.command"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans for one traced run; create, ``install``, run, ``uninstall``."""

    def __init__(self, run_id: str, dump_dir: str):
        self.run_id = run_id
        self.dump_dir = dump_dir
        self.owner_pid = os.getpid()
        # Spans opened on a thread with no open span of its own (pool
        # threads, forked workers) take the innermost open span of this
        # thread as their parent.
        self.anchor_thread = threading.get_ident()
        self.spans = []
        self.missing = []
        self._stacks = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._hwm_pids = set()
        self._dump_pids = set()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        key = (os.getpid(), threading.get_ident())
        with self._lock:
            stack = self._stacks.setdefault(key, [])
            if stack:
                parent = stack[-1]
            else:
                anchor = self._stacks.get((self.owner_pid, self.anchor_thread))
                parent = anchor[-1] if anchor else None
            self._next_id += 1
            span_id = f"{key[0]}:{self._next_id}"
            stack.append(span_id)
        return {
            "name": name,
            "id": span_id,
            "parent": parent,
            "pid": key[0],
            "thread": key[1],
            "run": self.run_id,
            "start": time.perf_counter(),
        }

    def _close(self, span, attrs=None):
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = attrs
        pid = span["pid"]
        with self._lock:
            self._stacks[(pid, span["thread"])].pop()
            self.spans.append(span)
            if pid != self.owner_pid and pid not in self._dump_pids:
                # A forked pool worker: write its spans when it exits.
                self._dump_pids.add(pid)
                multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self):
        pid = os.getpid()
        mine = [s for s in self.spans if s["pid"] == pid]
        with open(os.path.join(self.dump_dir, f"spans-{pid}.json"), "w") as fh:
            json.dump(mine, fh)

    @contextlib.contextmanager
    def span(self, name):
        """Records one span around the block; for the benchmark's root span."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, kind):
        tracer = self
        if kind == "evaluator":
            # The factory itself is not timed; each call of the evaluator it
            # returns is one span.
            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return tracer._wrap(fn(*args, **kwargs), name, "plain")

            return factory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            first_kernel = kind == "kernel" and os.getpid() not in tracer._hwm_pids
            if first_kernel:
                tracer._hwm_pids.add(os.getpid())
                hwm_before = _maxrss_mb()
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if kind == "fit":
                    attrs["iterations"] = getattr(result, "iterations", 0)
                    attrs["objective"] = getattr(result, "objective", 0.0)
            finally:
                if kind == "kernel":
                    attrs["pairs"] = len(args[0]) ** 2 if args else 0
                    if first_kernel:
                        attrs["hwm_rise_mb"] = _maxrss_mb() - hwm_before
                tracer._close(span, attrs)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Wraps every target in every loaded hetsel module that binds it."""
        for module_name, func_name, name, kind in targets:
            try:
                home = importlib.import_module(f"hetsel.{module_name}")
                original = getattr(home, func_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapped = self._wrap(original, name, kind)
            modules = [m for n, m in list(sys.modules.items())
                       if n == "hetsel" or n.startswith("hetsel.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def collect(self):
        """This process's spans plus those written by exited pool workers."""
        spans = [s for s in self.spans if s["pid"] == self.owner_pid]
        for path in sorted(glob.glob(os.path.join(self.dump_dir, "spans-*.json"))):
            with open(path) as fh:
                spans.extend(s for s in json.load(fh) if s["run"] == self.run_id)
        return spans


# -- metrics from spans ------------------------------------------------------


def _duration(span):
    return span["end"] - span["start"]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """Duration of ``span`` not covered by its children. Children on other
    threads count once where they overlap, so replays on a pool cover the
    wall interval they occupy, not the sum of their durations."""
    lo, hi = span["start"], span["end"]
    clipped = [(max(c["start"], lo), min(c["end"], hi)) for c in children]
    return _duration(span) - _covered([(a, b) for a, b in clipped if b > a])


def layer_metrics(spans, owner_pid):
    """Per-layer figures from one traced run, keyed by metric name."""
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def total(name):
        return sum(_duration(s) for s in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name.get(name, []))

    replays_ms = [1e3 * _duration(s) for s in by_name.get("rvalue.replay", [])]
    kernels = by_name.get("deconv.kernel_marginals", [])
    out = {
        "deconv.kernel_marginals_s": total("deconv.kernel_marginals"),
        "deconv.kernel_marginals_calls": count("deconv.kernel_marginals"),
        "deconv.kernel_pairs": attr_sum("deconv.kernel_marginals", "pairs"),
        "deconv.kernel_marginals_hwm_mb": max(
            [s.get("attrs", {}).get("hwm_rise_mb", 0.0) for s in kernels], default=0.0
        ),
        "deconv.fit_weights_s": total("deconv.fit_weights"),
        "deconv.fit_iterations": attr_sum("deconv.fit_weights", "iterations"),
        "deconv.fit_objective": attr_sum("deconv.fit_weights", "objective"),
        "deconv.clfdr_s": total("deconv.clfdr"),
        "deconv.clfdr_calls": count("deconv.clfdr"),
        "deconv.oracle_clfdr_s": total("deconv.oracle_clfdr"),
        "selection.oracle_thresholds_s": total("selection.oracle_thresholds"),
        "selection.calibrate_thresholds_s": total("selection.calibrate_thresholds"),
        "selection.build_units_s": total("selection.build_units"),
        "selection.select_dd_s": total("selection.select_dd"),
        "selection.select_dd_calls": count("selection.select_dd"),
        "selection.select_oracle_s": total("selection.select_oracle"),
        "selection.baselines_s": total("selection.baselines"),
        "model.zvalue_pvalue_s": total("model.zvalue_pvalue"),
        "rvalue.scan_s": total("rvalue.scan"),
        "rvalue.replays": len(replays_ms),
        "rvalue.replay_ms_p50": float(np.percentile(replays_ms, 50)) if replays_ms else 0.0,
        "rvalue.replay_ms_p95": float(np.percentile(replays_ms, 95)) if replays_ms else 0.0,
        "rvalue.self_s": sum(
            self_time(s, children.get(s["id"], [])) for s in by_name.get("rvalue.scan", [])
        ),
        "sim.run_replications_s": total("sim.run_replications"),
        "sim.generate_s": total("sim.generate"),
        "cli.read_records_s": total("cli.read_records"),
        "cli.self_s": sum(
            self_time(s, children.get(s["id"], [])) for s in by_name.get(ROOT_SPAN, [])
        ),
    }

    # Pool workers: each span whose parent lives in another process is one
    # stretch of work a worker did for the pool.
    pid_of = {s["id"]: s["pid"] for s in spans}
    worker_spans = [
        s for s in spans
        if s["pid"] != owner_pid and pid_of.get(s["parent"], owner_pid) != s["pid"]
    ]
    workers = {s["pid"] for s in worker_spans}
    busy = sum(_duration(s) for s in worker_spans)
    pool_wall = 0.0
    for run in by_name.get("sim.run_replications", []):
        prefix_end = max(
            (c["end"] for c in children.get(run["id"], [])
             if c["name"] == "selection.oracle_thresholds"),
            default=run["start"],
        )
        pool_wall += run["end"] - prefix_end
    out["sim.rep_busy_s"] = busy
    out["sim.parallel_efficiency"] = (
        busy / (len(workers) * pool_wall) if workers and pool_wall > 0 else 0.0
    )
    return out
