"""Span tracer for the benchmark's traced run.

The tracer replaces public ``chain_perturb`` names, and the numpy/scipy calls
the layers make, with wrappers that record one span per call: name, start,
end, parent and thread.  Spans are kept in memory and written once, after
the command has finished.  Nothing inside ``chain_perturb`` is edited: every
span starts and ends in this file, around a call into a layer.

A span opened on a worker thread whose own stack is empty takes as parent
the span open on the main thread at that moment.  That is where the GP
sweep's thread pool is started, so the rank-loop work is charged to the
sweep that started it.

With ``memory=True``, ``kernels.constants`` and ``coupling.sim`` spans also
record the peak of memory allocated inside them, from ``tracemalloc``, which
runs only while such a span is open.  Those spans are opened on the main
thread only.  ``tracemalloc`` slows every allocation, several-fold in the
simulator's loops, so the benchmark takes span times from repetitions
traced without it and only the ``MEMORY_METRICS`` from repetitions with it.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
import time
import tracemalloc

_MB = float(1 << 20)

# (module, attribute, span name, kind).  Every chain_perturb module that binds
# the same object under the same name is patched too, so ``from .kernels
# import local_epsilon`` call sites are traced.  A missing attribute is an
# error: a renamed or deleted name must not read as a call count of 0.
TARGETS = (
    ("chain_perturb.cli", "main", "cli.main", "call"),
    ("chain_perturb.kernels", "doeblin_constant", "kernels.constants", "memory"),
    ("chain_perturb.kernels", "cross_doeblin_constant", "kernels.constants", "memory"),
    ("chain_perturb.kernels", "local_epsilon", "kernels.constants", "memory"),
    ("chain_perturb.coupling", "iter_coupled_batches", "coupling.sim", "batches"),
    ("chain_perturb.montecarlo", "empirical_disagreement", "montecarlo.disagreement", "call"),
    ("chain_perturb.montecarlo", "empirical_average_difference",
     "montecarlo.average_difference", "call"),
    ("chain_perturb.montecarlo", "empirical_tail", "montecarlo.tail", "call"),
    ("chain_perturb.montecarlo", "empirical_base_tail", "montecarlo.base_tail", "call"),
    ("chain_perturb.montecarlo", "empirical_decoupling", "montecarlo.decoupling", "call"),
    ("chain_perturb.montecarlo", "empirical_path_law_distance", "montecarlo.path_law", "call"),
    ("chain_perturb.gp_mcmc", "figure_sweep", "gp_mcmc.sweep", "sweep"),
    ("chain_perturb.gp_mcmc", "generate_data", "gp_mcmc.generate_data", "call"),
    ("chain_perturb.gp_mcmc", "lowrank_log_table", "gp_mcmc.lowrank_table", "call"),
    ("chain_perturb.gp_mcmc", "logsumexp", "gp_mcmc.logsumexp", "call"),
    ("numpy.random", "SeedSequence", "numpy.seed_sequence", "call"),
    ("numpy.random", "default_rng", "numpy.default_rng", "call"),
    ("numpy.linalg", "eigh", "numpy.eigh", "call"),
    ("scipy.linalg", "cho_factor", "scipy.cho_factor", "call"),
    ("scipy.linalg", "cho_solve", "scipy.cho_solve", "call"),
)

MEMORY_METRICS = ("kernels.constants_peak_mb", "coupling.peak_mb")

EXPERIMENTS = ("disagreement", "average_difference", "tail", "base_tail",
               "decoupling", "path_law")

_DONE = object()


class Tracer:
    """Records a span around every call to a wrapped name; ``install`` patches the names."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []  # [name, start, end, parent span or None, thread id, attrs or None]
        self._local = threading.local()
        self._main_stack = self._stack()
        self._mem = []   # [usage at entry, peak so far] per open memory span
        self._calls = 0

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [name, time.perf_counter(), None, parent, threading.get_ident(), None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack().pop()

    def _mem_enter(self):
        if not self.memory:
            return
        if not self._mem:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self):
        if not self.memory:
            return 0.0
        _, peak = tracemalloc.get_traced_memory()
        base, top = self._mem.pop()
        top = max(top, peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], top)
        else:
            tracemalloc.stop()
        return (top - base) / _MB

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, kind):
        if kind == "batches":
            return self._wrap_batches(fn, name)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = self._open(name)
            if kind == "memory":
                self._mem_enter()
            elif kind == "sweep":
                cpu0 = _cpu_seconds()
            try:
                result = fn(*args, **kwargs)
            finally:
                if kind == "memory":
                    span[5] = {"peak_mb": self._mem_exit()}
                self._close(span)
            if kind == "sweep":
                span[5] = {"rows": len(result), "cpu_s": _cpu_seconds() - cpu0}
            return result

        return traced

    def _wrap_batches(self, fn, name):
        # A generator: one span per resumption, so the consumer's work between
        # batches is not charged to the simulator.
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            self._calls += 1
            call = self._calls
            gen = fn(*args, **kwargs)

            def batches():
                while True:
                    span = self._open(name)
                    self._mem_enter()
                    try:
                        batch = next(gen, _DONE)
                    finally:
                        span[5] = {"call": call, "peak_mb": self._mem_exit(), "pair_steps": 0}
                        self._close(span)
                    if batch is _DONE:
                        return
                    span[5]["pair_steps"] = batch.n_traj * (batch.length - 1)
                    yield batch

            return batches()

        return traced

    def install(self, targets=TARGETS):
        """Patch every target; if one no longer exists, patch none and raise ``AttributeError``."""
        resolved = []
        for module_name, attr, name, kind in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise AttributeError(f"traced name {module_name}.{attr} no longer exists")
            resolved.append((module, attr, name, kind))
        for module, attr, name, kind in resolved:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, kind)
            sites = [module] + [
                m for key, m in list(sys.modules.items())
                if (key == "chain_perturb" or key.startswith("chain_perturb."))
                and m is not module and getattr(m, attr, None) is original
            ]
            for site in sites:
                setattr(site, attr, wrapper)

    def dump(self, path):
        """Write the spans as JSON rows ``[name, start, end, parent index, thread, attrs]``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[name, start, end, -1 if parent is None else index[id(parent)], thread, attrs]
                for name, start, end, parent, thread, attrs in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# -- per-layer metrics ---------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(rows):
    """Per-layer metrics of one traced command from its span rows (see :meth:`Tracer.dump`)."""
    n = len(rows)
    children = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        if row[3] >= 0:
            children[row[3]].append(i)

    def dur(i):
        return rows[i][2] - rows[i][1]

    def self_time(i):
        kids = [(rows[k][1], rows[k][2]) for k in children[i]]
        return dur(i) - _covered(kids, rows[i][1], rows[i][2])

    def under(i, prefix):
        p = rows[i][3]
        while p >= 0:
            if rows[p][0].startswith(prefix):
                return True
            p = rows[p][3]
        return False

    by_name = {}
    for i, row in enumerate(rows):
        by_name.setdefault(row[0], []).append(i)

    def spans(name, prefix=None):
        return [i for i in by_name.get(name, ()) if prefix is None or under(i, prefix)]

    def total(ids):
        return float(sum(dur(i) for i in ids))

    m = {}
    const = spans("kernels.constants")
    m["kernels.constants_s"] = total(const)
    m["kernels.constants_calls"] = len(const)
    m["kernels.constants_peak_mb"] = max((rows[i][5]["peak_mb"] for i in const), default=0.0)

    sim = spans("coupling.sim")
    steps = sum(rows[i][5]["pair_steps"] for i in sim)
    m["coupling.sim_s"] = total(sim)
    m["coupling.sim_calls"] = len({rows[i][5]["call"] for i in sim})
    m["coupling.pair_steps"] = steps
    m["coupling.ns_per_pair_step"] = 1e9 * m["coupling.sim_s"] / steps if steps else 0.0
    m["coupling.substreams"] = len(spans("numpy.seed_sequence", "coupling.sim"))
    m["coupling.substream_s"] = total(spans("numpy.seed_sequence", "coupling.sim")
                                      + spans("numpy.default_rng", "coupling.sim"))
    m["coupling.peak_mb"] = max((rows[i][5]["peak_mb"] for i in sim), default=0.0)

    experiments = []
    for name in EXPERIMENTS:
        ids = spans("montecarlo." + name)
        experiments += ids
        m[f"montecarlo.{name}_s"] = total(ids)
    m["montecarlo.self_s"] = float(sum(self_time(i) for i in experiments))
    m["montecarlo.substreams"] = len(spans("numpy.seed_sequence", "montecarlo."))

    sweeps = spans("gp_mcmc.sweep")
    sweep_s = total(sweeps)
    m["gp_mcmc.sweep_s"] = sweep_s
    m["gp_mcmc.generate_data_s"] = total(spans("gp_mcmc.generate_data"))
    m["gp_mcmc.eigh_s"] = total(spans("numpy.eigh", "gp_mcmc."))
    m["gp_mcmc.eigh_calls"] = len(spans("numpy.eigh", "gp_mcmc."))
    m["gp_mcmc.cholesky_s"] = total(spans("scipy.cho_factor", "gp_mcmc.")
                                    + spans("scipy.cho_solve", "gp_mcmc."))
    m["gp_mcmc.cholesky_calls"] = len(spans("scipy.cho_factor", "gp_mcmc."))
    m["gp_mcmc.lowrank_table_s"] = total(spans("gp_mcmc.lowrank_table"))
    m["gp_mcmc.lowrank_table_calls"] = len(spans("gp_mcmc.lowrank_table"))
    m["gp_mcmc.logsumexp_s"] = total(spans("gp_mcmc.logsumexp"))
    m["gp_mcmc.logsumexp_calls"] = len(spans("gp_mcmc.logsumexp"))
    m["gp_mcmc.self_s"] = float(sum(self_time(i) for i in sweeps))
    m["gp_mcmc.rows"] = sum(rows[i][5]["rows"] for i in sweeps)
    busy = sum(dur(k) for i in sweeps for k in children[i])
    m["gp_mcmc.busy_over_wall"] = busy / sweep_s if sweep_s else 0.0
    cpu = sum(rows[i][5]["cpu_s"] for i in sweeps)
    m["gp_mcmc.cpu_over_wall"] = cpu / sweep_s if sweep_s else 0.0

    mains = spans("cli.main")
    load = write = 0.0
    for i in mains:
        kids = [rows[k] for k in children[i]]
        if kids:
            load += min(k[1] for k in kids) - rows[i][1]
            write += rows[i][2] - max(k[2] for k in kids)
    m["cli.load_s"] = load
    m["cli.write_s"] = write
    m["trace.spans"] = n
    return m
