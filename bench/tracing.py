"""Timing spans around ppcavity's layers, installed in a traced pass only.

The hooks wrap the callables that ``ppcavity.cli`` hands to the engines
(drift, noise, observable batch, initial sampler) by patching the public
builders that ``cli`` looks up by name, plus the module functions that the
engines call by name (``BasisFamily.jet``/``pair``, ``reference.master_rhs``,
``reference.build_hamiltonian``).  Nothing under ``src/`` is edited; the
patches live in the traced process only.

Each span records its name, start, end, parent, run id and thread.  Spans stay
in memory until the pass ends.  A span's self time is its duration minus the
union of the intervals its children cover.  Spans opened on a worker thread
with no open span of their own adopt the enclosing ``sde.run_ensemble`` span
as parent; the thread-pool tasks of an ensemble are wrapped in ``sde.chunk``
spans so each worker thread has one root per chunk.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

ID, NAME, START, END, PARENT, RUN, THREAD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = None
        self.adopt_parent = None  # parent for spans on threads with no open span
        self.missing: list[str] = []
        self.ensembles: list[dict] = []
        self.rhs_flops = 0.0
        self.csv_bytes = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self.adopt_parent
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.run_id, threading.get_ident())
            )

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- hooks -----------------------------------------------------------------

    def patch(self, owner, attr, name):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return None
        setattr(owner, attr, self.wrap(name, original))
        return original

    def patch_builder(self, owner, attr, adapt):
        """Wrap what a builder returns, e.g. the callables of an SdeSystem."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(original)
        def built(*args, **kwargs):
            return adapt(original(*args, **kwargs))

        setattr(owner, attr, built)

    def install(self):
        from ppcavity import basis, cli, reference, sde

        self.patch(basis.BasisFamily, "jet", "basis.jet")
        self.patch(basis.BasisFamily, "pair", "basis.pair")
        self.patch(reference, "build_hamiltonian", "reference.build")
        rhs = getattr(reference, "master_rhs", None)
        if rhs is None:
            self.missing.append("reference.master_rhs")
        else:

            @functools.wraps(rhs)
            def master_rhs(params, rho, *args, **kwargs):
                dim = np.shape(rho)[0]
                self.rhs_flops += 8.0 * dim**3  # one dense complex dim x dim product
                return self.call("reference.master_rhs", rhs, params, rho, *args, **kwargs)

            reference.master_rhs = master_rhs
        self.patch(cli, "initial_density", "reference.build")
        self.patch(cli, "evolve", "reference.evolve")
        self.patch(cli, "evolve_mb", "maxwell_bloch.evolve_mb")
        self.patch(cli, "run_all", "invariants.run_all")
        self.patch(cli, "parse_config", "cli.parse_config")
        self.patch(cli, "init_points", "initialization.init_points")
        write_csv = self.patch(cli, "write_csv", "cli.write_csv")
        if write_csv is not None:
            traced_write = cli.write_csv

            def write_and_count(path, *args, **kwargs):
                out = traced_write(path, *args, **kwargs)
                self.csv_bytes += os.path.getsize(path)
                return out

            cli.write_csv = write_and_count

        def sampler(name):
            return lambda fn: self.wrap(name, fn)

        def system(drift_name, noise_name):
            return lambda sys_: replace(
                sys_,
                drift=self.wrap(drift_name, sys_.drift),
                noise=self.wrap(noise_name, sys_.noise),
            )

        def bundle(name):
            def adapt(obs):
                obs.batch = self.wrap(name, obs.batch)
                return obs

            return adapt

        self.patch_builder(cli, "phase_init_sampler", sampler("initialization.sample"))
        self.patch_builder(cli, "physical_init_sampler", sampler("physical.init_sample"))
        self.patch_builder(cli, "jc_sde_system", system("jc.drift", "jc.noise"))
        self.patch_builder(
            cli, "physical_sde_system", system("physical.drift_bar", "physical.noise_bar")
        )
        self.patch_builder(cli, "observable_bundle", bundle("observables.batch"))
        self.patch_builder(cli, "physical_observable_bundle", bundle("physical.batch"))
        self._install_ensemble(cli, sde)

    def _install_ensemble(self, cli, sde):
        run_ensemble = getattr(cli, "run_ensemble", None)
        if run_ensemble is None:
            self.missing.append("cli.run_ensemble")
            return
        signature = inspect.signature(run_ensemble)
        tracer = self

        @functools.wraps(run_ensemble)
        def traced_ensemble(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            info = dict(bound.arguments)
            outer = tracer.adopt_parent
            span = []

            def body():
                span.append(tracer._stack()[-1])
                tracer.adopt_parent = span[0]
                return run_ensemble(*args, **kwargs)

            try:
                result = tracer.call("sde.run_ensemble", body)
            finally:
                tracer.adopt_parent = outer
            tracer.ensembles.append(
                {
                    "span": span[0],
                    "runs": int(info["runs"]),
                    "steps": int(info["grid"].steps),
                    "dt": float(info["grid"].dt),
                    "master_seed": int(info["master_seed"]),
                    "noise_dim": int(info["system"].noise_dim),
                    "chunk": int(info.get("chunk_size") or info["runs"]),
                    "observables": len(result.names),
                    "diverged": int(result.runs_diverged),
                }
            )
            return result

        cli.run_ensemble = traced_ensemble

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                def chunk(*a, **k):
                    return tracer.call("sde.chunk", fn, *a, **k)

                return super().submit(chunk, *args, **kwargs)

        if hasattr(sde, "ThreadPoolExecutor"):
            sde.ThreadPoolExecutor = TracedPool
        else:
            self.missing.append("sde.ThreadPoolExecutor")

    # -- analysis --------------------------------------------------------------

    def rng_draw_seconds(self, path_generator):
        """Time drawing every chunk's Wiener increments of each ensemble again.

        Uses the public per-path stream, the same draw shape and the same
        chunking as the ensemble; it runs after the pass, outside its spans.
        """
        total = 0.0
        for ens in self.ensembles:
            runs, chunk = ens["runs"], ens["chunk"]
            shape = (ens["steps"], ens["noise_dim"])
            sqrt_dt = math.sqrt(ens["dt"])
            for start in range(0, runs, chunk):
                t0 = time.perf_counter()
                gens = [
                    path_generator(ens["master_seed"], r)
                    for r in range(start, min(start + chunk, runs))
                ]
                draws = np.stack([g.standard_normal(shape) for g in gens]) * sqrt_dt
                total += time.perf_counter() - t0
                del draws
        return total

    def analyse(self):
        """Self times, per-layer totals and a nesting check of the spans."""
        by_id = {s[ID]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append(s)
        self_time = {}
        for s in self.spans:
            self_time[s[ID]] = (s[END] - s[START]) - _covered(s, children[s[ID]])

        nesting_ok = True
        worst_sum_error = 0.0
        for s in self.spans:
            same = sorted(
                (c for c in children[s[ID]] if c[THREAD] == s[THREAD]), key=lambda c: c[START]
            )
            last_end = s[START]
            for c in same:
                if c[START] < last_end or c[END] > s[END]:
                    nesting_ok = False
                last_end = c[END]
        # per thread: self times of a root's subtree plus the time its
        # cross-thread children cover add up to the root's duration
        for s in self.spans:
            parent = by_id.get(s[PARENT])
            if parent is not None and parent[THREAD] == s[THREAD]:
                continue
            total = 0.0
            todo = [s]
            while todo:
                node = todo.pop()
                total += self_time[node[ID]]
                same = [c for c in children[node[ID]] if c[THREAD] == node[THREAD]]
                cross = [c for c in children[node[ID]] if c[THREAD] != node[THREAD]]
                total += _covered(node, cross) - _overlap(same, cross, node)
                todo.extend(same)
            worst_sum_error = max(worst_sum_error, abs(total - (s[END] - s[START])))

        totals = defaultdict(float)
        selfs = defaultdict(float)
        calls = defaultdict(int)
        for s in self.spans:
            totals[s[NAME]] += s[END] - s[START]
            selfs[s[NAME]] += self_time[s[ID]]
            calls[s[NAME]] += 1

        workers = 0
        for ens in self.ensembles:
            threads = {
                s[THREAD]
                for s in self.spans
                if s[NAME] != "sde.run_ensemble" and _has_ancestor(s, ens["span"], by_id)
            }
            workers = max(workers, len(threads))
        return {
            "totals": dict(totals),
            "selfs": dict(selfs),
            "calls": dict(calls),
            "ensemble_workers": workers,
            "nesting_ok": nesting_ok,
            "sum_error_s": worst_sum_error,
            "span_count": len(self.spans),
        }

    def dump(self, path):
        threads = {}
        rows = [
            [s[ID], s[NAME], s[START], s[END], s[PARENT], s[RUN], threads.setdefault(s[THREAD], len(threads))]
            for s in sorted(self.spans, key=lambda s: s[START])
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "run", "thread"], "spans": rows}, handle)


def _intervals(parent, spans):
    out = []
    for c in spans:
        lo, hi = max(c[START], parent[START]), min(c[END], parent[END])
        if hi > lo:
            out.append((lo, hi))
    return sorted(out)


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _covered(parent, spans):
    return _union_length(_intervals(parent, spans))


def _overlap(same, cross, parent):
    """Length of the cross-thread coverage that also lies under same-thread children."""
    if not same or not cross:
        return 0.0
    both = _union_length(_intervals(parent, same)) + _union_length(_intervals(parent, cross))
    return both - _union_length(_intervals(parent, list(same) + list(cross)))


def _has_ancestor(span, ancestor_id, by_id):
    parent = span[PARENT]
    while parent is not None:
        if parent == ancestor_id:
            return True
        parent = by_id[parent][PARENT] if parent in by_id else None
    return False
