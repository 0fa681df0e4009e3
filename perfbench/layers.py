"""Per-layer measurement for the traced run of ``perfbench/run.py``.

Everything here measures ``repro`` from outside, through its public names:

* :class:`Tracer` wraps ``decrease_es`` / ``phase1_out_neighbors`` /
  ``mcs_spread`` and the pieces of ``build_workload`` *as the calling
  modules imported them*, for call counts, call times and the Δ̂ arrays.
* Spark's Python workers re-import ``repro``, so driver-side wrappers never
  see the executor kernels. :func:`replay` gets the sampling / dominator
  split by re-running the first AG round's θ samples on the driver through
  ``sample_reachable`` / ``lengauer_tarjan`` / ``subtree_sizes`` with the
  same ``sample_rng`` streams.

``PER_LAYER_UNITS`` lists every metric the traced run reports. Which
end-to-end metric each should move, on which workload, is in README.md.
"""
from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

PER_LAYER_UNITS = {
    # repro.graphs / repro.experiments.harness (the one build of the set-up)
    "graphs.load_s": "s",
    "graphs.assign_model_s": "s",
    "graphs.merge_seeds_s": "s",
    "graphs.localgraph_s": "s",
    "graphs.n": "vertices",
    "graphs.m": "edges",
    "spark.session_start_s": "s",
    # repro.core.sampling (driver replay of the first AG round)
    "sampling.s_per_sample": "s",
    "sampling.us_per_edge": "us",
    "sampling.mean_v": "vertices",
    "sampling.mean_e": "edges",
    "sampling.tree_share": "share",
    "sampling.merge_share": "share",
    # repro.core.dominator (same replay)
    "dominator.lt_s_per_sample": "s",
    "dominator.subtree_s_per_sample": "s",
    "dominator.us_per_edge": "us",
    # repro.core.decrease
    "decrease.calls_ag": "count",
    "decrease.calls_gr": "count",
    "decrease.samples_total": "count",
    "decrease.call_s.p50": "s",
    "decrease.call_s.p90": "s",
    "decrease.local_s": "s",
    "decrease.spark_s": "s",
    "decrease.job_overhead_s": "s",
    # repro.core.spread
    "spread.mcs_s": "s",
    "spread.mcs_calls": "count",
    "spread.se_ag": "vertices",
    "spread.se_gr": "vertices",
    # repro.algorithms
    "algorithms.gr_phase1_rounds": "count",
    "algorithms.gr_phase2_rounds": "count",
    "algorithms.gr_allzero_rounds": "count",
    "algorithms.bg_candidates": "count",
    "algorithms.bg_over_ag_round": "bg_rnd/ag_rnd",
    # the run itself
    "failed_ops": "share",
    "trace.ag_s": "s",
    "trace.gr_s": "s",
    "trace.wrapper_s": "s",
}

#: Spark calls of one sample per partition behind decrease.job_overhead_s.
JOB_OVERHEAD_CALLS = 3


class Tracer:
    """Times calls into the layers by rebinding the names callers use."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)
        self.samples = 0
        self.wrapper_s = 0.0
        self.in_phase1 = False
        self.phase1_calls = 0
        self.allzero = 0
        self.first_ag_call: tuple | None = None
        self.graph_sizes: tuple[int, int] | None = None
        self.warm_calls: dict[str, int] = {}

    def end_warmup(self) -> None:
        """Mark the calls made so far as untimed set-up (build and warm-up)."""
        self.warm_calls = {name: len(ts) for name, ts in self.times.items()}

    def _wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed under ``name``; hooks get its arguments by name."""
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            call = sig.bind(*args, **kwargs).arguments
            if before is not None:
                before(call)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.times[name].append(t1 - t0)
            if after is not None:
                after(call, out)
            self.wrapper_s += (t0 - t_in) + (time.perf_counter() - t1)
            return out

        return wrapper

    # -- hooks -------------------------------------------------------------
    def _ag_call(self, call):
        self.samples += call["theta"]
        if self.first_ag_call is None:
            blocked = call.get("blocked")
            self.first_ag_call = (
                call["g"], call["theta"], call.get("seed", 0),
                None if blocked is None else blocked.copy(),
            )

    def _gr_call(self, call):
        self.samples += call["theta"]
        self.phase1_calls += self.in_phase1

    def _gr_result(self, call, delta):
        seed = call["g"].seed
        if not self.in_phase1 and np.count_nonzero(delta) == (delta[seed] != 0):
            self.allzero += 1  # every candidate's Δ̂ is 0

    def _phase1(self, fn):
        def wrapper(*args, **kwargs):
            self.in_phase1 = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_phase1 = False

        return wrapper

    def _localgraph(self, call, g):
        self.graph_sizes = (g.n, g.m)

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        import repro.algorithms.advanced_greedy as ag_mod
        import repro.algorithms.greedy_replace as gr_mod
        import repro.experiments.harness as harness
        from repro.graphs.localgraph import LocalGraph

        patches = [
            (ag_mod, "decrease_es", self._wrap("decrease.ag", ag_mod.decrease_es, self._ag_call)),
            (gr_mod, "decrease_es", self._wrap(
                "decrease.gr", gr_mod.decrease_es, self._gr_call, self._gr_result)),
            (gr_mod, "phase1_out_neighbors", self._phase1(gr_mod.phase1_out_neighbors)),
            (harness, "mcs_spread", self._wrap("spread.mcs", harness.mcs_spread)),
            (harness, "load", self._wrap("graphs.load", harness.load)),
            (harness, "assign_model", self._wrap("graphs.assign_model", harness.assign_model)),
            (harness, "merge_seeds", self._wrap("graphs.merge_seeds", harness.merge_seeds)),
            (LocalGraph, "from_edges", staticmethod(self._wrap(
                "graphs.localgraph", LocalGraph.from_edges, after=self._localgraph))),
        ]
        saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
        try:
            for obj, name, new in patches:
                setattr(obj, name, new)
            yield self
        finally:
            for obj, name, old in saved:
                setattr(obj, name, old)


def replay(g, theta: int, seed: int, blocked) -> dict:
    """Re-run one decrease_es call's θ samples on the driver, timing each kernel.

    Mirrors ``repro.core.decrease._delta_partition``; the compaction of a
    sample to ids 0..k-1 counts toward Lengauer-Tarjan.
    """
    from repro.core.dominator import lengauer_tarjan, subtree_sizes
    from repro.core.sampling import sample_reachable, sample_rng

    t_sample = t_lt = t_sub = 0.0
    n_v = n_e = trees = merges = 0
    for sid in range(theta):
        t0 = time.perf_counter()
        verts, edges = sample_reachable(g, sample_rng(seed, sid), blocked)
        t1 = time.perf_counter()
        t_sample += t1 - t0
        k, e = verts.shape[0], edges.shape[0]
        n_v += k
        n_e += e
        trees += e == k - 1
        if e:
            merges += int((np.bincount(edges[:, 1]) >= 2).sum())
        if k <= 1:
            continue
        t1 = time.perf_counter()
        sorted_vs = np.sort(verts)
        edges_c = np.searchsorted(sorted_vs, edges)
        root_c = int(np.searchsorted(sorted_vs, g.seed))
        idom = lengauer_tarjan(k, edges_c, root_c)
        t2 = time.perf_counter()
        subtree_sizes(idom, root_c)
        t3 = time.perf_counter()
        t_lt += t2 - t1
        t_sub += t3 - t2
    us_edge = 1e6 / max(n_e, 1)
    return {
        "sampling.s_per_sample": t_sample / theta,
        "sampling.us_per_edge": t_sample * us_edge,
        "sampling.mean_v": n_v / theta,
        "sampling.mean_e": n_e / theta,
        "sampling.tree_share": trees / theta,
        "sampling.merge_share": merges / max(n_v, 1),
        "dominator.lt_s_per_sample": t_lt / theta,
        "dominator.subtree_s_per_sample": t_sub / theta,
        "dominator.us_per_edge": (t_lt + t_sub) * us_edge,
    }


def sigma_se(wl, blockers_orig, *, r: int, seed: int) -> float:
    """SE = std/√r of ``eval_spread``, from all r of its samples replayed on the driver."""
    from repro.core.sampling import sample_reachable, sample_rng

    blocked = wl.to_blocked_mask(blockers_orig)
    sigma = [
        sample_reachable(wl.graph, sample_rng(seed, sid), blocked)[0].shape[0]
        for sid in range(r)
    ]
    return float(np.std(sigma, ddof=1) / np.sqrt(r)) if r > 1 else 0.0


def probe(
    tracer: Tracer, *, spark, ledger, wl, spec, warm, passes, bg_candidates, eval_seed
) -> dict:
    """Per-layer metrics from the traced passes plus the driver-side probes.

    Every pass, the untimed warm-up pass ``warm`` too, makes the same calls,
    so counts are reported per pass; times are medians over ``passes``.
    """
    from repro.core.decrease import decrease_es

    g = wl.graph
    t = tracer.times
    med = statistics.median
    k = len(passes) + 1
    timed = {name: ts[tracer.warm_calls.get(name, 0):] for name, ts in t.items()}
    calls = timed["decrease.ag"] + timed["decrease.gr"]
    ag_s = med(p["ag_s"] for p in passes)
    out = {
        "graphs.load_s": med(t["graphs.load"]),
        "graphs.assign_model_s": med(t["graphs.assign_model"]),
        "graphs.merge_seeds_s": med(t["graphs.merge_seeds"]),
        "graphs.localgraph_s": med(t["graphs.localgraph"]),
        "graphs.n": tracer.graph_sizes[0],
        "graphs.m": tracer.graph_sizes[1],
        "decrease.calls_ag": len(t["decrease.ag"]) / k,
        "decrease.calls_gr": len(t["decrease.gr"]) / k,
        "decrease.samples_total": tracer.samples / k,
        "decrease.call_s.p50": float(np.percentile(calls, 50)),
        "decrease.call_s.p90": float(np.percentile(calls, 90)),
        "spread.mcs_s": sum(timed["spread.mcs"]) / len(passes),
        "spread.mcs_calls": len(t["spread.mcs"]) / k,
        "algorithms.gr_phase1_rounds": tracer.phase1_calls / k,
        "algorithms.gr_phase2_rounds": (len(t["decrease.gr"]) - tracer.phase1_calls) / k,
        "algorithms.gr_allzero_rounds": tracer.allzero / k,
        "algorithms.bg_candidates": bg_candidates,
        "algorithms.bg_over_ag_round": med(p["bg_round_s"] for p in passes)
        / (ag_s / (len(t["decrease.ag"]) / k)),
        "trace.ag_s": ag_s,
        "trace.gr_s": med(p["gr_s"] for p in passes),
        "trace.wrapper_s": tracer.wrapper_s / k,
    }

    # A Spark call with one sample per partition on a warm session: the
    # per-job cost that does not scale with θ.
    par = spark.sparkContext.defaultParallelism
    job_s = []
    for _ in range(JOB_OVERHEAD_CALLS):
        t0 = time.perf_counter()
        decrease_es(g, theta=par, seed=0, spark=spark)
        job_s.append(time.perf_counter() - t0)
    out["decrease.job_overhead_s"] = med(job_s)

    # Local vs Spark on the first AG round's arguments: same θ, seed and mask.
    g0, theta, seed, blocked = tracer.first_ag_call
    t0 = time.perf_counter()
    local = decrease_es(g0, theta=theta, seed=seed, blocked=blocked)
    t1 = time.perf_counter()
    dist = decrease_es(g0, theta=theta, seed=seed, blocked=blocked, spark=spark)
    t2 = time.perf_counter()
    out["decrease.local_s"], out["decrease.spark_s"] = t1 - t0, t2 - t1
    ledger.record(
        "decrease_es local == spark",
        None if np.array_equal(local, dist) else "local and Spark Δ differ",
    )
    out.update(replay(g0, theta, seed, blocked))

    for key, B in (("spread.se_ag", warm["ag"]), ("spread.se_gr", warm["gr"])):
        out[key] = sigma_se(wl, [int(g.orig_ids[u]) for u in B], r=spec.r_eval, seed=eval_seed)
    out["failed_ops"] = ledger.failed / max(ledger.attempted, 1)
    return out
