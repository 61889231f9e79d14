"""Which calls the traced run wraps, and the per-layer metrics.

Each :class:`~tracer.Site` names a public function or method at the
import site a workload reaches it through, so the wrapper sees exactly
the calls that workload makes.  ``PER_LAYER`` lists every per-layer
metric with its unit; a layer a workload never enters reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np
from tracer import ROOT, LayerStats, Site, Tracer, summarize, tick_ms


def _n_injected(args, result) -> int:
    return result.n_injected


def _queries(args, result) -> int:
    return len(args[1])


def _keys(args, result) -> int:
    return len(args[0])


def _body_bytes(args, result) -> int:
    return len(args[2]) if len(args) > 2 else 0


def _exchanges(args, result) -> int:
    return result.exchanges


_BACKENDS = "repro.workload.backends"
_TRANSPORT = "repro.cluster.transport"

SITES = (
    # repro.data: keyset generation (attack set-up, trace base keys)
    Site("repro.data.synthetic", "uniform_keyset", "data.keyset"),
    Site("repro.data.synthetic", "lognormal_keyset", "data.keyset"),
    Site("repro.workload.trace", "uniform_keyset", "data.keyset"),
    # repro.core: Algorithms 1 and 2
    Site("repro.core", "greedy_poison", "core.greedy", _n_injected),
    Site("repro.core.rmi_attack", "greedy_poison", "core.greedy",
         _n_injected),
    Site("repro.workload.trace", "greedy_poison", "core.greedy",
         _n_injected),
    Site("repro.core._fastpath:GreedyWorkspace", "best_candidate",
         "core.greedy.best_candidate"),
    Site("repro.core._fastpath:GreedyWorkspace", "insert",
         "core.greedy.insert"),
    Site("repro.core.greedy", "fit_cdf_regression",
         "core.cdf_regression.fit"),
    Site("repro.core.rmi_attack", "fit_cdf_regression",
         "core.cdf_regression.fit"),
    Site("repro.defense.trim", "fit_cdf_regression",
         "core.cdf_regression.fit"),
    Site("repro.core", "poison_rmi", "core.rmi_attack", _exchanges),
    # repro.index: last-mile search and the dynamic index's merge
    Site(_BACKENDS, "windowed_search_batch", "index.windowed_search",
         _queries),
    Site("repro.index.sorted_store", "windowed_search_batch",
         "index.windowed_search", _queries),
    Site(_BACKENDS, "side_table_search", "index.side_table_search"),
    Site("repro.index.dynamic", "side_table_search",
         "index.side_table_search"),
    Site("repro.index.dynamic:DynamicLearnedIndex", "flush",
         "index.dynamic.flush"),
    # repro.workload: trace, backends, the serving loop
    Site("repro.workload", "generate_trace", "workload.trace.generate"),
    Site("repro.workload", "make_backend", "workload.backend.build"),
    Site(f"{_BACKENDS}:ServingBackend", "replay_ops",
         "workload.replay_ops"),
    Site(_BACKENDS, "decompose_ops", "workload.decompose"),
    Site(_BACKENDS, "sorted_insert_unique",
         "workload.sorted_insert_unique"),
    Site(f"{_BACKENDS}:ServingBackend", "rebuild", "workload.rebuild"),
    Site(f"{_BACKENDS}:DynamicBackend", "rebuild", "workload.rebuild"),
    Site("repro.workload.simulator:ServingSimulator", "_sample_cost",
         "workload.sample_cost"),
    Site("repro.workload.simulator:ServingSimulator", "run",
         "workload.simulator"),
    # repro.defense: the TRIM screen at retrain time
    Site(_BACKENDS, "trim_cdf", "defense.trim_cdf", _keys),
    # repro.cluster: router, replica groups, wire transport
    Site("repro.cluster.router:ClusterRouter", "replay_ops",
         "cluster.router.replay_ops"),
    Site("repro.cluster.replication:ReplicaGroup", "replay_ops",
         "cluster.replica_group.replay"),
    Site("repro.cluster.replication:ReplicaGroup", "lookup_batch",
         "cluster.replica_group.lookup"),
    Site("repro.cluster.replication:ReplicaGroup", "detect",
         "cluster.replica_group.detect"),
    Site(f"{_TRANSPORT}:WorkerClient", "replay",
         "cluster.transport.replay"),
    Site(f"{_TRANSPORT}:WorkerClient", "lookup",
         "cluster.transport.lookup"),
    Site(f"{_TRANSPORT}:WorkerClient", "call", "cluster.transport.rpc",
         _body_bytes),
    Site(f"{_TRANSPORT}:TransportBook", "plan_attempt",
         "cluster.transport.attempt"),
    Site(_TRANSPORT, "encode_event_batch", "cluster.transport.encode"),
    Site("repro.cluster.simulator:ClusterSimulator", "_sample_cost",
         "cluster.sample_cost"),
    Site("repro.cluster.simulator:ClusterSimulator", "run",
         "cluster.simulator"),
)

#: Every per-layer metric: (name, unit, better).
PER_LAYER = (
    ("core.greedy.calls", "count", "lower"),
    ("core.greedy.s", "s", "lower"),
    ("core.greedy.keys_per_call", "count", "higher"),
    ("core.greedy.best_candidate.s", "s", "lower"),
    ("core.greedy.insert.s", "s", "lower"),
    ("core.cdf_regression.fit.calls", "count", "lower"),
    ("core.cdf_regression.fit.s", "s", "lower"),
    ("core.rmi_attack.self_s", "s", "lower"),
    ("core.rmi_attack.exchanges", "count", "lower"),
    ("index.windowed_search.calls", "count", "lower"),
    ("index.windowed_search.s", "s", "lower"),
    ("index.windowed_search.keys_per_call", "count", "higher"),
    ("index.side_table_search.calls", "count", "lower"),
    ("index.side_table_search.s", "s", "lower"),
    ("index.dynamic.flush.calls", "count", "lower"),
    ("index.dynamic.flush.s", "s", "lower"),
    ("workload.trace.generate.s", "s", "lower"),
    ("workload.replay_ops.calls", "count", "lower"),
    ("workload.replay_ops.s", "s", "lower"),
    ("workload.replay_ops.self_s", "s", "lower"),
    ("workload.decompose.s", "s", "lower"),
    ("workload.sorted_insert_unique.calls", "count", "lower"),
    ("workload.sorted_insert_unique.s", "s", "lower"),
    ("workload.rebuild.calls", "count", "lower"),
    ("workload.rebuild.s", "s", "lower"),
    ("workload.sample_cost.s", "s", "lower"),
    ("workload.simulator.self_s", "s", "lower"),
    ("serving.tick_ms.p50", "ms", "lower"),
    ("serving.tick_ms.p95", "ms", "lower"),
    ("defense.trim_cdf.calls", "count", "lower"),
    ("defense.trim_cdf.s", "s", "lower"),
    ("defense.trim_cdf.keys", "count", "lower"),
    ("cluster.spawn_s", "s", "lower"),
    ("cluster.router.replay_ops.s", "s", "lower"),
    ("cluster.router.replay_ops.self_s", "s", "lower"),
    ("cluster.replica_group.replay.self_s", "s", "lower"),
    ("cluster.transport.rpc.calls", "count", "lower"),
    ("cluster.transport.rpc.s", "s", "lower"),
    ("cluster.transport.encode.s", "s", "lower"),
    ("cluster.transport.bytes_sent", "bytes", "lower"),
    ("cluster.transport.rpcs_per_tick", "count", "lower"),
    ("cluster.transport.retries", "count", "lower"),
    ("cluster.degraded_ticks", "count", "lower"),
    ("cluster.simulator.self_s", "s", "lower"),
    ("cluster.tick_ms.p50", "ms", "lower"),
    ("cluster.tick_ms.p95", "ms", "lower"),
    ("driver.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: (tick span, loop span) of each simulator, for tick latencies.
TICKS = {
    "serving": ("workload.replay_ops", "workload.simulator"),
    "cluster": ("cluster.router.replay_ops", "cluster.simulator"),
}


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile of ``values``; 0 when there are none."""
    return float(np.percentile(values, q)) if values else 0.0


def tick_summary(tracer: Tracer, kind: str) -> tuple[int, float, float]:
    """(ticks, p50 ms, p95 ms) over every traced pass."""
    ticks = tick_ms(tracer, *TICKS[kind])
    return len(ticks), percentile(ticks, 50), percentile(ticks, 95)


def per_layer(tracer: Tracer, degraded_ticks: int,
              untraced_wall_s: list[float]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced passes in ``tracer``.

    Times and counts are per traced pass (the log may hold several
    root spans); tick percentiles pool every tick of every pass.
    """
    stats = summarize(tracer)
    passes = max(stats.get(ROOT, LayerStats()).calls, 1)

    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    def avg(value: float) -> float:
        return value / passes

    def per_call(name: str) -> float:
        row = get(name)
        return row.work / row.calls if row.calls else 0.0

    serving_ticks, serving_p50, serving_p95 = tick_summary(tracer,
                                                           "serving")
    cluster_ticks, cluster_p50, cluster_p95 = tick_summary(tracer,
                                                           "cluster")
    rpc, attempts = get("cluster.transport.rpc"), \
        get("cluster.transport.attempt")
    wall = avg(get(ROOT).total_s)
    return {
        "core.greedy.calls": avg(get("core.greedy").calls),
        "core.greedy.s": avg(get("core.greedy").total_s),
        "core.greedy.keys_per_call": per_call("core.greedy"),
        "core.greedy.best_candidate.s":
            avg(get("core.greedy.best_candidate").total_s),
        "core.greedy.insert.s": avg(get("core.greedy.insert").total_s),
        "core.cdf_regression.fit.calls":
            avg(get("core.cdf_regression.fit").calls),
        "core.cdf_regression.fit.s":
            avg(get("core.cdf_regression.fit").total_s),
        "core.rmi_attack.self_s": avg(get("core.rmi_attack").self_s),
        "core.rmi_attack.exchanges": avg(get("core.rmi_attack").work),
        "index.windowed_search.calls":
            avg(get("index.windowed_search").calls),
        "index.windowed_search.s":
            avg(get("index.windowed_search").total_s),
        "index.windowed_search.keys_per_call":
            per_call("index.windowed_search"),
        "index.side_table_search.calls":
            avg(get("index.side_table_search").calls),
        "index.side_table_search.s":
            avg(get("index.side_table_search").total_s),
        "index.dynamic.flush.calls": avg(get("index.dynamic.flush").calls),
        "index.dynamic.flush.s": avg(get("index.dynamic.flush").total_s),
        "workload.trace.generate.s":
            avg(get("workload.trace.generate").total_s),
        "workload.replay_ops.calls": avg(get("workload.replay_ops").calls),
        "workload.replay_ops.s": avg(get("workload.replay_ops").total_s),
        "workload.replay_ops.self_s":
            avg(get("workload.replay_ops").self_s),
        "workload.decompose.s": avg(get("workload.decompose").total_s),
        "workload.sorted_insert_unique.calls":
            avg(get("workload.sorted_insert_unique").calls),
        "workload.sorted_insert_unique.s":
            avg(get("workload.sorted_insert_unique").total_s),
        "workload.rebuild.calls": avg(get("workload.rebuild").calls),
        "workload.rebuild.s": avg(get("workload.rebuild").total_s),
        "workload.sample_cost.s": avg(get("workload.sample_cost").total_s),
        "workload.simulator.self_s":
            avg(get("workload.simulator").self_s),
        "serving.tick_ms.p50": serving_p50,
        "serving.tick_ms.p95": serving_p95,
        "defense.trim_cdf.calls": avg(get("defense.trim_cdf").calls),
        "defense.trim_cdf.s": avg(get("defense.trim_cdf").total_s),
        "defense.trim_cdf.keys": avg(get("defense.trim_cdf").work),
        "cluster.spawn_s": avg(get("cluster.spawn").total_s),
        "cluster.router.replay_ops.s":
            avg(get("cluster.router.replay_ops").total_s),
        "cluster.router.replay_ops.self_s":
            avg(get("cluster.router.replay_ops").self_s),
        "cluster.replica_group.replay.self_s":
            avg(get("cluster.replica_group.replay").self_s),
        "cluster.transport.rpc.calls": avg(rpc.calls),
        "cluster.transport.rpc.s": avg(rpc.total_s),
        "cluster.transport.encode.s":
            avg(get("cluster.transport.encode").total_s),
        "cluster.transport.bytes_sent": avg(rpc.work),
        "cluster.transport.rpcs_per_tick":
            rpc.calls / cluster_ticks if cluster_ticks else 0.0,
        # Each call that succeeds plans exactly one attempt; every
        # extra attempt is a retry.
        "cluster.transport.retries": avg(attempts.calls - rpc.calls),
        "cluster.degraded_ticks": float(degraded_ticks),
        "cluster.simulator.self_s": avg(get("cluster.simulator").self_s),
        "cluster.tick_ms.p50": cluster_p50,
        "cluster.tick_ms.p95": cluster_p95,
        "driver.self_s": avg(get(ROOT).self_s),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - statistics.mean(untraced_wall_s),
    }


def layer_table(tracer: Tracer) -> list[tuple[str, int, float, float]]:
    """(layer, calls, inclusive s, self s) per pass, largest self time
    first, root last; the self column sums to the wall time."""
    stats = summarize(tracer)
    passes = max(stats.get(ROOT, LayerStats()).calls, 1)
    rows = [(name, round(row.calls / passes), row.total_s / passes,
             row.self_s / passes)
            for name, row in stats.items() if name != ROOT]
    rows.sort(key=lambda row: -row[3])
    root = stats.get(ROOT, LayerStats())
    rows.append((f"{ROOT}.self", passes, root.total_s / passes,
                 root.self_s / passes))
    return rows
