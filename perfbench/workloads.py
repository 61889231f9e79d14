"""The benchmark's four workloads.

Each workload is a closed loop with one caller.  A *pass* sets the
workload up (generates its inputs from the seed unless it is handed
the inputs of an earlier pass, then builds backends or spawns worker
processes) and does its timed work once, lane by lane.  Every call
into the program goes through a module attribute (``core.poison_rmi``
rather than a name imported here), so the traced run's wrappers see
it.  ``span`` is :func:`tracer.no_span` on untraced passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import cluster, core, workload
from repro.core.threat_model import RMIAttackerCapability
from repro.data import synthetic
from repro.data.keyset import Domain, KeySet

Span = Callable[[str], Any]

#: Ticks the serve check replays through the scalar reference path.
PARITY_TICKS = 4


@dataclass
class Pass:
    """One pass: set-up time, per-lane work, and what it produced."""

    #: Input generation (when this pass generated them) plus build.
    setup_s: float
    #: The generated inputs, reusable by a later pass of the same seed.
    inputs: Any
    #: lane -> (work items, seconds)
    lanes: dict[str, tuple[int, float]]
    #: Deterministic digests of the outputs; equal across passes of
    #: one seed, and pinned in ``expected.json`` for the default seed.
    outputs: dict[str, Any]
    #: The program's own result objects, for the parity checks.
    results: dict[str, Any] = field(repr=False, default_factory=dict)
    #: Summed peak resident set of the worker processes, in MB.
    worker_peak_mb: float = 0.0

    @property
    def ops(self) -> int:
        return sum(n for n, _ in self.lanes.values())

    @property
    def work_s(self) -> float:
        return sum(s for _, s in self.lanes.values())


def digest(payload: Any) -> str:
    """sha256 of a canonical JSON rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def keys_digest(keys: np.ndarray) -> str:
    raw = np.ascontiguousarray(keys, dtype="<i8").tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-9)


@dataclass(frozen=True)
class AttackWorkload:
    """Algorithm 1 on a uniform keyset, then Algorithm 2 on a
    lognormal one; the attacks run offline, so only ``repro.core``
    works."""

    name: str = "attack"
    greedy_keys: int = 5_000
    greedy_budget: int = 500
    rmi_keys: int = 5_000
    rmi_models: int = 50
    phi: float = 10.0
    alpha: float = 3.0

    def prepare(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        uniform = synthetic.uniform_keyset(
            self.greedy_keys, Domain.of_size(10 * self.greedy_keys), rng)
        lognormal = synthetic.lognormal_keyset(
            self.rmi_keys, Domain.of_size(100 * self.rmi_keys), rng)
        return uniform, lognormal

    def run_pass(self, seed: int, span: Span, inputs=None) -> Pass:
        started = time.perf_counter()
        if inputs is None:
            inputs = self.prepare(seed)
        uniform, lognormal = inputs
        setup_s = time.perf_counter() - started

        started = time.perf_counter()
        greedy = core.greedy_poison(uniform, self.greedy_budget)
        greedy_s = time.perf_counter() - started
        capability = RMIAttackerCapability(poisoning_percentage=self.phi,
                                           alpha=self.alpha)
        started = time.perf_counter()
        rmi = core.poison_rmi(lognormal, self.rmi_models, capability,
                              max_exchanges=2 * self.rmi_models)
        rmi_s = time.perf_counter() - started
        return Pass(
            setup_s=setup_s, inputs=inputs,
            lanes={"greedy": (greedy.n_injected, greedy_s),
                   "rmi_attack": (rmi.total_injected, rmi_s)},
            outputs={
                "greedy_poison": keys_digest(greedy.poison_keys),
                "greedy_ratio_loss": greedy.ratio_loss,
                "rmi_poison": keys_digest(rmi.poison_keys),
                "rmi_ratio_loss": rmi.rmi_ratio_loss,
                "rmi_exchanges": rmi.exchanges,
            },
            results={"uniform": uniform, "lognormal": lognormal,
                     "greedy": greedy, "rmi": rmi})

    def check(self, done: Pass) -> list[str]:
        """Recompute every reported loss with ``fit_cdf_regression``
        on the poisoned keysets the attacks describe."""
        res = done.results
        failures = []
        greedy = res["greedy"]
        poisoned = res["uniform"].insert(greedy.poison_keys)
        refit = core.fit_cdf_regression(poisoned).mse
        if greedy.n_injected != self.greedy_budget \
                or not _close(refit, greedy.loss_after):
            failures.append(
                f"greedy: {greedy.n_injected} keys, loss "
                f"{greedy.loss_after!r} but refit gives {refit!r}")
        rmi = res["rmi"]
        legit = res["lognormal"].keys
        clean = res["lognormal"].partition(self.rmi_models)
        edges = np.cumsum([0] + [r.n_keys for r in rmi.reports])
        if edges[-1] != legit.size:
            failures.append(f"rmi: partitions hold {edges[-1]} keys, "
                            f"keyset has {legit.size}")
            return failures
        for report, lo, hi, part in zip(rmi.reports, edges, edges[1:],
                                        clean):
            keys = legit[lo:hi]
            poison = rmi.poison_keys[(rmi.poison_keys > keys[0])
                                     & (rmi.poison_keys < keys[-1])]
            before = core.fit_cdf_regression(part).mse
            after = core.fit_cdf_regression(
                KeySet(np.concatenate([keys, poison]))).mse
            if poison.size != report.n_injected \
                    or not _close(before, report.loss_before) \
                    or not _close(after, report.loss_after):
                failures.append(
                    f"rmi model {report.model_index}: reported "
                    f"{report.n_injected} keys, loss "
                    f"{report.loss_before!r}->{report.loss_after!r}; "
                    f"refit gives {poison.size} keys, "
                    f"{before!r}->{after!r}")
        return failures


@dataclass(frozen=True)
class ServeWorkload:
    """One trace replayed through several single-node backends."""

    name: str
    lanes: tuple[str, ...]
    #: :class:`repro.workload.TraceSpec` fields other than the seed.
    spec: dict
    tick_ops: int
    trim_keep_fraction: "float | None" = None

    def _backend(self, lane: str, keys: np.ndarray):
        kwargs = ({} if self.trim_keep_fraction is None
                  else {"trim_keep_fraction": self.trim_keep_fraction})
        return workload.make_backend(lane, keys, **kwargs)

    def prepare(self, seed: int):
        return workload.generate_trace(
            workload.TraceSpec(seed=seed, **self.spec))

    def run_pass(self, seed: int, span: Span, inputs=None) -> Pass:
        started = time.perf_counter()
        trace = self.prepare(seed) if inputs is None else inputs
        backends = {lane: self._backend(lane, trace.base_keys)
                    for lane in self.lanes}
        setup_s = time.perf_counter() - started
        lanes, outputs, reports = {}, {}, {}
        for lane in self.lanes:
            started = time.perf_counter()
            report = workload.ServingSimulator(
                backends[lane], trace, tick_ops=self.tick_ops).run()
            lanes[lane] = (trace.n_ops, time.perf_counter() - started)
            outputs[lane] = digest(report.to_dict())
            reports[lane] = report
        return Pass(setup_s=setup_s, inputs=trace, lanes=lanes,
                    outputs=outputs,
                    results={"trace": trace, "reports": reports})

    def check(self, done: Pass) -> list[str]:
        """Columnar replay against the scalar reference path on the
        trace's first ticks, per lane."""
        trace = done.results["trace"]
        n = min(trace.n_ops, PARITY_TICKS * self.tick_ops)
        head = workload.Trace(spec=trace.spec, base_keys=trace.base_keys,
                              kinds=trace.kinds[:n], keys=trace.keys[:n],
                              aux=trace.aux[:n])
        failures = []
        for lane in self.lanes:
            columnar, scalar = (
                workload.ServingSimulator(
                    self._backend(lane, head.base_keys), head,
                    tick_ops=self.tick_ops, columnar=flag).run().to_dict()
                for flag in (True, False))
            if columnar != scalar:
                failures.append(
                    f"{lane}: columnar replay of the first {n} ops "
                    f"differs from the scalar reference")
        return failures


def _worker_peak_mb() -> float:
    """Summed peak RSS (VmHWM) of the live shard worker processes."""
    total_kb = 0
    for child in multiprocessing.active_children():
        if not child.name.startswith("shard"):
            continue
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


@dataclass(frozen=True)
class ClusterWorkload:
    """A multi-tenant trace through the process transport: shards as
    replica groups of worker processes, quorum reads, divergence
    detection on, no injected faults."""

    name: str = "cluster"
    spec: dict = field(default_factory=dict)
    backend: str = "dynamic"
    n_shards: int = 2
    replicas: int = 3
    tick_ops: int = 1_000

    def prepare(self, seed: int):
        trace = workload.generate_trace(
            workload.TraceSpec(seed=seed, **self.spec))
        shard_map = cluster.ShardMap.balanced(
            trace.base_keys, self.n_shards, trace.spec.domain())
        return trace, shard_map

    def run_pass(self, seed: int, span: Span, inputs=None) -> Pass:
        started = time.perf_counter()
        if inputs is None:
            inputs = self.prepare(seed)
        trace, shard_map = inputs
        with span("cluster.spawn"):
            router = cluster.TransportClusterRouter(
                shard_map, trace.base_keys, self.backend,
                replicas=self.replicas, read_mode="quorum",
                detect_divergence=True, fanout_jobs=1)
        setup_s = time.perf_counter() - started
        try:
            started = time.perf_counter()
            report = cluster.ClusterSimulator(
                router, trace, tick_ops=self.tick_ops).run()
            replay_s = time.perf_counter() - started
            worker_peak_mb = _worker_peak_mb()
        finally:
            with span("cluster.close"):
                router.close()
        return Pass(setup_s=setup_s, inputs=inputs,
                    lanes={self.backend: (trace.n_ops, replay_s)},
                    outputs={"report": digest(report.to_dict())},
                    results={"report": report},
                    worker_peak_mb=worker_peak_mb)

    def check(self, done: Pass) -> list[str]:
        """The process transport against the in-process router."""
        trace, shard_map = done.inputs
        router = cluster.ClusterRouter(shard_map, trace.base_keys,
                                       self.backend)
        reference = cluster.ClusterSimulator(
            router, trace, tick_ops=self.tick_ops).run()
        report = done.results["report"]
        failures = []
        if report.to_dict() != reference.to_dict():
            failures.append("transport report differs from the "
                            "in-process router's")
        if report.degraded_ticks or report.flagged_replicas:
            failures.append(
                f"{report.degraded_ticks} degraded ticks and "
                f"{report.flagged_replicas} flagged replicas on a "
                "fault-free run")
        return failures


#: The benchmark's workloads, by name.
WORKLOADS = {
    w.name: w for w in (
        AttackWorkload(),
        ServeWorkload(
            name="serve-read", lanes=("binary", "rmi", "dynamic"),
            spec=dict(n_base_keys=10_000, n_ops=30_000,
                      query_mix="zipfian", insert_fraction=0.02,
                      delete_fraction=0.01, modify_fraction=0.01,
                      range_fraction=0.03, poison_schedule="drip",
                      poison_percentage=10.0),
            tick_ops=1_000),
        ServeWorkload(
            name="serve-write", lanes=("rmi", "dynamic"),
            spec=dict(n_base_keys=10_000, n_ops=8_000,
                      query_mix="uniform", insert_fraction=0.30,
                      delete_fraction=0.05, modify_fraction=0.05,
                      poison_schedule="burst", poison_percentage=5.0),
            tick_ops=500, trim_keep_fraction=0.9),
        ClusterWorkload(
            spec=dict(n_base_keys=20_000, n_ops=20_000,
                      query_mix="zipfian", insert_fraction=0.05,
                      delete_fraction=0.02, modify_fraction=0.02,
                      range_fraction=0.03, n_tenants=3,
                      tenant_layout="skewed", slo_p95=5.0)),
    )
}
