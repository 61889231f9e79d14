"""Replay a trace against a live backend and record its vitals.

The simulator consumes a :class:`~repro.workload.trace.Trace` in
order, one tick at a time, through :func:`feed_tick` — the one tick
feed this simulator shares with
:class:`~repro.cluster.simulator.ClusterSimulator`.  By default each
tick is one columnar ``replay_ops`` call: the backend applies the
tick's mutations as classified bulk set operations and batches its
reads per rebuild-free segment, firing every rebuild at exactly the
op index a one-op-at-a-time feed would.  The scalar reference feed
(``columnar=False``) applies mutations one op at a time; the parity
suite pins both paths bit-identical, so the recorded metrics are
invariant under batching and tick size.

All recorded metrics are **deterministic cost proxies** — probe
counts, not nanoseconds — which is what lets a workload cell produce
bit-identical results at ``jobs=1`` and ``jobs=N`` on either executor.
Wall-clock is measured too (for the benchmark trajectory) but kept
out of the result payload.

Per tick (a fixed op-count window, or a rate-driven variable one when
``tick_sizes`` is given) the report records:

* ``p50``/``p95``/``p99`` — probe-count percentiles over the tick's
  read operations (the latency story);
* ``mean_probes`` — the throughput proxy (ops per probe ~ how many
  operations a fixed probe budget serves);
* ``error_bound`` — the backend's worst-case search width (model
  drift under poisoning);
* ``retrains`` — cumulative retrain/rebuild cycles;
* ``amplification`` — lookup cost over a fixed probe sample divided
  by its pre-replay baseline: how much damage the stream (and the
  drip-fed poison in it) has done so far;
* ``n_keys`` — live key count.

Closed-loop mode
----------------
The replay becomes a control loop when any of ``tick_sizes``,
``adversary``, or ``tuner`` is supplied.  At every tick boundary the
simulator publishes a :class:`TickObservation` (the per-tick series
row, percentiles backfilled to the last finite value so a read-free
tick never feeds NaN into a policy) through two feedback ports:

* ``adversary(observation)`` may return crafted keys; they are
  injected at the start of the *next* tick (an attacker reacting to
  observed latency) — as synthetic poison ops ahead of the tick's
  stream, so retrain timing stays op-exact on either replay path;
* ``tuner(observation)`` may return a :class:`TunerDecision`; the
  simulator applies it to the backend's ``set_trim_keep_fraction`` /
  ``set_rebuild_threshold`` hooks and logs the values now in force.

Closed-loop replays carry three extra series — ``injected`` (crafted
keys landed per tick), ``keep_fraction`` and ``rebuild_threshold``
(defense settings entering the next tick; ``keep_fraction`` is NaN
while TRIM is off) — so fixed and tuned cells of one grid share one
artifact shape.  Both ports are plain callables of the observation
alone; as long as they are deterministic, the whole loop is.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..io import json_float
from ..observe.metrics import MetricsRegistry
from ..observe.metrics import active as observe_active
from ..runtime import stable_seed_words
from .backends import ServingBackend
from .trace import (
    OP_DELETE,
    OP_INSERT,
    OP_MODIFY,
    OP_POISON,
    OP_QUERY,
    OP_RANGE,
    Trace,
)

__all__ = ["ServingReport", "ServingSimulator", "TickObservation",
           "TunerDecision", "feed_tick", "last_finite", "probe_summary",
           "tick_bounds"]

_PROBE_SERIES = ("p50", "p95", "p99", "mean_probes")
_SERIES = _PROBE_SERIES + ("error_bound", "retrains", "amplification",
                           "n_keys")
_LOOP_SERIES = ("injected", "keep_fraction", "rebuild_threshold")


def last_finite(values: Sequence[float], default: float = 0.0) -> float:
    """The most recent finite value of a series, else ``default``.

    The summary-field contract of a replay: a trace that *ends* on a
    read-free (churn-only) tick records NaN percentiles for that tick,
    and a final taken naively from the tail would leak the NaN into
    the JSON payload and into any policy watching the feedback port.
    Falling back to the last finite tick keeps finals — and closed-loop
    observations — well-defined whenever any earlier tick measured.

    Scans the tail by index — no copy of the series — because the
    feedback ports call this four times per tick over ever-growing
    series (copying made the observation step O(ticks²) per replay).
    """
    for i in range(len(values) - 1, -1, -1):
        value = values[i]
        if math.isfinite(value):
            return float(value)
    return default


def tick_bounds(n_ops: int, tick_ops: int,
                tick_sizes: "np.ndarray | None" = None) -> np.ndarray:
    """End index (exclusive) of every tick, covering all ``n_ops``.

    Fixed ``tick_ops``-wide ticks (the last one may be short), or the
    running sum of ``tick_sizes`` for a rate-driven replay.
    """
    if tick_sizes is not None:
        return np.cumsum(tick_sizes)
    n_ticks = -(-n_ops // tick_ops)  # ceil
    return np.minimum(
        (np.arange(n_ticks, dtype=np.int64) + 1) * tick_ops, n_ops)


def probe_summary(probes: np.ndarray,
                  series: "dict[str, list[float]] | None" = None,
                  ) -> tuple[float, float, float, float]:
    """``(p50, p95, p99, mean)`` of a probe-count array.

    Without reads the tick value is NaN.  Given the replay's
    ``series``, the finals instead fall back to each value's last
    finite tick (0.0 when no tick ever measured a read) — the
    :func:`last_finite` contract.
    """
    if probes.size:
        p50, p95, p99 = np.percentile(probes, (50, 95, 99))
        return float(p50), float(p95), float(p99), float(probes.mean())
    if series is None:
        return (float("nan"),) * 4
    return tuple(last_finite(series[name]) for name in _PROBE_SERIES)


def feed_tick(target: Any, kinds: np.ndarray, keys: np.ndarray,
              aux: np.ndarray, inject: np.ndarray, columnar: bool,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Serve one tick's op slice, after the pending injections.

    The one tick feed of both serving simulators.  ``target`` is a
    :class:`~repro.workload.backends.ServingBackend` or a cluster
    router: anything with ``replay_ops``, ``lookup_batch``,
    ``range_scan``, ``insert_batch`` and ``delete_batch``.
    ``inject`` holds adversary keys that land before the slice.

    Columnar (the simulators' default): one ``target.replay_ops``
    call, the injections prepended as synthetic ``OP_POISON`` ops.
    Scalar (the reference the parity suites compare against):
    injections insert one key at a time, then the slice runs as runs
    of same-kind ops; only *stateless* reads are batched (a query run
    is one ``lookup_batch`` call) and mutations apply strictly one op
    at a time.  Both ways every retrain fires at the same op — a
    target's batch-level rebuild check never decides retrain timing.

    Returns ``(found, probes, read_keys)``: found per query, probes
    per read (query or range) and each read's key, in op order.
    """
    if columnar:
        if inject.size:
            kinds = np.concatenate([
                np.full(inject.size, OP_POISON, dtype=kinds.dtype),
                kinds])
            keys = np.concatenate([inject, keys])
            aux = np.concatenate([
                np.zeros(inject.size, dtype=np.int64), aux])
        found, probes = target.replay_ops(kinds, keys, aux)
        reads = (kinds == OP_QUERY) | (kinds == OP_RANGE)
        return found[kinds[reads] == OP_QUERY], probes, keys[reads]
    for key in inject:
        target.insert_batch(key[np.newaxis])
    found_runs: list[np.ndarray] = []
    probe_runs: list[np.ndarray] = []
    read_runs: list[np.ndarray] = []
    start = 0
    while start < kinds.size:
        kind = kinds[start]
        stop = start + 1
        while stop < kinds.size and kinds[stop] == kind:
            stop += 1
        run_keys = keys[start:stop]
        if kind == OP_QUERY:
            found, probes = target.lookup_batch(run_keys)
            found_runs.append(found)
            probe_runs.append(probes)
            read_runs.append(run_keys)
        elif kind == OP_RANGE:
            probe_runs.append(np.asarray(
                [target.range_scan(int(lo), int(hi))
                 for lo, hi in zip(run_keys, aux[start:stop])],
                dtype=np.int64))
            read_runs.append(run_keys)
        elif kind in (OP_INSERT, OP_POISON):
            for key in run_keys:
                target.insert_batch(key[np.newaxis])
        elif kind == OP_DELETE:
            for key in run_keys:
                target.delete_batch(key[np.newaxis])
        elif kind == OP_MODIFY:
            for key, new in zip(run_keys, aux[start:stop]):
                target.delete_batch(key[np.newaxis])
                target.insert_batch(new[np.newaxis])
        else:  # pragma: no cover - the generator never emits one
            raise ValueError(f"unknown op kind: {kind}")
        start = stop
    return (_concat(found_runs, bool), _concat(probe_runs),
            _concat(read_runs))


def _concat(parts: list[np.ndarray], dtype: Any = np.int64,
            ) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


@dataclass(frozen=True)
class TickObservation:
    """What the feedback ports see at one tick boundary.

    Mirrors the per-tick series row just recorded, with percentiles
    backfilled via :func:`last_finite` (NaN only before the first read
    of the whole replay).  ``retrains_delta`` is the cycle count since
    the previous tick — the signal a retrain-detecting adversary keys
    on; ``injected_total`` counts the adversary's own keys landed so
    far, so a policy can pace a budget without private bookkeeping.
    """

    tick: int
    ticks_total: int
    p50: float
    p95: float
    p99: float
    mean_probes: float
    error_bound: float
    retrains: int
    retrains_delta: int
    amplification: float
    n_keys: int
    injected_total: int


@dataclass(frozen=True)
class TunerDecision:
    """A defense tuner's knob settings for the ticks ahead.

    ``keep_fraction`` is the TRIM screen (``None`` disarms it);
    ``rebuild_threshold`` retargets the compaction trigger.  Values
    pass through the backend's validating setters, so an out-of-range
    decision fails loudly rather than silently clamping.
    """

    keep_fraction: float | None
    rebuild_threshold: float


#: Feedback-port signatures (policy objects are plain callables).
AdversaryPort = Callable[[TickObservation], "np.ndarray | None"]
TunerPort = Callable[[TickObservation], "TunerDecision | None"]


@dataclass(frozen=True, eq=False)  # array fields: identity equality
class ServingReport:
    """Everything one replay measured.

    ``series`` maps each name in ``p50 p95 p99 mean_probes error_bound
    retrains amplification n_keys`` — plus ``injected keep_fraction
    rebuild_threshold`` for closed-loop replays — to a per-tick float64
    array (a tick with no read op carries NaN percentiles; the summary
    fields fall back to the last finite tick instead of propagating
    it).  ``wall_seconds`` is the only non-deterministic field and is
    deliberately excluded from :meth:`to_dict`.  ``tick_ops`` is 0 for
    rate-driven replays, whose tick widths vary.
    """

    backend: str
    spec_digest: str
    n_ops: int
    tick_ops: int
    series: dict[str, np.ndarray]
    p50: float
    p95: float
    p99: float
    mean_probes: float
    total_probes: int
    found_fraction: float
    retrains: int
    final_amplification: float
    max_error_bound: float
    final_n_keys: int
    ops_by_kind: dict[str, int]
    injected_poison: int
    #: Adversary keys returned after the final tick: no stream was
    #: left to land them, so the budget ledger reconciles as
    #: spent == injected_poison + discarded_poison.
    discarded_poison: int
    wall_seconds: float = field(compare=False)

    @property
    def n_ticks(self) -> int:
        return int(self.series["p50"].size)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe, deterministic summary (no wall-clock)."""
        return {
            "backend": self.backend,
            "spec_digest": self.spec_digest,
            "n_ops": self.n_ops,
            "tick_ops": self.tick_ops,
            "n_ticks": self.n_ticks,
            "p50": json_float(self.p50),
            "p95": json_float(self.p95),
            "p99": json_float(self.p99),
            "mean_probes": json_float(self.mean_probes),
            "total_probes": self.total_probes,
            "found_fraction": json_float(self.found_fraction),
            "retrains": self.retrains,
            "final_amplification": json_float(self.final_amplification),
            "max_error_bound": json_float(self.max_error_bound),
            "final_n_keys": self.final_n_keys,
            "ops_by_kind": dict(self.ops_by_kind),
            "injected_poison": self.injected_poison,
            "discarded_poison": self.discarded_poison,
        }


class ServingSimulator:
    """Drives one backend through one trace.

    Parameters
    ----------
    backend:
        A freshly built :class:`ServingBackend` over the trace's base
        keys (the simulator asserts nothing about prior state — a
        pre-warmed backend is a legitimate scenario).
    trace:
        The operation stream to replay.
    tick_ops:
        Operations per metrics tick (fixed-width ticks).
    probe_sample_size:
        Size of the fixed key sample used for the amplification
        series; drawn deterministically from the trace's base keys
        and never counted into the op metrics.
    tick_sizes:
        Optional per-tick operation counts (a rate-driven stream, as
        produced by an :class:`~repro.workload.closedloop.ArrivalModel`).
        Must be non-negative and sum to the trace's op count; zero-op
        ticks are legal and record NaN percentiles.  Overrides
        ``tick_ops``.
    adversary:
        Optional feedback port: called with a :class:`TickObservation`
        after every tick; returned keys are injected at the start of
        the next tick.  Keys returned after the final tick have no
        stream left to land in; they are discarded and counted in the
        report's ``discarded_poison`` (so an adversary's budget ledger
        always reconciles: spent == injected + discarded).
    tuner:
        Optional defense port: called after every tick (after the
        adversary observes, before its next keys land); a returned
        :class:`TunerDecision` is applied through the backend's tuner
        hooks.
    columnar:
        Which path of :func:`feed_tick` serves each tick: the
        backend's columnar ``replay_ops`` (the default) or the scalar
        per-op reference feed.  The two paths are pinned
        bit-identical — same series, finals, and retrain indices — by
        the parity suite; the flag exists so that suite (and anyone
        debugging a backend) can run the reference path.
    """

    def __init__(self, backend: ServingBackend, trace: Trace,
                 tick_ops: int = 200, probe_sample_size: int = 64,
                 tick_sizes: "Sequence[int] | None" = None,
                 adversary: "AdversaryPort | None" = None,
                 tuner: "TunerPort | None" = None,
                 columnar: bool = True,
                 metrics: "MetricsRegistry | None" = None):
        if tick_ops < 1:
            raise ValueError(f"tick_ops must be >= 1: {tick_ops}")
        if probe_sample_size < 1:
            raise ValueError(
                "probe_sample_size must be >= 1 (the amplification "
                f"baseline is its mean probe cost): {probe_sample_size}")
        self._backend = backend
        self._trace = trace
        self._tick_ops = tick_ops
        self._tick_sizes = None
        if tick_sizes is not None:
            sizes = np.asarray(tick_sizes, dtype=np.int64)
            if sizes.size == 0 or (sizes < 0).any():
                raise ValueError(
                    "tick_sizes must be a non-empty sequence of "
                    f"non-negative counts: {tick_sizes!r}")
            if int(sizes.sum()) != trace.n_ops:
                raise ValueError(
                    f"tick_sizes sum to {int(sizes.sum())} but the "
                    f"trace holds {trace.n_ops} ops")
            self._tick_sizes = sizes
        self._adversary = adversary
        self._tuner = tuner
        self._columnar = columnar
        # Opt-in instrumentation: an explicit registry wins, else the
        # process-installed one (``repro.observe.install``), else off
        # — in which case every hook below is one ``is None`` check.
        self._metrics = (metrics if metrics is not None
                         else observe_active())
        if self._metrics is not None:
            backend.set_metrics(self._metrics)
        self._closed_loop = (tick_sizes is not None
                             or adversary is not None
                             or tuner is not None)
        rng = np.random.default_rng(stable_seed_words(
            trace.spec.seed, "probe-sample", trace.spec.digest))
        size = min(probe_sample_size, trace.base_keys.size)
        if size < 1:
            # probes.mean() over an empty sample is NaN, and a NaN
            # baseline silently poisons the whole amplification
            # series — fail here instead.
            raise ValueError(
                "cannot draw an amplification probe sample: the trace "
                "has no base keys")
        self._probe_sample = rng.choice(trace.base_keys, size=size,
                                        replace=False)

    # ------------------------------------------------------------------
    def _sample_cost(self) -> float:
        """Mean probes over the fixed sample (measurement only)."""
        _, probes = self._backend.lookup_batch(self._probe_sample)
        return float(probes.mean())

    def run(self) -> ServingReport:
        """Replay the whole trace; returns the metrics report."""
        trace, backend = self._trace, self._backend
        kinds, keys, aux = trace.kinds, trace.keys, trace.aux
        n = trace.n_ops
        started = time.perf_counter()
        baseline = self._sample_cost()
        bounds = tick_bounds(n, self._tick_ops, self._tick_sizes)

        names = _SERIES + (_LOOP_SERIES if self._closed_loop else ())
        series: dict[str, list[float]] = {name: [] for name in names}
        all_probes: list[np.ndarray] = []
        found_total = 0
        query_total = 0
        injected_total = 0
        last_retrains = 0

        def close_tick(probes: np.ndarray, injected: int) -> None:
            for name, value in zip(_PROBE_SERIES, probe_summary(probes)):
                series[name].append(value)
            series["error_bound"].append(backend.error_bound())
            series["retrains"].append(float(backend.retrain_count))
            series["amplification"].append(
                self._sample_cost() / baseline)
            series["n_keys"].append(float(backend.n_keys))
            if self._closed_loop:
                series["injected"].append(float(injected))
            all_probes.append(probes)

        def observe(tick: int) -> TickObservation:
            """The feedback ports' view of the tick just closed."""
            nonlocal last_retrains
            retrains = int(series["retrains"][-1])
            obs = TickObservation(
                tick=tick,
                ticks_total=int(bounds.size),
                p50=last_finite(series["p50"], float("nan")),
                p95=last_finite(series["p95"], float("nan")),
                p99=last_finite(series["p99"], float("nan")),
                mean_probes=last_finite(series["mean_probes"],
                                        float("nan")),
                error_bound=series["error_bound"][-1],
                retrains=retrains,
                retrains_delta=retrains - last_retrains,
                amplification=series["amplification"][-1],
                n_keys=int(series["n_keys"][-1]),
                injected_total=injected_total)
            last_retrains = retrains
            return obs

        start = 0
        pending_inject = np.empty(0, dtype=np.int64)
        metrics = self._metrics
        for tick_index, tick_end in enumerate(bounds):
            tick_started = (time.perf_counter()
                            if metrics is not None else 0.0)
            ops_this_tick = int(tick_end - start)
            injected_this_tick = int(pending_inject.size)
            found, probes, _ = feed_tick(
                backend, kinds[start:tick_end], keys[start:tick_end],
                aux[start:tick_end], pending_inject, self._columnar)
            start = tick_end
            injected_total += injected_this_tick
            pending_inject = np.empty(0, dtype=np.int64)
            found_total += int(found.sum())
            query_total += int(found.size)
            close_tick(probes, injected_this_tick)
            if metrics is not None:
                metrics.observe("serving.tick",
                                time.perf_counter() - tick_started)
                metrics.inc("serving.ticks")
                metrics.inc("serving.ops",
                            ops_this_tick + injected_this_tick)
                metrics.trace(
                    "serving.tick", tick=tick_index,
                    ops=ops_this_tick,
                    injected=injected_this_tick,
                    retrains=int(series["retrains"][-1]),
                    n_keys=int(series["n_keys"][-1]))
            if self._adversary is not None or self._tuner is not None:
                obs = observe(tick_index)
                if self._tuner is not None:
                    decision = self._tuner(obs)
                    if decision is not None:
                        # Model-free backends have no training set to
                        # screen; their TRIM knob is inert so one grid
                        # can attach the same tuner to every backend.
                        if backend.supports_trim:
                            backend.set_trim_keep_fraction(
                                decision.keep_fraction)
                        backend.set_rebuild_threshold(
                            decision.rebuild_threshold)
                if self._adversary is not None:
                    crafted = self._adversary(obs)
                    if crafted is not None:
                        pending_inject = np.asarray(crafted,
                                                    dtype=np.int64)
            if self._closed_loop:
                keep = backend.trim_keep_fraction
                series["keep_fraction"].append(
                    float("nan") if keep is None else float(keep))
                series["rebuild_threshold"].append(
                    float(backend.rebuild_threshold))

        probes_flat = _concat(all_probes)
        p50, p95, p99, mean = probe_summary(probes_flat, series)
        error_bounds = np.asarray(series["error_bound"])
        return ServingReport(
            backend=backend.name,
            spec_digest=trace.spec.digest,
            n_ops=n,
            tick_ops=(0 if self._tick_sizes is not None
                      else self._tick_ops),
            series={name: np.asarray(values, dtype=np.float64)
                    for name, values in series.items()},
            p50=p50, p95=p95, p99=p99,
            mean_probes=mean,
            total_probes=int(probes_flat.sum()),
            found_fraction=(found_total / query_total if query_total
                            else 0.0),
            retrains=int(backend.retrain_count),
            final_amplification=last_finite(series["amplification"],
                                            1.0),
            max_error_bound=(float(error_bounds.max())
                             if error_bounds.size else 0.0),
            final_n_keys=int(backend.n_keys),
            ops_by_kind=trace.counts(),
            injected_poison=injected_total,
            discarded_poison=int(pending_inject.size),
            # repro: allow[REP003] -- wall_seconds is an advisory stats field, never compared or digested
            wall_seconds=time.perf_counter() - started)
