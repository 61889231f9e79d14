"""k-replica shard groups: quorum reads + divergence detection.

One :class:`ReplicaGroup` fronts ``k`` worker processes (one
:class:`~repro.cluster.transport.WorkerClient` each) serving the same
key range, and implements the single-backend surface the
:class:`~repro.cluster.router.ClusterRouter` drives — so the whole
router stack (fan-out, migrations, defense hooks) works unchanged on
top.  Semantics:

* **mutations broadcast** to every live replica in replica order, so
  healthy replicas stay bit-identical;
* **reads quorum**: each query is served by all live replicas and
  combined per slot — membership by majority vote, probe cost as the
  q-th smallest (``q = n_live // 2 + 1``), i.e. the moment the
  q-th-fastest replica answers.  ``read_mode="primary"`` instead
  trusts the lowest-index live replica alone (the naive arm of the
  poisoned-replica duel);
* **divergence detection**: a poisoned replica serves *valid-looking*
  results, so byte-level checks can't see it — but its error-bound
  series drifts.  :class:`DivergenceDetector` compares each replica's
  error bound against the group median each tick; a replica outside
  the tolerance band for ``patience`` consecutive ticks is flagged
  poisoned and quarantined in the transport book (no further
  traffic), turning the paper's attack into a detectable fleet-level
  event.

:class:`TransportClusterRouter` is the cross-process cluster: it
overrides the router's single ``_make_backend`` seam to spawn replica
groups, carries the shared :class:`TransportBook`, and closes worker
fleets on migration/teardown.  With injection off and ``k`` healthy
replicas the group is pinned bit-identical to one in-process backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..workload.backends import BACKENDS
from ..workload.trace import OP_INSERT, OP_QUERY, OP_RANGE
from .router import ClusterRouter
from .shardmap import ShardMap
from .transport import (
    ReplicaDeadError,
    TransportBook,
    TransportConfig,
    WorkerClient,
    spawn_context,
)

__all__ = ["DivergenceConfig", "DivergenceDetector", "ReplicaGroup",
           "TransportClusterRouter"]


@dataclass(frozen=True)
class DivergenceConfig:
    """Tolerance band of the poisoned-replica detector.

    A replica is *out of band* in a tick when its error bound differs
    from the group median by more than ``tolerance * median + slack``
    (the absolute slack keeps tiny healthy wobbles on near-zero
    bounds from counting).  ``patience`` consecutive out-of-band
    ticks flag it — a single retrain blip self-clears.
    """

    tolerance: float = 0.5
    slack: float = 2.0
    patience: int = 2


class DivergenceDetector:
    """Per-group strike counter over replica error-bound series."""

    def __init__(self, config: DivergenceConfig, n_replicas: int):
        self._cfg = config
        self._strikes = [0] * n_replicas

    def observe(self, bounds: "list[tuple[int, float]]",
                ) -> "list[int]":
        """Feed one tick's live ``(replica, error_bound)`` pairs;
        returns replicas newly crossing the patience threshold."""
        if len(bounds) < 3:
            return []  # no majority of peers to define "normal"
        median = float(np.median([b for _, b in bounds]))
        band = self._cfg.tolerance * median + self._cfg.slack
        flagged = []
        for replica, bound in bounds:
            if abs(bound - median) > band:
                self._strikes[replica] += 1
                if self._strikes[replica] == self._cfg.patience:
                    flagged.append(replica)
            else:
                self._strikes[replica] = 0
        return flagged


class ReplicaGroup:
    """``k`` worker replicas of one shard behind the backend surface."""

    def __init__(self, book: TransportBook, shard: int, backend: str,
                 keys: np.ndarray, rebuild_threshold: float,
                 build_args: dict, n_replicas: int = 1,
                 read_mode: str = "quorum",
                 divergence: "DivergenceConfig | None" = None,
                 ctx: Any = None):
        if n_replicas < 1:
            raise ValueError(
                f"a shard group needs >= 1 replica: {n_replicas}")
        if read_mode not in ("quorum", "primary"):
            raise ValueError(f"unknown read mode: {read_mode!r}")
        self._book = book
        self._shard = int(shard)
        self._read_mode = read_mode
        self._threshold = rebuild_threshold
        self._keep: "float | None" = None
        self.supports_trim = BACKENDS[backend].supports_trim
        self._detector = (None if divergence is None
                          else DivergenceDetector(divergence,
                                                  n_replicas))
        self._flagged: "list[int]" = []
        self._closed = False
        ctx = ctx if ctx is not None else spawn_context()
        self._replicas: "list[WorkerClient]" = []
        try:
            for r in range(n_replicas):
                self._replicas.append(WorkerClient(
                    book, shard, r, backend, rebuild_threshold,
                    build_args, keys, ctx=ctx))
        except BaseException:
            # A failed spawn must not leak its already-running peers.
            self.close()
            raise

    # -- liveness ------------------------------------------------------
    @property
    def shard(self) -> int:
        return self._shard

    @property
    def n_replicas(self) -> int:
        return len(self._replicas)

    @property
    def flagged(self) -> "tuple[int, ...]":
        """Replicas the divergence detector flagged as poisoned."""
        return tuple(self._flagged)

    def _live(self) -> "list[tuple[int, WorkerClient]]":
        return [(i, client)
                for i, client in enumerate(self._replicas)
                if self._book.healthy(self._shard, i)]

    def _primary(self) -> "WorkerClient | None":
        live = self._live()
        return live[0][1] if live else None

    def live_replicas(self) -> "list[int]":
        return [i for i, _ in self._live()]

    # -- read combining ------------------------------------------------
    @staticmethod
    def _combine(rows: "list[tuple[np.ndarray, np.ndarray]]",
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Quorum-combine per read slot across replica answers.

        Found is the majority vote; the probe cost is the q-th
        smallest across replicas — a quorum read completes when the
        q-th-cheapest replica has answered, so one slow (poisoned)
        replica cannot inflate the served latency once flagged or
        outvoted.
        """
        if len(rows) == 1:
            return rows[0]
        quorum = len(rows) // 2 + 1
        found = np.stack([f for f, _ in rows]).sum(axis=0) >= quorum
        probes = np.sort(np.stack([p for _, p in rows]),
                         axis=0)[quorum - 1]
        return found, probes

    def _read_rows(self, rows: "list[tuple[int, np.ndarray, np.ndarray]]",
                   n_reads: int) -> tuple[np.ndarray, np.ndarray]:
        if not rows:  # total outage: every read misses at zero cost
            return (np.zeros(n_reads, dtype=bool),
                    np.zeros(n_reads, dtype=np.int64))
        if self._read_mode == "primary":
            primary = min(r for r, _, _ in rows)
            return next((f, p) for r, f, p in rows if r == primary)
        return self._combine([(f, p) for _, f, p in rows])

    # -- serving surface (mirrors ServingBackend) ----------------------
    def replay_ops(self, kinds: np.ndarray, keys: np.ndarray,
                   aux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        kinds = np.asarray(kinds)
        n_reads = int(((kinds == OP_QUERY)
                       | (kinds == OP_RANGE)).sum())
        rows = []
        for i, client in self._live():
            ek, ekey, eaux = kinds, keys, aux
            poison = self._book.poison_keys(self._shard, i)
            if poison.size:
                # The compromise channel: extra inserts appended to
                # this replica's batch only, after the tick's real
                # ops — reads this tick still agree, the divergence
                # shows up in the next ticks' error bounds.
                ek = np.concatenate([
                    ek, np.full(poison.size, OP_INSERT,
                                dtype=kinds.dtype)])
                ekey = np.concatenate([
                    np.asarray(ekey, dtype=np.int64), poison])
                eaux = np.concatenate([
                    np.asarray(eaux, dtype=np.int64),
                    np.zeros(poison.size, dtype=np.int64)])
            try:
                found, probes = client.replay(ek, ekey, eaux)
            except ReplicaDeadError:
                continue
            rows.append((i, found, probes))
        return self._read_rows(rows, n_reads)

    def lookup_batch(self, keys: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=np.int64)
        targets = self._live()
        if self._read_mode == "primary" and targets:
            targets = targets[:1]
        rows = []
        for i, client in targets:
            try:
                found, probes = client.lookup(keys)
            except ReplicaDeadError:
                continue
            rows.append((i, found, probes))
        return self._read_rows(rows, keys.size)

    def range_scan(self, lo: int, hi: int) -> int:
        targets = self._live()
        if self._read_mode == "primary" and targets:
            targets = targets[:1]
        costs = []
        for _, client in targets:
            try:
                costs.append(client.range_scan(lo, hi))
            except ReplicaDeadError:
                continue
        if not costs:
            return 0
        if self._read_mode == "primary":
            return costs[0]
        return int(sorted(costs)[len(costs) // 2 + 1 - 1])

    def insert_batch(self, keys: np.ndarray) -> None:
        for _, client in self._live():
            try:
                client.insert(keys)
            except ReplicaDeadError:
                continue

    def delete_batch(self, keys: np.ndarray) -> None:
        for _, client in self._live():
            try:
                client.delete(keys)
            except ReplicaDeadError:
                continue

    def rebuild(self) -> None:
        for _, client in self._live():
            try:
                client.rebuild()
            except ReplicaDeadError:
                continue

    # -- scalar surface (primary replica's view) -----------------------
    @property
    def n_keys(self) -> int:
        primary = self._primary()
        return 0 if primary is None else primary.stats().n_keys

    @property
    def retrain_count(self) -> int:
        primary = self._primary()
        return (0 if primary is None
                else primary.stats().retrain_count)

    @property
    def pending_updates(self) -> int:
        primary = self._primary()
        return (0 if primary is None
                else primary.stats().pending_updates)

    @property
    def quarantine_size(self) -> int:
        primary = self._primary()
        return (0 if primary is None
                else primary.stats().quarantine_size)

    def error_bound(self) -> float:
        primary = self._primary()
        return 0.0 if primary is None else primary.stats().error_bound

    def live_keys(self) -> np.ndarray:
        primary = self._primary()
        return (np.empty(0, dtype=np.int64) if primary is None
                else primary.live_keys())

    def state_digest(self) -> str:
        primary = self._primary()
        return "dead" if primary is None else primary.digest()

    def replica_digests(self) -> "list[str]":
        return [client.digest() for _, client in self._live()]

    # -- tuner hooks (router is the only writer, so the local copy
    # is authoritative and costs no round trip) -----------------------
    @property
    def rebuild_threshold(self) -> float:
        return self._threshold

    @property
    def trim_keep_fraction(self) -> "float | None":
        return self._keep

    def set_rebuild_threshold(self, threshold: float) -> None:
        self._threshold = threshold
        for _, client in self._live():
            try:
                client.set_rebuild_threshold(threshold)
            except ReplicaDeadError:
                continue

    def set_trim_keep_fraction(self, fraction: "float | None") -> None:
        self._keep = fraction
        for _, client in self._live():
            try:
                client.set_trim_keep_fraction(fraction)
            except ReplicaDeadError:
                continue

    # -- divergence detection ------------------------------------------
    def detect(self) -> "list[int]":
        """One detector tick: poll live error bounds, quarantine any
        replica out of band for ``patience`` consecutive ticks."""
        if self._detector is None:
            return []
        bounds = []
        for i, client in self._live():
            try:
                bounds.append((i, client.stats().error_bound))
            except ReplicaDeadError:
                continue
        flagged = self._detector.observe(bounds)
        for replica in flagged:
            self._book.quarantine_replica(self._shard, replica)
            self._flagged.append(replica)
        return flagged

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for client in self._replicas:
            client.close()


class TransportClusterRouter(ClusterRouter):
    """The cross-process cluster: worker-process replica groups under
    the unchanged router logic.

    Only :meth:`_make_backend` differs from the in-process router —
    each shard becomes a :class:`ReplicaGroup` of ``replicas`` worker
    processes sharing this router's :class:`TransportBook` — plus the
    transport bookkeeping the simulator reads (:meth:`start_tick`,
    :meth:`transport_tick_stats`) and worker-fleet lifecycle
    (migrations close orphaned groups; use as a context manager or
    call :meth:`close`).

    Divergence detection is armed by default (it only acts when a
    group has >= 3 live replicas — below that there is no majority of
    peers to define "normal") and is forced off with
    ``detect_divergence=False`` (the naive arm of the
    poisoned-replica duel).
    """

    def __init__(self, shard_map: ShardMap, keys: np.ndarray,
                 backend: str, *,
                 transport: "TransportConfig | None" = None,
                 replicas: int = 1, read_mode: str = "quorum",
                 divergence: "DivergenceConfig | None" = None,
                 detect_divergence: bool = True,
                 **router_args: Any):
        self._book = TransportBook(transport
                                   if transport is not None
                                   else TransportConfig())
        self._n_replicas = int(replicas)
        self._read_mode = read_mode
        if not detect_divergence:
            self._divergence = None
        else:
            self._divergence = (divergence if divergence is not None
                                else DivergenceConfig())
        self._ctx = spawn_context()
        self._spawned: "list[ReplicaGroup]" = []
        try:
            super().__init__(shard_map, keys, backend, **router_args)
        except BaseException:
            # The caller never gets a router to close: reap the groups
            # of the shards built before the failing one.
            self.close()
            raise

    @property
    def book(self) -> TransportBook:
        return self._book

    def set_metrics(self, metrics) -> None:
        # Replica groups have no registry of their own; the book
        # carries it for every WorkerClient under this router.
        super().set_metrics(metrics)
        self._book.set_metrics(metrics)

    def _make_backend(self, keys: np.ndarray, threshold: float,
                      shard: int) -> ReplicaGroup:
        group = ReplicaGroup(
            self._book, shard, self._backend_name, keys, threshold,
            self._build_args, n_replicas=self._n_replicas,
            read_mode=self._read_mode, divergence=self._divergence,
            ctx=self._ctx)
        self._spawned.append(group)
        return group

    def apply_map(self, new_map: ShardMap) -> int:
        migrated = super().apply_map(new_map)
        current = {id(s) for s in self._shards if s is not None}
        for group in self._spawned:
            if id(group) not in current:
                group.close()
        self._spawned = [g for g in self._spawned
                         if id(g) in current]
        return migrated

    # -- transport surface ---------------------------------------------
    def start_tick(self, tick: int) -> None:
        self._book.start_tick(tick)

    def transport_tick_stats(self) -> tuple[int, int, float]:
        for group in self._shards:
            if group is not None:
                group.detect()
        return self._book.drain_tick_stats()

    def flagged_replicas(self) -> "list[tuple[int, int]]":
        return self._book.flagged()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        for group in self._spawned:
            group.close()

    def __enter__(self) -> "TransportClusterRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
