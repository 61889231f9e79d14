"""Columnar fast path vs scalar reference: the parity contract.

The serving simulator's columnar tick pipeline (the default) must be
**bit-identical** to the one-op-at-a-time scalar path — same series
arrays, same finals, same retrain timing, same backend end state.
These tests pin that contract across the scenario grid: fixed-tick
and rate-driven replays, closed-loop runs with an adversary and a
defense tuner, and every registered backend (including the hazard
fallback and the BTree scalar override).

Satellite regressions ride along: probe-sample validation, the
poison-budget ledger (``injected_poison + discarded_poison`` equals
what the adversary emitted), and a re-chunking invariance property.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    BACKENDS,
    AdaptiveAdversary,
    ServingSimulator,
    TraceSpec,
    TrimAutoTuner,
    generate_rate_driven_trace,
    generate_trace,
    make_adversary,
    make_arrival,
    make_backend,
)

MIX = TraceSpec(n_base_keys=500, n_ops=1_500, insert_fraction=0.12,
                delete_fraction=0.08, modify_fraction=0.05,
                range_fraction=0.08, seed=23)
#: MIX with few deletes and no modifies, so that with TRIM on every
#: learned backend ends its replay with keys in quarantine (MIX's last
#: dynamic compaction is an unscreened tombstone fold, which empties it).
QUARANTINE_MIX = dataclasses.replace(MIX, delete_fraction=0.02,
                                     modify_fraction=0.0)
LEARNED = ("linear", "rmi", "dynamic")


def with_trim(backends):
    """``(backend, trim_keep_fraction)`` cases: every backend with TRIM
    off, plus each learned one with TRIM on."""
    return ([pytest.param(b, None, id=b) for b in backends]
            + [pytest.param(b, 0.9, id=f"{b}-trim")
               for b in backends if b in LEARNED])


def assert_reports_identical(a, b):
    da, db = a.to_dict(), b.to_dict()
    assert da == db, {k: (da[k], db[k]) for k in da if da[k] != db[k]}
    assert sorted(a.series) == sorted(b.series)
    for name in a.series:
        assert np.array_equal(a.series[name], b.series[name],
                              equal_nan=True), name


def run_both(spec_or_trace, backend, make_ports=None, trim=None,
             **kwargs):
    trace = (generate_trace(spec_or_trace)
             if isinstance(spec_or_trace, TraceSpec)
             else spec_or_trace)
    reports = []
    for columnar in (True, False):
        b = make_backend(backend, trace.base_keys,
                         rebuild_threshold=0.12, trim_keep_fraction=trim)
        ports = make_ports(trace) if make_ports else {}
        reports.append(ServingSimulator(
            b, trace, columnar=columnar, **ports, **kwargs).run())
    return reports


class TestServingParity:
    @pytest.mark.parametrize("backend,trim", with_trim(sorted(BACKENDS)))
    def test_fixed_tick(self, backend, trim):
        col, ref = run_both(MIX, backend, trim=trim, tick_ops=200)
        assert_reports_identical(col, ref)

    @pytest.mark.parametrize("backend,trim", with_trim(("rmi", "dynamic")))
    def test_odd_tick_sizes(self, backend, trim):
        for tick_ops in (37, 1):
            col, ref = run_both(MIX, backend, trim=trim,
                                tick_ops=tick_ops)
            assert_reports_identical(col, ref)

    @pytest.mark.parametrize("backend,trim", with_trim(sorted(BACKENDS)))
    def test_rate_driven(self, backend, trim):
        sizes = make_arrival("poisson", rate=120, seed=9).tick_sizes(8)
        spec = TraceSpec(n_base_keys=400, n_ops=int(sizes.sum()),
                         insert_fraction=0.08, delete_fraction=0.05,
                         range_fraction=0.05, seed=9)
        trace = generate_rate_driven_trace(spec, sizes)
        col, ref = run_both(trace, backend, trim=trim, tick_sizes=sizes)
        assert_reports_identical(col, ref)

    @pytest.mark.parametrize("backend,trim", with_trim(("rmi", "dynamic")))
    def test_closed_loop_adversary_and_tuner(self, backend, trim):
        spec = TraceSpec(n_base_keys=500, n_ops=1_600,
                         insert_fraction=0.10, delete_fraction=0.05,
                         seed=31)

        def make_ports(trace):
            return dict(
                adversary=make_adversary(
                    "escalate", trace.base_keys,
                    spec.domain(), 60, 7),
                tuner=TrimAutoTuner(base_threshold=0.12))

        col, ref = run_both(spec, backend, trim=trim, tick_ops=100,
                            make_ports=make_ports)
        assert_reports_identical(col, ref)
        assert col.injected_poison > 0  # the loop actually closed

    @pytest.mark.parametrize("backend,trim", with_trim(sorted(BACKENDS)))
    def test_backend_end_state_matches(self, backend, trim):
        trace = generate_trace(MIX if trim is None else QUARANTINE_MIX)
        backends = []
        for columnar in (True, False):
            b = make_backend(backend, trace.base_keys,
                             rebuild_threshold=0.12,
                             trim_keep_fraction=trim)
            ServingSimulator(b, trace, tick_ops=200,
                             columnar=columnar).run()
            backends.append(b)
        col, ref = backends
        assert col.retrain_count == ref.retrain_count
        assert col.pending_updates == ref.pending_updates
        assert np.array_equal(col.live_keys(), ref.live_keys())
        assert col.state_digest() == ref.state_digest()
        if trim is not None:
            # The quarantine side list was live to the end.
            assert col.quarantine_size > 0


class TestProbeSampleValidation:
    def test_zero_sample_size_rejected(self):
        trace = generate_trace(MIX)
        backend = make_backend("binary", trace.base_keys)
        with pytest.raises(ValueError, match="probe_sample_size"):
            ServingSimulator(backend, trace, probe_sample_size=0)

    def test_traceless_base_keys_rejected(self):
        """A trace with no base keys cannot seed the amplification
        baseline; the constructor must say so instead of letting a
        NaN baseline blank the series."""
        spec = TraceSpec(n_base_keys=200, n_ops=300, seed=5)
        trace = generate_trace(spec)
        empty = dataclasses.replace(
            trace, base_keys=np.empty(0, dtype=np.int64))
        backend = make_backend("binary", trace.base_keys)
        with pytest.raises(ValueError, match="no base keys"):
            ServingSimulator(backend, empty)


class _GuardlessAdversary(AdaptiveAdversary):
    """Emits on every tick including the last, so some of its budget
    lands after the stream ends — exactly the discard the ledger
    must account for."""

    name = "guardless"

    def __init__(self, base_keys, domain, budget, seed, per_tick=7):
        super().__init__(base_keys, domain, budget, seed)
        self._per_tick = per_tick
        self._cursor = int(domain.hi) + 1

    def __call__(self, obs):  # bypass the final-tick guard
        if self.remaining <= 0:
            return None
        count = min(self._per_tick, self.remaining)
        keys = np.arange(self._cursor, self._cursor + count,
                         dtype=np.int64)
        self._cursor += count
        self._emitted += count
        return keys


class TestPoisonLedger:
    @pytest.mark.parametrize("columnar", (True, False))
    def test_budget_reconciles_with_discards(self, columnar):
        spec = TraceSpec(n_base_keys=400, n_ops=900, seed=11)
        trace = generate_trace(spec)
        adv = _GuardlessAdversary(trace.base_keys, spec.domain(),
                                  budget=1_000, seed=3)
        backend = make_backend("rmi", trace.base_keys,
                               rebuild_threshold=0.12)
        report = ServingSimulator(backend, trace, tick_ops=200,
                                  adversary=adv,
                                  columnar=columnar).run()
        # The final observation's keys have no tick left to land in.
        assert report.discarded_poison > 0
        assert (adv._emitted
                == report.injected_poison + report.discarded_poison)
        assert report.to_dict()["discarded_poison"] \
            == report.discarded_poison

    def test_guarded_adversaries_never_discard(self):
        spec = TraceSpec(n_base_keys=400, n_ops=900, seed=11)
        trace = generate_trace(spec)
        adv = make_adversary("oblivious", trace.base_keys,
                             spec.domain(), 40, 7)
        backend = make_backend("rmi", trace.base_keys,
                               rebuild_threshold=0.12)
        report = ServingSimulator(backend, trace, tick_ops=200,
                                  adversary=adv).run()
        assert report.discarded_poison == 0
        assert report.injected_poison == adv.budget


class TestRechunkInvariance:
    """Replay metrics are a function of the op stream, not of how the
    stream is cut into ticks — on both serving paths."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           tick_ops=st.sampled_from((50, 81, 200)),
           backend=st.sampled_from(("binary", "rmi", "dynamic")),
           columnar=st.booleans())
    def test_totals_survive_rechunking(self, seed, tick_ops, backend,
                                       columnar):
        spec = TraceSpec(n_base_keys=300, n_ops=600,
                         insert_fraction=0.10, delete_fraction=0.05,
                         range_fraction=0.05, seed=seed)
        trace = generate_trace(spec)
        runs = []
        for ticks in (tick_ops, trace.n_ops):
            b = make_backend(backend, trace.base_keys,
                             rebuild_threshold=0.12)
            runs.append(ServingSimulator(
                b, trace, tick_ops=ticks, columnar=columnar).run())
        a, whole = runs
        # Tick-size-independent aggregates: the probe stream and the
        # query hit totals are identical, so the finals agree.
        assert a.p50 == whole.p50
        assert a.p95 == whole.p95
        assert a.p99 == whole.p99
        assert a.mean_probes == whole.mean_probes
        assert a.found_fraction == whole.found_fraction
        assert a.retrains == whole.retrains
