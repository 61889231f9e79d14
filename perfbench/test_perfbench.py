"""Tests of the benchmark itself, on scaled-down workloads."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layers
import pytest
import run
import workloads
from tracer import ROOT, Tracer, no_span, patched, resolve, summarize

from repro.workload import backends

_MISSING = object()


def _small(name: str, **spec):
    bench = workloads.WORKLOADS[name]
    return dataclasses.replace(bench, spec={**bench.spec, **spec})


SMALL = {
    "attack": workloads.AttackWorkload(greedy_keys=500, greedy_budget=20,
                                       rmi_keys=1_000, rmi_models=10),
    "serve-read": dataclasses.replace(
        _small("serve-read", n_base_keys=1_000, n_ops=4_000),
        tick_ops=500),
    "serve-write": dataclasses.replace(
        _small("serve-write", n_base_keys=1_000, n_ops=2_000),
        tick_ops=250),
    "cluster": _small("cluster", n_base_keys=2_000, n_ops=3_000),
}


def _traced_pass(bench, seed: int = 1):
    tracer = Tracer()
    with patched(tracer, layers.SITES):
        with tracer.span(ROOT):
            done = bench.run_pass(seed, tracer.span)
    return tracer, done


def _own(owner, attr):
    return vars(owner).get(attr, _MISSING)


def test_patched_attributes_are_restored_even_on_error():
    before = [(resolve(s.owner), s.attr) for s in layers.SITES]
    originals = [_own(owner, attr) for owner, attr in before]
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with patched(tracer, layers.SITES):
            for (owner, attr), original in zip(before, originals):
                assert _own(owner, attr) is not original
            raise RuntimeError("boom")
    for (owner, attr), original in zip(before, originals):
        assert _own(owner, attr) is original, f"{owner}.{attr} leaked"

    tracer, _ = _traced_pass(SMALL["serve-write"])
    spans = len(tracer.names)
    SMALL["serve-write"].run_pass(1, no_span)
    assert len(tracer.names) == spans  # no wrapper left behind
    for (owner, attr), original in zip(before, originals):
        assert _own(owner, attr) is original, f"{owner}.{attr} leaked"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_checked_outputs(name):
    bench = SMALL[name]
    first = bench.run_pass(3, no_span)
    second = bench.run_pass(3, no_span)
    assert first.outputs == second.outputs
    assert first.ops == second.ops > 0
    assert bench.check(first) == []
    assert bench.run_pass(4, no_span).outputs != first.outputs


def test_layer_self_times_sum_to_the_traced_wall():
    tracer, _ = _traced_pass(SMALL["serve-read"])
    stats = summarize(tracer)
    wall = stats[ROOT].total_s
    assert sum(row.self_s for row in stats.values()) \
        == pytest.approx(wall, rel=1e-9)
    metrics = layers.per_layer(tracer, 0, [wall])
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["defense.trim_cdf.s"] == 0.0
    assert metrics["index.windowed_search.calls"] > 0
    count, p50, p95 = layers.tick_summary(tracer, "serving")
    assert count == 3 * 8 and 0 < p50 <= p95


def test_injected_delay_shows_in_its_layer_and_lowers_throughput(
        monkeypatch):
    bench = SMALL["serve-write"]
    _, baseline = _traced_pass(bench)
    clean, _ = _traced_pass(bench)
    delay = 0.05
    trim_cdf = backends.trim_cdf

    def slow_trim_cdf(*args, **kwargs):
        time.sleep(delay)
        return trim_cdf(*args, **kwargs)

    monkeypatch.setattr(backends, "trim_cdf", slow_trim_cdf)
    slowed, delayed = _traced_pass(bench)
    before = summarize(clean)["defense.trim_cdf"]
    after = summarize(slowed)["defense.trim_cdf"]
    assert after.calls == before.calls > 0
    assert after.total_s - before.total_s >= 0.9 * delay * after.calls
    assert delayed.outputs == baseline.outputs
    assert delayed.ops / delayed.work_s < baseline.ops / baseline.work_s


def test_exits_nonzero_without_the_program(tmp_path):
    bench_dir = Path(__file__).resolve().parent
    shutil.copytree(bench_dir, tmp_path / bench_dir.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{bench_dir.name}/run.py", "--workload",
         "attack", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace", [False, True])
def test_benchmark_json_names_every_reported_metric(trace):
    bench_dir = Path(__file__).resolve().parent
    spec = json.loads((bench_dir.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
    record = run.measure(SMALL["attack"], 5, 0.01, trace)
    reported = record["per_layer" if trace else "metrics"]
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} \
        == {name: unit for name, (_, unit) in reported.items()}
    assert record["failures"] == [] and record["failed"] == 0
