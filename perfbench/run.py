"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload first runs one warm-up pass, then measured passes for
``--seconds``.  With ``--trace 0`` the last line of standard output is
a JSON object holding the end-to-end metrics, medians over passes in
reference-host seconds (see :class:`Calibration`).  With ``--trace 1``
half the time goes to untraced passes and half to passes traced
through wrappers around the program's public functions, and the JSON
holds the per-layer metrics.  Every pass's outputs are checked; see
``README.md`` in this directory for the workloads, the metrics and
what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
#: The default seed and every workload's outputs on it.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Measured passes that generate their own inputs; later passes reuse
#: the inputs of the last of them and only rebuild.  ``setup_s`` is the
#: median set-up time of these passes.
FULL_SETUPS = 5

#: Calibration chunks timed before and after each measured pass.
CALIBRATION_CHUNKS = 5

#: The calibration chunk's median time on the host in README.md during
#: a quiet spell; normalised figures read as if measured there.
CALIBRATION_REF_S = 0.050

#: Longest temp dir that leaves room for multiprocessing's socket
#: path (``<tmp>/pymp-XXXXXXXX/listener-XXXXXXXX``) under the
#: 107-byte AF_UNIX limit.
_MAX_TMP_LEN = 70


def host_fingerprint() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """A fixed chunk of interpreter and numpy work that does not touch
    the program, timed around every pass.

    Benchmark hosts are often shared, and a shared host can run
    everything up to twice as slow for seconds or minutes at a time.
    Such a spell slows the chunk and the pass alike, so a pass's
    figures divided by the host speed measured just before and after
    it stay comparable from pass to pass, run to run and host to host.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._keys = np.sort(rng.integers(0, 1 << 40, 4096))
        self._queries = rng.integers(0, 1 << 40, 256)

    def median_s(self) -> float:
        """The median time of ``CALIBRATION_CHUNKS`` chunks."""
        import numpy as np

        times = []
        for _ in range(CALIBRATION_CHUNKS):
            started = time.perf_counter()
            total = 0
            for i in range(450):
                found = np.searchsorted(self._keys, self._queries)
                merged = np.union1d(self._keys[:512], self._queries)
                table = {j: j * i for j in range(60)}
                total += int(found[i % 256]) + merged.size + len(table)
            times.append(time.perf_counter() - started)
        return statistics.median(times)


def _figures(passes: list, speeds: list[float]) -> tuple[dict, dict]:
    """Medians over passes of the end-to-end and of the per-lane
    figures, each pass converted to reference-host seconds by its own
    host speed."""
    full = list(zip(passes, speeds))[:FULL_SETUPS]
    end_to_end = {
        "setup_s": (statistics.median(p.setup_s * s for p, s in full),
                    "s"),
        "ops_per_ref_s": (statistics.median(
            p.ops / (p.work_s * s) for p, s in zip(passes, speeds)),
            "1/s"),
    }
    per_lane = {}
    for lane, (work, _) in passes[0].lanes.items():
        seconds = statistics.median(
            p.lanes[lane][1] * s for p, s in zip(passes, speeds))
        if lane == "rmi_attack":
            per_lane["rmi_attack_s"] = (seconds, "s")
        else:
            name = ("greedy_keys_per_s" if lane == "greedy"
                    else f"ops_per_s.{lane}")
            per_lane[name] = (work / seconds, "1/s")
    return end_to_end, per_lane


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _expected_failures(name: str, outputs: dict) -> list[str]:
    expected = _expected()["outputs"].get(name)
    if expected is None:
        return [f"no expected outputs recorded for {name}"]
    failures = []
    for key, want in expected.items():
        got = outputs.get(key)
        same = (abs(got - want) <= 1e-9 * abs(want)
                if isinstance(want, float) and isinstance(got, float)
                else got == want)
        if not same:
            failures.append(f"{key}: got {got!r}, expected {want!r}")
    return failures


def measure(bench, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its result record."""
    import layers
    from tracer import ROOT, Tracer, no_span, patched

    first = bench.run_pass(seed, no_span)  # warm-up, checked not timed
    calibration = Calibration()
    chunk_s = [calibration.median_s()]
    passes, walls = [], []
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < budget:
        reuse = passes[-1].inputs if len(passes) >= FULL_SETUPS else None
        t0 = time.perf_counter()
        passes.append(bench.run_pass(seed, no_span, reuse))
        walls.append(time.perf_counter() - t0)
        chunk_s.append(calibration.median_s())
    full_walls = walls[:FULL_SETUPS]
    speeds = [2 * CALIBRATION_REF_S / (before + after)
              for before, after in zip(chunk_s, chunk_s[1:])]
    end_to_end, lanes = _figures(passes, speeds)
    peak_mb = _peak_rss_mb() + max(p.worker_peak_mb for p in passes)

    tracer = None
    traced = []
    if trace:
        tracer = Tracer()
        started = time.perf_counter()
        with patched(tracer, layers.SITES):
            while not traced \
                    or time.perf_counter() - started < seconds - budget:
                with tracer.span(ROOT):
                    traced.append(bench.run_pass(seed, tracer.span))

    failures = bench.check(first)
    if seed == _expected()["seed"]:
        failures += _expected_failures(bench.name, first.outputs)
    for p in passes + traced:
        if p.outputs != first.outputs:
            failures.append("a pass produced different outputs than "
                            "the first pass of the same seed")
            break
    attempted = sum(p.ops for p in passes + traced)
    record = {
        "workload": bench.name,
        "seed": seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "outputs": first.outputs,
        "failures": failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
        "metrics": {**end_to_end, "peak_rss_mb": (peak_mb, "MB")},
        "lanes": lanes,
        "raw": {
            "setup_s": (statistics.median(
                p.setup_s for p in passes[:FULL_SETUPS]), "s"),
            "ops_per_s": (statistics.median(
                p.ops / p.work_s for p in passes), "1/s"),
            "calibration_ms": (statistics.median(chunk_s) * 1e3, "ms"),
            "host_speed": (statistics.median(speeds), "x"),
        },
        "pass_ops_per_s": [p.ops / p.work_s for p in passes],
        "untraced_wall_s": statistics.mean(full_walls),
    }
    if tracer is not None:
        degraded = max((p.results["report"].degraded_ticks
                        for p in traced if "report" in p.results),
                       default=0)
        per_layer = layers.per_layer(tracer, degraded, full_walls)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        record["per_layer"] = {name: (per_layer[name], units[name])
                               for name, _, _ in layers.PER_LAYER}
        record["table"] = layers.layer_table(tracer)
        record["ticks"] = {
            kind: layers.tick_summary(tracer, kind)
            for kind in layers.TICKS}
    return record


def print_record(record: dict, trace: bool) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"{record['passes']} untraced + {record['traced_passes']} "
          f"traced passes after 1 warm-up")
    print("  end to end, in reference-host seconds:")
    for name, (value, unit) in record["metrics"].items():
        print(f"    {name:<28} {value:>14.4f} {unit}")
    print("  per lane, in reference-host seconds:")
    for name, (value, unit) in record["lanes"].items():
        print(f"    {name:<28} {value:>14.4f} {unit}")
    print("  as measured:")
    for name, (value, unit) in record["raw"].items():
        print(f"    raw.{name:<24} {value:>14.4f} {unit}")
    print("    raw ops/s per pass: " + " ".join(
        f"{v:.1f}" for v in record["pass_ops_per_s"]))
    if trace:
        rows = record["table"]
        wall = rows[-1][2]
        print(f"  layer table, per traced pass (self times sum to the "
              f"traced wall {wall:.4f} s):")
        print(f"    {'layer':<32} {'calls':>8} {'total_s':>10} "
              f"{'self_s':>10} {'self%':>6}")
        for layer, calls, total, own in rows:
            print(f"    {layer:<32} {calls:>8} {total:>10.4f} "
                  f"{own:>10.4f} {100 * own / wall:>6.1f}")
        print(f"    {'sum of self_s':<32} {'':>8} {'':>10} "
              f"{sum(r[3] for r in rows):>10.4f}")
        for kind, (count, p50, p95) in record["ticks"].items():
            if count:
                print(f"  {kind} ticks: {count}  p50 {p50:.3f} ms  "
                      f"p95 {p95:.3f} ms")
        print(f"  tracing overhead: traced wall {wall:.4f} s - untraced "
              f"wall {record['untraced_wall_s']:.4f} s = "
              f"{wall - record['untraced_wall_s']:+.4f} s")
    status = "ok" if not record["failures"] else "FAILED"
    print(f"  check: {status}, {record['attempted']} ops attempted, "
          f"{record['failed']} failed")
    for failure in record["failures"]:
        print(f"    {failure}")


def _metric_dict(pairs: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in pairs.items()}


def _use_local_tmp() -> None:
    """Keep the worker transport's sockets inside the checkout."""
    tmp = ROOT_DIR / ".bench_tmp"
    if len(str(tmp)) > _MAX_TMP_LEN:
        return
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def _stop_helpers() -> None:
    """Stop the fork server and resource tracker the transport started,
    and wait for them to exit."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=_expected()["seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT_DIR / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT_DIR / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    src = str(ROOT_DIR / "src")
    sys.path.insert(0, src)
    # The documented way to run the program; it also lets the
    # transport's fork server preload the worker modules.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    _use_local_tmp()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2

    host = host_fingerprint()
    print(f"host: {json.dumps(host)}")
    trace = bool(args.trace)
    records = []
    try:
        for name in names:
            record = measure(WORKLOADS[name], args.seed, args.seconds,
                             trace)
            print_record(record, trace)
            print("detail: " + json.dumps({
                "workload": name, "host": host,
                "outputs": record["outputs"],
                "raw": _metric_dict(record["raw"]),
                "lanes": _metric_dict(record["lanes"])}))
            records.append(record)
    finally:
        _stop_helpers()

    key = "per_layer" if trace else "metrics"
    if len(records) == 1:
        metrics = _metric_dict(records[0][key])
    else:
        metrics = {f"{r['workload']}/{name}": value
                   for r in records
                   for name, value in _metric_dict(r[key]).items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
