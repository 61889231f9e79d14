"""The cluster grid end to end: engine, CLI, artifacts, and the
concentrated-vs-uniform placement acceptance regression (ISSUE 5)."""

import json
import math

import numpy as np
import pytest

from repro.experiments import cluster_serving
from repro.experiments.__main__ import main
from repro.runtime import CheckpointStore

TINY = cluster_serving.ClusterConfig(
    tenant_layouts=("skewed",),
    shard_counts=(4,),
    backends=("rmi",),
    adversaries=("uniform", "concentrated"),
    defenses=("static", "managed"),
    n_base_keys=400,
    n_ops=1_600,
    tick_ops=200)

CLUSTER_ARRAYS = [
    "shard_loads", "shard_n_keys", "shard_p95",
    "shard_split_points",
    "tenant_amplification", "tenant_p95",
    "tick_degraded", "tick_error_bound", "tick_flagged",
    "tick_imbalance", "tick_injected", "tick_latency_ms",
    "tick_mean_probes", "tick_migrated", "tick_n_keys",
    "tick_n_shards", "tick_p50", "tick_p95", "tick_p99",
    "tick_retrains"]


class TestPlan:
    def test_one_cell_per_grid_point(self):
        cells = cluster_serving.plan_cells(
            cluster_serving.quick_config())
        assert len(cells) == 1 * 1 * 2 * 2 * 2
        assert len({c.digest for c in cells}) == len(cells)

    def test_cells_carry_scalars_only(self):
        for cell in cluster_serving.plan_cells(TINY):
            for value in cell.params_dict.values():
                assert isinstance(value, (int, float, str, bool))

    def test_full_config_covers_everything(self):
        config = cluster_serving.full_config()
        assert len(cluster_serving.plan_cells(config)) \
            == 2 * 3 * 3 * 3 * 2


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return cluster_serving.run(TINY)

    def test_rows_align_with_plan(self, result):
        assert len(result.rows) == 4
        assert [(r.adversary, r.defense) for r in result.rows] == [
            ("uniform", "static"), ("uniform", "managed"),
            ("concentrated", "static"), ("concentrated", "managed")]

    def test_jobs_and_executor_parity(self, result):
        for jobs, executor in ((2, "thread"), (2, "process")):
            again = cluster_serving.run(TINY, jobs=jobs,
                                        executor=executor)
            assert again.to_dict() == result.to_dict(), (jobs,
                                                         executor)

    def test_format_includes_the_duel_summary(self, result):
        out = result.format()
        assert "cluster: skewed tenants, 4 shards" in out
        assert "duel: placement gap" in out
        assert "concentrated" in out

    def test_row_selector(self, result):
        row = result.row(adversary="concentrated", defense="managed")
        assert row.backend == "rmi"
        with pytest.raises(KeyError, match="expected 1"):
            result.row(adversary="concentrated")

    def test_resume_reuses_cells_with_all_series(self, result,
                                                 tmp_path):
        first = cluster_serving.run(TINY, checkpoint_dir=tmp_path)
        again = cluster_serving.run(TINY, checkpoint_dir=tmp_path,
                                    resume=True)
        assert again.to_dict() == first.to_dict() == result.to_dict()
        store = CheckpointStore(tmp_path)
        plan = cluster_serving.plan_cells(TINY)
        done = store.completed_outputs(plan)
        assert len(done) == len(plan)
        for _, arrays in done.values():
            assert sorted(arrays) == CLUSTER_ARRAYS
            assert arrays["shard_loads"].ndim == 2
            assert arrays["tenant_p95"].shape[1] == TINY.n_tenants


class TestAcceptance:
    """The committed cluster demonstration on the quick grid.

    Pinned on the deterministic calibrated scenario: the concentrated
    (cluster-aware, Algorithm 2 on the victim's sub-CDF) placement
    must measurably out-damage the uniform spread on the victim
    tenant at equal budget and pacing on both learned backends, and
    cluster management (rebalancing + SLO-weighted per-shard tuning)
    must recover at least half of that gap without taxing the
    uniform baseline.
    """

    GAP_MARGIN = 0.2

    @pytest.fixture(scope="class")
    def quick(self):
        return cluster_serving.run(cluster_serving.quick_config())

    def _rows(self, quick, backend):
        uniform = quick.row(backend=backend, adversary="uniform",
                            defense="static")
        static = quick.row(backend=backend, adversary="concentrated",
                           defense="static")
        managed = quick.row(backend=backend,
                            adversary="concentrated",
                            defense="managed")
        return uniform, static, managed

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_concentrated_beats_uniform_on_victim_amplification(
            self, quick, backend):
        uniform, static, _ = self._rows(quick, backend)
        gap = (static.victim_amplification
               - uniform.victim_amplification)
        assert gap > self.GAP_MARGIN, (
            f"{backend}: concentrated "
            f"{static.victim_amplification:.3f} vs uniform "
            f"{uniform.victim_amplification:.3f}")

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_concentrated_beats_uniform_on_victim_p95(self, quick,
                                                      backend):
        uniform, static, _ = self._rows(quick, backend)
        assert static.victim_p95 >= uniform.victim_p95 + 0.5, (
            f"{backend}: concentrated p95 {static.victim_p95} vs "
            f"uniform {uniform.victim_p95}")

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_management_recovers_at_least_half_the_gap(self, quick,
                                                       backend):
        uniform, static, managed = self._rows(quick, backend)
        gap = (static.victim_amplification
               - uniform.victim_amplification)
        recovered = (static.victim_amplification
                     - managed.victim_amplification)
        assert recovered >= 0.5 * gap, (
            f"{backend}: gap {gap:.3f}, recovered {recovered:.3f}")

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_management_does_not_tax_the_uniform_baseline(self, quick,
                                                          backend):
        fixed = quick.row(backend=backend, adversary="uniform",
                          defense="static")
        managed = quick.row(backend=backend, adversary="uniform",
                            defense="managed")
        assert abs(managed.victim_amplification
                   - fixed.victim_amplification) < 0.05

    @pytest.mark.parametrize("backend", ("rmi", "dynamic"))
    def test_management_clears_the_victims_slo(self, quick, backend):
        """The SLO story on record: the concentrated attack pushes
        the victim into violation; the managed cluster serves the
        same attack inside budget."""
        _, static, managed = self._rows(quick, backend)
        assert static.victim_slo_violations > 0.0
        assert managed.victim_slo_violations == 0.0

    def test_equal_budget_duel(self, quick):
        """Placement is the only attacker difference: the uniform arm
        spends the full budget, the concentrated arm at most that
        (Algorithm 2's 20% cap can clamp it — strictly conservative)."""
        for backend in ("rmi", "dynamic"):
            uniform, static, _ = self._rows(quick, backend)
            assert uniform.injected_poison >= static.injected_poison
            assert static.injected_poison > 0


class TestClusterCli:
    @pytest.fixture(scope="class")
    def class_tiny_config(self):
        original = cluster_serving.quick_config
        cluster_serving.quick_config = lambda: TINY
        yield TINY
        cluster_serving.quick_config = original

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory, class_tiny_config):
        out = tmp_path_factory.mktemp("cluster-out")
        assert main(["cluster", "--quick", "--jobs", "2",
                     "--executor", "thread", "--out", str(out)]) == 0
        return out

    def test_result_schema(self, out_dir, capsys):
        capsys.readouterr()
        payload = json.loads(
            (out_dir / "cluster" / "result.json").read_text())
        assert payload["schema"] == "repro.experiments.result/v2"
        assert payload["target"] == "cluster"
        assert payload["executor"] == "thread"
        assert payload["result"]["victim_tenant"] == 0
        cells = payload["result"]["cells"]
        assert len(cells) == 4
        for cell in cells:
            assert cell["injected_poison"] > 0
            assert math.isfinite(float(cell["victim_amplification"]))

    def test_artifact_manifest_round_trips(self, out_dir):
        from repro import io

        payload = json.loads(
            (out_dir / "cluster" / "result.json").read_text())
        manifest = payload["artifacts"]
        assert len(manifest) == 4
        for entry in manifest:
            arrays = io.load_arrays(
                out_dir / "cluster" / entry["file"])
            assert sorted(arrays) == entry["arrays"] == CLUSTER_ARRAYS
            assert arrays["shard_p95"].dtype == np.float64
            assert arrays["shard_p95"].ndim == 2

    def test_resume_rewrites_nothing_and_matches(self, out_dir,
                                                 class_tiny_config,
                                                 capsys):
        cells_dir = out_dir / "cluster" / "cells"
        before = {p.name: p.stat().st_mtime_ns
                  for p in cells_dir.iterdir()}
        assert main(["cluster", "--jobs", "2", "--out",
                     str(out_dir), "--resume"]) == 0
        capsys.readouterr()
        after = {p.name: p.stat().st_mtime_ns
                 for p in cells_dir.iterdir()}
        assert after == before


MICRO = cluster_serving.ClusterConfig(
    tenant_layouts=("skewed",),
    shard_counts=(2,),
    backends=("rmi",),
    adversaries=("concentrated",),
    defenses=("static",),
    n_base_keys=400,
    n_ops=800,
    tick_ops=200)


class TestProcessTransportCells:
    def test_process_cells_match_inproc(self):
        """Grid parity: with injection off, running the cell grid over
        worker processes reproduces the in-process rows exactly."""
        from dataclasses import replace

        inproc = cluster_serving.run(MICRO)
        process = cluster_serving.run(
            replace(MICRO, transport="process", replicas=2))
        assert process.to_dict()["cells"] == inproc.to_dict()["cells"]
        assert process.to_dict()["transport"] == "process"
        assert process.to_dict()["replicas"] == 2


class TestReplicationDuel:
    """ISSUE 7 acceptance: with a poisoned replica injected, the
    divergence detector flags the correct replica and quorum reads
    keep the victim tenant's p95 inside the SLO band — while the
    naive primary-read arm (no detector) serves the poisoned model
    and violates it."""

    @pytest.fixture(scope="class")
    def duel(self):
        return cluster_serving.run_poisoned_replica_scenario()

    def test_detector_flags_exactly_the_poisoned_replica(self, duel):
        assert duel.quorum.flagged == ((duel.victim_shard, 0),)
        assert duel.primary.flagged == ()

    def test_quorum_holds_the_slo(self, duel):
        assert duel.quorum.victim_p95 <= duel.slo_p95
        assert duel.quorum.victim_slo_violations == 0.0

    def test_primary_arm_pays_for_trusting_one_replica(self, duel):
        assert duel.primary.victim_p95 > duel.quorum.victim_p95
        assert duel.primary.victim_slo_violations > 0.0
        assert (duel.primary.victim_amplification
                > duel.quorum.victim_amplification)

    def test_quarantine_is_recorded_as_degradation(self, duel):
        assert duel.quorum.degraded_ticks > 0
        assert duel.primary.degraded_ticks == 0  # nothing detected

    def test_report_round_trips_and_renders(self, duel):
        payload = json.loads(json.dumps(duel.to_dict()))
        assert payload["quorum"]["flagged"] == [
            [duel.victim_shard, 0]]
        assert payload["poison_budget"] > 0
        text = duel.format()
        assert "quorum + detector" in text
        assert f"s{duel.victim_shard}r0" in text

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            cluster_serving.run_poisoned_replica_scenario(
                backend="btree")


class TestTransportCliValidation:
    def test_replicas_require_process_transport(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--replicas", "2"])
        assert "--transport process" in capsys.readouterr().err

    def test_replicas_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--transport", "process",
                  "--replicas", "0"])
        assert "--replicas" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["a6-deletion", "fig5", "report"])
    @pytest.mark.parametrize("flag, value", [("--transport", "process"),
                                             ("--transport", "inproc"),
                                             ("--replicas", "3")])
    def test_flags_rejected_off_cluster_and_ablate(self, tmp_path, capsys,
                                                   target, flag, value):
        with pytest.raises(SystemExit):
            main([target, flag, value, "--out", str(tmp_path)])
        assert f"{flag} only applies" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
