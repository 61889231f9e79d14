"""``python -m repro.experiments verify TARGET`` on scaled grids.

The verifier must pass on unchanged experiment code and name the
target, the leg and the first differing key path or file when a
contract breaks.  Configs are shrunk by swapping ``quick_config`` on
the experiment module, the way ``test_cli.py`` does it.
"""

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import closedloop_serving, fig7_rmi_realworld
from repro.runtime import CheckpointStore

TINY_FIG7 = fig7_rmi_realworld.Fig7Config(
    osm_keys=400, salary_keys=300, model_sizes=(50,),
    poisoning_percentages=(5.0, 10.0), max_exchanges_per_model=1)

TINY_CLOSEDLOOP = closedloop_serving.ClosedLoopConfig(
    arrivals=("poisson",),
    backends=("rmi",),
    adversaries=("oblivious", "escalate"),
    defenses=("fixed", "tuned"),
    n_base_keys=300,
    n_ticks=8,
    rate=60.0,
    poison_percentage=10.0)


@pytest.fixture
def tiny_fig7(monkeypatch):
    monkeypatch.setattr(fig7_rmi_realworld, "quick_config",
                        lambda: TINY_FIG7)


def _verify_fig7(tmp_path) -> int:
    return cli.main(["verify", "fig7", "--executor", "thread",
                     "--out", str(tmp_path)])


def _failure(tmp_path) -> str:
    """The message a failing fig7 verify exits with."""
    with pytest.raises(SystemExit) as excinfo:
        _verify_fig7(tmp_path)
    return str(excinfo.value.code)


def test_passes_on_tiny_fig7(tiny_fig7, tmp_path, capsys):
    assert _verify_fig7(tmp_path) == 0
    out = capsys.readouterr().out
    assert "verify fig7: 3 legs agree; 4 artifacts round-tripped" in out
    for tree in ("jobs1", "jobs2"):
        assert (tmp_path / tree / "fig7" / "result.json").exists()


def test_passes_on_tiny_closedloop(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(closedloop_serving, "quick_config",
                        lambda: TINY_CLOSEDLOOP)
    assert cli.main(["verify", "closedloop", "--executor", "thread",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "verify closedloop: 3 legs agree; 4 artifacts" in out
    assert (tmp_path / "jobs1" / "closedloop" / "figures"
            / "GALLERY.md").exists()


def test_jobs_dependent_payload_fails(tiny_fig7, monkeypatch, tmp_path):
    original = cli._TARGETS["fig7"]

    def leaky(name, opts):
        text, payload, plan = original(name, opts)
        return text, {**payload, "jobs": opts.jobs}, plan

    monkeypatch.setitem(cli._TARGETS, "fig7", leaky)
    assert _failure(tmp_path) \
        == "verify fig7: leg jobs1: result.jobs differs from leg jobs2"


@pytest.mark.parametrize("before_leg, message", [
    ("resume", "verify fig7: leg resume: resume rewrote cells/{stem}."),
    ("jobs1", "verify fig7: leg resume: cells/{stem}.npz does not load"),
])
def test_artifact_deleted_between_legs_fails(tiny_fig7, monkeypatch,
                                             tmp_path, before_leg, message):
    original = cli._TARGETS["fig7"]
    deleted = []

    def deleting(name, opts):
        leg = "resume" if opts.resume else f"jobs{opts.jobs}"
        if leg == before_leg:
            cells = opts.out.parent / "jobs2" / name / "cells"
            victim = sorted(cells.glob("*.npz"))[0]
            victim.unlink()
            deleted.append(victim.stem)
        return original(name, opts)

    monkeypatch.setitem(cli._TARGETS, "fig7", deleting)
    assert _failure(tmp_path).startswith(message.format(stem=deleted[0]))


def test_manifest_arrays_disagreeing_with_archive_fail(
        tiny_fig7, monkeypatch, tmp_path):
    original = cli._collect_artifacts

    def tampered(out_dir, plan):
        entries = original(out_dir, plan)
        entries[0]["arrays"] = entries[0]["arrays"][:1]
        return entries

    monkeypatch.setattr(cli, "_collect_artifacts", tampered)
    message = _failure(tmp_path)
    assert message.startswith("verify fig7: leg resume: cells/")
    assert message.endswith("manifest lists ['per_model_ratios'], archive "
                            "holds ['per_model_ratios', 'poison_keys']")


def test_plan_cell_without_arrays_fails(tiny_fig7, monkeypatch, tmp_path):
    """A cell whose checkpoint promises no arrays is still a plan cell
    the manifest must cover."""
    original = CheckpointStore.save_cell
    dropped = []

    def dropping(store, cell, result, arrays=None):
        if store.root.parent.name == "jobs1" and not dropped:
            arrays = None
            dropped.append(store.arrays_path(cell).name)
        original(store, cell, result, arrays)

    monkeypatch.setattr(CheckpointStore, "save_cell", dropping)
    assert _failure(tmp_path) == (
        f"verify fig7: leg jobs1: cells/{dropped[0]}: 0 manifest entries, "
        f"1 plan cell checkpoints")


def test_target_without_result_fails(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "fig2", "--out", str(tmp_path)])
    assert str(excinfo.value.code).startswith(
        "verify fig2: leg jobs2: result.json: ")


def test_refuses_an_existing_tree(tmp_path, capsys):
    (tmp_path / "jobs1" / "fig7").mkdir(parents=True)
    with pytest.raises(SystemExit):
        cli.main(["verify", "fig7", "--out", str(tmp_path)])
    assert "verify needs fresh trees" in capsys.readouterr().err
