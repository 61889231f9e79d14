"""Figure 6: RMI poisoning on synthetic uniform and log-normal keys.

The paper's flagship experiment: a two-stage RMI over 10^7 keys, three
architectures (model sizes 10^2, 10^3, 10^4 keys, i.e. 10^5 .. 10^3
second-stage models), key domains 5*10^7 and 10^9, per-model threshold
alpha in {2, 3}, poisoning 1/5/10%.  Reported: the per-second-stage-
model ratio-loss distribution (boxplot) and the overall RMI ratio (the
black line).  Headlines: up to ~300x RMI ratio and ~3000x single-model
ratio on the log-normal keys; ratios grow with the model size.

We keep the paper's *shape parameters* (model sizes, keys:domain
ratios of 5x and 100x, alphas, percentages) and scale the key count:
the quick profile runs n = 10^4 with model sizes {10^2, 10^3}; the
full profile runs n = 10^5 with model sizes up to 10^4.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core.metrics import BoxplotSummary, summarize
from ..core.rmi_attack import poison_rmi
from ..core.threat_model import RMIAttackerCapability
from ..data.keyset import Domain
from ..data.synthetic import lognormal_keyset, uniform_keyset
from ..io import json_float, parse_json_float
from ..runtime import Cell, CheckpointStore, SweepEngine, stable_text_hash
from .report import format_ratio, render_table, section

__all__ = ["Fig6Config", "Fig6Cell", "Fig6Result", "plan_cells",
           "run_rmi_cell", "run", "quick_config", "full_config"]


@dataclass(frozen=True)
class Fig6Config:
    """Grid of the synthetic RMI experiment.

    ``domain_multipliers`` express the paper's two universes relative
    to the key count (10^9 / 10^7 = 100 and 5*10^7 / 10^7 = 5), so the
    density — what actually drives the attack — is preserved when the
    key count is scaled down.
    """

    n_keys: int
    model_sizes: tuple[int, ...]
    domain_multipliers: tuple[int, ...] = (5, 100)
    distributions: tuple[str, ...] = ("uniform", "lognormal")
    poisoning_percentages: tuple[float, ...] = (1.0, 5.0, 10.0)
    alphas: tuple[float, ...] = (2.0, 3.0)
    max_exchanges_per_model: int = 2
    seed: int = 23


@dataclass(frozen=True)
class Fig6Cell:
    """One boxplot of the figure."""

    distribution: str
    model_size: int
    n_models: int
    domain_multiplier: int
    poisoning_percentage: float
    alpha: float
    per_model: BoxplotSummary
    rmi_ratio: float


@dataclass(frozen=True)
class Fig6Result:
    """All cells of the grid."""

    config: Fig6Config
    cells: tuple[Fig6Cell, ...]

    def format(self) -> str:
        """One table block per (distribution, model size, domain)."""
        blocks = []
        seen = []
        for cell in self.cells:
            group = (cell.distribution, cell.model_size,
                     cell.domain_multiplier)
            if group not in seen:
                seen.append(group)
        for dist, size, mult in seen:
            title = (f"[{dist}] Keys: {self.config.n_keys}  "
                     f"Model Size: {size}  "
                     f"#Models: {self.config.n_keys // size}  "
                     f"Key Domain: {self.config.n_keys * mult}")
            rows = []
            for cell in self.cells:
                if (cell.distribution, cell.model_size,
                        cell.domain_multiplier) != (dist, size, mult):
                    continue
                rows.append([
                    f"{cell.poisoning_percentage:g}%",
                    f"a={cell.alpha:g}",
                    format_ratio(cell.rmi_ratio),
                    format_ratio(cell.per_model.median),
                    format_ratio(cell.per_model.q3),
                    format_ratio(cell.per_model.maximum),
                ])
            table = render_table(
                ["poison%", "alpha", "RMI ratio", "model med",
                 "model q3", "model max"], rows)
            blocks.append(f"{section(title)}\n{table}")
        return "\n\n".join(blocks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the CLI's ``--out`` payload)."""
        return {
            "n_keys": self.config.n_keys,
            "seed": self.config.seed,
            "cells": [
                {
                    "distribution": cell.distribution,
                    "model_size": cell.model_size,
                    "n_models": cell.n_models,
                    "domain_multiplier": cell.domain_multiplier,
                    "poisoning_percentage": cell.poisoning_percentage,
                    "alpha": cell.alpha,
                    "per_model": asdict(cell.per_model),
                    "rmi_ratio": json_float(cell.rmi_ratio),
                }
                for cell in self.cells
            ],
        }


def quick_config() -> Fig6Config:
    """Scaled-down grid that finishes in a couple of minutes."""
    return Fig6Config(n_keys=10_000, model_sizes=(100, 1000))


def full_config() -> Fig6Config:
    """The larger grid (n = 10^5, model sizes up to 10^4)."""
    return Fig6Config(n_keys=100_000, model_sizes=(100, 1000, 10000))


def _make_keyset(distribution: str, n_keys: int, multiplier: int,
                 seed: int):
    """The cell's keyset, regenerated deterministically per cell.

    Workers cannot share the parent's keyset object, so each cell
    rebuilds it from the same stream.  The stream seed uses a CRC-32
    of the distribution name: the builtin ``hash(str)`` is salted per
    interpreter, which would have made resumed runs draw different
    keysets than the original run.
    """
    domain = Domain.of_size(n_keys * multiplier)
    rng = np.random.default_rng(
        [seed, multiplier, stable_text_hash(distribution) % 2**31])
    if distribution == "uniform":
        return uniform_keyset(n_keys, domain, rng)
    return lognormal_keyset(n_keys, domain, rng)


def plan_cells(config: Fig6Config) -> list[Cell]:
    """One cell per (distribution, domain, model size, poison%, alpha)."""
    return [
        Cell.make("fig6-rmi",
                  distribution=distribution,
                  n_keys=config.n_keys,
                  domain_multiplier=multiplier,
                  model_size=model_size,
                  poisoning_percentage=pct,
                  alpha=alpha,
                  max_exchanges_per_model=config.max_exchanges_per_model,
                  seed=config.seed)
        for distribution in config.distributions
        for multiplier in config.domain_multipliers
        for model_size in config.model_sizes
        for pct in config.poisoning_percentages
        for alpha in config.alphas
    ]


def run_rmi_cell(cell: Cell) -> dict[str, Any]:
    """Mount Algorithm 2 for one grid point."""
    p = cell.params_dict
    keyset = _make_keyset(p["distribution"], p["n_keys"],
                          p["domain_multiplier"], p["seed"])
    n_models = max(p["n_keys"] // p["model_size"], 1)
    capability = RMIAttackerCapability(
        poisoning_percentage=p["poisoning_percentage"], alpha=p["alpha"])
    result = poison_rmi(
        keyset, n_models, capability,
        max_exchanges=p["max_exchanges_per_model"] * n_models)
    ratios = result.per_model_ratios
    finite = ratios[np.isfinite(ratios)]
    return {
        "n_models": n_models,
        "per_model_finite_ratios": finite.tolist(),
        "rmi_ratio": json_float(result.rmi_ratio_loss),
    }


def run(config: Fig6Config | None = None, jobs: int = 1,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False, executor: str = "process",
        progress=None) -> Fig6Result:
    """Run every cell of the grid, optionally in parallel/resumable."""
    config = config or quick_config()
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)
        store.write_manifest({
            "experiment": "fig6-rmi",
            "config": {
                "n_keys": config.n_keys,
                "model_sizes": list(config.model_sizes),
                "domain_multipliers": list(config.domain_multipliers),
                "distributions": list(config.distributions),
                "poisoning_percentages": list(
                    config.poisoning_percentages),
                "alphas": list(config.alphas),
                "seed": config.seed,
            },
        })
    engine = SweepEngine(run_rmi_cell, jobs=jobs, checkpoint=store,
                         resume=resume, executor=executor,
                         progress=progress)
    plan = plan_cells(config)
    outcomes = engine.run(plan)
    cells = []
    for cell, outcome in zip(plan, outcomes):
        p = cell.params_dict
        cells.append(Fig6Cell(
            distribution=p["distribution"],
            model_size=p["model_size"],
            n_models=outcome["n_models"],
            domain_multiplier=p["domain_multiplier"],
            poisoning_percentage=p["poisoning_percentage"],
            alpha=p["alpha"],
            per_model=summarize(
                np.asarray(outcome["per_model_finite_ratios"])),
            rmi_ratio=parse_json_float(outcome["rmi_ratio"])))
    return Fig6Result(config=config, cells=tuple(cells))
