"""Ablations and extensions beyond the paper's figures.

* **A1** — optimal-vs-brute-force single point: identical key and
  loss; wall-clock gap grows with the domain (O(n) vs O(m n)).
* **A2** — TRIM defenses against the CDF attack: classic TRIM vs
  rank-aware TRIM, precision/recall and residual ratio loss.
* **A3** — end-to-end lookup cost: clean RMI vs poisoned RMI vs
  B-Tree on the same query set (the performance story behind the
  Ratio Loss).
* **A4** — alpha sweep: how much the per-model threshold's slack
  buys the RMI attack.
* **A5** — greedy vs uniform volume allocation for the RMI attack
  (the value of Algorithm 2's exchange loop over its initialisation).
* **A6** — deletion adversary vs insertion adversary at equal budget
  (Sec. VI names key removal as an open extension).
* **A7** — polynomial second-stage refits of the poisoned CDF: how
  much loss the extra model capacity absorbs, at what storage cost.
* **A8** — black-box extraction of the second stage by probing, and
  the attack mounted on the recovered parameters.
* **A9** — poisoning a *dynamic* learned index purely through its
  public insert API (the update-time adversary of Sec. VI).
* **A10** — ridge regularisation: does L2 shrinkage (which the paper
  sets aside as "unclear" for LIS) buy any poisoning robustness?
* **A11** — insertion vs deletion vs modification adversaries at
  equal budget, head to head.

Each ablation is a ``python -m repro.experiments aN-<name>`` target;
its ``result.json`` payload is derived from the row dataclasses here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from ..core.brute_force import brute_force_single_point
from ..core.greedy import greedy_poison
from ..core.rmi_attack import poison_rmi
from ..core.single_point import optimal_single_point
from ..core.threat_model import RMIAttackerCapability
from ..data.keyset import Domain
from ..data.synthetic import lognormal_keyset, uniform_keyset
from ..defense.trim import TrimResult, trim_cdf, trim_regression
from ..index.cost import CostReport, compare_costs
from ..io import json_float, parse_json_float
from ..runtime import (
    Cell,
    CellOutput,
    CheckpointStore,
    SweepEngine,
    stable_seed_words,
)
from .report import format_ratio, render_table, section

__all__ = [
    "BruteForceRow", "plan_bruteforce_cells",
    "run_bruteforce_equivalence",
    "TrimRow", "plan_trim_cells", "run_trim_defense",
    "plan_lookup_cost_cells", "run_lookup_cost",
    "AlphaRow", "plan_alpha_cells", "run_alpha_sweep",
    "AllocationRow", "plan_allocation_cells",
    "run_allocation_ablation",
    "DeletionRow", "plan_deletion_cells", "run_deletion_ablation",
    "PolynomialRow", "plan_polynomial_cells",
    "run_polynomial_ablation",
    "BlackboxReport", "plan_blackbox_cells", "run_blackbox_ablation",
    "UpdateChannelReport", "plan_update_cells", "run_update_ablation",
    "RidgeRow", "plan_ridge_cells", "run_ridge_ablation",
    "AdversaryRow", "plan_adversary_cells", "run_adversary_comparison",
]


def _engine(runner, jobs: int, checkpoint_dir: str | Path | None,
            resume: bool, executor: str,
            progress=None) -> SweepEngine:
    """The sweep engine every A-series ablation shares."""
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
    return SweepEngine(runner, jobs=jobs, checkpoint=store,
                       resume=resume, executor=executor,
                       progress=progress)


def _row(cls, outcome: dict[str, Any], **known: Any):
    """Rebuild row dataclass ``cls`` from a cell outcome keyed by its
    field names, undoing :func:`json_float` on the float fields."""
    floats = {f.name for f in fields(cls) if f.type == "float"}
    return cls(**known, **{key: parse_json_float(value) if key in floats
                           else value for key, value in outcome.items()})


# ----------------------------------------------------------------------
# A1: optimal vs brute force
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceRow:
    """One keyset's equivalence check and timing."""

    n_keys: int
    domain_size: int
    same_key: bool
    fast_seconds: float
    brute_seconds: float
    speedup: float


def plan_bruteforce_cells(key_counts: tuple[int, ...] = (50, 100, 200),
                          density: float = 0.05,
                          seed: int = 5) -> list[Cell]:
    """A1's plan: one cell per key count (defaults mirror the run)."""
    return [Cell.make("a1-bruteforce", n_keys=n, density=density,
                      seed=seed)
            for n in key_counts]


def run_bruteforce_cell(cell: Cell) -> dict[str, Any]:
    """One A1 key count: equivalence check plus wall-clock timing."""
    p = cell.params_dict
    n = p["n_keys"]
    rng = np.random.default_rng([p["seed"], n])
    keyset = uniform_keyset(n, Domain.of_size(int(n / p["density"])), rng)
    t0 = time.perf_counter()
    fast = optimal_single_point(keyset)
    fast_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    brute = brute_force_single_point(keyset)
    brute_s = time.perf_counter() - t0
    return {
        "domain_size": keyset.m,
        "same_key": bool(fast.key == brute.key
                         and abs(fast.loss_after - brute.loss_after)
                         <= 1e-7 * max(1.0, brute.loss_after)),
        "fast_seconds": fast_s,
        "brute_seconds": brute_s,
        "speedup": json_float(brute_s / fast_s if fast_s > 0
                              else float("inf")),
    }


def run_bruteforce_equivalence(
        key_counts: tuple[int, ...] = (50, 100, 200),
        density: float = 0.05, seed: int = 5, jobs: int = 1,
        checkpoint_dir: str | Path | None = None, resume: bool = False,
        executor: str = "process", progress=None) -> list[BruteForceRow]:
    """A1: the O(n) attack must match the O(m n) oracle, faster.

    The equivalence verdict is deterministic; the timings are not, so
    resumed runs keep the wall-clock numbers of the run that computed
    each cell (which is what a benchmark log should do).  With
    ``jobs > 1`` the cells time each other's contention as well —
    run at ``jobs=1`` when the milliseconds themselves matter; the
    asymptotic gap dwarfs contention either way.
    """
    cells = plan_bruteforce_cells(key_counts, density, seed)
    engine = _engine(run_bruteforce_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    return [_row(BruteForceRow, outcome, n_keys=n)
            for n, outcome in zip(key_counts, engine.run(cells))]


def format_bruteforce(rows: list[BruteForceRow]) -> str:
    """Table for A1."""
    body = [[r.n_keys, r.domain_size, r.same_key,
             f"{r.fast_seconds*1e3:.2f}ms", f"{r.brute_seconds*1e3:.1f}ms",
             f"{r.speedup:.0f}x"] for r in rows]
    return (section("A1 - optimal O(n) attack vs brute force O(mn)") + "\n"
            + render_table(["keys", "domain", "match", "fast", "brute",
                            "speedup"], body))


# ----------------------------------------------------------------------
# A2: TRIM defenses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrimRow:
    """Defense outcome for one poisoning percentage."""

    poisoning_percentage: float
    attack_ratio: float
    variant: str
    recall: float
    precision: float
    residual_ratio: float


def _residual_ratio(defended: TrimResult, clean_loss: float) -> float:
    if clean_loss == 0.0:
        return 1.0
    return defended.final_loss / clean_loss


def plan_trim_cells(n_keys: int = 1000, density: float = 0.1,
                    percentages: tuple[float, ...] = (5.0, 10.0, 20.0),
                    seed: int = 13) -> list[Cell]:
    """A2's plan: one cell per poisoning percentage."""
    return [Cell.make("a2-trim", n_keys=n_keys, density=density,
                      percentage=pct, seed=seed)
            for pct in percentages]


def run_trim_cell(cell: Cell) -> CellOutput:
    """One A2 percentage: poison the shared keyset, run both TRIMs.

    Every cell regenerates the identical keyset from the shared seed
    (the legacy loop built it once), so per-percentage comparisons
    stay exact across workers.  The poisoning set rides along as an
    ``.npz`` artifact for offline defense analysis.
    """
    p = cell.params_dict
    n_keys = p["n_keys"]
    rng = np.random.default_rng(p["seed"])
    keyset = uniform_keyset(
        n_keys, Domain.of_size(int(n_keys / p["density"])), rng)
    budget = int(n_keys * p["percentage"] / 100.0)
    attack = greedy_poison(keyset, budget)
    poisoned = keyset.insert(attack.poison_keys)
    clean_loss = attack.loss_before

    classic = trim_regression(
        poisoned.keys.astype(np.float64),
        poisoned.ranks.astype(np.float64), n_keep=n_keys, seed=p["seed"])
    aware = trim_cdf(poisoned.keys, n_keep=n_keys, seed=p["seed"])
    variants = {}
    for variant, res in (("classic", classic), ("rank-aware", aware)):
        variants[variant] = {
            "recall": res.recall_against(attack.poison_keys),
            "precision": res.precision_against(attack.poison_keys),
            "residual_ratio": json_float(
                _residual_ratio(res, clean_loss)),
        }
    return CellOutput(
        result={
            "attack_ratio": json_float(attack.ratio_loss),
            "variants": variants,
        },
        arrays={"poison_keys": np.asarray(attack.poison_keys,
                                          dtype=np.int64)})


def run_trim_defense(n_keys: int = 1000, density: float = 0.1,
                     percentages: tuple[float, ...] = (5.0, 10.0, 20.0),
                     seed: int = 13, jobs: int = 1,
                     checkpoint_dir: str | Path | None = None,
                     resume: bool = False,
                     executor: str = "process",
                     progress=None) -> list[TrimRow]:
    """A2: can TRIM undo the CDF attack?

    For each percentage: poison, then hand the defense the poisoned
    keyset and the true clean count ``n`` (the most charitable
    setting), and measure how much loss survives after trimming.
    """
    cells = plan_trim_cells(n_keys, density, percentages, seed)
    engine = _engine(run_trim_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    rows = []
    for pct, outcome in zip(percentages, engine.run(cells)):
        for variant in ("classic", "rank-aware"):
            rows.append(_row(
                TrimRow, outcome["variants"][variant],
                poisoning_percentage=pct, variant=variant,
                attack_ratio=parse_json_float(outcome["attack_ratio"])))
    return rows


def format_trim(rows: list[TrimRow]) -> str:
    """Table for A2."""
    body = [[f"{r.poisoning_percentage:g}%", format_ratio(r.attack_ratio),
             r.variant, f"{r.recall:.0%}", f"{r.precision:.0%}",
             format_ratio(r.residual_ratio)] for r in rows]
    return (section("A2 - TRIM vs the CDF poisoning attack") + "\n"
            + render_table(["poison%", "attack ratio", "variant", "recall",
                            "precision", "loss after trim"], body))


# ----------------------------------------------------------------------
# A3: end-to-end lookup cost
# ----------------------------------------------------------------------

def plan_lookup_cost_cells(n_keys: int = 20_000, density: float = 0.1,
                           model_size: int = 200,
                           poisoning_percentage: float = 10.0,
                           seed: int = 17) -> list[Cell]:
    """A3's plan: a single cell."""
    return [Cell.make("a3-cost", n_keys=n_keys, density=density,
                      model_size=model_size,
                      poisoning_percentage=poisoning_percentage,
                      seed=seed)]


def run_lookup_cost_cell(cell: Cell) -> dict[str, Any]:
    """The single A3 cell: attack once, probe all three structures."""
    p = cell.params_dict
    n_keys = p["n_keys"]
    rng = np.random.default_rng(p["seed"])
    keyset = uniform_keyset(
        n_keys, Domain.of_size(int(n_keys / p["density"])), rng)
    n_models = max(n_keys // p["model_size"], 1)
    capability = RMIAttackerCapability(
        poisoning_percentage=p["poisoning_percentage"], alpha=3.0)
    attack = poison_rmi(keyset, n_models, capability,
                        max_exchanges=n_models)
    poisoned = keyset.insert(attack.poison_keys)
    reports = compare_costs(keyset.keys, poisoned.keys, n_models,
                            seed=p["seed"])
    return {"reports": [
        {"structure": r.structure, "mean_cost": r.mean_cost,
         "max_cost": r.max_cost, "n_queries": r.n_queries}
        for r in reports]}


def run_lookup_cost(n_keys: int = 20_000, density: float = 0.1,
                    model_size: int = 200, poisoning_percentage: float = 10.0,
                    seed: int = 17, jobs: int = 1,
                    checkpoint_dir: str | Path | None = None,
                    resume: bool = False,
                    executor: str = "process",
                    progress=None) -> list[CostReport]:
    """A3: clean RMI vs poisoned RMI vs B-Tree probe counts.

    A single (but expensive at full size) unit of work, so it runs as
    one cell — parallelism buys nothing here, but checkpoint/resume
    still lets an interrupted ``all`` run skip it the second time.
    """
    cells = plan_lookup_cost_cells(n_keys, density, model_size,
                                   poisoning_percentage, seed)
    engine = _engine(run_lookup_cost_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    (outcome,) = engine.run(cells)
    return [CostReport(**r) for r in outcome["reports"]]


def format_lookup_cost(reports: list[CostReport]) -> str:
    """Table for A3."""
    return (section("A3 - end-to-end lookup cost (probes per lookup)")
            + "\n" + "\n".join(r.row() for r in reports))


# ----------------------------------------------------------------------
# A4: alpha sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaRow:
    """RMI ratio at one per-model threshold multiplier."""

    alpha: float
    rmi_ratio: float
    max_model_ratio: float
    exchanges: int


def plan_alpha_cells(n_keys: int = 10_000, model_size: int = 500,
                     poisoning_percentage: float = 10.0,
                     alphas: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0,
                                                  5.0),
                     seed: int = 19) -> list[Cell]:
    """A4's plan: one cell per threshold multiplier."""
    return [Cell.make("a4-alpha", n_keys=n_keys, model_size=model_size,
                      poisoning_percentage=poisoning_percentage,
                      alpha=alpha, seed=seed)
            for alpha in alphas]


def run_alpha_cell(cell: Cell) -> dict[str, Any]:
    """One A4 threshold multiplier on the shared log-normal keyset."""
    p = cell.params_dict
    n_keys = p["n_keys"]
    rng = np.random.default_rng(p["seed"])
    keyset = lognormal_keyset(n_keys, Domain.of_size(100 * n_keys), rng)
    n_models = max(n_keys // p["model_size"], 1)
    capability = RMIAttackerCapability(
        poisoning_percentage=p["poisoning_percentage"], alpha=p["alpha"])
    result = poison_rmi(keyset, n_models, capability,
                        max_exchanges=2 * n_models)
    ratios = result.per_model_ratios
    finite = ratios[np.isfinite(ratios)]
    return {
        "rmi_ratio": json_float(result.rmi_ratio_loss),
        "max_model_ratio": json_float(float(finite.max())),
        "exchanges": result.exchanges,
    }


def run_alpha_sweep(n_keys: int = 10_000, model_size: int = 500,
                    poisoning_percentage: float = 10.0,
                    alphas: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 5.0),
                    seed: int = 19, jobs: int = 1,
                    checkpoint_dir: str | Path | None = None,
                    resume: bool = False,
                    executor: str = "process",
                    progress=None) -> list[AlphaRow]:
    """A4: how much threshold slack helps the volume allocation."""
    cells = plan_alpha_cells(n_keys, model_size, poisoning_percentage,
                             alphas, seed)
    engine = _engine(run_alpha_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    return [_row(AlphaRow, outcome, alpha=alpha)
            for alpha, outcome in zip(alphas, engine.run(cells))]


def format_alpha(rows: list[AlphaRow]) -> str:
    """Table for A4."""
    body = [[f"{r.alpha:g}", format_ratio(r.rmi_ratio),
             format_ratio(r.max_model_ratio), r.exchanges] for r in rows]
    return (section("A4 - per-model threshold (alpha) sweep") + "\n"
            + render_table(["alpha", "RMI ratio", "max model ratio",
                            "exchanges"], body))


# ----------------------------------------------------------------------
# A5: greedy vs uniform volume allocation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AllocationRow:
    """Greedy-vs-uniform comparison for one distribution."""

    distribution: str
    uniform_ratio: float
    greedy_ratio: float
    improvement: float


ALLOCATION_DISTRIBUTIONS = ("uniform", "lognormal")


def plan_allocation_cells(n_keys: int = 10_000, model_size: int = 500,
                          poisoning_percentage: float = 10.0,
                          seed: int = 29) -> list[Cell]:
    """A5's plan: one cell per distribution."""
    return [Cell.make("a5-allocation", n_keys=n_keys,
                      model_size=model_size,
                      poisoning_percentage=poisoning_percentage,
                      distribution=distribution, seed=seed)
            for distribution in ALLOCATION_DISTRIBUTIONS]


def run_allocation_cell(cell: Cell) -> dict[str, Any]:
    """One A5 distribution: uniform vs greedy budget allocation.

    The keyset stream hashes the distribution name with CRC-32 (via
    :func:`repro.runtime.stable_seed_words`); the legacy loop used the
    salted builtin ``hash``, which silently drew different keysets in
    every interpreter.
    """
    p = cell.params_dict
    n_keys = p["n_keys"]
    rng = np.random.default_rng(
        stable_seed_words(p["seed"], p["distribution"]))
    domain = Domain.of_size(100 * n_keys)
    if p["distribution"] == "uniform":
        keyset = uniform_keyset(n_keys, domain, rng)
    else:
        keyset = lognormal_keyset(n_keys, domain, rng)
    n_models = max(n_keys // p["model_size"], 1)
    capability = RMIAttackerCapability(
        poisoning_percentage=p["poisoning_percentage"], alpha=3.0)
    flat = poison_rmi(keyset, n_models, capability, max_exchanges=0)
    greedy = poison_rmi(keyset, n_models, capability,
                        max_exchanges=2 * n_models)
    improvement = (greedy.rmi_ratio_loss / flat.rmi_ratio_loss
                   if flat.rmi_ratio_loss > 0 else float("inf"))
    return {
        "uniform_ratio": json_float(flat.rmi_ratio_loss),
        "greedy_ratio": json_float(greedy.rmi_ratio_loss),
        "improvement": json_float(improvement),
    }


def run_allocation_ablation(n_keys: int = 10_000, model_size: int = 500,
                            poisoning_percentage: float = 10.0,
                            seed: int = 29, jobs: int = 1,
                            checkpoint_dir: str | Path | None = None,
                            resume: bool = False,
                            executor: str = "process",
                            progress=None) -> list[AllocationRow]:
    """A5: value of the exchange loop over uniform initial budgets."""
    cells = plan_allocation_cells(n_keys, model_size,
                                  poisoning_percentage, seed)
    engine = _engine(run_allocation_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    return [_row(AllocationRow, outcome, distribution=distribution)
            for distribution, outcome in zip(ALLOCATION_DISTRIBUTIONS,
                                             engine.run(cells))]


def format_allocation(rows: list[AllocationRow]) -> str:
    """Table for A5."""
    body = [[r.distribution, format_ratio(r.uniform_ratio),
             format_ratio(r.greedy_ratio), f"{r.improvement:.2f}x"]
            for r in rows]
    return (section("A5 - greedy vs uniform volume allocation") + "\n"
            + render_table(["distribution", "uniform alloc", "greedy alloc",
                            "improvement"], body))


# ----------------------------------------------------------------------
# A6: deletion adversary (Sec. VI future work)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeletionRow:
    """Insertion-vs-deletion comparison at one budget."""

    budget_percentage: float
    insertion_ratio: float
    deletion_ratio: float


def _ablation_keyset_and_budget(params: dict[str, Any]):
    """Rebuild an A-series cell's shared keyset and its budget.

    Every budget cell regenerates the identical keyset from the shared
    seed, so per-percentage comparisons stay exact across workers.
    """
    rng = np.random.default_rng(params["seed"])
    keyset = uniform_keyset(
        params["n_keys"],
        Domain.of_size(int(params["n_keys"] / params["density"])), rng)
    budget = int(params["n_keys"] * params["percentage"] / 100.0)
    return keyset, budget


def plan_deletion_cells(n_keys: int = 1000, density: float = 0.1,
                        percentages: tuple[float, ...] = (5.0, 10.0,
                                                          20.0),
                        seed: int = 37) -> list[Cell]:
    """A6's plan: one cell per budget percentage."""
    return [Cell.make("a6-deletion", n_keys=n_keys, density=density,
                      percentage=pct, seed=seed)
            for pct in percentages]


def run_deletion_cell(cell: Cell) -> dict[str, Any]:
    """One A6 budget: insertion vs deletion on the shared keyset."""
    from ..core.deletion import greedy_delete

    keyset, budget = _ablation_keyset_and_budget(cell.params_dict)
    return {
        "insertion_ratio": greedy_poison(keyset, budget).ratio_loss,
        "deletion_ratio": greedy_delete(keyset, budget).ratio_loss,
    }


def run_deletion_ablation(n_keys: int = 1000, density: float = 0.1,
                          percentages: tuple[float, ...] = (5.0, 10.0, 20.0),
                          seed: int = 37, jobs: int = 1,
                          checkpoint_dir: str | Path | None = None,
                          resume: bool = False,
                          executor: str = "process",
                          progress=None) -> list[DeletionRow]:
    """A6: how does removing keys compare to injecting them?

    Both adversaries get the same budget (p keys inserted vs p keys
    deleted) against the same uniform keyset; every worker regenerates
    that keyset from the shared seed, so the comparison stays exact.
    """
    cells = plan_deletion_cells(n_keys, density, percentages, seed)
    engine = _engine(run_deletion_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    return [_row(DeletionRow, outcome, budget_percentage=pct)
            for pct, outcome in zip(percentages, engine.run(cells))]


def format_deletion(rows: list["DeletionRow"]) -> str:
    """Table for A6."""
    body = [[f"{r.budget_percentage:g}%", format_ratio(r.insertion_ratio),
             format_ratio(r.deletion_ratio)] for r in rows]
    return (section("A6 - insertion vs deletion adversary") + "\n"
            + render_table(["budget", "insertion ratio",
                            "deletion ratio"], body))


# ----------------------------------------------------------------------
# A7: polynomial second-stage robustness (Sec. VI mitigation)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialRow:
    """Loss absorbed by a higher-degree refit of the poisoned CDF."""

    degree: int
    n_parameters: int
    multiply_adds: int
    poisoned_ratio: float


def plan_polynomial_cells(n_keys: int = 1000, density: float = 0.1,
                          poisoning_percentage: float = 10.0,
                          degrees: tuple[int, ...] = (1, 2, 3, 5),
                          seed: int = 41) -> list[Cell]:
    """A7's plan: one cell per polynomial degree."""
    return [Cell.make("a7-polynomial", n_keys=n_keys, density=density,
                      poisoning_percentage=poisoning_percentage,
                      degree=degree, seed=seed)
            for degree in degrees]


def run_polynomial_cell(cell: Cell) -> dict[str, Any]:
    """One A7 degree: refit the shared poisoned keyset.

    Every cell regenerates the identical keyset and attack from the
    shared seed (the legacy loop mounted the attack once), so the
    per-degree comparison stays exact across workers.
    """
    from ..core.polynomial import fit_polynomial_cdf

    p = cell.params_dict
    n_keys = p["n_keys"]
    rng = np.random.default_rng(p["seed"])
    keyset = uniform_keyset(
        n_keys, Domain.of_size(int(n_keys / p["density"])), rng)
    budget = int(n_keys * p["poisoning_percentage"] / 100.0)
    attack = greedy_poison(keyset, budget)
    poisoned = keyset.insert(attack.poison_keys)
    clean_fit = fit_polynomial_cdf(keyset, p["degree"])
    dirty_fit = fit_polynomial_cdf(poisoned, p["degree"])
    ratio = (dirty_fit.mse / clean_fit.mse if clean_fit.mse > 0
             else float("inf"))
    return {
        "n_parameters": dirty_fit.model.n_parameters,
        "multiply_adds": dirty_fit.model.multiply_adds_per_lookup,
        "poisoned_ratio": json_float(ratio),
    }


def run_polynomial_ablation(n_keys: int = 1000, density: float = 0.1,
                            poisoning_percentage: float = 10.0,
                            degrees: tuple[int, ...] = (1, 2, 3, 5),
                            seed: int = 41, jobs: int = 1,
                            checkpoint_dir: str | Path | None = None,
                            resume: bool = False,
                            executor: str = "process",
                            progress=None) -> list[PolynomialRow]:
    """A7: does a more complex final-stage model blunt the attack?

    Mount the linear attack, then refit the poisoned keyset with
    polynomial models of increasing degree and report the remaining
    ratio loss next to the extra storage/compute each degree costs —
    the trade-off Sec. VI says would "negatively affect the storage
    overhead".
    """
    cells = plan_polynomial_cells(n_keys, density,
                                  poisoning_percentage, degrees, seed)
    engine = _engine(run_polynomial_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    return [_row(PolynomialRow, outcome, degree=degree)
            for degree, outcome in zip(degrees, engine.run(cells))]


def format_polynomial(rows: list["PolynomialRow"]) -> str:
    """Table for A7."""
    body = [[r.degree, r.n_parameters, r.multiply_adds,
             format_ratio(r.poisoned_ratio)] for r in rows]
    return (section("A7 - polynomial second-stage robustness") + "\n"
            + render_table(["degree", "params", "mul-adds",
                            "poisoned/clean loss"], body))


# ----------------------------------------------------------------------
# A8: black-box extraction (Sec. VI future work)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BlackboxReport:
    """Fidelity of the extraction and of the attack built on it."""

    n_probes: int
    models_recovered: int
    n_models: int
    max_slope_error: float
    whitebox_ratio: float
    blackbox_ratio: float


def plan_blackbox_cells(n_keys: int = 5000, n_models: int = 25,
                        poisoning_percentage: float = 10.0,
                        seed: int = 43) -> list[Cell]:
    """A8's plan: a single (extraction + two attacks) cell."""
    return [Cell.make("a8-blackbox", n_keys=n_keys, n_models=n_models,
                      poisoning_percentage=poisoning_percentage,
                      seed=seed)]


def run_blackbox_cell(cell: Cell) -> dict[str, Any]:
    """The single A8 cell: extract, then attack both ways."""
    from ..core.blackbox import extract_second_stage, observe_rmi
    from ..index.rmi import RecursiveModelIndex

    p = cell.params_dict
    n_keys, n_models = p["n_keys"], p["n_models"]
    rng = np.random.default_rng(p["seed"])
    keyset = uniform_keyset(n_keys, Domain.of_size(20 * n_keys), rng)
    rmi = RecursiveModelIndex.build_equal_size(keyset, n_models)

    observations = observe_rmi(rmi, keyset.keys)
    extraction = extract_second_stage(observations)
    slope_errors = extraction.slope_errors(rmi)

    capability = RMIAttackerCapability(
        poisoning_percentage=p["poisoning_percentage"], alpha=3.0)
    whitebox = poison_rmi(keyset, n_models, capability,
                          max_exchanges=n_models)

    # Black-box attacker re-derives the partition from the recovered
    # boundaries and runs the same algorithm.
    blackbox_models = extraction.boundaries.size
    blackbox = poison_rmi(keyset, blackbox_models, capability,
                          max_exchanges=blackbox_models)

    return {
        "n_probes": keyset.n,
        "models_recovered": len(extraction.models),
        "max_slope_error": json_float(float(slope_errors.max())),
        "whitebox_ratio": json_float(whitebox.rmi_ratio_loss),
        "blackbox_ratio": json_float(blackbox.rmi_ratio_loss),
    }


def run_blackbox_ablation(n_keys: int = 5000, n_models: int = 25,
                          poisoning_percentage: float = 10.0,
                          seed: int = 43, jobs: int = 1,
                          checkpoint_dir: str | Path | None = None,
                          resume: bool = False,
                          executor: str = "process",
                          progress=None) -> BlackboxReport:
    """A8: infer the second stage by probing, then attack with it.

    Probes every stored key (the attacker contributed/knows the data
    under the threat model; only the *model parameters* are hidden),
    recovers each second-stage line, and mounts Algorithm 2 using the
    recovered partition boundaries.  The paper's conjecture is that
    the black-box gap is thin; the report quantifies it.

    One (expensive) unit of work, so it runs as a single cell — like
    A3, parallelism buys nothing but checkpoint/resume still lets an
    interrupted ``all`` run skip it the second time.
    """
    cells = plan_blackbox_cells(n_keys, n_models,
                                poisoning_percentage, seed)
    engine = _engine(run_blackbox_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    (outcome,) = engine.run(cells)
    return _row(BlackboxReport, outcome, n_models=n_models)


def format_blackbox(report: "BlackboxReport") -> str:
    """Table for A8."""
    rows = [
        ["probes issued", report.n_probes],
        ["models recovered",
         f"{report.models_recovered}/{report.n_models}"],
        ["max relative slope error", f"{report.max_slope_error:.2e}"],
        ["white-box attack ratio", format_ratio(report.whitebox_ratio)],
        ["black-box attack ratio", format_ratio(report.blackbox_ratio)],
    ]
    return (section("A8 - black-box second-stage extraction") + "\n"
            + render_table(["metric", "value"], rows))


# ----------------------------------------------------------------------
# A9: update-channel poisoning (Sec. VI future work)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateChannelReport:
    """Static pre-training attack vs the same budget via updates."""

    static_ratio: float
    update_ratio: float
    retrains_triggered: int
    clean_lookup_cost: float
    poisoned_lookup_cost: float


def plan_update_cells(n_keys: int = 2000, n_models: int = 20,
                      poisoning_percentage: float = 10.0,
                      seed: int = 47) -> list[Cell]:
    """A9's plan: a single (static attack + live attack) cell."""
    return [Cell.make("a9-updates", n_keys=n_keys, n_models=n_models,
                      poisoning_percentage=poisoning_percentage,
                      seed=seed)]


def run_update_cell(cell: Cell) -> dict[str, Any]:
    """The single A9 cell: static reference vs insert-API attack."""
    from ..core.update_attack import poison_via_updates
    from ..index.dynamic import DynamicLearnedIndex

    p = cell.params_dict
    n_keys, n_models = p["n_keys"], p["n_models"]
    rng = np.random.default_rng(p["seed"])
    keyset = uniform_keyset(n_keys, Domain.of_size(20 * n_keys), rng)

    capability = RMIAttackerCapability(
        poisoning_percentage=p["poisoning_percentage"], alpha=3.0)
    static = poison_rmi(keyset, n_models, capability,
                        max_exchanges=n_models)

    clean_index = DynamicLearnedIndex(keyset, n_models=n_models)
    queries = keyset.keys[::7]
    clean_cost = clean_index.lookup_cost(queries)

    live = DynamicLearnedIndex(keyset, n_models=n_models,
                               retrain_threshold=0.05)
    update = poison_via_updates(live, p["poisoning_percentage"])

    return {
        "static_ratio": json_float(static.rmi_ratio_loss),
        "update_ratio": json_float(update.ratio_loss),
        "retrains_triggered": update.retrains_triggered,
        "clean_lookup_cost": clean_cost,
        "poisoned_lookup_cost": live.lookup_cost(queries),
    }


def run_update_ablation(n_keys: int = 2000, n_models: int = 20,
                        poisoning_percentage: float = 10.0,
                        seed: int = 47, jobs: int = 1,
                        checkpoint_dir: str | Path | None = None,
                        resume: bool = False,
                        executor: str = "process",
                        progress=None) -> UpdateChannelReport:
    """A9: does the update API reopen the pre-training attack surface?

    Build a dynamic index, poison it purely through ``insert`` calls,
    and compare the post-retrain damage with the static Algorithm 2
    attack of equal budget.  Because retraining consumes the merged
    base + buffer, the update channel stages the identical poisoned
    training set — the attack surface never closed.
    """
    cells = plan_update_cells(n_keys, n_models, poisoning_percentage,
                              seed)
    engine = _engine(run_update_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    (outcome,) = engine.run(cells)
    return _row(UpdateChannelReport, outcome)


def format_update(report: "UpdateChannelReport") -> str:
    """Table for A9."""
    rows = [
        ["static attack ratio", format_ratio(report.static_ratio)],
        ["update-channel attack ratio",
         format_ratio(report.update_ratio)],
        ["retrains triggered", report.retrains_triggered],
        ["clean lookup cost", f"{report.clean_lookup_cost:.2f}"],
        ["poisoned lookup cost",
         f"{report.poisoned_lookup_cost:.2f}"],
    ]
    return (section("A9 - poisoning through the update channel") + "\n"
            + render_table(["metric", "value"], rows))


# ----------------------------------------------------------------------
# A10: ridge regularisation (Sec. IV-A open question)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeRow:
    """Clean and poisoned loss of one shrinkage level."""

    lam_fraction: float
    clean_mse: float
    poisoned_mse: float
    poisoned_ratio: float = field(init=False)

    def __post_init__(self) -> None:
        if self.clean_mse == 0.0:
            ratio = float("inf") if self.poisoned_mse > 0 else 1.0
        else:
            ratio = self.poisoned_mse / self.clean_mse
        object.__setattr__(self, "poisoned_ratio", ratio)


def plan_ridge_cells(n_keys: int = 1000, density: float = 0.1,
                     poisoning_percentage: float = 10.0,
                     lam_fractions: tuple[float, ...] = (
                         0.0, 0.01, 0.1, 0.5),
                     seed: int = 53) -> list[Cell]:
    """A10's plan: one cell per shrinkage level."""
    return [Cell.make("a10-ridge", n_keys=n_keys, density=density,
                      poisoning_percentage=poisoning_percentage,
                      lam_fraction=fraction, seed=seed)
            for fraction in lam_fractions]


def run_ridge_cell(cell: Cell) -> dict[str, Any]:
    """One A10 shrinkage level on the shared poisoned keyset."""
    from ..core.cdf_regression import fit_ridge_cdf

    p = cell.params_dict
    n_keys = p["n_keys"]
    rng = np.random.default_rng(p["seed"])
    keyset = uniform_keyset(
        n_keys, Domain.of_size(int(n_keys / p["density"])), rng)
    budget = int(n_keys * p["poisoning_percentage"] / 100.0)
    attack = greedy_poison(keyset, budget)
    poisoned = keyset.insert(attack.poison_keys)

    lam = p["lam_fraction"] * float(keyset.keys.astype(np.float64).var())
    return {
        "clean_mse": fit_ridge_cdf(keyset, lam).mse,
        "poisoned_mse": fit_ridge_cdf(poisoned, lam).mse,
    }


def run_ridge_ablation(n_keys: int = 1000, density: float = 0.1,
                       poisoning_percentage: float = 10.0,
                       lam_fractions: tuple[float, ...] = (
                           0.0, 0.01, 0.1, 0.5),
                       seed: int = 53, jobs: int = 1,
                       checkpoint_dir: str | Path | None = None,
                       resume: bool = False,
                       executor: str = "process",
                       progress=None) -> list[RidgeRow]:
    """A10: does L2 shrinkage blunt the poisoning?

    The paper sets regularisation aside because LIS queries are
    training data.  We measure it anyway: for each penalty (as a
    fraction of the clean key variance), fit ridge on the clean and on
    the poisoned keysets and compare training errors.  Shrinking the
    slope mostly *adds* clean error without removing poisoned error —
    the attack manipulates ranks, not leverage points.
    """
    cells = plan_ridge_cells(n_keys, density, poisoning_percentage,
                             lam_fractions, seed)
    engine = _engine(run_ridge_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    return [_row(RidgeRow, outcome, lam_fraction=fraction)
            for fraction, outcome in zip(lam_fractions,
                                         engine.run(cells))]


def format_ridge(rows: list["RidgeRow"]) -> str:
    """Table for A10."""
    body = [[f"{r.lam_fraction:g}", f"{r.clean_mse:.2f}",
             f"{r.poisoned_mse:.2f}", format_ratio(r.poisoned_ratio)]
            for r in rows]
    return (section("A10 - ridge regularisation against poisoning")
            + "\n" + render_table(
                ["lambda/Var(K)", "clean MSE", "poisoned MSE",
                 "ratio"], body))


# ----------------------------------------------------------------------
# A11: the three adversaries head to head (Sec. VI future work)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AdversaryRow:
    """Ratio losses of insert / delete / modify at one budget."""

    budget_percentage: float
    insertion_ratio: float
    deletion_ratio: float
    modification_ratio: float


def plan_adversary_cells(n_keys: int = 1000, density: float = 0.1,
                         percentages: tuple[float, ...] = (5.0, 10.0,
                                                           20.0),
                         seed: int = 59) -> list[Cell]:
    """A11's plan: one cell per budget percentage."""
    return [Cell.make("a11-adversaries", n_keys=n_keys,
                      density=density, percentage=pct, seed=seed)
            for pct in percentages]


def run_adversary_cell(cell: Cell) -> dict[str, Any]:
    """One A11 budget: all three adversaries on the shared keyset."""
    from ..core.deletion import greedy_delete
    from ..core.modification import greedy_modify

    keyset, budget = _ablation_keyset_and_budget(cell.params_dict)
    return {
        "insertion_ratio": greedy_poison(keyset, budget).ratio_loss,
        "deletion_ratio": greedy_delete(keyset, budget).ratio_loss,
        "modification_ratio": greedy_modify(keyset, budget).ratio_loss,
    }


def run_adversary_comparison(n_keys: int = 1000, density: float = 0.1,
                             percentages: tuple[float, ...] = (
                                 5.0, 10.0, 20.0),
                             seed: int = 59, jobs: int = 1,
                             checkpoint_dir: str | Path | None = None,
                             resume: bool = False,
                             executor: str = "process",
                             progress=None) -> list[AdversaryRow]:
    """A11: insert vs delete vs modify at equal budget.

    A modification spends one budget unit on a delete + insert pair,
    so it matches or beats pure insertion while leaving the key count
    untouched — the stealthiest and often strongest adversary.
    """
    cells = plan_adversary_cells(n_keys, density, percentages, seed)
    engine = _engine(run_adversary_cell, jobs, checkpoint_dir, resume,
                     executor, progress)
    return [_row(AdversaryRow, outcome, budget_percentage=pct)
            for pct, outcome in zip(percentages, engine.run(cells))]


def format_adversaries(rows: list["AdversaryRow"]) -> str:
    """Table for A11."""
    body = [[f"{r.budget_percentage:g}%",
             format_ratio(r.insertion_ratio),
             format_ratio(r.deletion_ratio),
             format_ratio(r.modification_ratio)] for r in rows]
    return (section("A11 - insert vs delete vs modify adversaries")
            + "\n" + render_table(
                ["budget", "insert", "delete", "modify"], body))
