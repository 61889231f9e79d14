"""``python -m repro.experiments verify TARGET``: one target's parity
contracts, checked by one fixed procedure (README, "Running
experiments").  A broken contract exits non-zero naming the target,
the leg and the first differing key path or file.  ``a1-bruteforce``
cannot pass: its wall-clock columns differ between runs by design.
"""

from __future__ import annotations

import argparse
import tempfile
import zipfile
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn

from .. import io
from ..contracts import validate_result
from ..observe import gallery
from ..runtime import EXECUTORS

#: Counters the instrumented leg must see live; no test drives them
#: through the CLI's ``--instrument`` registry.
LIVE_COUNTERS = {"closedloop": ("serving.ticks", "columnar.ops")}

_MISSING = object()


class Leg(NamedTuple):
    """One in-process CLI run of the verified target."""

    target: str
    name: str
    tree: str
    jobs: int
    flags: tuple[str, ...] = ()

    @property
    def transport(self) -> str:
        return "process" if "--transport" in self.flags else "inproc"

    def fail(self, detail: str) -> NoReturn:
        raise SystemExit(f"verify {self.target}: leg {self.name}: "
                         f"{detail}")

    def require(self, ok: bool, detail: str) -> None:
        if not ok:
            self.fail(detail)


def plan_legs(target: str) -> list[Leg]:
    """jobs 2, its resume, jobs 1 instrumented and, for ``cluster``,
    the process transport at jobs 2 and 1; the first is the reference."""
    legs = [Leg(target, "jobs2", "jobs2", 2),
            Leg(target, "resume", "jobs2", 2, ("--resume",)),
            Leg(target, "jobs1", "jobs1", 1, ("--instrument",))]
    if target == "cluster":
        legs += [Leg(target, f"process-jobs{jobs}", f"process-jobs{jobs}",
                     jobs, ("--transport", "process")) for jobs in (2, 1)]
    return legs


def _flatten(tree: Any, path: str) -> dict[str, Any]:
    """A JSON tree as ``{key path: leaf}``; empty containers are leaves."""
    if isinstance(tree, dict) and tree:
        items = [(f"{path}.{key}", value) for key, value in tree.items()]
    elif isinstance(tree, list) and tree:
        items = [(f"{path}[{i}]", value) for i, value in enumerate(tree)]
    else:
        return {path: tree}
    return {where: leaf for key, value in items
            for where, leaf in _flatten(value, key).items()}


def _changed(a: dict, b: dict) -> "str | None":
    """The first key whose value differs between two mappings."""
    return next((key for key in sorted(a.keys() | b.keys())
                 if a.get(key, _MISSING) != b.get(key, _MISSING)), None)


def _result(document: dict[str, Any]) -> dict[str, Any]:
    """``result`` as ``{key path: leaf}``, ``transport`` left out."""
    return _flatten({key: value for key, value in document["result"].items()
                     if key != "transport"}, "result")


def _mtimes(target_dir: Path) -> dict[str, int]:
    return {path.name: path.stat().st_mtime_ns
            for path in (target_dir / "cells").iterdir()}


def _gallery(tree: Path, target: str) -> dict[str, bytes]:
    """Render ``tree``'s galleries; return the target's figure files."""
    gallery.render_out_tree(tree)
    root = tree / target / "figures"
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def _load(leg: Leg, executor: str, target_dir: Path) -> dict[str, Any]:
    """The leg's result.json, validated and matched to the leg."""
    try:
        document = validate_result(io.load_json(target_dir / "result.json"))
    except (OSError, ValueError) as exc:  # ContractViolation included
        leg.fail(f"result.json: {exc}")
    header = {"target": leg.target, "profile": "quick", "jobs": leg.jobs,
              "executor": executor}
    for key, value in header.items():
        leg.require(document[key] == value,
                    f"header {key} is {document[key]!r}, not {value!r}")
    transport = document["result"].get("transport", "inproc")
    leg.require(transport == leg.transport,
                f"result.transport is {transport!r}")
    instrumented = "--instrument" in leg.flags
    leg.require(("instrument" in document) == instrumented,
                f"instrument section present: {not instrumented}")
    for name in LIVE_COUNTERS.get(leg.target, ()) if instrumented else ():
        leg.require(document["instrument"]["counters"].get(name, 0) > 0,
                    f"counter {name} is not live")
    return document


def _check_manifest(leg: Leg, target_dir: Path,
                    artifacts: list[dict[str, Any]]) -> None:
    """A target that emits artifacts lists every plan cell's archive
    once, and each loads to its listed, non-empty arrays."""
    cells = Counter(
        path.with_suffix(".npz").relative_to(target_dir).as_posix()
        for path in (target_dir / "cells").glob("*.json"))
    listed = Counter(entry["file"] for entry in artifacts)
    odd = _changed(cells, listed) if artifacts else None
    leg.require(odd is None, f"{odd}: {listed[odd]} manifest entries, "
                             f"{cells[odd]} plan cell checkpoints")
    for entry in artifacts:
        try:
            arrays = io.load_arrays(target_dir / entry["file"])
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            leg.fail(f"{entry['file']} does not load: {exc}")
        leg.require(sorted(arrays) == entry["arrays"],
                    f"{entry['file']}: manifest lists {entry['arrays']}, "
                    f"archive holds {sorted(arrays)}")
        empty = sorted(name for name, array in arrays.items()
                       if not array.size)
        leg.require(not empty, f"{entry['file']}: empty {empty}")


def verify(target: str, out: Path, executor: str,
           run: Callable[[list[str]], int]) -> str:
    """Run every leg of ``target`` under ``out`` through ``run`` (the
    CLI ``main``), check the contracts and return a summary line."""
    legs = plan_legs(target)
    documents: dict[Leg, dict[str, Any]] = {}
    for leg in legs:
        print(f"verify {target}: leg {leg.name}", flush=True)
        target_dir = out / leg.tree / target
        before = _mtimes(target_dir) if "--resume" in leg.flags else None
        code = run([target, "--jobs", str(leg.jobs), "--executor",
                    executor, "--out", str(out / leg.tree), *leg.flags])
        leg.require(code == 0, f"exited {code}")
        if before is not None:
            name = _changed(before, _mtimes(target_dir))
            leg.require(name is None, f"resume rewrote cells/{name}")
        documents[leg] = _load(leg, executor, target_dir)

    # Checked once every leg has run, so damage a later leg did to an
    # earlier tree still shows.  _load already matched each transport.
    reference = _result(documents[legs[0]])
    for leg in legs[1:]:
        path = _changed(reference, _result(documents[leg]))
        leg.require(path is None, f"{path} differs from leg {legs[0].name}")
    for leg in {leg.tree: leg for leg in legs}.values():  # last per tree
        _check_manifest(leg, out / leg.tree / target,
                        documents[leg]["artifacts"])

    name = _changed(*(_gallery(out / tree, target)
                      for tree in ("jobs2", "jobs1")))
    legs[2].require(name is None, f"figures/{name} differs from the "
                                  f"jobs2 gallery")
    return (f"{len(legs)} legs agree; {len(documents[legs[0]]['artifacts'])}"
            f" artifacts round-tripped")


def main(argv: list[str], run: Callable[[list[str]], int],
         targets: list[str]) -> int:
    """``verify TARGET``; each leg calls ``run``, the CLI ``main``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments verify",
        description="Check one target's parity contracts (quick profile).")
    parser.add_argument("target", choices=targets)
    parser.add_argument("--out", type=Path, metavar="DIR",
                        help="keep each leg's tree under DIR "
                             "(default: a temporary directory)")
    parser.add_argument("--executor", choices=sorted(EXECUTORS),
                        default="process", help="pool backend of the legs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        for leg in plan_legs(args.target):
            if (out / leg.tree / args.target).exists():
                parser.error(f"{out / leg.tree / args.target} exists; "
                             f"verify needs fresh trees")
        summary = verify(args.target, out, args.executor, run)
    print(f"verify {args.target}: {summary}")
    return 0
