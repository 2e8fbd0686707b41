"""The benchmark workloads and their correctness checks.

Each workload is one ``p2pmpirun run`` grid.  ``argv`` is what a user
would type after ``p2pmpirun``; the pass runner adds ``--seed``,
``--jobs 1`` and ``--out``.  Why each grid is here, and which layer it
isolates, is recorded in ``NOTES.md``.

A cell fails when its stored record breaks the campaign invariant
below, when its record or the pass's rendered report differs from the
pin for the seed (``pins.json``), or when the pass raised.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
#: Seeds with pinned outputs: 0 and one held out while writing the
#: benchmark.
PIN_SEEDS = (0, 11)
#: Nominal share of a run's ``--seconds`` spent on set-up probes.
SETUP_BUDGET_S = 8.0

Invariant = Callable[[Mapping, Mapping], bool]


def _latratio_ok(params: Mapping, value: Mapping) -> bool:
    return 0.0 <= value["comm_s"] <= value["time_s"]


def _migrate_ok(params: Mapping, value: Mapping) -> bool:
    # The ledger's migration notices and the balancer's move counts are
    # not compared: a bounced move sends a notice without counting as a
    # move, and a notice can arrive after its job was recorded.
    availability = value["availability"]
    static = params["mode"] == "static"
    return (value["completed"] + value["degraded"] + value["failed"]
            == value["jobs"] == sum(value["statuses"].values())
            and 0 <= value["copies_done"] <= value["copies_planned"]
            and (availability is None or 0.0 <= availability <= 1.0)
            and not (static and (value["moves"] or value["migrations"]
                                 or value["rejoins"]))
            and value["revivals"] <= value["crashes"])


def _tenants_ok(params: Mapping, value: Mapping) -> bool:
    return (value["admitted"] + value["refused"] == value["arrivals"]
            and value["proposals_committed"] == value["admitted"]
            and value["leaked_holds"] == 0
            and not value["stuck_in_flight"])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``pass_s`` is the nominal wall time of one pass on a 2-core host;
    the pass count of a run is ``(seconds - SETUP_BUDGET_S) // pass_s``
    (at least one), so a fixed ``--seconds`` gives a fixed sample
    count.  ``tail_pct`` is the percentile ``cell_s.tail`` reports:
    :func:`tail_percentile` of that sample count at the benchmark's
    ``run_seconds``, fixed here so that it never moves with a run.
    ``smoke_argv`` is a tiny grid of the same campaign for the
    self-tests.
    """

    name: str
    argv: Tuple[str, ...]
    cells: int
    pass_s: float
    invariant: Invariant
    tail_pct: int
    smoke_argv: Tuple[str, ...]
    smoke_cells: int

    def passes(self, seconds: float) -> int:
        return max(1, int((seconds - SETUP_BUDGET_S) // self.pass_s))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("latratio", ("run", "applatency", "--ratios", "1,121.6"),
             cells=48, pass_s=12.0, invariant=_latratio_ok, tail_pct=89,
             smoke_argv=("run", "applatency", "--ratios", "1",
                         "--demands", "16"),
             smoke_cells=8),
    Workload("migrate", ("run", "migration", "--cluster", "small",
                         "--failures", "0,0.002,0.004,0.006,0.008,0.01",
                         "--users", "6", "--horizon", "480"),
             cells=12, pass_s=4.5, invariant=_migrate_ok, tail_pct=83,
             smoke_argv=("run", "migration", "--cluster", "small",
                         "--failures", "0.01", "--users", "2",
                         "--horizon", "120"),
             smoke_cells=2),
    Workload("tenants", ("run", "multiuser2"),
             cells=12, pass_s=8.0, invariant=_tenants_ok, tail_pct=72,
             smoke_argv=("run", "multiuser2", "--cluster", "small",
                         "--tenants", "10", "--rates", "0.05"),
             smoke_cells=2),
)}


def pass_argv(argv: Sequence[str], seed: int, store: Path) -> List[str]:
    """The full ``p2pmpirun`` argv of one serial pass into ``store``."""
    return [*argv, "--seed", str(seed), "--jobs", "1", "--out", str(store)]


def tail_percentile(samples: int) -> Optional[int]:
    """Highest whole percentile with at least ten samples beyond it.

    ``None`` when that would fall below p50: the run has too few cells
    for a tail.
    """
    q = math.floor(100 * (1 - 10 / samples)) if samples else 0
    return q if q >= 50 else None


# ----------------------------------------------------------------------
# pass digests
# ----------------------------------------------------------------------
def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassDigest:
    """What a pass produced: its cell records and its report."""

    records: List[Tuple[str, str, Dict]]  # (spec name, record line, record)
    report: str
    leftovers: List[str]

    def cell_hashes(self) -> List[str]:
        return [sha256(line) for _name, line, _rec in self.records]

    def records_hash(self) -> str:
        return sha256("\n".join(line for _n, line, _r in self.records))

    def report_hash(self) -> str:
        return sha256(self.report)

    def pin(self) -> Dict:
        return {"records": self.records_hash(), "report": self.report_hash(),
                "cells": self.cell_hashes()}


def digest_pass(store: Path, stdout: str) -> PassDigest:
    """Read the canonical store files of a finished pass.

    Header lines are skipped: they hash runner source, and a pure
    refactor must not read as a wrong answer.  Files are ordered by
    spec name, not by file name, for the same reason.
    """
    files = []
    leftovers = []
    for path in sorted(store.iterdir()):
        if path.suffix == ".jsonl":
            lines = path.read_text(encoding="utf-8").splitlines()
            header = json.loads(lines[0]) if lines else {}
            files.append((header.get("spec", {}).get("name", path.name),
                          lines[1:]))
        else:
            leftovers.append(path.name)
    records = []
    for name, lines in sorted(files, key=lambda f: f[0]):
        for line in lines:
            try:
                records.append((name, line, json.loads(line)))
            except ValueError:
                records.append((name, line, {}))
    return PassDigest(records=records, report=stdout,
                      leftovers=leftovers)


def load_pins() -> Dict:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def failed_cells(workload: Workload, digest: Optional[PassDigest],
                 reference: Optional[Mapping]) -> int:
    """Failed cells of one pass out of ``workload.cells``.

    ``reference`` is the pin of this seed, or the digest of the run's
    first pass when the seed has no pin (then the check is that passes
    agree).  A pass that raised, left a checkpoint or temp file behind
    instead of promoting it, or rendered a report that differs from the
    reference fails every cell.
    """
    expected_cells = workload.cells
    if digest is None or digest.leftovers:
        return expected_cells
    if reference is not None and digest.report_hash() != reference["report"]:
        return expected_cells
    want = reference["cells"] if reference is not None else None
    failed = max(0, expected_cells - len(digest.records))
    for i, (cell_hash, (_name, _line, rec)) in enumerate(
            zip(digest.cell_hashes(), digest.records)):
        bad = rec.get("kind") != "cell"
        if not bad:
            try:
                bad = not workload.invariant(rec["params"], rec["value"])
            except (KeyError, TypeError):
                bad = True
        if want is not None and (i >= len(want) or want[i] != cell_hash):
            bad = True
        failed += bad
    return min(failed, expected_cells)
