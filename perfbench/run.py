"""End-to-end campaign benchmark of the P2P-MPI reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload latratio --seed 0 --seconds 32 --trace 0

Each workload (``workloads.py``) is one ``p2pmpirun run`` grid run
serially (``--jobs 1``), one pass per fresh interpreter, the way a user
runs a campaign.

``--trace 0`` makes set-up probes and timed passes, the probes spread
between the passes, and prints the end-to-end metrics.  The host's
speed drifts by tens of percent over seconds to minutes, so each
timed interval is scaled by the host's speed next to it (see
``REFERENCE_CALIBRATION_S``); every metric is in seconds at the
reference host's speed, and the raw wall times go to stderr.

* ``campaign_s`` — wall time of one pass, spawn to exit, less the
  calibration loops inside it, each cell scaled on its own; median
  over the run's passes;
* ``cell_s.p50`` — median cell wall time, from the engine's progress
  hook, pooled over the passes;
* ``cell_s.tail`` — the workload's fixed percentile
  (``Workload.tail_pct``) of the same pooled cell times;
* ``setup_s`` — interpreter start to first cell start; median of the
  probes after the first, which also compiles bytecode;
* ``peak_rss_mb`` — peak RSS of a pass process; median over passes.

``--trace 1`` runs one untraced pass, one pass traced with spans and
one with counters, and prints the per-layer metrics (``tracer.py``).

Every pass is checked (``workloads.failed_cells``); the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``.  Progress,
pass and sample counts go to stderr.  The exit code is 2, with nothing
printed, when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402
from workloads import (WORKLOADS, PassDigest, Workload, digest_pass,  # noqa: E402
                       failed_cells, load_pins, pass_argv)

#: Set-up probes per timed run; the first is discarded.
PROBES = 10
#: Time of ``passrun.calibrate`` on the reference host.  A timed pass
#: runs the calibration loop after each cell, and a probe three times
#: once it reaches the first cell; each cell time is multiplied by
#: this over the mean of the calibration times just before and just
#: after the cell, and a probe's time, or the time a pass spends
#: outside its cells, by this over the median of its calibrations.
REFERENCE_CALIBRATION_S = 0.012
#: Every run ends within this many seconds of starting.
DEADLINE_S = 170.0
#: No further pass starts once a timed run is expected to overrun
#: ``--seconds`` by this factor (a host far slower than nominal), so
#: that a full comparison of two commits keeps to its time limit.
OVERRUN = 1.5


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


@dataclass
class PassOutcome:
    wall_s: float
    ok: bool
    data: Dict = field(default_factory=dict)
    digest: Optional[PassDigest] = None
    setup_s: Optional[float] = None


class Runner:
    """Spawns passes of one workload under a scratch directory."""

    def __init__(self, workload: Workload, seed: int, scratch: Path,
                 deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def run_pass(self, mode: Optional[str] = None,
                 calibrate: bool = False) -> PassOutcome:
        """One pass in a fresh interpreter; ``mode`` is ``probe`` or a
        tracer mode (``spans``, ``counts``).  ``calibrate`` times the
        host's speed in the pass."""
        self.count += 1
        store = self.scratch / f"store-{self.count}"
        result = self.scratch / f"pass-{self.count}.json"
        stdout = self.scratch / f"stdout-{self.count}.txt"
        cmd = [sys.executable, str(HERE / "passrun.py"), "--result",
               str(result)]
        if calibrate:
            cmd.append("--calibrate")
        if mode == "probe":
            cmd.append("--probe")
        elif mode:
            cmd += ["--trace", mode]
        cmd += ["--", *pass_argv(self.workload.argv, self.seed, store)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        timeout = max(1.0, self.deadline - time.monotonic())
        with stdout.open("w", encoding="utf-8") as out:
            start = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=out,
                                      stderr=subprocess.PIPE, env=env,
                                      cwd=ROOT, timeout=timeout, text=True)
                rc, err = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                rc, err = -1, "pass timed out"
            wall = time.monotonic() - start
        if rc != 0 or not result.exists():
            log(f"pass {self.count} ({mode or 'timed'}) failed rc={rc}: "
                f"{err[-2000:]}")
            return PassOutcome(wall_s=wall, ok=False)
        data = json.loads(result.read_text(encoding="utf-8"))
        outcome = PassOutcome(wall_s=wall, ok=True, data=data)
        if mode == "probe":
            if data["first_cell_at"] is None:
                return PassOutcome(wall_s=wall, ok=False)
            outcome.setup_s = data["first_cell_at"] - start
            if calibrate:
                outcome.setup_s *= speed(data["calibration_s"])
        else:
            outcome.digest = digest_pass(
                store, stdout.read_text(encoding="utf-8"))
        return outcome


def speed(calibrations: List[float]) -> float:
    """Reference host time per second of this host's time."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


def calibrations(outcome: PassOutcome) -> List[float]:
    """The calibration times of a calibrated pass, one per cell."""
    return [c for _key, _s, c in outcome.data["cells"]]


def scaled_campaign_s(outcome: PassOutcome) -> float:
    """A calibrated pass's wall time at the reference host's speed:
    its cells as :func:`scaled_cells` scales them, the rest (start-up,
    checkpoints, report) at the median host speed of the pass, and its
    calibration loops left out."""
    loops = calibrations(outcome)
    rest = (outcome.wall_s - sum(s for _key, s, _c in outcome.data["cells"])
            - sum(loops))
    return sum(scaled_cells(outcome)) + rest * speed(loops)


def scaled_cells(outcome: PassOutcome) -> List[float]:
    """A calibrated pass's cell times at the reference host's speed."""
    cells = []
    before = None
    for _key, seconds, after in outcome.data["cells"]:
        host_s = after if before is None else (before + after) / 2
        cells.append(seconds * REFERENCE_CALIBRATION_S / host_s)
        before = after
    return cells


def check_passes(workload: Workload, seed: int,
                 passes: List[PassOutcome]) -> int:
    """Failed cells over ``passes``, against the seed's pin or, without
    one, against the first pass."""
    reference = load_pins().get(workload.name, {}).get(str(seed))
    if reference is None and passes and passes[0].digest is not None:
        reference = passes[0].digest.pin()
    failed = 0
    for outcome in passes:
        failed += failed_cells(workload, outcome.digest, reference)
    return failed


def probe_slots(probes: int, passes: int) -> List[int]:
    """How many probes to run before each pass and after the last.

    The first probe only compiles bytecode; the others are spread
    evenly so that the set-up median samples the whole run.
    """
    kept = probes - 1
    slots = [kept // (passes + 1)] * (passes + 1)
    for i in range(kept % (passes + 1)):
        slots[i] += 1
    slots[0] += 1
    return slots


def timed_run(workload: Workload, seed: int, seconds: float,
              scratch: Path, deadline: float) -> Dict:
    runner = Runner(workload, seed, scratch, deadline)
    planned = workload.passes(seconds)
    start = time.monotonic()
    setups: List[Optional[float]] = []
    passes: List[PassOutcome] = []
    for i, slot in enumerate(probe_slots(PROBES, planned)):
        setups += [runner.run_pass("probe", calibrate=True).setup_s
                   for _ in range(slot)]
        if i == planned:
            break
        elapsed = time.monotonic() - start
        if passes and elapsed + passes[-1].wall_s > OVERRUN * seconds:
            continue
        outcome = runner.run_pass(calibrate=True)
        passes.append(outcome)
        if outcome.ok:
            log(f"{workload.name} pass {len(passes)}: wall "
                f"{outcome.wall_s:.3f} s, host speed "
                f"{speed(calibrations(outcome)):.3f}× the reference")
    kept = [s for s in setups[1:] if s is not None]
    failed = check_passes(workload, seed, passes)
    attempted = workload.cells * len(passes)
    good = [p for p in passes if p.ok]
    cells = [s for p in good for s in scaled_cells(p)]
    correct = (failed == 0 and len(good) == len(passes)
               and len(kept) == PROBES - 1)
    metrics = {}
    if good and cells and kept:
        metrics = {
            "campaign_s": (statistics.median(
                scaled_campaign_s(p) for p in good), "s"),
            "cell_s.p50": (statistics.median(cells), "s"),
            "cell_s.tail": (tail(cells, workload.tail_pct), "s"),
            "setup_s": (statistics.median(kept), "s"),
            "peak_rss_mb": (statistics.median(
                p.data["peak_rss_mb"] for p in good), "MB"),
        }
    log(f"{workload.name}: {len(passes)} of {planned} passes, "
        f"{len(cells)} cell samples, cell_s.tail is p{workload.tail_pct}, "
        f"{len(kept)} set-up probes kept of {PROBES}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def tail(samples: List[float], pct: int) -> float:
    """The ``pct``-th percentile of ``samples`` (inclusive method)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def layer_metrics(trace: Dict, counted: Dict, untraced_s: float,
                  traced_s: float) -> Dict:
    """Per-layer metrics of a span-traced and a counted pass (see
    ``NOTES.md``)."""
    selfs = self_times(trace["spans"])
    counts = {**trace["counts"], **counted["counts"]}

    def self_s(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return selfs.get(name, (0.0, 0))[1]

    def count(name: str) -> int:
        return counts.get(name, 0)

    cell_wall = sum(end - start for name, _p, start, end in trace["spans"]
                    if name == "cell")
    events = count("sim.events")
    evals = count("net.inbox_predicate_evals")
    admits = count("middleware.try_admit_calls")
    return {
        "cluster.build_s": (self_s("cluster.build"), "s"),
        "overlay.boot_s": (self_s("overlay.boot"), "s"),
        "overlay.boots": (calls("overlay.boot"), "count"),
        "overlay.cache_adds": (count("overlay.cache_adds"), "count"),
        "sim.events": (events, "count"),
        "sim.host_us_per_event": (
            cell_wall / events * 1e6 if events else 0.0, "us"),
        "net.sends": (count("net.sends"), "count"),
        "net.delivered": (count("net.delivered"), "count"),
        "net.inbox_s": (self_s("net.inbox"), "s"),
        "net.inbox_predicate_evals": (evals, "count"),
        "net.deliveries_per_predicate_eval": (
            count("net.delivered") / evals if evals else 0.0, "ratio"),
        "net.path_metrics_calls": (count("net.path_metrics_calls"),
                                   "count"),
        "net.site_path_metrics_calls": (
            count("net.site_path_metrics_calls"), "count"),
        "alloc.neighbor_map_calls": (calls("alloc.neighbor_map"), "count"),
        "alloc.neighbor_map_s": (self_s("alloc.neighbor_map"), "s"),
        "alloc.diffusive_moves_s": (self_s("alloc.diffusive_moves"), "s"),
        "ft.migrations": (count("ft.migrations"), "count"),
        "ft.rejoins": (count("ft.rejoins"), "count"),
        "alloc.plan_s": (self_s("alloc.plan"), "s"),
        "middleware.submit_s": (self_s("middleware.submit"), "s"),
        "middleware.try_admit_calls": (admits, "count"),
        "middleware.admit_ratio": (
            count("middleware.admitted") / admits if admits else 0.0,
            "ratio"),
        "controlplane.run_s": (self_s("controlplane.run"), "s"),
        "controlplane.proposals": (count("controlplane.proposals"),
                                   "count"),
        "mpi.kernel_s": (self_s("mpi.kernel"), "s"),
        "mpi.pairwise_builds": (count("mpi.pairwise_builds"), "count"),
        "store.write_s": (self_s("store.write"), "s"),
        "store.bytes_written": (count("store.bytes_written"), "bytes"),
        "report.render_s": (self_s("report.render"), "s"),
        "cell.self_s": (self_s("cell"), "s"),
        "gc.pause_s": (trace["gc_pause_s"], "s"),
        "gc.pause_frac": (trace["gc_pause_s"] / trace["traced_s"], "ratio"),
        "gc.gen2_collections": (count("gc.gen2_collections"), "count"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s,
                                "ratio"),
    }


def traced_run(workload: Workload, seed: int, scratch: Path,
               deadline: float) -> Dict:
    runner = Runner(workload, seed, scratch, deadline)
    passes = [runner.run_pass(), runner.run_pass("spans"),
              runner.run_pass("counts")]
    untraced, traced, counted = passes
    log(f"{workload.name}: untraced pass {untraced.wall_s:.3f} s, "
        f"span-traced pass {traced.wall_s:.3f} s, "
        f"counted pass {counted.wall_s:.3f} s")
    failed = check_passes(workload, seed, passes)
    attempted = workload.cells * len(passes)
    metrics = {}
    pristine = False
    if all(p.ok for p in passes):
        trace = traced.data["trace"]
        pristine = trace["pristine"] and counted.data["trace"]["pristine"]
        metrics = layer_metrics(trace, counted.data["trace"],
                                untraced.wall_s, traced.wall_s)
        shares = sorted(self_times(trace["spans"]).items(),
                        key=lambda kv: -kv[1][0])
        log("self time by layer: " + ", ".join(
            f"{name} {s / trace['traced_s']:.1%}" for name, (s, _n)
            in shares))
    metrics["cells_failed_frac"] = (failed / attempted, "ratio")
    correct = failed == 0 and pristine
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Dict:
    """One benchmark run in a scratch directory under the checkout;
    returns the result object ``main`` prints."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        if trace:
            result = traced_run(workload, seed, scratch, deadline)
        else:
            result = timed_run(workload, seed, seconds, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no src/repro under {ROOT}: nothing to benchmark")
        return 2
    print(json.dumps(run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
