"""One benchmark pass in a fresh interpreter.

Usage (from ``run.py``; stdout is the ``p2pmpirun`` output)::

    python3 perfbench/passrun.py --result FILE \\
        [--calibrate] [--probe | --trace {spans,counts}] \\
        -- run fig2 --seed 0 --jobs 1 --out STORE

The pass calls ``repro.cli.main`` with the given argv, exactly as the
``p2pmpirun`` console script does, and records each cell's wall time
through the engine's ``progress`` hook.

``--probe`` stops the pass when the first cell starts: it measures
set-up (imports, argv parsing, spec construction, store opening).
``--trace MODE`` installs :class:`tracer.Tracer` in that mode around
the pass.  ``--calibrate`` times :func:`calibrate` after each cell (a
probe: three times, once the first cell is reached), so that
``run.py`` can scale each time by the host's speed at that moment.

``FILE`` receives one JSON object: the cells' keys, wall times and
calibration times, the ``time.monotonic`` instant the first cell
started with the probe's calibration times, the peak RSS, and the
trace when one was taken.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Size of the calibration loop: about 12 ms on a 2 GHz core.
CALIBRATION_PROCESSES = 500
CALIBRATION_STEPS = 30


def calibrate() -> float:
    """Seconds this host takes now for a fixed toy event loop.

    The loop interleaves generator processes through a heap, the kind
    of work the campaigns' simulators do, so that its time follows the
    host's speed for that kind of work; a plain arithmetic loop follows
    it much less closely.  It runs no ``repro`` code, so a change to
    the program cannot change it.  It frees everything it allocates,
    and the collector is off while it runs, so it leaves the program's
    collection schedule as it found it.
    """
    def process(k):
        for step in range(CALIBRATION_STEPS):
            yield (step * 7 + k) % 13 + 1

    gc.disable()
    try:
        start = time.perf_counter()
        processes = {}
        queue = []
        for k in range(CALIBRATION_PROCESSES):
            processes[k] = process(k)
            heapq.heappush(queue, (0, k))
        while queue:
            now, k = heapq.heappop(queue)
            try:
                heapq.heappush(queue, (now + next(processes[k]), k))
            except StopIteration:
                del processes[k]
        return time.perf_counter() - start
    finally:
        gc.enable()


class _FirstCell(Exception):
    """Raised by a probe when the first cell is about to start."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--calibrate", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--trace", choices=("spans", "counts"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from repro import cli
    from repro.experiments import engine

    out = {"cells": [], "first_cell_at": None, "calibration_s": []}

    def progress(result) -> None:
        out["cells"].append([result.key, result.elapsed_s,
                             calibrate() if args.calibrate else None])

    # The engine resolves a missing progress hook through
    # Heartbeat.from_env; answering there reaches every sweep of a
    # campaign without touching the campaign modules.
    saved_from_env = vars(engine.Heartbeat)["from_env"]
    saved_execute = engine._execute_cell
    engine.Heartbeat.from_env = staticmethod(lambda: progress)
    if args.probe:
        def first_cell(spec, cell):
            out["first_cell_at"] = time.monotonic()
            if args.calibrate:
                out["calibration_s"] = [calibrate() for _ in range(3)]
            raise _FirstCell
        engine._execute_cell = first_cell

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer(args.trace)
        tracer.install()
    try:
        rc = cli.main(argv)
    except _FirstCell:
        rc = 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        engine.Heartbeat.from_env = saved_from_env
        engine._execute_cell = saved_execute
    sys.stdout.flush()

    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = tracer.result()
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
