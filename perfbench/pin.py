"""Regenerate ``pins.json``: the expected output of each workload.

Usage, from the root of a checkout::

    python3 perfbench/pin.py [WORKLOAD ...]

Runs one pass per workload and pinned seed, checks each cell's
campaign invariant, and stores the sha256 of every cell record, of all
records together and of the rendered report.  Re-pin only for a change
that is meant to alter a campaign's results, and say why in its
description.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, Runner  # noqa: E402
from workloads import (PIN_SEEDS, PINS_PATH, WORKLOADS,  # noqa: E402
                       failed_cells, load_pins)


def main(names) -> int:
    pins = load_pins()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        for name in names or WORKLOADS:
            workload = WORKLOADS[name]
            for seed in PIN_SEEDS:
                subdir = scratch / f"{name}-{seed}"
                subdir.mkdir()
                outcome = Runner(workload, seed, subdir,
                                 time.monotonic() + 600).run_pass()
                if not outcome.ok or failed_cells(workload, outcome.digest,
                                                  None):
                    print(f"{name} seed {seed}: pass failed; not pinned",
                          file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = outcome.digest.pin()
                print(f"{name} seed {seed}: "
                      f"{pins[name][str(seed)]['records'][:16]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        work.rmdir()
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
