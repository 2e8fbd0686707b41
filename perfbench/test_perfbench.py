"""Self-tests of the benchmark.

Run from the root of a checkout (about 20 s)::

    python3 -m pytest perfbench/test_perfbench.py -q

They use tiny grids of the benchmarked campaigns
(``Workload.smoke_argv``), not the benchmark's own, so they check the
benchmark's machinery, not the program's speed.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import passrun  # noqa: E402
import run  # noqa: E402
from tracer import MODES, PRELOAD, Tracer  # noqa: E402
from workloads import (WORKLOADS, digest_pass, failed_cells,  # noqa: E402
                       tail_percentile)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(name: str):
    """The tiny-grid variant of a workload; its own name keeps the
    full grid's pins out of the comparison."""
    w = WORKLOADS[name]
    return dataclasses.replace(w, name=f"{name}-smoke", argv=w.smoke_argv,
                               cells=w.smoke_cells)


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_completes_and_is_correct(name, monkeypatch):
    monkeypatch.setattr(run, "PROBES", 3)
    result = run.run_workload(smoke(name), seed=0, seconds=1, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == WORKLOADS[name].smoke_cells
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


#: Per-layer counts each smoke grid must reach.
LAYER_COUNTS = {
    "tenants": ("net.inbox_predicate_evals", "controlplane.proposals",
                "overlay.cache_adds"),
    "migrate": ("alloc.neighbor_map_calls", "net.path_metrics_calls",
                "ft.migrations"),
}


@pytest.mark.parametrize("name", sorted(LAYER_COUNTS))
def test_traced_run_prints_the_per_layer_metrics(name):
    result = run.run_workload(smoke(name), seed=0, seconds=1, trace=True)
    assert result["correct"], result
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert metrics["cells_failed_frac"]["value"] == 0
    assert metrics["overlay.boots"]["value"] == WORKLOADS[name].smoke_cells
    for count in LAYER_COUNTS[name]:
        assert metrics[count]["value"] > 0, count


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_is_fixed_at_the_spec_run_length(name):
    w = WORKLOADS[name]
    samples = w.passes(SPEC["run_seconds"]) * w.cells
    assert w.tail_pct == tail_percentile(samples)
    assert w.tail_pct >= 50


def _snapshot():
    """Identity of every attribute of every ``repro`` module and class."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


@pytest.mark.parametrize("mode", MODES)
def test_tracer_leaves_every_patched_attribute_pristine(mode):
    for module in PRELOAD:
        importlib.import_module(module)
    before = _snapshot()
    callbacks = list(gc.callbacks)
    tracer = Tracer(mode)
    tracer.install()
    assert tracer.result()["patched"] > 0
    assert _snapshot() != before
    tracer.uninstall()
    assert tracer.pristine()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert gc.callbacks == callbacks


def test_calibration_leaves_the_collector_as_it_found_it():
    before = gc.get_count()
    assert passrun.calibrate() > 0
    assert gc.isenabled()
    assert gc.get_count()[0] <= before[0] + 10
    assert gc.get_count()[1:] == before[1:]


def test_calibrated_passes_record_the_host_speed(tmp_path):
    workload = smoke("tenants")
    runner = run.Runner(workload, 0, tmp_path,
                        deadline=time.monotonic() + run.DEADLINE_S)
    outcome = runner.run_pass(calibrate=True)
    assert outcome.ok
    calibrations = [c for _key, _s, c in outcome.data["cells"]]
    assert len(calibrations) == workload.cells
    assert all(c > 0 for c in calibrations)
    probe = runner.run_pass("probe", calibrate=True)
    assert len(probe.data["calibration_s"]) == 3


def test_each_interval_is_scaled_by_the_host_speed_next_to_it(monkeypatch):
    monkeypatch.setattr(run, "REFERENCE_CALIBRATION_S", 0.012)
    outcome = run.PassOutcome(wall_s=4.0, ok=True, data={"cells": [
        ["a", 1.0, 0.010], ["b", 2.0, 0.030]]})
    # b is scaled by the mean of the loops before and after it.
    assert run.scaled_cells(outcome) == pytest.approx([1.2, 1.2])
    # The rest, 4 - 3 - 0.04 s, goes at the median speed, 0.012 / 0.02.
    assert run.scaled_campaign_s(outcome) == pytest.approx(2.4 + 0.96 * 0.6)


@pytest.fixture(scope="module")
def smoke_pass(tmp_path_factory):
    """One finished tenants smoke pass: (workload, store dir, stdout)."""
    workload = smoke("tenants")
    scratch = tmp_path_factory.mktemp("pass")
    runner = run.Runner(workload, 0, scratch,
                        deadline=time.monotonic() + run.DEADLINE_S)
    outcome = runner.run_pass()
    assert outcome.ok
    stdout = (scratch / "stdout-1.txt").read_text()
    return workload, scratch / "store-1", stdout


def test_clean_pass_matches_its_own_pin(smoke_pass):
    workload, store, stdout = smoke_pass
    digest = digest_pass(store, stdout)
    assert failed_cells(workload, digest, digest.pin()) == 0


def test_tampered_record_fails_its_cell(smoke_pass):
    workload, store, stdout = smoke_pass
    pin = digest_pass(store, stdout).pin()
    (path,) = store.glob("*.jsonl")
    lines = path.read_text().splitlines()
    original = path.read_text()
    record = json.loads(lines[1])
    record["value"]["makespan_s"] += 1.0
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    try:
        failed = failed_cells(workload, digest_pass(store, stdout), pin)
    finally:
        path.write_text(original)
    assert failed / workload.cells > 0


def test_record_breaking_the_invariant_fails_without_a_pin(smoke_pass):
    workload, store, stdout = smoke_pass
    (path,) = store.glob("*.jsonl")
    original = path.read_text()
    lines = original.splitlines()
    record = json.loads(lines[1])
    record["value"]["admitted"] += 1
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    try:
        failed = failed_cells(workload, digest_pass(store, stdout), None)
    finally:
        path.write_text(original)
    assert failed == 1


def test_tampered_report_fails_the_pass(smoke_pass):
    workload, store, stdout = smoke_pass
    pin = digest_pass(store, stdout).pin()
    tampered = stdout.replace("\n", "\n ", 1)
    assert tampered != stdout
    failed = failed_cells(workload, digest_pass(store, tampered), pin)
    assert failed == workload.cells
