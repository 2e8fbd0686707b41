"""The campaign contract, once for every registered campaign.

Each campaign runs a tiny grid through ``repro.cli.main`` and must keep
the engine's promises: ``--jobs 1`` and ``--jobs 2`` print the same
report and write the same store bytes, shard halves merge into the
unsharded store, a run resumed from a ``.partial`` prefix promotes to
the same bytes, a cache replay executes nothing and prints the same
report, and the specs a shard worker rebuilds from ``run X
<worker_flags>`` hash like the orchestrator's.

Campaign grids are paid for twice, not once per property: the
``--jobs 1`` reference of a shardable campaign is executed as its two
serial shard halves merged into one store (whose report the cache
replay renders), and the unsharded ``--jobs 2`` run is compared with
it.  A campaign is exempt from a property only where the property
cannot apply; :data:`EXEMPT` names each case.  Campaign-specific report
pins live in each campaign's own test module.
"""

import contextlib
import io
import json
import shutil

import pytest

from repro.cli import build_orchestrate_parser, build_run_parser, main
from repro.experiments import engine, registry
from repro.experiments.orchestrator import worker_flags

#: The tiny grid each campaign runs (flags after ``run NAME``).
TINY = {
    "fig2": ("--cluster", "small", "--demands", "4,8"),
    "fig3": ("--cluster", "small", "--demands", "4,8"),
    "fig4": (),
    "table1": (),
    "ablations": (),
    "scaling": (),
    "multiuser": (),
    "coallocation": ("--cluster", "small", "--demands", "4,8"),
    "commaware": ("--cluster", "small", "--demands", "4,8"),
    "churnload": ("--cluster", "small", "--users", "2", "--horizon", "120",
                  "--failures", "0.006"),
    "applatency": ("--demands", "16", "--ratios", "1"),
    "multiuser2": ("--cluster", "small", "--tenants", "4",
                   "--rates", "0.05"),
    "topozoo": ("--family", "scale_free", "--sites", "8"),
    "migration": ("--cluster", "small", "--users", "2", "--horizon", "120",
                  "--failures", "0.01"),
    "all": ("--cluster", "small", "--demands", "4,8"),
}

#: (property, campaign) -> why the property cannot apply.
EXEMPT = {
    ("store", "table1"): "a static table: no sweep, nothing persists",
    ("shard", "table1"): "a static table has no grid to slice",
    ("shard", "ablations"): "the ablations do not shard (manifest row)",
}


def exempt(prop, name):
    reason = EXEMPT.get((prop, name))
    if reason is not None:
        pytest.skip(reason)


def test_every_campaign_has_a_tiny_grid():
    assert set(TINY) == set(registry.names())


def report(text):
    """The deterministic part of a run's stdout: ``[engine]`` lines
    carry wall-clock timings and cache counts."""
    return [line for line in text.splitlines()
            if not line.startswith("[engine]")]


def store_files(root):
    return {p.name: p.read_bytes() for p in sorted(root.glob("*"))}


class Campaign:
    """One campaign's tiny runs, each executed at most once."""

    def __init__(self, name, root):
        self.name = name
        self.root = root
        self._runs = {}

    def run(self, out, *extra):
        """``run NAME <tiny grid> --out OUT <extra>``: (stdout, executed
        cell count)."""
        executed = []
        real = engine.SweepRunner.run

        def counting(runner):
            result = real(runner)
            executed.append(result.executed)
            return result

        argv = ["run", self.name, *TINY[self.name], "--out", str(out),
                *extra]
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(io.StringIO()) as stdout:
            mp.setattr(engine.SweepRunner, "run", counting)
            assert main(argv) == 0
        return stdout.getvalue(), sum(executed)

    def once(self, key, make):
        if key not in self._runs:
            self._runs[key] = make()
        return self._runs[key]

    @property
    def shards(self):
        """[(store directory, files as written)] of the serial
        ``--shard 1/2`` and ``--shard 2/2`` runs."""
        def make():
            written = []
            for k in (1, 2):
                out = self.root / f"shard{k}"
                self.run(out, "--shard", f"{k}/2", "--jobs", "1")
                written.append((out, store_files(out)))
            return written
        return self.once("shards", make)

    @property
    def reference(self):
        """(store directory, report text or None) of the ``--jobs 1``
        reference: the serial shard halves merged, or one serial run
        for a campaign that does not shard."""
        def make():
            if not registry.is_shardable(self.name):
                out = self.root / "serial"
                text, _ = self.run(out, "--jobs", "1")
                return out, text
            merged = self.root / "merged"
            names = {name for _, files in self.shards for name in files}
            for name in sorted(names):
                partials = [str(out / name) for out, files in self.shards
                            if name in files]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["merge", *partials, "--out", str(merged),
                                 "--require-complete"]) == 0
            return merged, None
        return self.once("reference", make)

    @property
    def replay(self):
        """(stdout, executed) of a rerun against the reference store."""
        return self.once("replay", lambda: self.run(self.reference[0],
                                                    "--jobs", "1"))

    @property
    def pooled(self):
        """(stdout, store directory) of a fresh ``--jobs 2`` run."""
        def make():
            out = self.root / "pooled"
            text, _ = self.run(out, "--jobs", "2")
            return text, out
        return self.once("pooled", make)


@pytest.fixture(scope="module", params=registry.names())
def campaign(request, tmp_path_factory):
    return Campaign(request.param, tmp_path_factory.mktemp(request.param))


def test_jobs_do_not_change_report_or_store(campaign):
    reference, serial_text = campaign.reference
    pooled_text, pooled = campaign.pooled
    assert store_files(pooled) == store_files(reference)
    assert store_files(pooled) or ("store", campaign.name) in EXEMPT
    # A sharded reference prints no report; its replay renders it.
    serial_text = serial_text or campaign.replay[0]
    assert report(pooled_text) == report(serial_text)


def test_cache_replay_executes_nothing(campaign):
    replay_text, executed = campaign.replay
    assert executed == 0
    assert report(replay_text) == report(campaign.pooled[0])


def test_shard_halves_merge_to_unsharded_store(campaign):
    exempt("shard", campaign.name)
    # A shard never promotes: its cells stay in the checkpoint.
    for _, files in campaign.shards:
        assert all(name.endswith(".partial") for name in files)
    merged, _ = campaign.reference
    assert store_files(merged) == store_files(campaign.pooled[1])


def test_resume_from_partial_prefix(campaign):
    exempt("store", campaign.name)
    reference, _ = campaign.reference
    resumed = campaign.root / "resumed"
    shutil.copytree(reference, resumed)
    checkpointed = 0
    for path in sorted(resumed.glob("*.jsonl")):
        lines = path.read_text().splitlines(keepends=True)
        if json.loads(lines[0])["spec"]["shared_cluster"]:
            continue  # one stateful cluster: never checkpoints, all-or-nothing
        # Killed before the last cell landed: canonical gone, the
        # checkpoint holds the header and all cells but the last.
        path.with_suffix(".jsonl.partial").write_text("".join(lines[:-1]))
        path.unlink()
        checkpointed += 1
    assert checkpointed
    _, executed = campaign.run(resumed)
    assert executed == checkpointed
    assert store_files(resumed) == store_files(reference)


def test_worker_flags_rebuild_the_orchestrator_specs(campaign):
    exempt("shard", campaign.name)
    reference, _ = campaign.reference
    builder = registry.get(campaign.name).specs
    args = build_orchestrate_parser().parse_args(
        [campaign.name, *TINY[campaign.name], "--out", "unused"])
    planned = builder(args)
    rebuilt = builder(build_run_parser().parse_args(
        [campaign.name, *worker_flags(campaign.name, args)]))
    assert ([s.content_hash() for s in rebuilt]
            == [s.content_hash() for s in planned])
    # ... and they are the sweeps `run` actually stored.
    assert sorted(engine.store_basename(s.name, s.content_hash())
                  for s in planned) == sorted(store_files(reference))
