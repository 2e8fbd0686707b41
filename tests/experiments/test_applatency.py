"""The applatency campaign: cell fingerprint and acceptance story.

At deep hierarchy the communication-aware strategies must buy IS
wall-clock while EP stays communication-indifferent.  Determinism,
resume, sharding and cache replay are the campaign contract's
(``test_campaign_contract.py``).
"""

import pytest

from repro.apps.is_bench import ISBenchmark
from repro.experiments.applatency import (
    APPLATENCY_NS,
    APPLATENCY_STRATEGIES,
    applatency_report,
    applatency_spec,
    run_applatency_campaign,
)

TINY_RATIOS = (1.0, 1000.0)
TINY_NS = (64,)


@pytest.fixture(scope="module")
def campaign():
    """Both 8-cell panels: 2 ratios x 4 strategies x n=64."""
    return run_applatency_campaign(ratios=TINY_RATIOS, ns=TINY_NS, jobs=2)


class TestSpec:
    def test_shape_and_defaults(self):
        spec = applatency_spec(ISBenchmark("B"))
        assert spec.axis_names == ["ratio", "strategy", "n"]
        assert spec.cell_count() == (4 * len(APPLATENCY_STRATEGIES)
                                     * len(APPLATENCY_NS))
        assert spec.cluster.kind == "grid5000-latratio"
        assert spec.cost_key is not None

    def test_cells_record_contention_fingerprint(self, campaign):
        for cell in campaign.apps["is.B"].cells:
            v = cell.value
            assert v["status"] in ("success", "degraded")
            assert v["time_s"] > 0 and v["comm_s"] > 0
            assert v["comm_s"] < v["time_s"]
            assert v["sites_used"] >= 1
            assert v["max_crossing_pairs"] >= 0

    def test_single_site_plan_has_no_crossing(self, campaign):
        cell = campaign.apps["is.B"].value(
            ratio=1000.0, strategy="bandwidth_spread", n=64)
        assert cell["sites_used"] == 1
        assert cell["max_crossing_pairs"] == 0


class TestAcceptanceStory:
    """Acceptance: the report must show a deep-hierarchy IS cell
    where bandwidth_spread/topo_block beat plain spread strictly,
    while EP shows no communication win."""

    def test_is_deep_hierarchy_commaware_beats_spread(self, campaign):
        sweep = campaign.apps["is.B"]
        spread = sweep.value(ratio=1000.0, strategy="spread", n=64)
        for strategy in ("bandwidth_spread", "topo_block"):
            aware = sweep.value(ratio=1000.0, strategy=strategy, n=64)
            assert aware["time_s"] < spread["time_s"], strategy

    def test_is_flat_grid_gives_no_commaware_win(self, campaign):
        """At ratio 1 the grid is one big LAN latency-wise: locality
        buys nothing, which is the axis's whole point."""
        sweep = campaign.apps["is.B"]
        spread = sweep.value(ratio=1.0, strategy="spread", n=64)
        aware = sweep.value(ratio=1.0, strategy="bandwidth_spread", n=64)
        assert aware["time_s"] >= spread["time_s"]

    def test_ep_shows_no_material_communication_gap(self, campaign):
        """EP's communication share stays negligible (< 5% of wall-
        clock) under every strategy: whatever wall-clock gap remains
        is memory contention on packed hosts, not the network."""
        sweep = campaign.apps["ep.B"]
        for cell in sweep.cells:
            assert cell.value["comm_s"] < 0.05 * cell.value["time_s"]
        deep = [sweep.value(ratio=1000.0, strategy=s, n=64)["comm_s"]
                for s in APPLATENCY_STRATEGIES]
        assert max(deep) - min(deep) < 0.15

    def test_report_survives_roster_without_spread(self):
        """Custom strategy rosters are public API: the speedup panel
        falls back to the first strategy as its baseline."""
        campaign = run_applatency_campaign(
            ratios=(1000.0,), ns=(64,),
            strategies=("concentrate", "topo_block"))
        report = applatency_report(campaign)
        assert "speedup over concentrate" in report

    def test_report_contains_story_and_calibration(self, campaign):
        report = applatency_report(campaign)
        assert "applatency: IS.B wall-clock" in report
        for strategy in APPLATENCY_STRATEGIES:
            assert strategy in report
        assert "speedup over spread" in report
        assert "fig4 crossover calibration" in report
        assert " plan:" in report and "fixed:" in report
