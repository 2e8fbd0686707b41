"""The experiment registry: one lazy catalogue of every campaign.

Importing this module costs nothing (stdlib only), so parser
construction and ``--help`` stay lazy.  It holds three layers:

* :data:`AXES` — every sweep-shape flag a campaign can consume, once:
  flag spelling, parsed type, default and help.  The ``run`` and
  ``orchestrate`` parsers are built from it, and
  :func:`repro.experiments.orchestrator.worker_flags` forwards from it.
* :data:`MANIFEST` — a static name -> row table: the driver module,
  a one-line summary, the axes the campaign consumes and whether it
  shards.  ``p2pmpirun run X`` accepts exactly X's axes.
* :class:`Experiment` — the behavioural record a driver module
  registers at import time via :func:`register`: its spec builder
  (what grids the campaign spans, for the orchestrator) and its CLI
  entry point (run + report).

:func:`get` bridges the last two: it imports the manifest module on
first use — the import runs the module's ``register`` call — and
returns the registered record.  The ``all`` composite lives here (it is
pure glue over other entries) and resolves its parts through
:func:`get`, so even it imports nothing until executed.
"""

from __future__ import annotations

import argparse
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["AXES", "Axis", "MANIFEST", "Experiment", "ExperimentRef",
           "axes", "get", "is_shardable", "names", "register",
           "shardable_names"]


def _bounded(cast: Callable[[str], Any], rule: str,
             ok: Callable[[Any], bool]) -> Callable[[str], Any]:
    """An argparse ``type`` that casts and then enforces ``rule``."""

    def parse(text: str) -> Any:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}")
        return value

    return parse


@dataclass(frozen=True)
class Axis:
    """One sweep-shape flag.

    ``type=None`` makes a render-only ``store_true`` switch (``--plot``):
    it changes how a report prints, never which cells exist, so
    ``orchestrate`` (whose workers print no report) neither accepts nor
    forwards it.  Every other axis is forwarded to shard workers as
    ``flag str(value)`` whenever its parsed value is not ``None``.
    """

    flag: str
    dest: str
    type: Optional[Callable[[str], Any]]
    default: Any
    help: str
    metavar: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    short: Optional[str] = None

    @property
    def forwarded(self) -> bool:
        return self.type is not None


#: Every sweep-shape flag, in the order worker processes receive them.
#: Comma-separated grids stay strings here: the owning driver parses
#: them (its error names the campaign's own constraints).
AXES: Tuple[Axis, ...] = (
    Axis("--seed", "seed", int, 0, "simulation master seed (default 0)"),
    Axis("--cluster", "cluster", str, "grid5000",
         "testbed (default grid5000; 'small' is the 10-host CI/smoke "
         "grid)", choices=("grid5000", "small")),
    Axis("--demands", "demands", str, None,
         "comma-separated demand grid overriding the campaign's "
         "default", metavar="N,N,..."),
    Axis("--ratios", "ratios", str, None,
         "comma-separated intra/inter-site latency ratios (default "
         "1,10,121.6,1000)", metavar="R,R,..."),
    Axis("--users", "users", _bounded(int, ">= 1", lambda v: v >= 1), 2,
         "competing submitters per round (default 2)"),
    Axis("--horizon", "horizon", _bounded(float, "> 0", lambda v: v > 0),
         240.0, "round horizon in simulated seconds (default 240)"),
    Axis("--failures", "failures", str, None,
         "comma-separated per-host failure-rate grid in crashes/s "
         "(default 0,0.002,0.006)", metavar="F,F,..."),
    Axis("--class", "nas_class", str, "B",
         "NAS class for ep/is/cg (default B)"),
    Axis("--tenants", "tenants", str, None,
         "comma-separated tenant-count grid (default 10,50,200)",
         metavar="T,T,..."),
    Axis("--rates", "rates", str, None,
         "comma-separated per-tenant arrival rates in jobs/s "
         "(default 0.01,0.05)", metavar="R,R,..."),
    Axis("--alloc", "alloc", str, "spread",
         "allocation strategy: spread | concentrate | block | "
         "bandwidth_spread | diameter_concentrate | topo_block",
         short="-a"),
    Axis("--family", "family", str, None,
         "comma-separated topology families (grid5000, scale_free, "
         "small_world, fat_sites; default all)", metavar="F,F,..."),
    Axis("--sites", "sites", str, None,
         "comma-separated site counts for the generated families "
         "(default 16,48)", metavar="N,N,..."),
    Axis("--modes", "modes", str, None,
         "comma-separated placement modes (static, diffusive; default "
         "both)", metavar="M,M,..."),
    Axis("--plot", "plot", None, False,
         "also render ASCII charts of the figure series"),
)

_AXIS_BY_DEST: Dict[str, Axis] = {axis.dest: axis for axis in AXES}


@dataclass(frozen=True)
class ExperimentRef:
    """Manifest row: where an experiment's driver lives and what flags
    it takes.

    ``axes`` names (by ``dest``) the :data:`AXES` entries the campaign
    consumes; its parsers accept only those.  ``shardable`` is manifest
    metadata (not behaviour) so the CLI can offer ``--shard`` and
    ``orchestrate`` without importing the driver; :func:`register`
    cross-checks it against the registered record.
    """

    module: str
    summary: str
    axes: Tuple[str, ...] = ()
    shardable: bool = True

    def __post_init__(self) -> None:
        unknown = [name for name in self.axes if name not in _AXIS_BY_DEST]
        if unknown:
            raise ValueError(f"unknown axes {unknown} (see AXES)")


_FIGURE = ("seed", "cluster", "demands", "plot")
_CHURN = ("seed", "cluster", "users", "horizon", "failures")

#: Every experiment name the CLI accepts, in ``run --help`` order.
MANIFEST: Dict[str, ExperimentRef] = {
    "fig2": ExperimentRef("repro.experiments.coallocation",
                          "Figure 2: concentrate co-allocation sweep",
                          _FIGURE),
    "fig3": ExperimentRef("repro.experiments.coallocation",
                          "Figure 3: spread co-allocation sweep", _FIGURE),
    "fig4": ExperimentRef("repro.experiments.applications",
                          "Figure 4: EP and IS execution-time sweeps",
                          ("seed", "nas_class", "plot")),
    "table1": ExperimentRef("repro.experiments.inventory",
                            "Table 1: the testbed resource inventory",
                            shardable=False),
    "ablations": ExperimentRef("repro.experiments.ablations",
                               "latency-noise and replication ablations",
                               ("seed",), shardable=False),
    "scaling": ExperimentRef("repro.experiments.scaling",
                             "reservation/launch time vs demand",
                             ("seed", "alloc")),
    "multiuser": ExperimentRef("repro.experiments.multiuser",
                               "competing submitters on one testbed",
                               ("seed",)),
    "coallocation": ExperimentRef(
        "repro.experiments.coallocation",
        "the §5.1 sweep with both published strategies",
        ("seed", "cluster", "demands")),
    "commaware": ExperimentRef(
        "repro.experiments.commaware",
        "communication-aware strategy scenario pack",
        ("seed", "cluster", "demands")),
    "churnload": ExperimentRef(
        "repro.experiments.churnload",
        "availability under sustained load and host churn", _CHURN),
    "applatency": ExperimentRef(
        "repro.experiments.applatency",
        "EP/IS execution across intra/inter-site latency ratios",
        ("seed", "demands", "ratios", "nas_class")),
    "multiuser2": ExperimentRef(
        "repro.experiments.multiuser2",
        "multi-tenant fairness on the asyncio control plane",
        ("seed", "cluster", "tenants", "rates")),
    "topozoo": ExperimentRef(
        "repro.experiments.topozoo",
        "strategy ranking across generated topology families",
        ("seed", "nas_class", "family", "sites")),
    "migration": ExperimentRef(
        "repro.experiments.migration",
        "static vs diffusive rank placement under churn",
        _CHURN + ("modes",)),
    "all": ExperimentRef("repro.experiments.registry",
                         "the paper campaign: fig2 fig3 fig4 scaling "
                         "multiuser",
                         ("seed", "cluster", "demands", "nas_class",
                          "alloc", "plot")),
}


def axes(name: str) -> Tuple[Axis, ...]:
    """The :data:`AXES` entries campaign ``name`` consumes, table order."""
    wanted = MANIFEST[name].axes
    return tuple(axis for axis in AXES if axis.dest in wanted)


@dataclass(frozen=True)
class Experiment:
    """What a driver module registers for one experiment name.

    Attributes
    ----------
    name:
        The CLI name; must appear in :data:`MANIFEST`.
    cli_run:
        ``(args, store) -> None`` — run the campaign and print its
        report.  ``store`` is ``None`` without ``--out``.
    specs:
        ``(args) -> [ExperimentSpec, ...]`` — the campaign's sweep
        grids for the given CLI flags, *without running anything*.
        This is the orchestrator's contract: shard planning, progress
        accounting and canonical-store promotion all derive from these
        specs, so a builder must mirror its ``cli_run``'s grids
        exactly (the campaign contract test pins the hashes to it).
        ``None`` for table/ablation entries that have no engine sweep.
    shardable:
        Whether ``--shard K/N`` (and hence ``orchestrate``) applies.
    """

    name: str
    cli_run: Callable[[Any, Optional[Any]], None]
    specs: Optional[Callable[[Any], List[Any]]] = None
    shardable: bool = True


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Driver modules call this once per experiment name at import.

    Re-registration with the same name overwrites (harmless on module
    reload); a name missing from :data:`MANIFEST` or disagreeing with
    its ``shardable`` metadata is a programming error worth failing
    loudly on.
    """
    ref = MANIFEST.get(experiment.name)
    if ref is None:
        raise ValueError(
            f"experiment {experiment.name!r} is not in the manifest; "
            f"add it to repro.experiments.registry.MANIFEST first")
    if ref.shardable != experiment.shardable:
        raise ValueError(
            f"experiment {experiment.name!r}: manifest says "
            f"shardable={ref.shardable}, registration says "
            f"{experiment.shardable}")
    _REGISTRY[experiment.name] = experiment
    return experiment


def names() -> Tuple[str, ...]:
    """Every experiment name, manifest order — import-free."""
    return tuple(MANIFEST)


def is_shardable(name: str) -> bool:
    """Whether ``--shard``/``orchestrate`` applies — import-free."""
    return MANIFEST[name].shardable


def shardable_names() -> Tuple[str, ...]:
    """The orchestratable subset of :func:`names`, manifest order."""
    return tuple(n for n, ref in MANIFEST.items() if ref.shardable)


def get(name: str) -> Experiment:
    """Resolve a name to its registered :class:`Experiment`.

    Imports the driver module on first use (the import side effect is
    the registration), so the cost of a campaign's dependency tree is
    paid only by invocations that actually run it.
    """
    ref = MANIFEST.get(name)
    if ref is None:
        raise KeyError(f"unknown experiment {name!r} "
                       f"(choose from {', '.join(MANIFEST)})")
    if name not in _REGISTRY:
        importlib.import_module(ref.module)
    if name not in _REGISTRY:
        raise RuntimeError(
            f"module {ref.module} did not register experiment {name!r}")
    return _REGISTRY[name]


# ----------------------------------------------------------------------
# the `all` composite: the full paper campaign, glued from other entries
# ----------------------------------------------------------------------
_ALL_PARTS: Tuple[str, ...] = ("fig2", "fig3", "fig4", "scaling",
                               "multiuser")


def _all_specs(args: Any) -> List[Any]:
    out: List[Any] = []
    for part in _ALL_PARTS:
        builder = get(part).specs
        if builder is not None:
            out.extend(builder(args))
    return out


def _all_cli_run(args: Any, store: Optional[Any]) -> None:
    # A `== name ==` banner per part, blank line between parts.
    for i, part in enumerate(_ALL_PARTS):
        print(f"== {part} ==")
        get(part).cli_run(args, store)
        if i < len(_ALL_PARTS) - 1:
            print()


register(Experiment(
    name="all",
    cli_run=_all_cli_run,
    specs=_all_specs,
))
