"""Experiment declarations and the one runner that turns them into results.

An experiment is one static :class:`ExperimentSpec` (id, title, paper
sections, claim, result columns, per-tier sizes) plus one function
``run(context, **sizes)`` that returns the rows; :func:`experiment` joins
the two in :data:`EXPERIMENTS`, so all of it can be listed without running
anything.  :func:`run_experiment` resolves the tier, calls the function with
a :class:`RunContext` -- the one place under ``bench/`` that constructs a
system, and under ``--profile`` the sweeps' per-step call-count marker --
and makes the result from declaration + rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.api.system import DataLinksSystem
from repro.bench.metrics import ExperimentResult
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, datalink_column
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.generator import make_content

FILES_TABLE = "managed_files"
OWNER_UID = 1001

#: The tiers: ``smoke`` (tiny; the tier-1 gate and ``BENCH_smoke.json``),
#: ``default`` (paper-shaped) and ``large`` (capacity; ``BENCH_large.json``).
SCALES = ("smoke", "default", "large")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything about one experiment that is known before it runs."""

    experiment_id: str
    title: str
    #: Paper sections of the claim (or ``"beyond the paper"``).
    sections: str
    paper_claim: str
    columns: tuple
    #: The measuring function, ``run(context, **sizes) -> rows``.
    run: Callable
    #: The full ``default``-tier sizes; ``smoke`` and ``large`` override
    #: some of them (``large=None``: the experiment has no large tier and
    #: ``--scale large`` skips it unless asked for by id).
    default: dict = field(default_factory=dict)
    smoke: dict = field(default_factory=dict)
    large: dict | None = None
    notes: str = ""

    @property
    def tiers(self) -> tuple:
        return tuple(scale for scale in SCALES
                     if scale != "large" or self.large is not None)

    def sizes(self, scale: str) -> dict:
        """The keyword sizes :attr:`run` receives at *scale*."""

        if scale not in SCALES:
            raise KeyError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")
        overrides = {"smoke": self.smoke, "large": self.large}.get(scale)
        return {**self.default, **(overrides or {})}


#: Every declared experiment by id, in declaration order.
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def experiment(experiment_id: str, title: str, **declaration):
    """Declare the decorated function as the ``run`` of a new spec."""

    def declare(run):
        EXPERIMENTS[experiment_id] = ExperimentSpec(
            experiment_id, title, run=run, **declaration)
        return run

    return declare


class RunContext:
    """What the runner hands an experiment function besides its sizes."""

    def __init__(self, profiler=None):
        #: The live :mod:`cProfile` profiler of a ``--profile`` pass, else
        #: ``None``.
        self._profiler = profiler
        self._calls_so_far = 0
        #: Deterministic call count each sweep step consumed, by row label.
        self.profile_steps: dict[str, int] = {}

    def build_host(self) -> DataLinksSystem:
        """A bare host: the one system construction under ``bench/``."""

        return DataLinksSystem()

    def build_microsystem(self, mode: ControlMode | None, *,
                          size: int = 64 * 1024, files: int = 1,
                          strict_read_sync: bool = False):
        """One host, one file server ``fs1`` and *files* files of *size*
        bytes, linked under *mode* when one is given.

        Returns ``(system, owner_session, [paths])``.
        """

        system = self.build_host()
        system.add_file_server("fs1", strict_read_upcalls=strict_read_sync)
        options = DatalinkOptions() if mode is None else DatalinkOptions(
            control_mode=mode, strict_read_sync=strict_read_sync)
        system.create_table(TableSchema(FILES_TABLE, [
            Column("file_id", DataType.INTEGER, nullable=False),
            datalink_column("doc", options),
            Column("doc_size", DataType.INTEGER),
            Column("doc_mtime", DataType.TIMESTAMP),
        ], primary_key=("file_id",)))
        system.register_metadata_columns(FILES_TABLE, "doc", "doc_size", "doc_mtime")
        owner = system.session("owner", uid=OWNER_UID)
        paths = [f"/data/file{index}.bin" for index in range(files)]
        for index, path in enumerate(paths):
            content = make_content(size, tag=f"file{index}", version=0)
            url = owner.put_file("fs1", path, content)
            if mode is not None:
                owner.insert(FILES_TABLE, {"file_id": index, "doc": url,
                                           "doc_size": len(content), "doc_mtime": 0.0})
        if mode is not None:
            system.run_archiver()
        return system, owner, paths

    def mark_step(self, label: str | None = None) -> None:
        """Under ``--profile``, book the calls made since the previous mark
        under *label* -- a sweep step's own deterministic slice of the call
        count.  Without a label it only opens the first interval: call it
        right before entering the sweep."""

        profiler = self._profiler
        if profiler is None:
            return
        profiler.disable()      # so the read itself never lands in the profile
        try:
            calls = sum(entry.callcount for entry in profiler.getstats())
        finally:
            profiler.enable()
        if label is not None:
            self.profile_steps[label] = calls - self._calls_so_far
        self._calls_so_far = calls


def run_experiment(experiment_id: str, scale: str = "default",
                   context: RunContext | None = None) -> ExperimentResult:
    """Run one experiment by id (``"E1"`` .. ``"E14"``) at tier *scale*."""

    try:
        spec = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise KeyError(f"unknown experiment {experiment_id!r}; "
                       f"known: {sorted(EXPERIMENTS)}") from None
    rows = spec.run(context if context is not None else RunContext(),
                    **spec.sizes(scale))
    for row in rows:
        if set(row) != set(spec.columns):
            raise ValueError(
                f"{spec.experiment_id} row keys {sorted(row)} are not the "
                f"declared columns {sorted(spec.columns)}")
    return ExperimentResult(spec.experiment_id, spec.title, spec.paper_claim,
                            list(spec.columns), rows, spec.notes)
