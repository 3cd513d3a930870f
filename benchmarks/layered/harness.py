"""Measurement machinery: slice timer, calibration kernel, estimators, roll-ups.

Host time on the 2-core sandbox is dominated by the neighbours: the same
deterministic rep takes anything from 1x to 2x its quiet-box time, in bursts
that last seconds.  Two things make a host-time metric survive that:

* the timed phase is cut into fixed slices of K operations, so slice *i* does
  identical work in every rep (the simulated digest of every rep is asserted
  equal);
* between two slices a small **calibration kernel** of fixed pure-Python work
  is timed.  The box's speed while slice *i* ran is the nominal kernel time
  over the mean of the kernel samples around it, and the slice is rescaled
  to *reference seconds* -- the time it would have taken at the nominal
  speed.  Both are timed on the process CPU clock, which also leaves out the
  moments the process was descheduled.  The estimate for a phase is the sum over slices of the
  median over reps of the rescaled slice (:func:`reference_seconds`).

How well the kernel tracks the simulator, and what is left over, is measured
in README.md.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import pstats
import random
import resource
import statistics
import time

from . import catalog

#: The calibration kernel: WIDE_PASSES steps of a pointer chase over a working
#: set that misses the caches, then TIGHT_PASSES steps of a cache-resident
#: loop, about 60 % / 40 % of its time.  KERNEL_NOMINAL_S is what one kernel
#: took on the box the sizes were frozen on, at the speed it had when quiet;
#: a *reference second* is 1 / KERNEL_NOMINAL_S kernels.
WIDE_PASSES = 2200
TIGHT_PASSES = 9000
KERNEL_NOMINAL_S = 0.0030
_KERNEL_NODES = 1 << 15


class _Node:
    __slots__ = ("value", "next")

    def __init__(self):
        self.value = 0.0
        self.next = None


def _bump(cell: list, amount: float) -> None:
    cell[0] += 1
    cell[1] += amount


class Calibrator:
    """Fixed pure-Python work whose duration tracks the box's current speed.

    The neighbours slow the box down in more than one way: sometimes code
    that lives in the caches loses most, sometimes code that misses them.
    The simulator is a mix, so the kernel is one too.  Its wide part chases a
    shuffled ring of small objects, updates ``[count, total]`` cells of a
    large dict through a function call and formats and splits a path -- the
    interpreter operations the simulator spends its time in.  Its tight part
    is integer and float arithmetic over a 256-key dict.
    """

    def __init__(self):
        count = _KERNEL_NODES
        nodes = [_Node() for _ in range(count)]
        # One ring through every node in a fixed shuffled order: the same
        # ring in every process, and no stride a prefetcher could follow.
        order = list(range(count))
        random.Random(20010402).shuffle(order)
        for position, index in enumerate(order):
            nodes[index].next = nodes[order[(position + 1) % count]]
        self._node = nodes[0]
        self._nodes = nodes
        self._cells = {key: [0, 0.0] for key in range(count)}
        self._cursor = 0

    def sample(self) -> float:
        """Run one kernel and return the CPU seconds it took."""

        node, cursor, cells = self._node, self._cursor, self._cells
        mask = _KERNEL_NODES - 1
        started = time.process_time()
        for _ in range(WIDE_PASSES):
            node = node.next
            node.value += 0.5
            cursor = (cursor * 1103515245 + 12345) & mask
            _bump(cells[cursor], node.value)
            ("/site/page%05d.html" % (cursor & 255)).rsplit("/", 1)
        counts: dict[int, int] = {}
        total = 0.0
        for step in range(TIGHT_PASSES):
            key = step & 255
            counts[key] = counts.get(key, 0) + step
            total += 0.5 * key
        elapsed = time.process_time() - started
        self._node, self._cursor = node, cursor
        return elapsed


class Meter:
    """Slice timer.  ``tick()`` closes a slice and samples the kernel.

    ``slices[i]`` is the CPU time of slice *i* (the simulator is one thread
    that never blocks, so on a quiet box CPU time is wall time; on a shared
    box it leaves out the moments the process was descheduled);
    ``kernels[i]`` and ``kernels[i + 1]`` are the kernel samples before and
    after it, on the same clock.  ``wall_slices`` keeps the wall time beside
    it, for the noise report.  With a profiler attached the kernel runs with
    profiling paused, so traced reps can be rescaled the same way.
    """

    def __init__(self, calibrator: Calibrator, profiler=None):
        self._calibrator = calibrator
        self._profiler = profiler
        self.slices: list[float] = []
        self.wall_slices: list[float] = []
        self.kernels: list[float] = []
        self._opened = self._opened_wall = 0.0

    def start(self) -> None:
        self.kernels.append(self._calibrator.sample())
        if self._profiler is not None:
            self._profiler.enable()
        self._opened_wall = time.perf_counter()
        self._opened = time.process_time()

    def tick(self) -> None:
        closed = time.process_time()
        closed_wall = time.perf_counter()
        if self._profiler is not None:
            self._profiler.disable()
        self.slices.append(closed - self._opened)
        self.wall_slices.append(closed_wall - self._opened_wall)
        self.kernels.append(self._calibrator.sample())
        if self._profiler is not None:
            self._profiler.enable()
        self._opened_wall = time.perf_counter()
        self._opened = time.process_time()

    def stop(self) -> None:
        """End the phase (the driver ticked after its last operation)."""

        if self._profiler is not None:
            self._profiler.disable()

    # ------------------------------------------------------------ estimators --
    def rescaled(self) -> list[float]:
        """Each slice in reference seconds."""

        kernels = self.kernels
        rescaled = []
        for i, cpu in enumerate(self.slices):
            # The two samples around the slice and one more on each side:
            # a single 3 ms sample is too noisy to divide by.
            near = kernels[max(0, i - 1):i + 3]
            rescaled.append(cpu * KERNEL_NOMINAL_S * len(near) / sum(near))
        return rescaled

    def wall(self) -> float:
        return sum(self.wall_slices)

    def cpu(self) -> float:
        return sum(self.slices)


def reference_seconds(meters: list[Meter]) -> float:
    """Sum over slices of the median over reps of the rescaled slice."""

    columns = [meter.rescaled() for meter in meters]
    lengths = {len(column) for column in columns}
    if len(lengths) != 1:
        raise AssertionError(f"reps disagree on slice count: {sorted(lengths)}")
    return sum(statistics.median(column[i] for column in columns)
               for i in range(lengths.pop()))


class parked_gc:
    """Cyclic GC off inside a timed phase (collected just before)."""

    def __enter__(self):
        gc.collect()
        gc.disable()

    def __exit__(self, *exc):
        gc.enable()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# simulated side
# --------------------------------------------------------------------------
def percentile(samples: list[float], percent: int) -> float:
    """Nearest-rank percentile (no interpolation, so it is a real sample)."""

    if not samples:
        return 0.0
    rank = -(-len(samples) * percent // 100)     # ceil, in integers
    return sorted(samples)[max(1, rank) - 1]


def ledger_snapshot(clocks) -> dict:
    """``{label: (count, total_ms)}`` summed over every clock domain."""

    merged: dict[str, list] = {}
    for labels in clocks.stats_by_domain().values():
        for label, cell in labels.items():
            slot = merged.setdefault(label, [0, 0.0])
            slot[0] += cell["count"]
            slot[1] += cell["total_ms"]
    return {label: (slot[0], slot[1]) for label, slot in merged.items()}


def ledger_by_layer(before: dict, after: dict) -> dict:
    """``{sim layer: [charges, ms]}`` charged between two snapshots."""

    layers = {layer: [0, 0.0] for layer in catalog.SIM_LAYERS}
    for label, (count, total) in after.items():
        count0, total0 = before.get(label, (0, 0.0))
        if count == count0:
            continue
        slot = layers[catalog.sim_layer_of(label)]
        slot[0] += count - count0
        slot[1] += total - total0
    return layers


def digest(*parts) -> str:
    """A hash over simulated results; floats enter with all their digits."""

    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# --------------------------------------------------------------------------
# host side: cProfile roll-up by layer
# --------------------------------------------------------------------------
def _layer_of_code(filename: str, source_dir: str, bench_dir: str) -> str:
    if filename.startswith(source_dir):
        return catalog.host_layer_of(filename[len(source_dir):])
    if filename.startswith(bench_dir):
        return "bench"
    return "builtins"        # C calls ("~"), stdlib, numpy


def roll_up(profiler: cProfile.Profile, ops: int, source_dir: str,
            bench_dir: str) -> tuple:
    """``(metrics, table)`` from one traced timed phase.

    *source_dir* is the directory of the ``repro`` package and *bench_dir*
    this benchmark's, both with a trailing separator.

    ``<layer>.host_share`` is the layer's share of traced self time and
    ``<layer>.py_calls_per_op`` its exact call count per operation; probes
    report calls per operation and inclusive share.  *table* is the printable
    per-layer breakdown ``--trace-out`` dumps.
    """

    stats = pstats.Stats(profiler).stats
    self_time = {layer: 0.0 for layer in catalog.HOST_LAYERS}
    calls = {layer: 0 for layer in catalog.HOST_LAYERS}
    probe_calls = {probe: 0 for probe in catalog.PROBES}
    probe_incl = {probe: 0.0 for probe in catalog.PROBES}
    for (filename, _line, function), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.items():
        layer = _layer_of_code(filename, source_dir, bench_dir)
        self_time[layer] += tottime
        calls[layer] += ncalls
        for probe, (suffix, functions) in catalog.PROBES.items():
            if function in functions and filename == source_dir + suffix:
                probe_calls[probe] += ncalls
                probe_incl[probe] += cumtime
    total = sum(self_time.values()) or 1.0
    metrics = {}
    table = []
    for layer in catalog.HOST_LAYERS:
        metrics[f"{layer}.host_share"] = self_time[layer] / total
        metrics[f"{layer}.py_calls_per_op"] = calls[layer] / ops
        table.append((layer, self_time[layer], self_time[layer] / total,
                      calls[layer]))
    for probe in catalog.PROBES:
        metrics[f"{probe}.calls_per_op"] = probe_calls[probe] / ops
        metrics[f"{probe}.incl_share"] = probe_incl[probe] / total
    return metrics, table
