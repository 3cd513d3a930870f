"""Simulated time: exact integer ticks, per-node clock domains with
merge-at-sync, plus the calibrated cost model.

The paper reports latencies measured on a 200 MHz PowerPC 604 testbed with a
kernel VFS layer (Section 3.2): retrieving a DATALINK column costs less than
3 ms at the host database, the DLFS layer plus token validation adds roughly
1 ms to open/read/close, and the end-to-end overhead of reading a 1 MB file
through DataLinks is below 1 %.  We cannot interpose on a real kernel from
Python, so every component charges its work to a simulated clock using a
:class:`CostModel` calibrated from those published figures, and benchmarks
report *simulated* milliseconds.

**The unit.**  Simulated time is an integer count of *ticks*; one tick is
one picosecond (:data:`TICKS_PER_SECOND` = 10**12).  Every clock value,
every ledger total and every timestamp two clocks exchange is an ``int``,
so addition is associative: the order, grouping or batching of charges can
never change a clock or a total.  ``charge_run(p, n)`` is therefore one
multiply, ``charge_batch(pattern, n)`` one multiply on the clock plus one
bump per distinct label, and both equal the same events issued one by one
through :meth:`SimClock.charge` *by construction* -- there is no replay
loop and no reference twin to keep in step.  For the same reason a charge
is booked once, in its own domain's ledger; the group-wide ledger is the
sum over the domains, computed when it is read.

**Where rounding happens.**  :class:`CostModel` stays in float seconds (it
is what people calibrate and override).  Each clock derives integer unit
ticks from it once, reading every float as the decimal it prints as
(``0.05e-3`` is exactly 50 000 000 ticks).  A ``scale`` (the DLFM
repository's ``dlfm_repository_scale``, a database's ``cost_scale``) is
applied to the *unit* and rounded there, once, so ``n`` scaled charges are
exactly ``n`` times one.  Per-byte rates are not integral in ticks
(``disk_transfer_per_byte`` = 120 ms/MiB = 29 296 875/256 ps), so a
per-byte charge is ``round(nbytes * exact rational rate)`` -- rounded at
the charge, at most half a tick off the exact product.

**The float edge.**  Seconds (and milliseconds) appear only where values
leave the simulator: :meth:`SimClock.now`, :meth:`SimClock.send_time`,
:meth:`SimClock.advance`, :class:`Stopwatch`, the reading side of
:class:`ClockStats`, and the group's ``global_now`` / ``stats_by_domain`` /
``times_by_domain``.  Each conversion is one correctly rounded division of
the exact tick count.  Code that *orders* events (IPC merges, the admission
heap, the client-pool heap) compares ticks with ticks.

Time is **not** one global serial tape.  The paper's testbed had real
hardware concurrency -- the host database, each file server's DLFM and the
archive mover are separate machines/processes doing work at the same time --
so the simulation models one :class:`ClockDomain` per node, grouped in a
:class:`ClockDomainGroup`:

* every domain advances independently as its node charges work;
* domains synchronize by **max-merging** their times at real synchronization
  points: an IPC request/reply is a two-way merge (the callee cannot start
  before the message was sent, the caller cannot continue before the reply
  exists), a pipelined send (:meth:`repro.ipc.channel.Channel.post`) is a
  one-way merge (the sender does not wait), and two-phase-commit barriers
  merge every participant;
* a coordinator fanning out to N participants opens an *overlap window*
  (:meth:`SimClock.overlap`): all requests are timestamped at the window's
  start and the coordinator advances to the **max** of the replies instead
  of their sum, which is what lets N shards show genuine latency overlap --
  and what lets a burst of follower reads, round-robined by the
  replication router over the serving node and its witnesses, cost the
  bottleneck node's busy time instead of the serial sum (the E12
  follower-read throughput measurement);
* a *pipelined* send whose handler fails is not free: the error surfaces
  at statement time, so the sender's clock merges up to the receiver's
  completion exactly like a synchronous round trip (only successful posts
  stay fire-and-forget);
* :meth:`ClockDomainGroup.global_now` (the max over domains) is the cluster
  wall clock used for experiment reporting.

:class:`SimClock` is one timeline -- a :class:`ClockDomain` *is* a
:class:`SimClock`, so components call ``charge()``/``measure()`` and only
differ in *which* clock they hold.  Every component holds one: the clock is
a required constructor argument everywhere, never ``None`` and never
conjured by the component itself (two parts of one stack on two private
timelines would turn every channel between them cross-domain).  A bare
:class:`SimClock` (no group) is the single serial timeline, which is also
what ``serial_clock=True`` deployments ride for A/B comparisons.

**Inline charge sites.**  The hottest fixed-cost sites (VFS entry points,
statement charges, IPC latency) do not call :meth:`SimClock.charge`; they
take a ``(ticks, meter)`` pair from :meth:`SimClock.meter` once and write
the charge out as ``clock.ticks += ticks; meter[0] += 1`` -- one add and one
counter bump (see :class:`ClockStats` for how meters are read back).

**Why the brackets are classes.**  :class:`synchronized_call` and
:meth:`SimClock.overlap` wrap every cross-domain call and every fan-out.
As ``@contextlib.contextmanager`` functions each use built a generator and
a ``_GeneratorContextManager`` and resumed the generator twice; as small
``__slots__`` classes a use is one object and two method calls, and a
bracket, which only names two clocks, can be made once and reused.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from fractions import Fraction

#: Ticks per simulated second: one tick is one picosecond.
TICKS_PER_SECOND = 10 ** 12
_TICKS_PER_MS = 10 ** 9


def to_ticks(seconds: float) -> int:
    """Seconds to ticks, rounded to the nearest tick (the inbound float edge)."""

    return round(seconds * TICKS_PER_SECOND)


@dataclass
class CostModel:
    """Calibrated per-primitive costs, in simulated seconds.

    The defaults are derived from the paper's Section 3.2 measurements and
    from typical late-1990s hardware characteristics (10 ms/MB sequential
    disk transfer, sub-millisecond local IPC).  All values can be overridden
    to run sensitivity studies.
    """

    # --- host database -----------------------------------------------------
    sql_statement_base: float = 0.50e-3     # parse/plan/dispatch a statement
    row_read: float = 0.05e-3               # fetch one row from a heap/index
    row_write: float = 0.10e-3              # insert/update/delete one row
    log_write: float = 0.20e-3              # force one WAL record group
    lock_acquire: float = 0.01e-3           # grant one lock
    index_probe: float = 0.02e-3            # one index lookup

    # --- DataLinks engine ---------------------------------------------------
    token_generate: float = 0.80e-3         # HMAC generation at the host DB
    token_validate: float = 0.30e-3         # HMAC check at DLFM
    datalink_engine_dispatch: float = 0.30e-3  # engine bookkeeping per op

    # --- IPC ----------------------------------------------------------------
    upcall_round_trip: float = 0.25e-3      # DLFS -> upcall daemon -> DLFS
    db_dlfm_message: float = 0.60e-3        # DataLinks engine <-> DLFM agent
    daemon_dispatch: float = 0.02e-3        # daemon request demultiplexing
    message_send: float = 0.05e-3          # sender-side cost of a pipelined
    #                                        (non-blocking) message enqueue

    # --- file system --------------------------------------------------------
    syscall_base: float = 0.05e-3           # LFS entry/exit per system call
    vfs_op: float = 0.02e-3                 # one VFS entry point invocation
    dlfs_filter: float = 0.05e-3            # DLFS interposition per entry point
    directory_lookup: float = 0.03e-3       # resolve one path component
    disk_seek: float = 8.0e-3               # one random positioning (late-90s disk)
    disk_transfer_per_byte: float = 120.0e-3 / (1024 * 1024)  # ~8.5 MB/s sequential
    fs_metadata_update: float = 0.05e-3     # inode attribute update

    # --- archive / backup ---------------------------------------------------
    archive_per_byte: float = 150.0e-3 / (1024 * 1024)  # archive device write
    archive_job_overhead: float = 2.0e-3    # scheduling one archive job
    backup_per_row: float = 0.02e-3         # copy one row during backup

    # --- LOB/BLOB baseline (Oracle iFS / Informix IXFS style) ----------------
    # Extra database processing per byte when file content is stored in and
    # served from a LOB column instead of the file system (buffer copies,
    # LOB locators, SQL layer) -- on top of the underlying disk transfer --
    # plus a fixed per-request conversion cost (the IXFS middleware turns
    # every file call into SQL and formats the result back into file-system
    # objects).
    blob_db_per_byte: float = 80.0e-3 / (1024 * 1024)
    blob_request_overhead: float = 2.0e-3

    # --- DLFM repository scaling ---------------------------------------------
    # The DLFM's private repository is a lean embedded store, not a full SQL
    # engine; its statements cost a fraction of a host-database statement.
    dlfm_repository_scale: float = 0.1

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy of this model with every cost multiplied by *factor*."""

        values = {f.name: getattr(self, f.name) * factor for f in fields(self)}
        return CostModel(**values)


@functools.lru_cache(maxsize=64)
def _tick_tables(costs: tuple) -> tuple[dict, dict, dict]:
    """``(units, rates, scaled)`` for a cost model given as its
    ``(primitive, seconds)`` items -- derived once per distinct model.

    ``units[p]`` is the integer tick cost of one *p*.  ``rates[p]`` is the
    exact ticks-per-byte rational behind it as ``(2 * num, den, 2 * den)``,
    the operands of one round-half-up integer division.  Each float is read
    as the decimal it prints as, so the calibrated constants come out exact.
    ``scaled`` memoizes ``(p, scale) -> round(units[p] * scale)``, so a
    scaled unit is rounded once and every later charge is a dict probe.
    All three are pure functions of the model, shared by every clock on it.
    """

    units, rates = {}, {}
    for name, seconds in costs:
        exact = Fraction(repr(float(seconds))) * TICKS_PER_SECOND
        units[name] = round(exact)
        rates[name] = (2 * exact.numerator, exact.denominator,
                       2 * exact.denominator)
    return units, rates, {}


class ClockStats:
    """The charge ledger of one :class:`SimClock`: per label, a count and ticks.

    Charges are keyed by *label* -- normally the primitive name, but callers
    can supply an explicit label (e.g. the DLFM repository prefixes its
    database charges with ``dlfm.`` so they never conflate with the host
    database's charges for the same primitive).

    A label's events are booked in two kinds of integer storage, both
    created on first request (a clock that never charges holds none):

    * its **cell** ``[count, ticks]`` takes charges whose amount varies
      (``times=``, ``nbytes=``) -- two in-place updates per charge;
    * a **meter** ``[count, unit]`` per fixed amount (handed out by
      :meth:`SimClock.meter`) takes charges of exactly ``unit`` ticks --
      one counter bump per charge, the ticks are ``count * unit``,
      multiplied out when the ledger is read.

    Readers merge the two and report seconds (``total``, ``charges``,
    ``grand_total``) or milliseconds (``as_dict``); ``ticks`` and ``ledger``
    give the exact integers.  Labels never charged (count 0) are not
    reported.
    """

    __slots__ = ("_cells", "_meters")

    def __init__(self):
        #: label -> [count, ticks]
        self._cells: dict[str, list] = {}
        #: label -> [[count, unit], ...], one meter per distinct unit
        self._meters: dict[str, list] = {}

    def cell(self, label: str) -> list:
        """The mutable ``[count, ticks]`` cell of *label*."""

        try:
            return self._cells[label]
        except KeyError:
            cell = self._cells[label] = [0, 0]
            return cell

    # -- the two primitives every reader is built on ---------------------------
    def _entry(self, label: str) -> tuple:
        """``(count, ticks)`` of one label."""

        count, ticks = self._cells.get(label, (0, 0))
        for events, unit in self._meters.get(label, ()):
            count += events
            ticks += events * unit
        return (count, ticks)

    def _rows(self) -> list:
        """Every ``(label, count, ticks)`` booked, several per label."""

        rows = [(label, cell[0], cell[1])
                for label, cell in self._cells.items()]
        for label, meters in self._meters.items():
            for events, unit in meters:
                rows.append((label, events, events * unit))
        return rows

    # -- readers -----------------------------------------------------------------
    def ledger(self) -> dict:
        """``{label: (count, ticks)}`` of every charged label -- exact."""

        merged: dict[str, list] = {}
        for label, count, ticks in self._rows():
            if not count:
                continue
            try:
                slot = merged[label]
                slot[0] += count
                slot[1] += ticks
            except KeyError:
                merged[label] = [count, ticks]
        return {label: (slot[0], slot[1]) for label, slot in merged.items()}

    def ticks(self, label: str) -> int:
        return self._entry(label)[1]

    def total(self, label: str) -> float:
        return self._entry(label)[1] / TICKS_PER_SECOND

    def count(self, label: str) -> int:
        return self._entry(label)[0]

    def labels(self) -> list[str]:
        return sorted(self.ledger())

    def total_count(self) -> int:
        """Total charged operations, summed across every label."""

        total = 0
        for _, count, _ in self._rows():
            total += count
        return total

    @property
    def charges(self) -> dict:
        """``{label: (count, total seconds)}`` -- compatibility view."""

        return {label: (count, ticks / TICKS_PER_SECOND)
                for label, (count, ticks) in self.ledger().items()}

    def as_dict(self) -> dict:
        """``{label: {"count": n, "total_ms": t}}`` for reporting."""

        return {label: {"count": count, "total_ms": ticks / _TICKS_PER_MS}
                for label, (count, ticks) in sorted(self.ledger().items())}

    def grand_total(self) -> float:
        """Total simulated seconds charged across every label."""

        total = 0
        for _, _, ticks in self._rows():
            total += ticks
        return total / TICKS_PER_SECOND


class GroupStats(ClockStats):
    """The group-wide ledger: the sum over the domains, computed on read.

    A live view -- it owns no storage, so it can be held across work and
    read again.  Integer sums are exact in any order, which is what makes
    this equal to a ledger that had booked every charge a second time.
    """

    __slots__ = ("_group",)

    def __init__(self, group: "ClockDomainGroup"):
        self._group = group

    def _entry(self, label: str) -> tuple:
        count = ticks = 0
        for domain in self._group.domains.values():
            events, amount = domain.stats._entry(label)
            count += events
            ticks += amount
        return (count, ticks)

    def _rows(self) -> list:
        rows = []
        for domain in self._group.domains.values():
            rows += domain.stats._rows()
        return rows


class SimClock:
    """A monotonically advancing simulated clock with cost accounting.

    Components never sleep; they call :meth:`charge` with the name of a
    primitive from :class:`CostModel` (optionally scaled by a byte count or
    an explicit repeat factor) and the clock advances by the calibrated cost.
    :attr:`ticks` is the clock value, an exact integer; :meth:`now` is the
    same instant in float seconds.

    Synchronization protocol (used between :class:`ClockDomain` instances,
    but defined here so any two clocks can rendezvous).  Each step exists in
    exact ticks and, for callers at the float edge, in seconds:

    * :meth:`send_ticks` / :meth:`send_time` -- the timestamp an outgoing
      message carries;
    * :meth:`sync_ticks` / :meth:`sync_to` -- one-way merge: a node
      receiving a message cannot be earlier than the message's send time;
    * :meth:`receive_ticks` / :meth:`receive` -- the caller's side of a
      reply: advance to the reply's timestamp (max-merge, never backwards);
    * :meth:`overlap` -- scatter-gather window: every send timestamp inside
      the window is the window's start, and replies accumulate into a
      pending max applied when the window closes, so a fan-out to N peers
      costs the *slowest* reply instead of the sum of all replies.
    """

    def __init__(self, cost_model: CostModel | None = None, start: float = 0.0,
                 name: str = "clock", tables: tuple | None = None):
        self.costs = cost_model if cost_model is not None else CostModel()
        # Integer unit ticks, exact per-byte rates and the scaled-unit memo
        # (see ``_tick_tables``); every field of the model is a primitive.
        # A group hands its domains the tables it looked up once.
        self._units, self._rates, self._scaled = tables or \
            _tick_tables(tuple(vars(self.costs).items()))
        self.name = name
        #: The clock value: simulated picoseconds since the clock was created.
        self.ticks = to_ticks(start) if start else 0
        self.stats = ClockStats()
        # Scatter-gather frames: [fork_ticks, pending_reply_max] per level.
        self._overlap_frames: list[list[int]] = []

    # -- time ----------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time in seconds since the clock was created."""

        return self.ticks / TICKS_PER_SECOND

    def advance(self, seconds: float) -> float:
        """Advance the clock by *seconds* (must be non-negative)."""

        if seconds < 0:
            raise ValueError("cannot move the simulated clock backwards")
        self.ticks += to_ticks(seconds)
        return self.now()

    # -- synchronization ------------------------------------------------------
    def send_ticks(self) -> int:
        """The timestamp an outgoing message carries (the overlap fork time
        inside a scatter-gather window, the current time otherwise)."""

        if self._overlap_frames:
            return self._overlap_frames[-1][0]
        return self.ticks

    def send_time(self) -> float:
        """:meth:`send_ticks` in seconds."""

        return self.send_ticks() / TICKS_PER_SECOND

    def sync_ticks(self, instant: int) -> None:
        """One-way max-merge: jump forward to *instant* if it is later."""

        if instant > self.ticks:
            self.ticks = instant

    def sync_to(self, seconds: float) -> float:
        """:meth:`sync_ticks` for an instant given in seconds."""

        self.sync_ticks(to_ticks(seconds))
        return self.now()

    def receive_ticks(self, instant: int) -> None:
        """Merge an incoming reply timestamp.

        Inside an overlap window the reply only raises the window's pending
        max (the gather happens when the window closes); outside, it
        max-merges immediately.
        """

        if self._overlap_frames:
            frame = self._overlap_frames[-1]
            if instant > frame[1]:
                frame[1] = instant
        elif instant > self.ticks:
            self.ticks = instant

    def receive(self, seconds: float) -> float:
        """:meth:`receive_ticks` for an instant given in seconds."""

        self.receive_ticks(to_ticks(seconds))
        return self.now()

    def overlap(self) -> "_OverlapWindow":
        """``with clock.overlap():`` -- a scatter-gather window anchored at
        the current time; closing it advances to the max gathered reply."""

        return _OverlapWindow(self)

    # -- cost charging -------------------------------------------------------
    def unit_ticks(self, primitive: str, scale: float = 1.0) -> int:
        """Ticks of one *primitive* at *scale* -- the scaled unit is rounded
        once, the first time it is asked for."""

        if scale == 1.0:
            try:
                return self._units[primitive]
            except KeyError:
                raise AttributeError(
                    f"cost model has no primitive {primitive!r}") from None
        try:
            return self._scaled[primitive, scale]
        except KeyError:
            ticks = self._scaled[primitive, scale] = \
                round(self.unit_ticks(primitive) * scale)
            return ticks

    def byte_rate(self, primitive: str) -> tuple:
        """*primitive*'s exact ticks-per-byte rate as ``(2 * num, den,
        2 * den)``: *n* bytes cost ``(n * 2num + den) // 2den`` ticks."""

        return self._rates[primitive]

    def meter(self, primitive: str, scale: float = 1.0,
              label: str | None = None) -> tuple:
        """``(ticks, meter)`` for an inline fixed-cost charge site.

        One charge at the site is ``clock.ticks += ticks; meter[0] += 1``
        -- one add and one counter bump, booking exactly what
        ``charge(primitive, scale=scale, label=label)`` books, without the
        call and the dict probes.  The pair belongs to this clock.
        """

        # ``unit_ticks`` written out: components resolve their meters at
        # construction, which small runs are made of.
        try:
            ticks = self._units[primitive] if scale == 1.0 \
                else self._scaled[primitive, scale]
        except KeyError:
            ticks = self.unit_ticks(primitive, scale)
        key = label or primitive
        try:
            meters = self.stats._meters[key]
        except KeyError:
            meters = self.stats._meters[key] = []
        for meter in meters:
            if meter[1] == ticks:
                return (ticks, meter)
        meter = [0, ticks]
        meters.append(meter)
        return (ticks, meter)

    def charge(self, primitive: str, *, times: int = 1, nbytes: int = 0,
               scale: float = 1.0, label: str | None = None) -> float:
        """Charge the cost of *primitive* and advance the clock.

        ``times`` repeats the primitive; ``nbytes`` is used for per-byte
        primitives (``disk_transfer_per_byte``, ``archive_per_byte``) where
        the charged amount is ``rate * nbytes`` instead of ``unit * times``.
        ``scale`` multiplies the unit (used e.g. for the DLFM's lean
        repository).  ``label`` overrides the stats key (the charge is
        recorded under *label* instead of the primitive name, so scaled
        charges can be attributed separately).  The whole call is one ledger
        event.  Returns the simulated seconds charged.
        """

        # ``unit_ticks`` / ``byte_rate`` / ``stats.cell`` written out: this
        # is the call every non-inlined charge site makes.
        try:
            if nbytes:
                num2, den, den2 = self._rates[primitive]
                amount = (nbytes * num2 + den) // den2
                if scale != 1.0:
                    amount = round(amount * scale)
            elif scale == 1.0:
                amount = self._units[primitive] * times
            else:
                amount = self._scaled[primitive, scale] * times
        except KeyError:
            amount = self.unit_ticks(primitive, scale) * times
        self.ticks += amount
        key = label or primitive
        cells = self.stats._cells
        try:
            cell = cells[key]
        except KeyError:   # first charge under this key
            cell = cells[key] = [0, 0]
        cell[0] += 1
        cell[1] += amount
        return amount / TICKS_PER_SECOND

    def charge_run(self, primitive: str, times: int, *, scale: float = 1.0,
                   label: str | None = None) -> float:
        """Charge *times* back-to-back unit charges of *primitive*.

        *times* ledger events for one multiply.  Returns the simulated
        seconds charged.
        """

        if times <= 0:
            return 0.0
        try:
            amount = (self._units[primitive] if scale == 1.0
                      else self._scaled[primitive, scale]) * times
        except KeyError:
            amount = self.unit_ticks(primitive, scale) * times
        self.ticks += amount
        cell = self.stats.cell(label or primitive)
        cell[0] += times
        cell[1] += amount
        return amount / TICKS_PER_SECOND

    def compile_charges(self, events) -> tuple:
        """Pre-resolve a repeating charge pattern for :meth:`charge_batch`.

        *events* is a sequence of ``(primitive, scale, label)`` triples --
        one cycle of the pattern.  Returns ``(ticks per cycle, [[meter,
        events per cycle], ...])`` with one entry per distinct meter.  The
        compiled pattern belongs to this clock (its units, its ledger).
        """

        cycle = 0
        entries: list[list] = []
        for primitive, scale, label in events:
            ticks, meter = self.meter(primitive, scale, label)
            cycle += ticks
            for entry in entries:
                if entry[0] is meter:
                    entry[1] += 1
                    break
            else:
                entries.append([meter, 1])
        return (cycle, entries)

    def charge_batch(self, compiled: tuple, cycles: int = 1) -> None:
        """Charge a compiled pattern *cycles* times: one multiply on the
        clock, one bump per distinct meter."""

        if cycles <= 0:
            return
        cycle, entries = compiled
        self.ticks += cycle * cycles
        for meter, events in entries:
            meter[0] += events * cycles

    def measure(self) -> "Stopwatch":
        """Return a :class:`Stopwatch` started at the current simulated time."""

        return Stopwatch(self)


class _OverlapWindow:
    """One scatter-gather window of a clock (see :meth:`SimClock.overlap`)."""

    __slots__ = ("_clock",)

    def __init__(self, clock: SimClock):
        self._clock = clock

    def __enter__(self) -> SimClock:
        clock = self._clock
        clock._overlap_frames.append([clock.ticks, clock.ticks])
        return clock

    def __exit__(self, exc_type, exc, tb) -> None:
        clock = self._clock
        clock.receive_ticks(clock._overlap_frames.pop()[1])


class synchronized_call:
    """Two-way merge around a synchronous cross-domain call.

    The callee cannot start before the caller's message was sent
    (``callee.sync_ticks(caller.send_ticks())``), and the caller cannot
    continue before the callee finished (``caller.receive_ticks(callee.ticks)``,
    applied even when the body raises -- failures take time too).  A no-op
    when the two clocks are the same object.  It keeps nothing between
    uses: one instance can be entered again, or nested.
    """

    __slots__ = ("_caller", "_callee")

    def __init__(self, caller: SimClock, callee: SimClock):
        self._caller = caller
        self._callee = callee

    def __enter__(self) -> None:
        caller, callee = self._caller, self._callee
        if caller is not callee:
            callee.sync_ticks(caller.send_ticks())

    def __exit__(self, exc_type, exc, tb) -> None:
        caller, callee = self._caller, self._callee
        if caller is not callee:
            caller.receive_ticks(callee.ticks)


def rendezvous(*clocks) -> float:
    """Max-merge the given clocks: a barrier.

    Commutative and idempotent -- ``rendezvous(a, b)`` and
    ``rendezvous(b, a)`` leave both clocks at the same instant.  Returns
    that instant, in seconds (0.0 for no clocks at all).
    """

    instant = max((clock.ticks for clock in clocks), default=0)
    for clock in clocks:
        clock.sync_ticks(instant)
    return instant / TICKS_PER_SECOND


def gather(target, clocks) -> float:
    """Aggregated barrier: merge *clocks* into *target* with one receive.

    The batched counterpart of ``rendezvous(target, c)`` once per client:
    N client domains merging through the host cost one ``max()`` scan and
    a single :meth:`SimClock.receive_ticks` on the target, after which
    every client syncs forward to the merged instant.  The target itself
    is skipped, so the call degenerates to a no-op when every client shares
    the target clock (the serialized reference path).  Returns the merged
    instant, in seconds.
    """

    present = [clock for clock in clocks if clock is not target]
    instant = target.ticks
    for clock in present:
        if clock.ticks > instant:
            instant = clock.ticks
    target.receive_ticks(instant)
    for clock in present:
        clock.sync_ticks(instant)
    return instant / TICKS_PER_SECOND


class ClockDomain(SimClock):
    """One simulated node's clock inside a :class:`ClockDomainGroup`.

    A domain is a full :class:`SimClock` (components hold it and call
    ``charge()``/``measure()`` unchanged) that additionally treats
    :meth:`advance` as *cluster* idle time -- explicit waiting (editor think
    time, TTL expiry in tests) passes for every node, which matches the old
    serial model; :meth:`advance_local` advances only this domain.  Its
    ledger is one term of the group's (:class:`GroupStats`).
    """

    def __init__(self, group: "ClockDomainGroup", name: str,
                 cost_model: CostModel | None = None, start: float = 0.0,
                 tables: tuple | None = None):
        super().__init__(cost_model, start=start, name=name, tables=tables)
        self.group = group

    def advance(self, seconds: float) -> float:
        """Let *seconds* of idle wall time pass for the whole cluster."""

        if seconds < 0:
            raise ValueError("cannot move the simulated clock backwards")
        idle = to_ticks(seconds)
        for domain in self.group.domains.values():
            domain.ticks += idle
        return self.now()

    def advance_local(self, seconds: float) -> float:
        """Advance only this domain (a node busy on unmodelled local work)."""

        return super().advance(seconds)


class ClockDomainGroup:
    """The set of clock domains of one simulated cluster.

    ``serial=True`` collapses every domain onto a single shared timeline --
    the old serial-clock model, kept for honest A/B comparisons (e.g. the
    serial-clock rows of experiment E11).
    """

    def __init__(self, cost_model: CostModel | None = None, *,
                 serial: bool = False):
        self.costs = cost_model if cost_model is not None else CostModel()
        self.serial = serial
        #: The group-wide ledger, summed over the domains on every read.
        self.stats = GroupStats(self)
        self.domains: dict[str, SimClock] = {}
        #: Tick tables of ``self.costs``, looked up once for every domain
        #: (10^4 client domains must not hash the model 10^4 times).
        self._tables = _tick_tables(tuple(vars(self.costs).items()))

    def domain(self, name: str) -> SimClock:
        """The clock domain for node *name* (created on first use).

        In serial mode every name resolves to the same shared clock.
        """

        if self.serial:
            name = "serial"
        if name not in self.domains:
            self.domains[name] = ClockDomain(self, name, self.costs,
                                             tables=self._tables)
        return self.domains[name]

    @property
    def ticks(self) -> int:
        """The cluster wall clock in ticks: the max over every domain."""

        if not self.domains:
            return 0
        return max(domain.ticks for domain in self.domains.values())

    def global_now(self) -> float:
        """The cluster wall clock: the max over every domain's time."""

        return self.ticks / TICKS_PER_SECOND

    # ``now()``/``measure()`` make the group usable wherever a clock-like
    # object is expected, measuring cluster wall-clock progress.
    def now(self) -> float:
        return self.global_now()

    def measure(self) -> "Stopwatch":
        return Stopwatch(self)

    def barrier(self) -> float:
        """Rendezvous every domain (a cluster-wide synchronization point)."""

        return rendezvous(*self.domains.values())

    def session_domains(self, count: int, base=None, *,
                        limit: int | None = None,
                        prefix: str = "client") -> list:
        """Clock domains for *count* simulated client sessions.

        Returns a list of *count* clocks, one per client.  In serial mode
        every entry is *base* (default: the ``host`` domain): all sessions
        ride the host timeline.  Otherwise each client gets its own domain
        that barriers through the host like any IPC, so concurrent clients
        genuinely overlap and queueing delay is measurable; domains are
        pooled round-robin over at most *limit* distinct ones so wall
        clock stays flat at 10^4 clients.  Pooled domain names are stable
        across calls (``client0``, ``client1``, ...) and every pooled
        domain is synced forward to *base*'s current time, so a new sweep
        step starts no earlier than the host -- safe because the drivers
        :func:`gather` all clients back through the host at step end.
        """

        if base is None:
            base = self.domain("host")
        if count <= 0:
            return []
        if self.serial:
            return [base] * count
        pool = count if limit is None else max(1, min(count, limit))
        start = base.ticks
        clocks = []
        for index in range(pool):
            domain = self.domain(f"{prefix}{index}")
            domain.sync_ticks(start)
            clocks.append(domain)
        if pool == count:
            return clocks
        return [clocks[index % pool] for index in range(count)]

    def stats_by_domain(self) -> dict:
        """``{domain: {label: {"count", "total_ms"}}}`` per-node breakdown."""

        return {name: domain.stats.as_dict()
                for name, domain in sorted(self.domains.items())}

    def times_by_domain(self) -> dict:
        """``{domain: now_in_ms}`` -- each node's local time, for reporting."""

        return {name: domain.ticks / _TICKS_PER_MS
                for name, domain in sorted(self.domains.items())}


class Stopwatch:
    """Measures elapsed simulated time; usable as a context manager.

    Works over a single :class:`SimClock`/:class:`ClockDomain` (elapsed time
    on that node) or a :class:`ClockDomainGroup` (elapsed cluster wall-clock
    time, i.e. ``global_now`` deltas).  The interval is taken in ticks and
    converted once, so it does not lose precision late in a long run.
    """

    def __init__(self, clock):
        self._clock = clock
        self._start = clock.ticks
        self._stop: int | None = None

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.ticks
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop = self._clock.ticks

    @property
    def elapsed(self) -> float:
        """Elapsed simulated seconds (to the stop point, or to now)."""

        end = self._stop if self._stop is not None else self._clock.ticks
        return (end - self._start) / TICKS_PER_SECOND

    @property
    def elapsed_ms(self) -> float:
        """Elapsed simulated milliseconds."""

        end = self._stop if self._stop is not None else self._clock.ticks
        return (end - self._start) / _TICKS_PER_MS
