"""The paper's claims as one checked list.

Each :class:`Claim` in :data:`CLAIMS` quotes the words it checks, a substring of
its experiment's ``paper_claim`` or ``notes``, so the list invents no paper
number, and names the tiers whose rows can show it (by default every tier of its
experiment).  ``margin(rows)`` is the signed distance to the threshold in the
claim's own units, on the :class:`Rows` of one run: at or above zero (above zero
for a ``strict`` claim) it is Reproduced, else Partial where ``partial(rows)``
holds, else Not Reproduced.  A threshold the paper gives no number for is spelled
out in ``interpreted``; a status short of Reproduced needs a ``reasons`` entry.

Not claimed, because no experiment measures it: the unlink/relink problem
statement, the nested transactions the paper says "can be applied", and E5's CICO
lock holding with its two extra database updates per edit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.experiments import BEYOND_THE_PAPER
from repro.bench.runner import EXPERIMENTS


class Status(enum.Enum):
    REPRODUCED = "Reproduced"
    PARTIAL = "Partial"
    NOT_REPRODUCED = "Not Reproduced"


class Rows(list):
    """The rows of one run of an experiment, with the ``sizes`` of its tier."""

    def __init__(self, rows, sizes: dict):
        super().__init__(rows)
        self.sizes = sizes

    def where(self, column: str, text: str) -> list:
        return [row for row in self if text in str(row[column])]

    def one(self, column: str, text: str) -> dict:
        (row,) = self.where(column, text)
        return row


@dataclass(frozen=True)
class Claim:
    id: str                 # "E2.a": the experiment id, a dot, a letter
    section: str
    quote: str
    margin: Callable
    tiers: tuple = ()
    strict: bool = False
    partial: Callable | None = None
    interpreted: str = ""
    reasons: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tiers:
            object.__setattr__(self, "tiers", EXPERIMENTS[self.experiment_id].tiers)

    @property
    def experiment_id(self) -> str:
        return self.id.split(".")[0]

    @property
    def kind(self) -> str:
        return "beyond_paper" if self.section == BEYOND_THE_PAPER else "paper"

    def predicate(self, rows: Rows) -> Status:
        margin = self.margin(rows)
        if margin > 0 or margin == 0 and not self.strict:
            return Status.REPRODUCED
        if self.partial is not None and self.partial(rows):
            return Status.PARTIAL
        return Status.NOT_REPRODUCED


def _beyond(claim_id: str, quote: str, margin, **options) -> Claim:
    return Claim(claim_id, BEYOND_THE_PAPER, quote, margin, **options)


def _every(rows, holds) -> float:
    """Minus the rows that break *holds*; ``-1`` when there is no row."""

    return float(-sum(not holds(row) for row in rows)) if rows else -1.0


def _drops(values) -> float:
    """The smallest step down along *values* (negative where one rises)."""

    return min(earlier - later for earlier, later in zip(values, values[1:]))


def _e2(rows, column: str, modes: str, value=abs) -> float:
    return max(value(row[column]) for row in rows if row["mode"] in modes)


def _minor(rows, times: float) -> float:
    """E4: *times* the plain open/close, less the most a managed one adds."""

    return times * rows.one("case", "plain")["mean_ms"] - max(
        row["added_ms"] for row in rows)


def _refuses_and_keeps(rows, scheme: str) -> int:
    """E5: writers were refused up front, none lost an update, every edit completed."""

    row, sizes = rows.one("scheme", scheme), rows.sizes
    return min(row["acquire_conflicts"] - 1, -row["lost_updates"],
               row["completed_edits"] - sizes["editors"] * sizes["edits_per_editor"])


def _e11(rows, label: str, column: str, twin: bool = False) -> float:
    """*column* of E11's row of *label*, or of its twin read off one timeline."""

    (row,) = [row for row in rows.where("configuration", label)
              if row["configuration"].endswith(" clock") == twin]
    return row[column]


def _sweep(rows, column: str) -> list:
    """``(sessions, value of column)`` along E9's session sweep."""

    return sorted((int(row["configuration"].split("sweep, ")[1].split()[0]),
                   row[column]) for row in rows.where("configuration", "session sweep"))


def _saturation(rows) -> float:
    """Fractions of the peak rate: past the admission limit every step stays within
    15 % of it, and below the limit the rate never falls."""

    sweep = _sweep(rows, "ops_per_sim_s")
    limit = rows.sizes["admission_limit"]
    below = [rate for sessions, rate in sweep if sessions <= limit]
    above = [rate for sessions, rate in sweep if sessions > limit]
    if not below or not above:
        return -1.0
    peak = max(rate for _, rate in sweep)
    return min([0.15 - abs(rate / peak - 1.0) for rate in above]
               + [(later - earlier) / peak for earlier, later in zip(below, below[1:])])


def _e14_gain(rows) -> float:
    """The balanced variant's smallest relative improvement on static hash."""

    static, balanced = rows.one("variant", "static"), rows.one("variant", "balanced")
    return min(1.0 - balanced[column] / static[column]
               for column in ("max_shard_load_share", "link_p99_ms", "read_p99_ms"))


CLAIMS = (
    Claim("E1.a", "3.2", "costs less than 3 ms at the host database", lambda rows:
          3.0 - max(row["mean_ms"] for row in rows.where("statement", "DATALINK with")),
          strict=True),
    _beyond("E1.b", "reuse a still-live token", lambda rows: -abs(
        float(rows.one("statement", "hit rate")["statement"].split()[-1].rstrip(")"))
        - round(rows.sizes["repeats"] / (rows.sizes["repeats"] + 1), 2)),
        interpreted="the warm-up retrieval is the cache's one miss: the hit rate is "
                    "repeats / (repeats + 1)"),
    _beyond("E1.c", "instead of regenerating the HMAC", lambda rows:
            rows.one("statement", "read-token generation")["mean_ms"]
            - rows.one("statement", "token cache")["mean_ms"], strict=True),

    Claim("E2.a", "3.2", "add roughly 1 ms to open, read and close at the file server",
          lambda rows: 0.5 - _e2(rows, "added_vs_unlinked_ms", "rdb rdd",
                                 lambda ms: abs(ms - 1.0)),
          partial=lambda rows: _e2(rows, "added_vs_unlinked_ms", "rdb rdd",
                                   lambda ms: abs(ms - 1.25)) <= 0.75,
          interpreted="roughly 1 ms: within 0.5 ms of it in rdb and in rdd; between "
                      "0.5 and 2 ms, a factor of two, is Partial",
          reasons={Status.PARTIAL: (
              "Each tokenized open and close makes three upcall round trips and six "
              "DLFM statements (link-row probe and token upsert at lookup; link-row "
              "probe, update check and admission at open; Sync removal at close), "
              "1.465 ms over an unlinked open on every tier and every repeat; a cost "
              "model that charges more per round trip or statement lands here.")}),
    Claim("E2.b", "3.2", "modes not under full control avoid upcalls on read opens",
          lambda rows: -_e2(rows, "upcalls_per_open", "rff rfb rfd")),
    Claim("E2.c", "3.2", "rff/rfb/rfd reads bypass the DLFM entirely",
          lambda rows: -_e2(rows, "added_vs_unlinked_ms", "rff rfb rfd")),
    Claim("E2.d", "3.2", "pay three upcalls per tokenized read open",
          lambda rows: -_e2(rows, "upcalls_per_open", "rdb rdd", lambda n: abs(n - 3))),

    Claim("E3.a", "3.2", "under 1 % of the time to read a 1 MB file",
          lambda rows: 1.0 - rows.one("size_kb", "1024")["fs_overhead_pct"],
          ("default",), strict=True,
          partial=lambda rows: rows.one("size_kb", "1024")["fs_overhead_pct"] < 3.0
          and any(row["fs_overhead_pct"] < 1.0 for row in rows if row["size_kb"] > 1024),
          reasons={Status.PARTIAL: (
              "The file-server side adds E2's per-open cost, 1.465 ms on a 128.55 ms "
              "plain read of 1 MB (1.14 %), so the 1 % point lies between the 1 MB and "
              "the 4 MB file (0.30 %); the 1 MB overhead is held under 3 %.")}),
    Claim("E3.b", "3.2", "Both are fixed per open, so they shrink as the file grows",
          lambda rows: min(_drops([row[column] for row in rows]) for column in
                           ("fs_overhead_pct", "total_overhead_pct")),
          ("default",), strict=True),
    Claim("E3.c", "1", "LOB/BLOB approaches pay database processing on every read byte",
          lambda rows: rows.one("size_kb", "1024")["blob_overhead_pct"]
          / rows.one("size_kb", "1024")["fs_overhead_pct"] - 10.0, ("default",),
          interpreted="per byte against per open: at 1 MB the BLOB overhead is at "
                      "least ten times the file-server side's"),
    Claim("E3.d", "1", "the BLOB penalty is per byte", lambda rows:
          -_drops([row["blob_overhead_pct"] for row in rows]), ("default",)),

    Claim("E4.a", "5", "There is only minor difference in the response time between "
          "opening a DataLinks managed file and opening a file system managed file",
          lambda rows: _minor(rows, 1.0), partial=lambda rows: _minor(rows, 15.0) >= 0,
          interpreted="minor: a managed write open/close adds at most the plain "
                      "open/close's own time; up to fifteen times it is Partial",
          reasons={Status.PARTIAL: (
              "The managed case charges everything Section 4 adds to an update -- "
              "write-token generation at the host database, three upcalls, the "
              "Sync-table and tracking rows and the archiver's pass -- about ten to "
              "twelve times the plain open; the paper gives no number to hold these "
              "to.")}),

    Claim("E5.a", "3", "CAU avoids locks but admits lost updates", lambda rows: min(
        rows.one("scheme", "overwrite")["lost_updates"] - 1,
        -max(row["acquire_conflicts"] for row in rows.where("scheme", "cau")))),
    Claim("E5.b", "3", "UIP serializes writers at open/close without losing updates",
          lambda rows: _refuses_and_keeps(rows, "uip")),
    Claim("E5.c", "3", "cau-detect refuses them instead", lambda rows: min(
        -rows.one("scheme", "detect")["lost_updates"],
        rows.one("scheme", "detect")["rejected_checkins"] - 1)),
    Claim("E5.d", "3", "uip and cico both refuse concurrent writers up front and never "
          "lose an update", lambda rows: _refuses_and_keeps(rows, "cico")),

    Claim("E6.a", "4.2", "either all changes to a file between open and close calls "
          "complete successfully or none of the changes survive the failure",
          lambda rows: _every([row for row in rows if "SQL" not in row["scenario"]],
                              lambda row: row["observed"] == row["expected"])),
    Claim("E6.b", "2.2", "DLFM changes roll back with the SQL transaction",
          lambda rows: _every(rows.where("scenario", "SQL"),
                              lambda row: row["observed"] == row["expected"])),

    Claim("E7.a", "4.4", "restoring the database to a previous point also restores the "
          "corresponding file versions from the archive", lambda rows: _every(
              rows, lambda row: row["file_content_matches"] == row["metadata_matches"]
              == "yes")),

    *(Claim(f"E8.{letter}", "4.5, 5", quote, lambda rows, scenario=scenario: _every(
        rows.where("scenario", scenario), lambda row: row["matches_paper"] == "yes"))
      for letter, quote, scenario in (
          ("a", "Unlink is rejected while a Sync-table entry exists", "unlink while"),
          ("b", "rdd serializes readers and writers at open time", "rdd:"),
          ("c", "rfd leaves a read/write window", "rfd:"),
          ("d", "a link can succeed while the file is open", "link while the file"))),

    Claim("E9.a", "1", "keeps the read path almost free of database involvement",
          lambda rows: -max(row["host_db_read_mb"] for row in
                            rows.where("configuration", "DataLinks"))),
    Claim("E9.b", "1", "funnels every byte through the database server",
          lambda rows: rows.one("configuration", "BLOB")["host_db_read_mb"],
          ("default", "large"), strict=True),
    Claim("E9.c", "1", "lets files be spread over multiple file servers",
          lambda rows: _drops([row["max_mb_read_per_server"] for row in
                               rows.where("configuration", "DataLinks rfd")]),
          ("default", "large"), strict=True),
    _beyond("E9.d", "The host-side token cache is on by default in the web workload",
            lambda rows: rows.one("configuration", "rdd (tokenized")
            ["token_cache_hit_pct"], strict=True),
    _beyond("E9.e", "ops_per_sim_s flattens at the limit (the saturation knee)",
            _saturation, tiers=("smoke", "large"),
            interpreted="flat: within 15 % of the sweep's peak rate"),
    _beyond("E9.f", "read_p99_ms keeps growing with the queue", lambda rows:
            _sweep(rows, "read_p99_ms")[-1][1] / _sweep(rows, "read_p99_ms")[0][1] - 5,
            tiers=("large",),
            interpreted="the top step's p99 is at least five times the bottom step's"),
    _beyond("E9.g", "measured queue delay", lambda rows:
            _sweep(rows, "queue_p99_ms")[-1][1] - _sweep(rows, "queue_p99_ms")[0][1],
            tiers=("smoke", "large"), strict=True),

    Claim("E10.a", "5", "Making an upcall to DLFM from DLFS and adding an entry in the "
          "Sync table will eliminate the problem", lambda rows: _every(
              rows, lambda row: ("rejected" if "strict" in row["configuration"]
                                 else "allowed") in row["writer_while_reader_open"])),
    Claim("E10.b", "5", "would incur additional overhead ... for every open call",
          lambda rows: rows.one("configuration", "strict")["read_open_close_ms"]
          - rows.one("configuration", "default")["read_open_close_ms"], strict=True),
    Claim("E10.c", "5", "at the price of two upcalls", lambda rows:
          -abs(rows.one("configuration", "strict")["upcalls_per_read_open"] - 2)
          - rows.one("configuration", "default")["upcalls_per_read_open"]),

    _beyond("E11.a", "should raise link throughput well above the serial one-server, "
            "per-row, per-commit-flush baseline", lambda rows:
            _e11(rows, "batched", "speedup_vs_baseline") - 1.5,
            interpreted="well above: at least 1.5 times the baseline"),
    *(_beyond(claim_id, quote, lambda rows, column=column: _e11(
        rows, "1 server", column) - _e11(rows, "batched", column), strict=True)
      for claim_id, quote, column in (
          ("E11.b", "one log force and one prepare/commit message per shard per batch",
           "host_log_flushes"),
          ("E11.c", "hash-sharding linked files over many DLFMs",
           "max_links_per_shard"))),
    _beyond("E11.d", "letting each shard's clock domain progress concurrently",
            lambda rows: _e11(rows, "shards, per-row", "links_per_sim_s")
            / _e11(rows, "1 server", "links_per_sim_s") - 1.5, tiers=("default", "large"),
            interpreted="per-row links on every shard run at least 1.5 times the "
                        "one-server rate, from clock-domain overlap alone"),
    _beyond("E11.e", "With per-node clock domains the same per-row configuration "
            "overlaps link work across shards", lambda rows: min(
                _e11(rows, label, "links_per_sim_s")
                - _e11(rows, label, "links_per_sim_s", twin=True)
                for label in ("1 server", "shards, per-row"))),
    _beyond("E11.f", "adding shards *without* batching only adds two-phase-commit "
            "fan-out cost", lambda rows:
            _e11(rows, "1 server", "links_per_sim_s", twin=True)
            - _e11(rows, "shards, per-row", "links_per_sim_s", twin=True)),

    _beyond("E12.a", "fully *readable and writable* after promotion", lambda rows: _every(
        rows.where("configuration", "writable failover"), lambda row:
        row["victim_reads_after"] and row["writes_ok_after"] and row["failover_ms"] > 0
        and row["victim_availability_pct"] == row["write_availability_pct"] == 100.0)),
    _beyond("E12.b", "the unreplicated deployment fails every read and every write of "
            "that prefix", lambda rows: _every(
                rows.where("configuration", "no replication"), lambda row:
                row["victim_failures_after"] == row["victim_reads_after"] > 0
                == row["writes_ok_after"] and row["write_availability_pct"] == 0.0)),
    _beyond("E12.c", "raise read throughput with every witness added", lambda rows:
            -_drops([rows.one("configuration", marker)["follower_reads_per_sim_s"]
                     for marker in ("no replication", "1 witness", "2 witnesses")]),
            strict=True),
    _beyond("E12.d", "the cost is a lower link ingest rate", lambda rows:
            rows.one("configuration", "no replication")["links_per_sim_s"]
            - max(row["links_per_sim_s"]
                  for row in rows.where("configuration", "writable failover")),
            strict=True,
            interpreted="lower by any amount: a put is a send, so replication's "
                        "ingest tax is only the sends plus WAL shipping"),

    _beyond("E13.a", "with zero committed-link loss",
            lambda rows: -max(row["committed_links_lost"] for row in rows)),
    _beyond("E13.b", "nonzero foreground link and read throughput during the move",
            lambda rows: min(rows.one("phase", "during")[column] for column in
                             ("reads_ok", "links_ok", "ops_per_sim_s")), strict=True),
    _beyond("E13.c", "during-phase read availability stays at 100%",
            lambda rows: rows.one("phase", "during")["read_availability_pct"] - 100.0),
    _beyond("E13.d", "back-pressure, not unavailability",
            lambda rows: rows.one("phase", "during")["links_blocked"], strict=True),
    _beyond("E13.e", "its linked-file rows, archived version chain and file content "
            "handed off under one two-phase commit", lambda rows: min(
                rows.one("phase", "during")[column]
                for column in ("moved_files", "move_ms")), strict=True),
    _beyond("E13.f", "move between shards online", lambda rows: min(
        rows.one("phase", "after move")[column] - 100.0
        for column in ("read_availability_pct", "link_availability_pct"))),
    _beyond("E13.g", "the moved prefix promotable from the destination's witness set "
            "afterwards", lambda rows: _every(
                rows.where("phase", "failover"), lambda row: row["move_ms"] > 0
                and row["reads_ok"] > 0 == row["reads_failed"])),

    _beyond("E14.a", "beat static hash placement on both max-shard load share and tail "
            "latency", _e14_gain, strict=True),
    _beyond("E14.b", "within a per-tick move budget", lambda rows: _every(
        rows.where("variant", "balanced"),
        lambda row: row["max_moves_per_tick"] <= row["move_budget"])),
    _beyond("E14.c", "detect a zipfian hotspot on its own", lambda rows: min(
        rows.one("variant", "balanced")["moves"],
        rows.one("variant", "balanced")["placement_epoch"]
        - rows.one("variant", "static")["placement_epoch"]), strict=True),
    _beyond("E14.d", "split a prefix that dominates its shard",
            lambda rows: rows.one("variant", "balanced")["splits"], strict=True),
    _beyond("E14.e", "without losing a single committed link",
            lambda rows: -max(row["committed_links_lost"] for row in rows)),
    _beyond("E14.f", "the large tier's million-op capacity claim", lambda rows:
            min(row["link_ops"] for row in rows) - 1_000_000, tiers=("large",)),
)
