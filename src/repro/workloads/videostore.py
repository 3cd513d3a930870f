"""The video-merchant scenario from the paper's introduction.

"A video merchant stores attributes associated with movies, such as cast,
category, inventory and price, in an RDBMS that could be used for search and
analysis.  In addition, (s)he stores clips of the same movies as files in the
file system for preview purposes.  Later, if the merchant stops selling a
movie, both the clip, stored in the file system, and the metadata, stored in
the RDBMS, for the movie should be deleted or archived." (Section 1)

The workload exercises the whole life cycle: add a movie (insert + link),
browse the catalogue (SQL), preview clips (file-system reads), refresh clips
in place (the paper's new capability), and retire movies (delete + unlink).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.system import DataLinksSystem
from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import DatalinkOptions, OnUnlink, datalink_column
from repro.storage.schema import Column, TableSchema
from repro.storage.values import DataType
from repro.workloads.generator import UniformChooser, WorkloadMetrics, make_content

MOVIES_TABLE = "movies"
MERCHANT_UID = 2101
CUSTOMER_UID = 3101
#: The file server holding the preview clips.
SERVER = "videofs"
#: Seed of the movie schedule.
SEED = 7
#: Of every 100 operations, the first 80 preview a clip, the next 10
#: refresh one in place and the rest browse the catalogue.
PREVIEW_FRACTION = 0.80
REFRESH_FRACTION = 0.10


@dataclass
class VideoStoreConfig:
    movies: int = 20
    clip_size: int = 64 * 1024
    operations: int = 200
    control_mode: ControlMode = ControlMode.RDD
    on_unlink: OnUnlink = OnUnlink.RESTORE


class VideoStoreWorkload:
    """Catalogue + clips with database-managed updates."""

    def __init__(self, config: VideoStoreConfig, system: DataLinksSystem | None = None):
        self.config = config
        self.system = system if system is not None else DataLinksSystem()
        self.merchant = None
        self.customer = None
        self._next_movie_id = 0

    # -------------------------------------------------------------------- setup --
    def setup(self) -> "VideoStoreWorkload":
        config = self.config
        if SERVER not in self.system.file_servers:
            self.system.add_file_server(SERVER)
        self.system.create_table(TableSchema(MOVIES_TABLE, [
            Column("movie_id", DataType.INTEGER, nullable=False),
            Column("title", DataType.TEXT, nullable=False),
            Column("category", DataType.TEXT),
            Column("price", DataType.REAL),
            Column("inventory", DataType.INTEGER, default=0),
            datalink_column("clip", DatalinkOptions(control_mode=config.control_mode,
                                                    on_unlink=config.on_unlink)),
            Column("clip_size", DataType.INTEGER),
            Column("clip_mtime", DataType.TIMESTAMP),
        ], primary_key=("movie_id",)))
        self.system.register_metadata_columns(MOVIES_TABLE, "clip",
                                              "clip_size", "clip_mtime")
        self.merchant = self.system.session("merchant", uid=MERCHANT_UID)
        self.customer = self.system.session("customer", uid=CUSTOMER_UID)
        for _ in range(config.movies):
            self.add_movie()
        self.system.run_archiver()
        return self

    # ----------------------------------------------------------------- operations --
    def add_movie(self) -> int:
        """Insert a new movie and link its preview clip."""

        config = self.config
        movie_id = self._next_movie_id
        self._next_movie_id += 1
        path = f"/clips/movie{movie_id:05d}.mpg"
        content = make_content(config.clip_size, tag=f"clip{movie_id}", version=0)
        url = self.merchant.put_file(SERVER, path, content)
        self.merchant.insert(MOVIES_TABLE, {
            "movie_id": movie_id,
            "title": f"Movie {movie_id}",
            "category": ("drama", "comedy", "action")[movie_id % 3],
            "price": 9.99 + (movie_id % 5),
            "inventory": 10,
            "clip": url,
            "clip_size": len(content),
            "clip_mtime": 0.0,
        })
        return movie_id

    def browse(self, category: str) -> list[dict]:
        """Catalogue search by category (pure SQL path)."""

        return self.customer.select(MOVIES_TABLE, {"category": category}, lock=False)

    def preview(self, movie_id: int) -> int:
        """Read a movie's clip through the file-system path; returns byte count."""

        url = self.customer.get_datalink(MOVIES_TABLE, {"movie_id": movie_id}, "clip",
                                         access="read")
        if url is None:
            return 0
        return len(self.customer.read_url(url))

    def refresh_clip(self, movie_id: int, version: int) -> None:
        """Replace a movie's clip in place under database control."""

        config = self.config
        url = self.merchant.get_datalink(MOVIES_TABLE, {"movie_id": movie_id}, "clip",
                                         access="write")
        content = make_content(config.clip_size, tag=f"clip{movie_id}", version=version)
        with self.merchant.update_file(url, truncate=True) as update:
            update.replace(content)
        self.system.run_archiver()

    def retire_movie(self, movie_id: int) -> None:
        """Stop selling a movie: delete the row, which unlinks the clip."""

        self.merchant.delete(MOVIES_TABLE, {"movie_id": movie_id})

    # ----------------------------------------------------------------------- run --
    def run(self) -> WorkloadMetrics:
        config = self.config
        clock = self.system.clock
        metrics = WorkloadMetrics(started_at=clock.now())
        chooser = UniformChooser(config.movies, SEED)
        movie_schedule = chooser.choose_many(config.operations)
        version = 1
        for op_index in range(config.operations):
            movie_id = movie_schedule[op_index]
            roll = (op_index % 100) / 100.0
            if roll < PREVIEW_FRACTION:
                with clock.measure() as timer:
                    self.preview(movie_id)
                metrics.record("preview_clip", timer.elapsed)
            elif roll < PREVIEW_FRACTION + REFRESH_FRACTION:
                with clock.measure() as timer:
                    self.refresh_clip(movie_id, version)
                metrics.record("refresh_clip", timer.elapsed)
                version += 1
            else:
                with clock.measure() as timer:
                    self.browse(("drama", "comedy", "action")[op_index % 3])
                metrics.record("browse", timer.elapsed)
        metrics.finished_at = clock.now()
        return metrics
