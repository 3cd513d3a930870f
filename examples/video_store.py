#!/usr/bin/env python3
"""The video merchant from the paper's introduction.

Movie attributes (cast, category, inventory, price) live in the relational
database; preview clips live as files on a file server.  DataLinks keeps the
two consistent: adding a movie links its clip, refreshing a clip is an
in-place update under transaction control, and retiring a movie removes both
the row and the database's control over the file in one transaction.

Run with:  python examples/video_store.py
"""

from repro.datalinks.control_modes import ControlMode
from repro.datalinks.datalink_type import OnUnlink
from repro.workloads.videostore import SERVER, VideoStoreConfig, VideoStoreWorkload


def main() -> None:
    config = VideoStoreConfig(
        movies=8,
        clip_size=256 * 1024,
        operations=60,
        control_mode=ControlMode.RDD,     # full database control over the clips
        on_unlink=OnUnlink.RESTORE,
    )
    workload = VideoStoreWorkload(config).setup()
    system = workload.system

    print(f"catalogue: {len(workload.browse('drama')) + len(workload.browse('comedy')) + len(workload.browse('action'))} movies")

    # A customer previews a clip (read token handed out by the database).
    nbytes = workload.preview(2)
    print(f"customer previewed movie 2: {nbytes // 1024} KiB streamed from the file server")

    # The merchant refreshes the clip in place; metadata follows automatically.
    workload.refresh_clip(2, version=1)
    row = system.host_db.select_one("movies", {"movie_id": 2}, lock=False)
    print(f"clip 2 refreshed in place; catalogue metadata now reports "
          f"{row['clip_size'] // 1024} KiB, mtime {row['clip_mtime']:.3f}")

    # Retiring a movie removes the row and releases the clip in one transaction.
    workload.retire_movie(5)
    dlfm = system.file_server(SERVER).dlfm
    print(f"movie 5 retired; clip still on disk: "
          f"{system.file_server(SERVER).files.exists('/clips/movie00005.mpg')}, "
          f"still linked: {dlfm.repository.linked_file('/clips/movie00005.mpg') is not None}")

    # Run the mixed workload and report per-operation latency.
    metrics = workload.run()
    print("\nworkload results (simulated milliseconds):")
    for row in metrics.summary_rows():
        print(f"  {row['operation']:<14} count={row['count']:<4} "
              f"mean={row['mean_ms']:>8.3f} ms   p95={row['p95_ms']:>8.3f} ms")
    print(f"simulated elapsed time: {metrics.elapsed:.2f} s, "
          f"{metrics.throughput():.1f} operations/simulated second")


if __name__ == "__main__":
    main()
