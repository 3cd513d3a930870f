"""Workload generators: invariants of the web, video-store and editor workloads."""

import pytest

from repro.datalinks.control_modes import ControlMode
from repro.workloads.editors import (
    ALL_SCHEMES,
    ConcurrentEditorsWorkload,
    EditorConfig,
)
from repro.workloads.generator import (
    OperationStats,
    UniformChooser,
    WorkloadMetrics,
    ZipfChooser,
    make_content,
)
from repro.workloads.videostore import (
    SERVER as VIDEO_SERVER,
    VideoStoreConfig,
    VideoStoreWorkload,
)
from repro.workloads.webserver import (
    BlobWebSiteWorkload,
    WebServerWorkload,
    WebSiteConfig,
)


class TestGeneratorHelpers:
    def test_make_content_exact_size_and_versioned(self):
        assert len(make_content(100, tag="t", version=3)) == 100
        assert make_content(64, "a", 1) != make_content(64, "a", 2)

    def test_zipf_chooser_prefers_low_ranks(self):
        chooser = ZipfChooser(50, theta=1.2, seed=1)
        picks = chooser.choose_many(2000)
        assert all(0 <= p < 50 for p in picks)
        assert picks.count(0) > picks.count(40)

    def test_zipf_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            ZipfChooser(0)

    def test_uniform_chooser_in_range(self):
        chooser = UniformChooser(10, seed=2)
        assert all(0 <= chooser.choose() < 10 for _ in range(100))

    def test_operation_stats_percentiles(self):
        stats = OperationStats()
        for value in (1.0, 2.0, 3.0, 4.0):
            stats.record(value)
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.p50 == 2.5
        assert stats.maximum == 4.0

    def test_workload_metrics_throughput(self):
        metrics = WorkloadMetrics(started_at=0.0, finished_at=2.0)
        metrics.record("op", 0.1)
        metrics.record("op", 0.2)
        assert metrics.throughput() == 1.0
        assert metrics.summary_rows()[0]["count"] == 2
        metrics.bump("errors")
        assert metrics.counters["errors"] == 1


class TestWebWorkload:
    def test_read_mostly_mix_and_metadata_consistency(self):
        config = WebSiteConfig(pages=6, page_size=2048, operations=40,
                               read_fraction=0.9, control_mode=ControlMode.RFD)
        workload = WebServerWorkload(config).setup()
        metrics = workload.run()
        reads = metrics.stats("read_page").count
        updates = metrics.stats("update_page").count
        assert reads + updates + metrics.counters.get("update_conflicts", 0) == 40
        assert reads > updates
        # after the run every page's metadata matches the file on disk
        system = workload.system
        for row in system.host_db.select("web_pages", lock=False):
            from repro.util.urls import parse_url

            parsed = parse_url(row["body"])
            attrs = system.file_server(parsed.server).files.stat(parsed.path)
            assert attrs.size == row["body_size"]

    def test_pages_spread_across_file_servers(self):
        config = WebSiteConfig(pages=8, operations=0, file_servers=2)
        workload = WebServerWorkload(config).setup()
        servers = {url.split("/")[2] for url in workload.urls}
        assert servers == {"web0", "web1"}

    def test_blob_site_equivalent_runs(self):
        config = WebSiteConfig(pages=4, page_size=1024, operations=20)
        metrics = BlobWebSiteWorkload(config).setup().run()
        assert metrics.stats("read_page").count + metrics.stats("update_page").count == 20


class TestVideoStoreWorkload:
    def test_lifecycle_operations(self):
        config = VideoStoreConfig(movies=4, clip_size=4096, operations=30)
        workload = VideoStoreWorkload(config).setup()
        metrics = workload.run()
        assert metrics.stats("preview_clip").count > 0
        # previews always return the full clip
        assert workload.preview(1) == 4096
        workload.refresh_clip(2, version=9)
        assert workload.preview(2) == 4096
        workload.retire_movie(3)
        assert workload.browse("drama") is not None
        dlfm = workload.system.file_server(VIDEO_SERVER).dlfm
        assert dlfm.repository.linked_file("/clips/movie00003.mpg") is None

    def test_retired_movie_clip_handling_respects_on_unlink(self):
        from repro.datalinks.datalink_type import OnUnlink

        config = VideoStoreConfig(movies=2, clip_size=1024, operations=0,
                                  on_unlink=OnUnlink.DELETE)
        workload = VideoStoreWorkload(config).setup()
        workload.retire_movie(0)
        assert not workload.system.file_server(VIDEO_SERVER).files.exists(
            "/clips/movie00000.mpg")


class TestEditorsWorkload:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_scheme_completes(self, scheme):
        config = EditorConfig(editors=3, files=2, edits_per_editor=2, scheme=scheme)
        metrics = ConcurrentEditorsWorkload(config).setup().run()
        assert metrics.counters.get("completed_edits", 0) > 0
        assert "aborted_run" not in metrics.counters

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ConcurrentEditorsWorkload(EditorConfig(scheme="optimistic"))
