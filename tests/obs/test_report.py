"""Unit tests for JSONL loading and run-report summarization."""

import json

import numpy as np
import pytest

from repro.obs import (
    InMemorySink,
    JsonlSink,
    Telemetry,
    format_report,
    load_events,
    summarize_events,
)


def write_jsonl(path, events):
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


class TestLoadEvents:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        events = [{"type": "run", "experiment": "table1"}, {"type": "span", "path": "step"}]
        write_jsonl(path, events)
        assert load_events(path) == events

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "run"}\n\n\n{"type": "span", "path": "s", "seconds": 1}\n')
        assert len(load_events(path)) == 2

    def test_torn_final_line_dropped(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "run"}\n{"type": "sp')  # killed mid-write
        assert load_events(path) == [{"type": "run"}]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('not json\n{"type": "run"}\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_events(path)


class TestSummarize:
    def test_span_statistics(self):
        events = [
            {"type": "span", "path": "step", "seconds": s} for s in (0.1, 0.2, 0.3)
        ]
        summary = summarize_events(events)
        stats = summary["spans"]["step"]
        assert stats["count"] == 3
        assert stats["total_seconds"] == pytest.approx(0.6)
        assert stats["median_seconds"] == pytest.approx(0.2)

    def test_counters_take_last_snapshot_per_tid_then_sum(self):
        events = [
            # tid 1 flushed twice (cumulative!): only the last snapshot counts.
            {"type": "metric", "kind": "counter", "name": "c", "labels": {}, "value": 5, "tid": 1},
            {"type": "metric", "kind": "counter", "name": "c", "labels": {}, "value": 9, "tid": 1},
            # A second trainer adds its own total.
            {"type": "metric", "kind": "counter", "name": "c", "labels": {}, "value": 2, "tid": 2},
        ]
        summary = summarize_events(events)
        assert summary["counters"]["c"][()] == pytest.approx(11.0)

    def test_gauges_keep_latest_by_timestamp(self):
        events = [
            {"type": "metric", "kind": "gauge", "name": "g", "labels": {}, "value": 1.0, "ts": 10},
            {"type": "metric", "kind": "gauge", "name": "g", "labels": {}, "value": 2.0, "ts": 20},
        ]
        summary = summarize_events(events)
        assert summary["gauges"][("g", ())] == pytest.approx(2.0)


class TestFormatReport:
    def test_renders_spans_and_conflicts(self):
        events = [
            {"type": "run", "experiment": "table1", "preset": "quick"},
            {"type": "span", "path": "step", "seconds": 0.2},
            {"type": "span", "path": "step/backward", "seconds": 0.1},
            {
                "type": "metric",
                "kind": "counter",
                "name": "balancer_pairs_total",
                "labels": {"method": "mocograd"},
                "value": 10,
                "tid": 1,
            },
            {
                "type": "metric",
                "kind": "counter",
                "name": "balancer_conflicts_total",
                "labels": {"method": "mocograd"},
                "value": 4,
                "tid": 1,
            },
            {
                "type": "metric",
                "kind": "counter",
                "name": "mocograd_calibrations_total",
                "labels": {},
                "value": 3,
                "tid": 1,
            },
        ]
        report = format_report(summarize_events(events))
        assert "table1" in report
        assert "step/backward" in report
        assert "mocograd" in report
        assert "0.400" in report  # conflict fraction
        assert "calibrations applied: 3" in report

    def test_empty_stream(self):
        report = format_report(summarize_events([]))
        assert "No spans recorded" in report

    def test_renders_streaming_pipeline_section(self):
        def counter(name, value):
            return {
                "type": "metric",
                "kind": "counter",
                "name": name,
                "labels": {},
                "value": value,
                "tid": 1,
            }

        events = [
            counter("stream_cache_hits_total", 5),
            counter("stream_cache_misses_total", 3),
            counter("stream_shard_reuse_total", 4),
        ]
        report = format_report(summarize_events(events))
        assert "Streaming data pipeline" in report
        assert "cache hits: 5" in report
        assert "cache misses: 3" in report
        assert "shards reused: 4" in report

    def test_streaming_section_shows_reuse_alone(self):
        # A two-shard stream's later epochs never touch the mmap cache:
        # only reuse is counted.
        event = {
            "type": "metric", "kind": "counter", "name": "stream_shard_reuse_total",
            "labels": {}, "value": 2, "tid": 1,
        }
        report = format_report(summarize_events([event]))
        assert "Streaming data pipeline" in report
        assert "shards reused: 2" in report
        assert "cache hits: 0" in report

    def test_streaming_section_absent_without_traffic(self):
        report = format_report(
            summarize_events([{"type": "span", "path": "step", "seconds": 0.1}])
        )
        assert "Streaming data pipeline" not in report

    def test_renders_process_peak_rss(self):
        gauge = {
            "type": "metric", "kind": "gauge", "name": "process_peak_rss_mb",
            "labels": {}, "value": 105.25, "tid": 1, "ts": 1.0,
        }
        report = format_report(summarize_events([gauge]))
        assert "Process\n  peak RSS: 105.2 MiB" in report

    def test_process_section_absent_without_the_gauge(self):
        report = format_report(
            summarize_events([{"type": "span", "path": "step", "seconds": 0.1}])
        )
        assert "peak RSS" not in report


class TestEndToEndRoundtrip:
    def test_telemetry_to_file_to_report(self, tmp_path):
        """Telemetry → JsonlSink → load → summarize → format."""
        path = str(tmp_path / "run.jsonl")
        sink = JsonlSink(path)
        telemetry = Telemetry(sinks=[sink])
        with telemetry.span("step", method="equal"):
            with telemetry.span("backward"):
                pass
        telemetry.counter("balancer_pairs_total", method="equal").inc(3)
        telemetry.counter("balancer_conflicts_total", method="equal").inc(1)
        telemetry.flush()
        sink.close()

        summary = summarize_events(load_events(path))
        assert summary["spans"]["step"]["count"] == 1
        assert summary["spans"]["step/backward"]["count"] == 1
        report = format_report(summary)
        assert "Per-phase timing" in report
        assert "equal" in report

    def test_memory_and_jsonl_sinks_agree(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        memory = InMemorySink()
        jsonl = JsonlSink(path)
        telemetry = Telemetry(sinks=[memory, jsonl])
        with telemetry.span("step"):
            pass
        telemetry.flush()
        jsonl.close()
        from_file = load_events(path)
        assert len(from_file) == len(memory.events)
        assert [e["type"] for e in from_file] == [e["type"] for e in memory.events]


def _histogram_event(tid, count, total, bucket_counts, bounds=(0.1, 1.0, float("inf"))):
    return {
        "type": "metric", "kind": "histogram", "name": "latency",
        "labels": {"op": "step"}, "tid": tid, "count": count, "sum": total,
        "buckets": [{"le": le, "count": c} for le, c in zip(bounds, bucket_counts)],
    }


class TestHistogramPooling:
    def test_matching_bounds_pool_elementwise(self):
        summary = summarize_events([
            _histogram_event(1, 3, 0.6, [1, 2, 0]),
            _histogram_event(2, 2, 1.4, [0, 1, 1]),
        ])
        stats = summary["histograms"]["latency"][(("op", "step"),)]
        assert stats["count"] == 5
        assert stats["sum"] == pytest.approx(2.0)
        assert stats["mean"] == pytest.approx(0.4)
        assert [b["count"] for b in stats["buckets"]] == [1, 3, 1]

    def test_repeated_snapshots_from_one_tid_keep_last(self):
        # Histogram snapshots are cumulative per instance, like counters.
        summary = summarize_events([
            _histogram_event(1, 3, 0.6, [1, 2, 0]),
            _histogram_event(1, 5, 1.0, [2, 3, 0]),
        ])
        stats = summary["histograms"]["latency"][(("op", "step"),)]
        assert stats["count"] == 5
        assert [b["count"] for b in stats["buckets"]] == [2, 3, 0]

    def test_mismatched_bounds_drop_buckets_keep_totals(self):
        summary = summarize_events([
            _histogram_event(1, 3, 0.6, [1, 2, 0]),
            _histogram_event(2, 2, 1.4, [0, 1, 1], bounds=(0.5, 2.0, float("inf"))),
        ])
        stats = summary["histograms"]["latency"][(("op", "step"),)]
        assert stats["count"] == 5
        assert stats["sum"] == pytest.approx(2.0)
        assert stats["buckets"] is None

    def test_report_renders_pooled_histograms(self):
        summary = summarize_events([_histogram_event(1, 3, 0.6, [1, 2, 0])])
        report = format_report(summary)
        assert "Histograms" in report
        assert "latency" in report


class TestOps:
    def _event(self, tid, linear_calls, walks=1):
        return {
            "type": "ops",
            "tid": tid,
            "forward": {"linear": [linear_calls, 0.002, 64], "relu": [1, 0.001, 32]},
            "backward": {"linear": [linear_calls, 0.003, 128]},
            "walks": [walks, 0.004],
        }

    def test_last_snapshot_per_tid_then_sum(self):
        from repro.obs import summarize_ops

        events = [self._event(1, 2), self._event(1, 5), self._event(2, 1), {"type": "span"}]
        summary = summarize_ops(events)
        assert summary["forward"]["linear"] == [6, 0.004, 128]
        assert summary["backward"]["linear"] == [6, 0.006, 256]
        assert summary["walks"] == [2, 0.008]

    def test_format_sorts_by_time_and_reports_walk_overhead(self):
        from repro.obs import format_ops, summarize_ops

        text = format_ops(summarize_ops([self._event(1, 3)]))
        rows = [line.split()[:2] for line in text.splitlines()[3:6]]
        assert rows == [["linear", "backward"], ["linear", "forward"], ["relu", "forward"]]
        assert "1.000 ms outside the adjoints" in text

    def test_empty_stream(self):
        from repro.obs import format_ops, summarize_ops

        assert format_ops(summarize_ops([])).startswith("No op profile found")

    def test_faults_per_walk_from_three_field_walks(self):
        from repro.obs import format_ops, summarize_ops

        first, second = self._event(1, 2, walks=3), self._event(2, 1, walks=1)
        first["walks"] = [3, 0.004, 600]
        second["walks"] = [1, 0.004, 200]
        summary = summarize_ops([first, second])
        assert summary["walks"] == [4, 0.008, 800]
        assert "minor page faults per walk: 200.0" in format_ops(summary)

    def test_two_field_walks_still_render_without_faults(self):
        from repro.obs import format_ops, summarize_ops

        new = self._event(2, 1)
        new["walks"] = [1, 0.004, 200]
        for events in ([self._event(1, 3)], [self._event(1, 3), new]):
            summary = summarize_ops(events)
            assert len(summary["walks"]) == 2
            text = format_ops(summary)
            assert "backward walks:" in text and "page faults" not in text

    def test_profile_snapshot_renders_faults(self):
        from repro.nn import OpProfile, Tensor
        from repro.obs import format_ops

        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with OpProfile() as ops:
            (x * x).sum().backward()
        text = format_ops(ops.to_dict())
        assert "backward walks: 1" in text and "minor page faults per walk:" in text
