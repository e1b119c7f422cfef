"""Unit tests for the bench-trend harness (benchmarks/trend.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
#: The commit every test runs at; reports written with it are current.
HEAD = "cafe123"


@pytest.fixture(scope="module")
def trend():
    """Load benchmarks/trend.py as a module (it is a script, not a package)."""
    sys.path.insert(0, str(BENCHMARKS_DIR))  # so `from benchlib import ...` resolves
    try:
        spec = importlib.util.spec_from_file_location("trend", BENCHMARKS_DIR / "trend.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCHMARKS_DIR))


@pytest.fixture(scope="module")
def benchlib(trend):
    """The ``benchlib`` module trend.py imported."""
    return sys.modules["benchlib"]


@pytest.fixture(autouse=True)
def at_head(trend, monkeypatch):
    monkeypatch.setattr(trend, "git_sha", lambda short=True: HEAD)


#: The host fingerprint the test reports carry by default.
HOST = {"cpu_model": "Test CPU 9000", "nproc": 2, "blas": "openblas 0.3",
        "openblas_num_threads": None}


def _current(trend, root: Path) -> dict[str, float]:
    return trend.collect_measured(root, HEAD)[0]


def _entry(trend, root: Path, sha="bbbbbbb", **host) -> dict:
    """A history entry holding the current reports' metrics, recorded on
    their host with ``host`` overrides."""
    _, _, _, hosts = trend.collect_measured(root, HEAD)
    hosts = {label: {**fingerprint, **host} for label, fingerprint in hosts.items()}
    return {"sha": sha, "ts": 0.0, "metrics": _current(trend, root),
            "hosts": trend.entry_hosts(hosts)}


def _write_reports(root: Path, grad_speedup=1.8, adam_speedup=6.0, sha=HEAD, host=HOST):
    """Four reports; ``host=None`` writes them without a host fingerprint."""
    fingerprint = host or {}
    (root / "BENCH_grad_collection.json").write_text(
        json.dumps(
            {
                "benchmark": "grad_collection",
                "schema": 2,
                "git_sha": sha,
                **fingerprint,
                "results": [
                    {"num_tasks": 2, "speedup": 1.2},
                    {"num_tasks": 8, "speedup": grad_speedup},
                ],
            }
        )
    )
    (root / "BENCH_balancers.json").write_text(
        json.dumps(
            {
                "benchmark": "balancers",
                "schema": 2,
                "git_sha": sha,
                **fingerprint,
                "results": [
                    {"balancer": "mocograd", "num_tasks": 8, "speedup": 2.0,
                     "gated": True},
                    {"balancer": "mocograd", "num_tasks": 2, "speedup": 0.9,
                     "gated": False},
                    # the same diagnostic row as written by older reports
                    {"balancer": "pcgrad", "num_tasks": 4, "speedup": 1.0,
                     "vectorized_kernel": False},
                ],
                "mocograd_ml9": {"oracle_seconds": 0.03, "seconds": 0.015, "speedup": 2.0},
            }
        )
    )
    (root / "BENCH_optim.json").write_text(
        json.dumps(
            {
                "benchmark": "optim",
                "schema": 2,
                "git_sha": sha,
                **fingerprint,
                "results": [{"optimizer": "adam", "speedup": adam_speedup}],
                "train_step": {"speedup": 1.2},
            }
        )
    )
    (root / "BENCH_streaming.json").write_text(
        json.dumps(
            {
                "benchmark": "streaming",
                "schema": 2,
                "git_sha": sha,
                **fingerprint,
                "results": [
                    {"mode": "eager", "speedup": 1.0},
                    {"mode": "streaming", "speedup": 1.1},
                    {"mode": "cache_warm", "speedup": 2.3},
                ],
                "movielens_shard": {"oracle_seconds": 0.5, "seconds": 0.1, "speedup": 5.0},
            }
        )
    )


class TestExtraction:
    def test_labels_and_skipped_loop_dispatch_rows(self, trend, tmp_path):
        _write_reports(tmp_path)
        metrics = _current(trend, tmp_path)
        assert metrics == {
            "grad_collection/K2": 1.2,
            "grad_collection/K8": 1.8,
            "balancers/mocograd/K8": 2.0,  # ungated diagnostic rows skipped
            "balancers/mocograd_ml9": 2.0,
            "optim/adam": 6.0,  # an old report's train_step row is no metric
            "streaming/streaming": 1.1,  # eager and an old report's cache rows are no metric
            "streaming/movielens_shard": 5.0,
        }

    def test_serve_report_tracks_only_fast_paths(self, trend, tmp_path):
        (tmp_path / "BENCH_serve.json").write_text(
            json.dumps(
                {
                    "benchmark": "serve",
                    "schema": 2,
                    "git_sha": HEAD,
                    "results": [
                        {"mode": "sequential", "speedup": 1.0},
                        {"mode": "batched", "speedup": 3.5},
                        {"mode": "graph", "speedup": 1.0},
                        {"mode": "no_grad", "speedup": 1.6},
                    ],
                }
            )
        )
        metrics = _current(trend, tmp_path)
        assert metrics == {"serve/batched": 3.5, "serve/no_grad": 1.6}

    def test_trend_file_and_garbage_ignored(self, trend, tmp_path):
        _write_reports(tmp_path)
        (tmp_path / "BENCH_trend.json").write_text('{"schema": 1, "history": []}')
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        metrics = _current(trend, tmp_path)
        assert "optim/adam" in metrics and len(metrics) == 7


class TestGate:
    def test_first_run_records_baseline(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        assert trend.main(["--root", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "BENCH_trend.json").read_text())
        assert data["schema"] == trend.TREND_SCHEMA
        assert len(data["history"]) == 1
        assert data["history"][0]["metrics"]["optim/adam"] == 6.0
        assert "recording first entry" in capsys.readouterr().out

    def test_passes_when_numbers_hold(self, trend, tmp_path):
        _write_reports(tmp_path)
        history = [{"sha": "bbbbbbb", "ts": 0.0,
                    "metrics": _current(trend, tmp_path)}]
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": history})
        )
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0

    def test_fails_on_injected_regression(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": [_entry(trend, tmp_path)]})
        )
        # Inject a synthetic regression: adam drops 6.0x -> 2.0x (-67%).
        _write_reports(tmp_path, adam_speedup=2.0)
        assert trend.main(["--root", str(tmp_path), "--check"]) == 1
        err = capsys.readouterr().err
        assert "optim/adam" in err and "FAIL" in err
        # --check never rewrites history, even on failure.
        data = json.loads((tmp_path / "BENCH_trend.json").read_text())
        assert data["history"][0]["metrics"]["optim/adam"] == 6.0

    def test_small_drift_within_threshold_passes(self, trend, tmp_path):
        _write_reports(tmp_path, adam_speedup=6.0)
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": [
                {"sha": "bbbbbbb", "ts": 0.0,
                 "metrics": _current(trend, tmp_path)}
            ]})
        )
        _write_reports(tmp_path, adam_speedup=5.0)  # -17% < default 30% gate
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0

    def test_tighter_threshold_flags_same_drift(self, trend, tmp_path):
        _write_reports(tmp_path, adam_speedup=6.0)
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": [_entry(trend, tmp_path)]})
        )
        _write_reports(tmp_path, adam_speedup=5.0)
        assert trend.main(["--root", str(tmp_path), "--check", "--threshold", "0.1"]) == 1

    def test_reruns_at_same_sha_replace_entry(self, trend, tmp_path):
        _write_reports(tmp_path)
        assert trend.main(["--root", str(tmp_path)]) == 0
        assert trend.main(["--root", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "BENCH_trend.json").read_text())
        assert [e["sha"] for e in data["history"]] == [HEAD]

    def test_no_reports_is_an_error(self, trend, tmp_path):
        assert trend.main(["--root", str(tmp_path)]) == 2

    def test_new_and_missing_metrics_do_not_fail(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": [
                {"sha": "bbbbbbb", "ts": 0.0,
                 "metrics": {"optim/adam": 6.0, "optim/retired": 2.0}}
            ]})
        )
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "new" in out and "missing" in out


class TestHistoryHygiene:
    def test_unknown_schema_starts_fresh(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        (tmp_path / "BENCH_trend.json").write_text('{"schema": 99, "history": []}')
        assert trend.main(["--root", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "BENCH_trend.json").read_text())
        assert data["schema"] == trend.TREND_SCHEMA and len(data["history"]) == 1

    def test_history_is_capped(self, trend, tmp_path):
        _write_reports(tmp_path)
        history = [
            {"sha": f"sha{i}", "ts": float(i), "metrics": {"optim/adam": 6.0}}
            for i in range(trend.MAX_HISTORY + 10)
        ]
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": history})
        )
        assert trend.main(["--root", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "BENCH_trend.json").read_text())
        assert len(data["history"]) == trend.MAX_HISTORY
        assert data["history"][-1]["sha"] == HEAD


class TestMeasuredAtHead:
    def test_stale_report_is_printed_not_recorded(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)  # all current ...
        (tmp_path / "BENCH_grad_collection.json").write_text(
            json.dumps(  # ... except one file left over from an older commit
                {
                    "benchmark": "grad_collection",
                    "schema": 2,
                    "git_sha": "6618cfb",
                    "results": [{"num_tasks": 8, "speedup": 1.8}],
                }
            )
        )
        assert trend.main(["--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "grad_collection/K8" in out and "stale 6618cfb" in out
        recorded = json.loads((tmp_path / "BENCH_trend.json").read_text())["history"]
        assert [entry["sha"] for entry in recorded] == [HEAD]
        assert "optim/adam" in recorded[0]["metrics"]
        assert "grad_collection/K8" not in recorded[0]["metrics"]

    def test_stale_report_is_not_gated(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": [
                {"sha": "bbbbbbb", "ts": 0.0, "metrics": _current(trend, tmp_path)}
            ]})
        )
        _write_reports(tmp_path, adam_speedup=2.0, sha="bbbbbbb")
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0
        assert "stale bbbbbbb" in capsys.readouterr().out

    def test_only_stale_reports_record_nothing(self, trend, tmp_path, capsys):
        _write_reports(tmp_path, sha="e9631f2")
        assert trend.main(["--root", str(tmp_path)]) == 0
        assert "nothing recorded" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_trend.json").exists()

    @pytest.mark.parametrize(
        "recorded, head, fresh",
        [
            ("cafe123", "cafe123", True),
            ("cafe1234", "cafe123", True),  # abbreviations of one commit
            ("cafe124", "cafe123", False),
            ("unknown", "unknown", False),
            (None, HEAD, False),  # a report without provenance
        ],
    )
    def test_measured_at(self, trend, recorded, head, fresh):
        report = {} if recorded is None else {"git_sha": recorded}
        assert trend.measured_at(report, head) is fresh

    def test_same_source_counts_as_measured(self, trend, tmp_path, capsys):
        """A report measured on the tree before it was committed names the
        parent commit but the same code: it is current, not stale."""
        _write_reports(tmp_path, sha="e9631f2")
        path = tmp_path / "BENCH_optim.json"
        report = json.loads(path.read_text())
        report["source_sha1"] = trend.source_digest()
        path.write_text(json.dumps(report))
        assert _current(trend, tmp_path) == {"optim/adam": 6.0}
        report["source_sha1"] = "0" * 40
        path.write_text(json.dumps(report))
        assert _current(trend, tmp_path) == {}


class TestHostFingerprint:
    def test_provenance_records_the_host(self, benchlib, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        block = benchlib.provenance()
        assert block["cpu_model"] and block["blas"]
        assert isinstance(block["nproc"], int) and block["nproc"] >= 1
        assert block["openblas_num_threads"] == "1"
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert benchlib.provenance()["openblas_num_threads"] is None

    def test_each_report_is_listed_with_sha_and_host(self, trend, tmp_path, capsys):
        _write_reports(tmp_path, host=None)  # written before the fingerprint existed
        path = tmp_path / "BENCH_optim.json"
        report = json.loads(path.read_text())
        report.update(HOST)
        path.write_text(json.dumps(report))
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert (
            f"BENCH_optim.json  {HEAD}  Test CPU 9000, nproc 2, openblas 0.3, "
            "OPENBLAS_NUM_THREADS unset" in out
        )
        assert f"BENCH_balancers.json  {HEAD}  host not recorded" in out
        # the older reports are still read and gated
        assert "balancers/mocograd/K8" in out


class TestHostAwareGate:
    """A speedup is gated only against a baseline from the same host."""

    def _history(self, tmp_path, entry):
        (tmp_path / "BENCH_trend.json").write_text(
            json.dumps({"schema": 1, "history": [entry]})
        )

    def test_regression_on_the_same_host_fails(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        self._history(tmp_path, _entry(trend, tmp_path))
        _write_reports(tmp_path, adam_speedup=2.0)
        assert trend.main(["--root", str(tmp_path), "--check"]) == 1
        out, err = capsys.readouterr()
        assert "REGRESSED" in out and "optim/adam" in err

    def test_same_drop_against_another_host_is_listed_and_passes(
        self, trend, tmp_path, capsys
    ):
        _write_reports(tmp_path)
        self._history(tmp_path, _entry(trend, tmp_path, nproc=1))
        _write_reports(tmp_path, adam_speedup=2.0)
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0
        out, err = capsys.readouterr()
        row = next(line for line in out.splitlines() if line.startswith("optim/adam"))
        assert "-66.7% other host" in row
        assert "REGRESSED" not in out and "FAIL" not in err

    def test_baseline_without_hosts_is_not_gated(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        entry = _entry(trend, tmp_path)
        del entry["hosts"]  # an entry recorded before hosts were
        self._history(tmp_path, entry)
        _write_reports(tmp_path, adam_speedup=2.0)
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0
        assert "other host" in capsys.readouterr().out

    def test_report_without_fingerprint_is_not_gated(self, trend, tmp_path, capsys):
        _write_reports(tmp_path)
        self._history(tmp_path, _entry(trend, tmp_path))
        _write_reports(tmp_path, adam_speedup=2.0, host=None)
        assert trend.main(["--root", str(tmp_path), "--check"]) == 0
        assert "other host" in capsys.readouterr().out

    def test_recorded_entry_names_each_metrics_host(self, trend, tmp_path):
        _write_reports(tmp_path)
        path = tmp_path / "BENCH_optim.json"
        report = json.loads(path.read_text())
        for field in trend.HOST_FIELDS:
            del report[field]
        path.write_text(json.dumps(report))
        assert trend.main(["--root", str(tmp_path)]) == 0
        entry = json.loads((tmp_path / "BENCH_trend.json").read_text())["history"][-1]
        fingerprinted = sorted(set(entry["metrics"]) - {"optim/adam"})
        assert entry["hosts"] == [{**HOST, "metrics": fingerprinted}]
        assert trend.metric_hosts(entry) == dict.fromkeys(fingerprinted, HOST)
