"""Tests for the ``python -m repro`` command-line interface."""

import functools
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments import ARTIFACT_ORDER, REGISTRY

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: Artifacts whose ``run`` compares a list of methods (and so takes --methods).
TAKES_METHODS = {
    "table1", "table2", "table3", "table4", "fig5", "fig6", "fig8", "ablation_conflict_stress"
}


def _task_a_rmse(text: str) -> list:
    """The task-A RMSE column of a rendered Fig. 1 table, in row order."""
    rows = [line for line in text.splitlines() if line.startswith(("hps ", "mmoe "))]
    return [float(row.rsplit("|", 1)[1]) for row in rows]


class TestCLI:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [i for i, _ in ARTIFACT_ORDER]
        assert len(lines) == 14

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["table1", "--preset", "huge"])

    def test_methods_argument_parsing(self, capsys, monkeypatch):
        captured = {}

        def fake_run_artifact(identifier, **kwargs):
            captured.update(kwargs)
            return "ok"

        monkeypatch.setattr("repro.__main__._run_artifact", fake_run_artifact)
        main(["table1", "--methods", "equal,mocograd"])
        assert captured["methods"] == ("equal", "mocograd")
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("identifier", [i for i, _ in ARTIFACT_ORDER])
    def test_run_receives_preset_seed_and_methods(self, identifier, capsys, monkeypatch):
        module, _ = REGISTRY[identifier]
        captured = {}

        @functools.wraps(module.run)
        def fake_run(**kwargs):
            captured.update(kwargs)
            return {"fake": True}

        monkeypatch.setattr(module, "run", fake_run)
        monkeypatch.setattr(module, "format_result", lambda result: f"ok {result}")
        assert main([identifier, "--preset", "full", "--seed", "7"]) == 0
        assert captured == {"preset": "full", "seed": 7}
        assert "ok {'fake': True}" in capsys.readouterr().out

        captured.clear()
        argv = [identifier, "--seed", "3", "--methods", "equal,mocograd"]
        if identifier in TAKES_METHODS:
            assert main(argv) == 0
            assert captured == {"preset": "quick", "seed": 3, "methods": ("equal", "mocograd")}
        else:
            with pytest.raises(SystemExit):
                main(argv)
            assert captured == {}
            assert "does not take --methods" in capsys.readouterr().err

    def test_fig1_matches_committed_result(self, capsys):
        """The CLI runs the same Fig. 1 code as the bench that wrote fig1.txt."""
        assert main(["fig1", "--preset", "quick"]) == 0
        committed = _task_a_rmse((RESULTS_DIR / "fig1.txt").read_text())
        assert len(committed) == 6
        assert _task_a_rmse(capsys.readouterr().out) == pytest.approx(committed, abs=1e-3)


class TestTelemetryCLI:
    def test_telemetry_flag_streams_events(self, capsys, tmp_path, monkeypatch):
        """--telemetry installs a JSONL sink that real trainers write to."""
        from repro import obs

        def fake_run_artifact(identifier, **kwargs):
            # Simulate what any experiment does: train under the ambient sinks.
            telemetry = obs.Telemetry(sinks=obs.default_sinks())
            with telemetry.span("step", method="equal"):
                pass
            telemetry.counter("train_steps_total", method="equal").inc()
            telemetry.flush()
            return "ok"

        monkeypatch.setattr("repro.__main__._run_artifact", fake_run_artifact)
        path = str(tmp_path / "out.jsonl")
        assert main(["table1", "--telemetry", path]) == 0
        events = obs.load_events(path)
        types = {e["type"] for e in events}
        assert types == {"run", "span", "metric"}
        assert events[0]["experiment"] == "table1"
        # The global sink list is restored afterwards.
        assert obs.default_sinks() == []

    def test_sink_closed_even_when_run_raises(self, tmp_path, monkeypatch):
        from repro import obs

        def boom(identifier, **kwargs):
            raise RuntimeError("experiment failed")

        monkeypatch.setattr("repro.__main__._run_artifact", boom)
        path = str(tmp_path / "out.jsonl")
        with pytest.raises(RuntimeError):
            main(["table1", "--telemetry", path])
        assert obs.default_sinks() == []
        assert obs.load_events(path)[0]["type"] == "run"

    def test_report_renders_saved_run(self, capsys, tmp_path):
        from repro import obs

        path = str(tmp_path / "out.jsonl")
        sink = obs.JsonlSink(path)
        sink.emit({"type": "run", "experiment": "table1", "preset": "quick", "ts": 0.0})
        telemetry = obs.Telemetry(sinks=[sink])
        with telemetry.span("step", method="mocograd"):
            with telemetry.span("backward"):
                pass
        telemetry.counter("balancer_pairs_total", method="mocograd").inc(4)
        telemetry.counter("balancer_conflicts_total", method="mocograd").inc(1)
        telemetry.flush()
        sink.close()

        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "step/backward" in out
        assert "mocograd" in out

    def test_train_profile_writes_ops_and_report_renders_them(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        argv = ["train", "--steps", "3", "--tasks", "2", "--telemetry", path]
        assert main(argv + ["--profile", str(tmp_path / "trace.json")]) == 0
        assert "Per-op engine profile" in capsys.readouterr().out
        assert main(["report", path, "--ops"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out and "backward walks: 3" in out

    def test_train_prints_peak_rss_and_report_shows_it(self, capsys, tmp_path):
        import re
        import resource

        def high_water_mb():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        path = str(tmp_path / "run.jsonl")
        before = high_water_mb()
        assert main(["train", "--steps", "2", "--tasks", "2", "--telemetry", path]) == 0
        printed = re.search(r"^peak RSS: ([0-9.]+) MiB$", capsys.readouterr().out, re.M)
        assert printed is not None
        # this (test) process's high-water mark, printed to 0.1 MiB
        assert before - 0.05 <= float(printed.group(1)) <= high_water_mb() + 0.05
        assert main(["report", path]) == 0
        assert f"peak RSS: {printed.group(1)} MiB" in capsys.readouterr().out

    def test_report_ops_without_profile_says_so(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert main(["train", "--steps", "2", "--tasks", "2", "--telemetry", path]) == 0
        capsys.readouterr()
        assert main(["report", path, "--ops"]) == 0
        assert "No op profile found" in capsys.readouterr().out

    def test_report_without_path_errors(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_report_takes_one_file(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("run.jsonl", "other.jsonl")]
        for path in paths:
            open(path, "w").close()
        with pytest.raises(SystemExit) as exit_info:
            main(["report", *paths])
        assert exit_info.value.code == 2


class TestTrainStreaming:
    def test_streaming_flag_reports_pipeline_counters(self, capsys, tmp_path):
        cache_dir = tmp_path / "shards"
        argv = [
            "train",
            "--streaming",
            "--steps",
            "8",
            "--tasks",
            "2",
            "--chunk-size",
            "256",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "streaming: chunk=256" in out
        # 8 batches of 64 walk both 256-row shards of 512 rows, cold cache.
        assert "misses=2" in out
        # One epoch fetches each shard once: nothing for the LRU to reuse.
        assert "shards reused=0" in out
        assert len(list(cache_dir.glob("*.shard"))) == 2
        # A second run over the same cache serves every shard from disk.
        assert main(argv) == 0
        assert "cache hits=2 misses=0, shards reused=0" in capsys.readouterr().out

    def test_streaming_defaults_skip_the_cache(self, capsys):
        assert main(["train", "--streaming", "--steps", "2", "--tasks", "2"]) == 0
        out = capsys.readouterr().out
        assert "cache hits=0 misses=0" in out


class TestServe:
    def test_serve_demo_reports_throughput_and_scenarios(self, capsys):
        argv = [
            "serve",
            "--requests", "24",
            "--rows", "2",
            "--clients", "2",
            "--scenarios", "ES,FR",
            "--max-wait-ms", "1.0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "served 24 requests × 2 rows" in out
        assert "rows/s" in out
        assert "batches:" in out
        assert "ES: 12 requests" in out
        assert "FR: 12 requests" in out

    def test_serve_checkpoint_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "model.npz"
        save_argv = [
            "serve",
            "--requests", "4",
            "--scenarios", "ES",
            "--save-checkpoint", str(path),
        ]
        assert main(save_argv) == 0
        assert path.exists()
        assert "saved self-describing checkpoint" in capsys.readouterr().out
        load_argv = [
            "serve",
            "--requests", "4",
            "--scenarios", "ES",
            "--checkpoint", str(path),
        ]
        assert main(load_argv) == 0
        assert "served 4 requests" in capsys.readouterr().out

    def test_serve_rejects_empty_scenarios(self):
        with pytest.raises(SystemExit):
            main(["serve", "--scenarios", ","])
