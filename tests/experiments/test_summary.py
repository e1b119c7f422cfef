"""Tests for the results summarizer."""

import re

from repro.experiments import ARTIFACT_ORDER, REGISTRY, missing_results, summarize_results


class TestSummary:
    def test_missing_results_on_empty_dir(self, tmp_path):
        missing = missing_results(tmp_path)
        assert set(missing) == {identifier for identifier, _ in ARTIFACT_ORDER}

    def test_generated_files_detected(self, tmp_path):
        (tmp_path / "table1.txt").write_text("Table I rows\n")
        missing = missing_results(tmp_path)
        assert "table1" not in missing
        assert "table2" in missing

    def test_summary_includes_contents_in_order(self, tmp_path):
        (tmp_path / "fig1.txt").write_text("FIG1 CONTENT\n")
        (tmp_path / "table4.txt").write_text("TABLE4 CONTENT\n")
        report = summarize_results(tmp_path)
        assert "FIG1 CONTENT" in report
        assert "TABLE4 CONTENT" in report
        assert report.index("FIG1 CONTENT") < report.index("TABLE4 CONTENT")

    def test_missing_marker_rendered(self, tmp_path):
        report = summarize_results(tmp_path)
        assert "not generated" in report

    def test_missing_hint_names_a_registered_artifact(self, tmp_path):
        report = summarize_results(tmp_path)
        hinted = re.findall(r"`python -m repro (\S+)`", report)
        assert sorted(hinted) == sorted(REGISTRY)

    def test_missing_sections_omittable(self, tmp_path):
        report = summarize_results(tmp_path, include_missing=False)
        assert "not generated" not in report

    def test_artifact_order_matches_paper(self):
        identifiers = [identifier for identifier, _ in ARTIFACT_ORDER]
        assert identifiers.index("fig1") < identifiers.index("table1")
        assert identifiers.index("table4") < identifiers.index("fig5")
        assert identifiers.index("fig9") < identifiers.index("ablation_conflict_stress")
