"""Table III — NYUv2 scene understanding (seg / depth / normals, 9 metrics + ΔM)."""


def test_table3_nyuv2(regenerate):
    result = regenerate("table3")
    for method, metrics in result["metrics"].items():
        assert 0.0 <= metrics["segmentation"]["miou"] <= 1.0, method
        assert metrics["depth"]["abs_err"] >= 0.0, method
        assert 0.0 <= metrics["normal"]["within_30"] <= 1.0, method
        # Ordering invariant of the within-t° columns.
        assert (
            metrics["normal"]["within_11.25"]
            <= metrics["normal"]["within_22.5"]
            <= metrics["normal"]["within_30"]
        ), method
