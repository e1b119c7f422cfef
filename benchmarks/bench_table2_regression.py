"""Table II — QM9 avg MAE (multi-input GCN) and MovieLens avg RMSE (BST).

Regenerates the paper's Table II: per-method across-task average error plus
ΔM against the single-task baseline for both regression suites.
"""


def test_table2_regression(regenerate):
    result = regenerate("table2")
    # Paper shape on QM9: with little data per property, sharing helps —
    # the best MTL method clearly beats STL (ΔM > 0).
    mtl_deltas = [
        values["delta_m"] for method, values in result["qm9"].items() if method != "stl"
    ]
    assert max(mtl_deltas) > 0.0
    for dataset in ("qm9", "movielens"):
        for method, values in result[dataset].items():
            assert values["avg"] > 0.0, (dataset, method)
