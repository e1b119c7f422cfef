"""Table I — AliExpress AUC (2 × 4 tasks, 11 methods + STL + ΔM).

Regenerates the paper's Table I rows on the synthetic AliExpress scenarios.
Run with ``-s`` to see the table inline; it is also written to
``benchmarks/results/table1.txt``.
"""


def test_table1_aliexpress(regenerate):
    result = regenerate("table1")
    # Sanity on the regenerated rows: AUCs are meaningful (> chance) for
    # every method — the table is measuring trained models, not noise.
    for method, aucs in result["auc"].items():
        assert all(0.5 < value <= 1.0 for value in aucs.values()), method
