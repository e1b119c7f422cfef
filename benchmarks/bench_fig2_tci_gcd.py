"""Fig. 2 bench: asserts the paper's central claim — larger GCD ↔ larger TCI
(a strong positive Pearson correlation over the task-angle sweep)."""


def test_fig2_tci_gcd_correlation(regenerate):
    result = regenerate("fig2")
    # Paper shape: strong positive correlation between gradient conflict
    # and task-performance degradation.
    assert result["pearson_r"] > 0.5
    # And monotone endpoints: max-conflict GCD exceeds min-conflict GCD.
    assert result["gcd"][-1] > result["gcd"][0]
    assert result["tci"][-1] > result["tci"][0]
