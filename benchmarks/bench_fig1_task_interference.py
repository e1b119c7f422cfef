"""Fig. 1 bench: asserts the paper's shape on the HPS panel — task A's RMSE
degrades as unrelated tasks join."""


def test_fig1_task_interference(regenerate):
    result = regenerate("fig1")
    hps = result["hps"]["rmse"]
    # Paper shape: joint training with conflicting genres degrades task A.
    assert max(hps[1:]) > hps[0]
