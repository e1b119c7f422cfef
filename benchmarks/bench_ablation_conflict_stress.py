"""Conflict-stress bench: asserts MoCoGrad's RMSE beats plain joint training
and PCGrad — the paper's core claim in its cleanest setting."""


def test_ablation_conflict_stress(regenerate):
    averages = regenerate("ablation_conflict_stress")
    assert averages["mocograd"][0] < averages["equal"][0]
    assert averages["mocograd"][0] < averages["pcgrad"][0]
