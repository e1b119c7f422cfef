"""Fig. 8 bench: asserts Nash-MTL is the slowest (inner equilibrium solve each
step) and MoCoGrad stays comparable to PCGrad/GradVac — cheap enough for
practice."""


def test_fig8_backward_time(regenerate):
    result = regenerate("fig8")
    times = result["seconds_per_step"]
    projection_like = max(times["pcgrad"], times["gradvac"], times["mocograd"])
    assert times["nashmtl"] > times["equal"]
    # MoCoGrad stays in the cheap family: within 3× of PCGrad/GradVac
    # (median-of-steps timing; margin absorbs scheduler noise).
    assert times["mocograd"] <= 3.0 * max(times["pcgrad"], times["gradvac"])
    assert projection_like < times["nashmtl"] * 5  # sanity on scale
