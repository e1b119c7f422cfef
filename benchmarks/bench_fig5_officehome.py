"""Fig. 5 — per-domain accuracy on Office-Home (11 methods + STL)."""

from repro.experiments import fig5_officehome as experiment


def test_fig5_officehome(regenerate, preset):
    result = regenerate("fig5")
    num_classes = experiment.PRESETS[preset]["num_classes"]
    chance = 1.0 / num_classes
    for method, avg in result["avg_accuracy"].items():
        assert avg > chance, (method, avg)
