"""Table IV — CityScapes 2-task scene understanding (seg + depth + ΔM)."""


def test_table4_cityscapes(regenerate):
    result = regenerate("table4")
    # Paper shape: joint training helps on this strongly-related task pair —
    # the best balancing method lands a positive ΔM over STL.
    deltas = {m: d for m, d in result["delta_m"].items() if m != "stl"}
    assert max(deltas.values()) > 0.0
