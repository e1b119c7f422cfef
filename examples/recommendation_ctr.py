"""Multi-scenario CTR/CTCVR recommendation — a mini Table I.

Compares MoCoGrad against plain joint training (equal weighting) and PCGrad
on two AliExpress country scenarios, printing a per-scenario AUC table and
the ΔM aggregate versus single-task baselines.  This is the workload the
paper's introduction motivates: two nested binary prediction tasks per
market, where the conversion task is rare and easily crowded out by the
click task.

    python examples/recommendation_ctr.py
"""

from dataclasses import replace

import numpy as np

from repro import RunSpec, run_stl
from repro.data import make_aliexpress
from repro.experiments import format_percent, format_table
from repro.metrics import delta_m_from_results
from repro.training.run import run

SCENARIOS = ("ES", "US")
METHODS = ("equal", "pcgrad", "mocograd")
SPEC = RunSpec(epochs=6, batch_size=128, lr=2e-3, seed=0)


def main() -> None:
    rows = []
    for method in ("stl",) + METHODS:
        rows.append([method])
    deltas = {method: [] for method in METHODS}

    headers = ["Method"]
    for scenario in SCENARIOS:
        benchmark = make_aliexpress(scenario, num_records=3000, seed=0)
        headers += [f"{scenario}_CTR", f"{scenario}_CTCVR"]
        stl = run_stl(benchmark, SPEC)
        rows[0] += [stl["CTR"]["auc"], stl["CTCVR"]["auc"]]
        directions = {t.name: dict(t.higher_is_better) for t in benchmark.tasks}
        for i, method in enumerate(METHODS, start=1):
            metrics, _ = run(benchmark, replace(SPEC, method=method))
            rows[i] += [metrics["CTR"]["auc"], metrics["CTCVR"]["auc"]]
            deltas[method].append(delta_m_from_results(metrics, stl, directions))

    headers.append("ΔM")
    rows[0].append("+0.00%")
    for i, method in enumerate(METHODS, start=1):
        rows[i].append(format_percent(float(np.mean(deltas[method]))))

    print(format_table(headers, rows, title="Mini Table I — AUC by scenario"))
    print(
        "\nShape to compare against the paper's Table I: single-task training is a\n"
        "strong baseline on these 2-task scenarios (most MTL methods score a\n"
        "negative ΔM there too), and the spread between balancing methods is small\n"
        "(fractions of an AUC point). Average more seeds for stable orderings —\n"
        "see repro.experiments.table1_aliexpress for the seed-averaged version."
    )


if __name__ == "__main__":
    main()
