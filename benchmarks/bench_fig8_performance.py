"""Fig. 8: execution time of SuDoku-Z normalised to an ideal fault-free
cache, across the full workload suite."""

from conftest import emit
from repro.analysis.experiments import fig8_performance

#: Accesses per core per run; large enough to cover multiple scrub
#: intervals of activity, small enough to keep the full suite tractable.
ACCESSES = 8_000


def test_bench_fig8_performance(benchmark):
    exhibit = benchmark.pedantic(
        fig8_performance,
        kwargs={"accesses_per_core": ACCESSES, "seed": 1},
        rounds=1,
        iterations=1,
    )
    emit(exhibit)
    from repro.analysis.charts import bar_chart

    workload_rows = exhibit["rows"][:-1]
    print("\nslowdown per workload (%):")
    print(
        bar_chart(
            [str(row[0]) for row in workload_rows],
            [float(row[3]) for row in workload_rows],
            unit="%",
        )
    )
    from conftest import RESULTS_DIR
    from repro.analysis.tables import format_table
    from repro.obs.atomicio import atomic_write_text
    from repro.perf.summary import summarise

    slowdowns = {str(row[0]): float(row[3]) / 100 for row in workload_rows}
    suite_rows = [
        [s.suite, s.count, s.mean * 100, (s.geomean_ratio - 1) * 100,
         s.worst * 100, s.worst_workload]
        for s in summarise(slowdowns)
    ]
    suite_table = format_table(
        ["suite", "n", "mean %", "geomean %", "worst %", "worst workload"],
        suite_rows,
    )
    print("\nper-suite breakdown:\n" + suite_table)
    atomic_write_text(
        str(RESULTS_DIR / "fig_8_suite_breakdown.txt"), suite_table + "\n"
    )

    mean_row = exhibit["rows"][-1]
    assert mean_row[0] == "MEAN"
    mean_slowdown_pct = mean_row[3]
    # Paper: ~0.1-0.15% average slowdown; assert the reproduction stays
    # in the sub-1% regime and is not negative beyond noise.
    assert -0.05 <= mean_slowdown_pct < 1.0
    # No individual workload suffers a material slowdown.
    for row in exhibit["rows"][:-1]:
        assert row[3] < 3.0, f"{row[0]} slowed by {row[3]:.2f}%"
