"""Sensitivity: does SuDoku's overhead grow with core count?

The syndrome check and scrub/correction machinery are per-LLC, not
per-core; more cores mean more bank pressure for the same machinery to
hide under.  This bench runs the ideal-vs-SuDoku pair at 1-16 cores on
a memory-intensive profile and checks the marginal cost stays flat.
"""


from conftest import emit
from repro.cache.geometry import CacheGeometry
from repro.perf.llc import LLCConfig
from repro.perf.system import SystemConfig, SystemSimulator

GEOMETRY = CacheGeometry(capacity_bytes=2 << 20, line_bytes=64, ways=8)
ACCESSES = 8_000
WORKLOAD = "milc"


def run_pair(num_cores: int) -> float:
    results = {}
    for label, llc in (
        ("ideal", LLCConfig.ideal(num_lines=GEOMETRY.num_lines)),
        ("sudoku", LLCConfig.sudoku(
            corrections_per_interval=4.0, num_lines=GEOMETRY.num_lines
        )),
    ):
        config = SystemConfig(
            num_cores=num_cores, geometry=GEOMETRY, llc=llc
        )
        results[label] = SystemSimulator(
            config, WORKLOAD, ACCESSES, seed=9, config_label=label
        ).run()
    return (
        results["sudoku"].execution_time_s / results["ideal"].execution_time_s
        - 1.0
    )


def test_bench_core_count_scaling(benchmark):
    def sweep():
        return {cores: run_pair(cores) for cores in (1, 2, 4, 8, 16)}

    slowdowns = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        {
            "title": "Sensitivity: SuDoku slowdown vs core count",
            "headers": ["cores", "slowdown %"],
            "rows": [
                [cores, value * 100] for cores, value in sorted(slowdowns.items())
            ],
            "notes": f"{WORKLOAD} in rate mode, {ACCESSES} accesses/core; "
                     "the resilience machinery is per-cache, so the "
                     "marginal cost must not compound with parallelism.",
        }
    )
    for cores, value in slowdowns.items():
        assert value < 0.02, f"{cores} cores slowed by {value:.2%}"
