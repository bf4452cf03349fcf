"""Conditional rare-event validation: deeper-BER model checks.

Naive whole-cache campaigns stop being informative once failures take
thousands of intervals; conditioning on "the group holds >= 2 multi-bit
lines" buys orders of magnitude of variance reduction and lets the
SuDoku-Y model be checked across a BER sweep approaching the paper's
regime.  (The Z mode simulates one peeling level and is an upper bound;
see EXPERIMENTS.md.)
"""

import time

from conftest import emit
from repro.parallel import run_sharded_raresim
from repro.reliability.sudokumodel import SuDokuReliabilityModel

GROUP = 32
NUM_GROUPS = 2048

#: The conditional Y rate the paper's 3.49 h MTTF implies at BER 5.3e-6,
#: G=512, 2048 groups: 0.02 s / 3.49 h over 2048 groups x P(conditioning).
PAPER_IMPLIED_CONDITIONAL_Y = 3.25e-4


def test_bench_conditional_y_sweep(benchmark):
    def sweep():
        rows = []
        for ber, trials in ((6e-4, 800), (3e-4, 800), (1.5e-4, 800)):
            result = run_sharded_raresim(
                "Y", ber, trials, group_size=GROUP,
                num_groups=NUM_GROUPS, seed=11,
            )
            model = SuDokuReliabilityModel(
                ber=ber, group_size=GROUP, num_lines=GROUP * NUM_GROUPS
            )
            conditional_model = (
                model.group_fail_y() / result.conditioning_probability
            )
            low, high = result.conditional_ci()
            rows.append(
                [
                    ber,
                    result.conditioning_probability,
                    result.conditional_failure_probability,
                    f"[{low:.4f},{high:.4f}]",
                    conditional_model,
                    result.fit(),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        {
            "title": "Rare-event validation: SuDoku-Y conditional failure vs model",
            "headers": [
                "BER", "P(conditioning)", "MC conditional fail",
                "95% CI", "model conditional", "implied cache FIT",
            ],
            "rows": rows,
            "notes": "Conditioning multiplies effective sample size by "
                     "1/P(conditioning): 30-3000x over naive campaigns.",
        }
    )
    for row in rows:
        predicted = row[4]
        low, high = (float(v) for v in row[3].strip("[]").split(","))
        # The closed form is a mildly conservative approximation of the
        # machinery: it must sit within a 4x band of the measured CI at
        # every BER (at the deepest point the CI is wide -- exactly why
        # this exhibit reports intervals, not point ratios).
        assert low / 4 <= predicted <= high * 4, (
            f"model {predicted} outside CI band [{low}, {high}] at BER {row[0]}"
        )


def test_bench_conditional_z_bound(benchmark):
    result = benchmark.pedantic(
        run_sharded_raresim,
        kwargs=dict(level="Z", ber=8e-4, trials=400, group_size=GROUP,
                    num_groups=NUM_GROUPS, seed=12),
        rounds=1,
        iterations=1,
    )
    model = SuDokuReliabilityModel(
        ber=8e-4, group_size=GROUP, num_lines=GROUP * NUM_GROUPS
    )
    emit(
        {
            "title": "Rare-event validation: SuDoku-Z one-level peeling bound",
            "headers": ["quantity", "value"],
            "rows": [
                ["MC conditional fail (upper bound)", result.conditional_failure_probability],
                ["implied group failure", result.group_failure_probability],
                ["analytical group failure", model.group_fail_z()],
            ],
            "notes": "One peeling level truncates the recovery the full "
                     "engine performs, so the MC value upper-bounds the "
                     "true rate at this (accelerated) BER.",
        }
    )
    assert result.conditional_failure_probability < 0.5


def test_bench_conditional_y_paper_point(benchmark):
    """SuDoku-Y at the paper's nominal point, seed fixed in advance.

    Y does not peel, so the conditional estimator is exact here; 2e4
    trials put the Wilson 95 % high below the rate the paper's MTTF
    implies, unless the simulated rate really is that high.
    """
    started = time.perf_counter()
    result = benchmark.pedantic(
        run_sharded_raresim,
        kwargs=dict(level="Y", ber=5.3e-6, trials=20000, group_size=512,
                    num_groups=NUM_GROUPS, seed=11),
        rounds=1,
        iterations=1,
    )
    wall_s = time.perf_counter() - started
    low, high = result.conditional_ci()
    model = SuDokuReliabilityModel(
        ber=5.3e-6, group_size=512, num_lines=512 * NUM_GROUPS
    )
    emit(
        {
            "title": "Rare-event validation: SuDoku-Y at the paper point "
                     "(BER 5.3e-6, G=512)",
            "headers": ["quantity", "value"],
            "rows": [
                ["trials", result.trials],
                ["failures", result.conditional_failures],
                ["MC conditional fail", result.conditional_failure_probability],
                ["95% CI", f"[{low:.3g},{high:.3g}]"],
                ["paper-implied conditional", PAPER_IMPLIED_CONDITIONAL_Y],
                ["model conditional",
                 model.group_fail_y() / result.conditioning_probability],
                ["wall s", round(wall_s, 2)],
            ],
            "notes": "Seed 11 is fixed in advance; a CI high above the "
                     "paper-implied rate fails the exhibit, never a re-seed.",
        }
    )
    assert high < PAPER_IMPLIED_CONDITIONAL_Y, (
        f"Wilson high {high} not below the paper-implied "
        f"{PAPER_IMPLIED_CONDITIONAL_Y} ({result.conditional_failures} "
        f"failures in {result.trials} trials)"
    )
