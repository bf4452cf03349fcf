"""One function per paper exhibit.

Each function regenerates a table or figure of the paper and returns a
``{"title", "headers", "rows", "notes"}`` dict, with paper-quoted values
alongside the reproduced ones wherever the paper states them.  The
benchmark harnesses under ``benchmarks/`` print these; EXPERIMENTS.md
records a snapshot.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import PAPER
from repro.core.stats import LatencyModel
from repro.reliability.baselinemodel import (
    cppc_model,
    hiecc_model,
    raid6_model,
    twodp_model,
)
from repro.reliability.eccmodel import ECCCacheModel, table2_rows
from repro.reliability.sram import sram_vmin_table
from repro.reliability.sudokumodel import SuDokuReliabilityModel
from repro.sttram.variation import effective_ber

#: Default evaluation point (Table I / section III).
DEFAULT_BER = 5.3e-6


def table1_ber() -> Dict[str, object]:
    """Table I: thermal stability vs bit error rate over 20 ms."""
    rows = []
    for delta, paper_value in ((60.0, PAPER.ber_delta60_20ms), (35.0, PAPER.ber_delta35_20ms)):
        measured = effective_ber(delta, 0.10 * delta, 0.020)
        rows.append([delta, measured, paper_value])
    return {
        "title": "Table I: thermal stability vs error rate (20 ms)",
        "headers": ["delta", "BER (model)", "BER (paper)"],
        "rows": rows,
        "notes": "Eq. (1) averaged over delta ~ N(mu, 0.1*mu).",
    }


def table2_ecc_fit(ber: float = DEFAULT_BER) -> Dict[str, object]:
    """Table II: FIT of uniform per-line ECC-1..6."""
    rows = []
    for index, row in enumerate(table2_rows(ber=ber)):
        rows.append(
            [
                row["ecc"],
                row["line_failure"],
                PAPER.ecc_line_failure_20ms[index],
                row["cache_failure"],
                PAPER.ecc_cache_failure_20ms[index],
                row["fit"],
                PAPER.ecc_fit[index],
            ]
        )
    return {
        "title": "Table II: FIT of 64MB cache vs ECC strength",
        "headers": [
            "scheme", "P(line) model", "P(line) paper",
            "P(cache) model", "P(cache) paper", "FIT model", "FIT paper",
        ],
        "rows": rows,
        "notes": f"BER {ber} per 20 ms scrub interval, 2^20 lines.",
    }


def table3_sdc(ber: float = DEFAULT_BER) -> Dict[str, object]:
    """Table III: SDC rate of SuDoku-X."""
    model = SuDokuReliabilityModel(ber=ber)
    components = model.sdc_components()
    rows = [
        ["events: 7 faults/line (FIT)", components["events_7_faults"], 191.0],
        ["events: 8+ faults/line (FIT)", components["events_8plus_faults"], 0.09],
        ["CRC-31 misdetection", model.crc_misdetect, PAPER.crc31_misdetect],
        ["SDC FIT (total)", model.sdc_fit(), PAPER.sudoku_x_sdc_fit],
    ]
    return {
        "title": "Table III: SDC rates of SuDoku-X",
        "headers": ["quantity", "model", "paper"],
        "rows": rows,
        "notes": (
            "Our event rates use exact per-line fault-count tails; the "
            "paper's 191-FIT row matches the >=6-fault tail instead, and "
            "its total (8.9e-9) is inconsistent with its own factors "
            "(191 * 2^-31 = 8.9e-8) -- see EXPERIMENTS.md."
        ),
    }


def fig3_sdr_cases(
    trials: int = 200_000,
    line_bits: int = 553,
    rng: Optional[random.Random] = None,
) -> Dict[str, object]:
    """Fig. 3: overlap-case split for two 2-fault lines (Monte Carlo)."""
    generator = rng if rng is not None else random.Random(2024)
    counts = [0, 0, 0]
    for _ in range(trials):
        first = set(generator.sample(range(line_bits), 2))
        second = set(generator.sample(range(line_bits), 2))
        counts[len(first & second)] += 1
    total = float(trials)
    analytic_two = 2.0 / (line_bits * (line_bits - 1))
    analytic_one = (
        2 * 2 * (line_bits - 2) / (line_bits * (line_bits - 1) / 1.0)
    )  # choose one shared + one distinct each, over C(n,2)
    rows = [
        ["no overlap", counts[0] / total, 1 - analytic_one - analytic_two, PAPER.sdr_no_overlap_fraction],
        ["one overlap", counts[1] / total, analytic_one, PAPER.sdr_one_overlap_fraction],
        ["two overlaps", counts[2] / total, analytic_two, PAPER.sdr_two_overlap_fraction],
    ]
    return {
        "title": "Fig. 3: SDR scenarios for two 2-fault lines",
        "headers": ["case", "monte carlo", "analytic", "paper"],
        "rows": rows,
        "notes": (
            f"{trials} trials over {line_bits} coded bits; the paper "
            "computes over the 512 data bits, hence its slightly larger "
            "overlap fractions."
        ),
    }


def fig7_reliability(ber: float = DEFAULT_BER) -> Dict[str, object]:
    """Fig. 7 (plus section headlines): MTTF/FIT of X, Y, Z vs ECC-6."""
    model = SuDokuReliabilityModel(ber=ber)
    ecc6 = ECCCacheModel(t=6, ber=ber)
    rows = [
        ["SuDoku-X MTTF (s)", model.mttf_x_seconds(), PAPER.sudoku_x_mttf_s],
        ["SuDoku-Y MTTF (h)", model.mttf_y_seconds() / 3600.0, PAPER.sudoku_y_mttf_hours],
        ["SuDoku-Z FIT", model.fit_z(), PAPER.sudoku_z_fit],
        ["ECC-6 FIT", ecc6.fit(), PAPER.ecc_fit[5]],
        [
            "SuDoku-Z strength vs ECC-6",
            ecc6.fit() / model.fit_z(),
            PAPER.sudoku_z_vs_ecc6,
        ],
        ["SuDoku-Z (no SDR) FIT", model.fit_z_without_sdr(), PAPER.sudoku_z_alone_fit],
    ]
    return {
        "title": "Fig. 7: SuDoku-X/Y/Z vs ECC-6",
        "headers": ["quantity", "model", "paper"],
        "rows": rows,
        "notes": (
            "Y's closed form follows the functional engine's rules "
            "(validated by Monte-Carlo); the paper's Y accounting is more "
            "pessimistic -- ordering and conclusions are unchanged."
        ),
    }


def table4_sram() -> Dict[str, object]:
    """Table IV: SRAM low-voltage study."""
    paper_values = {
        "ECC-7": PAPER.sram_cache_fail_ecc7,
        "ECC-8": PAPER.sram_cache_fail_ecc8,
        "ECC-9": PAPER.sram_cache_fail_ecc9,
    }
    rows = []
    for row in sram_vmin_table():
        paper_value = paper_values.get(str(row["scheme"]))
        if str(row["scheme"]).startswith("SuDoku"):
            paper_value = PAPER.sram_cache_fail_sudoku
        rows.append(
            [row["scheme"], row["cache_failure"], paper_value, row["overhead_bits_per_line"]]
        )
    return {
        "title": "Table IV: probability of SRAM cache failure (BER 1e-3)",
        "headers": ["scheme", "P(cache fail) model", "paper", "bits/line"],
        "rows": rows,
        "notes": (
            "SuDoku rows use the persistent-fault (position-learning) "
            "model at several RAID-Group sizes; the paper's single SuDoku "
            "number does not state its group size (EXPERIMENTS.md)."
        ),
    }


def table8_scrub_interval() -> Dict[str, object]:
    """Table VIII: FIT vs scrub interval."""
    rows = []
    for interval_s, paper_ber, paper_ecc5, paper_ecc6, paper_z in PAPER.scrub_sweep:
        ber = effective_ber(35.0, 3.5, interval_s)
        ecc5 = ECCCacheModel(t=5, ber=ber, interval_s=interval_s).fit()
        ecc6 = ECCCacheModel(t=6, ber=ber, interval_s=interval_s).fit()
        sudoku_z = SuDokuReliabilityModel(ber=ber, interval_s=interval_s).fit_z()
        rows.append(
            [
                f"{interval_s * 1000:.0f}ms",
                ber, paper_ber,
                ecc5, paper_ecc5,
                ecc6, paper_ecc6,
                sudoku_z, paper_z,
            ]
        )
    return {
        "title": "Table VIII: FIT vs scrub interval",
        "headers": [
            "interval", "BER", "BER paper", "ECC-5", "ECC-5 paper",
            "ECC-6", "ECC-6 paper", "SuDoku-Z", "Z paper",
        ],
        "rows": rows,
        "notes": "BER recomputed from the thermal model per interval.",
    }


def table9_cache_size(ber: float = DEFAULT_BER) -> Dict[str, object]:
    """Table IX: FIT vs cache size (SuDoku-Z)."""
    rows = []
    for size_mb, paper_fit in PAPER.size_sweep:
        num_lines = size_mb * 1024 * 1024 // 64
        model = SuDokuReliabilityModel(ber=ber, num_lines=num_lines)
        rows.append([f"{size_mb}MB", model.fit_z(), paper_fit])
    return {
        "title": "Table IX: sensitivity to cache size",
        "headers": ["cache", "SuDoku-Z FIT model", "paper"],
        "rows": rows,
        "notes": "FIT scales linearly with the number of RAID-Groups.",
    }


def table10_delta() -> Dict[str, object]:
    """Table X: impact of thermal stability."""
    rows = []
    for delta, paper_ecc6, paper_sudoku, paper_strength in PAPER.delta_sweep:
        ber = effective_ber(float(delta), 0.10 * delta, 0.020)
        ecc6 = ECCCacheModel(t=6, ber=ber).fit()
        sudoku = SuDokuReliabilityModel(ber=ber).fit_z()
        strength = ecc6 / sudoku if sudoku > 0 else float("inf")
        rows.append(
            [delta, ber, ecc6, paper_ecc6, sudoku, paper_sudoku, strength, paper_strength]
        )
    return {
        "title": "Table X: impact of delta (ECC-6 vs SuDoku)",
        "headers": [
            "delta", "BER", "ECC-6 FIT", "ECC-6 paper",
            "SuDoku FIT", "SuDoku paper", "strength", "strength paper",
        ],
        "rows": rows,
        "notes": "BERs derived from the thermal model at each delta.",
    }


def table11_baselines(ber: float = DEFAULT_BER) -> Dict[str, object]:
    """Table XI: CPPC / RAID-6 / 2DP vs SuDoku."""
    sudoku = SuDokuReliabilityModel(ber=ber)
    rows = [
        ["CPPC + CRC-31", cppc_model(ber).fit, PAPER.fit_cppc],
        ["RAID-6 + CRC-31", raid6_model(ber).fit, PAPER.fit_raid6],
        ["2DP + ECC-1 + CRC-31", twodp_model(ber).fit, PAPER.fit_2dp],
        ["SuDoku", sudoku.fit_z(), PAPER.sudoku_z_fit],
    ]
    return {
        "title": "Table XI: comparing CPPC, RAID-6, 2DP with SuDoku",
        "headers": ["scheme", "FIT model", "FIT paper"],
        "rows": rows,
        "notes": "All schemes provisioned with SuDoku-equivalent resources.",
    }


def table12_hiecc(ber: float = DEFAULT_BER) -> Dict[str, object]:
    """Table XII: SuDoku vs Hi-ECC."""
    sudoku = SuDokuReliabilityModel(ber=ber)
    rows = [
        ["SuDoku", sudoku.fit_z(), PAPER.sudoku_z_fit],
        ["Hi-ECC", hiecc_model(ber).fit, PAPER.fit_hiecc],
    ]
    return {
        "title": "Table XII: SuDoku vs Hi-ECC",
        "headers": ["scheme", "FIT model", "FIT paper"],
        "rows": rows,
        "notes": "Hi-ECC: ECC-6 over 1 KB regions (GF(2^14), 84 check bits).",
    }


def latency_summary(group_size: int = 512) -> Dict[str, object]:
    """Section VII-B: correction latency accounting."""
    latency = LatencyModel()
    rows = [
        ["ECC-1 repair (ns)", latency.ecc1_repair() * 1e9, None],
        ["RAID-4 repair (us)", latency.raid4_repair(group_size) * 1e6, PAPER.latency_raid4_s * 1e6],
        ["SDR repair (us)", latency.sdr_repair(group_size, trials=6) * 1e6, PAPER.latency_sdr_s * 1e6],
        [
            "SuDoku-Z repair (us)",
            latency.hash2_repair(group_size, groups_read=2) * 1e6,
            PAPER.latency_hash2_s * 1e6,
        ],
    ]
    return {
        "title": "Section VII-B: correction latencies",
        "headers": ["mechanism", "model", "paper"],
        "rows": rows,
        "notes": (
            "Paper quotes 16us as the per-20ms budget for ~4 repairs of "
            "~4us each; the model reports per-event latency."
        ),
    }


def storage_summary() -> Dict[str, object]:
    """Section VII-H: storage overhead comparison."""
    from repro.core.layout import LineLayout

    layout = LineLayout()
    plt_bits = 2.0 * layout.stored_bits * (1 << 11) / (1 << 20)  # 2 PLTs, 2^11 groups
    rows = [
        ["ECC-1 bits/line", layout.ecc_bits, 10],
        ["CRC-31 bits/line", layout.crc_bits, 31],
        ["PLT bits/line (2 tables)", plt_bits, 2],
        ["SuDoku total bits/line", layout.overhead_bits + plt_bits, PAPER.overhead_bits_sudoku],
        ["ECC-6 bits/line", 60, PAPER.overhead_bits_ecc6],
    ]
    return {
        "title": "Section VII-H: storage overheads",
        "headers": ["component", "model", "paper"],
        "rows": rows,
        "notes": "Parity lines protect 553 stored bits, hence slightly over 2 bits/line.",
    }


def fig8_performance(
    workloads: Optional[Sequence[str]] = None,
    accesses_per_core: int = 20_000,
    seed: int = 1,
    warmup_accesses_per_core: int = 0,
) -> Dict[str, object]:
    """Fig. 8: execution time of SuDoku-Z normalised to the ideal cache."""
    from repro.perf.system import compare_ideal_vs_sudoku, normalized_slowdown
    from repro.perf.workloads import suite_names

    chosen = list(workloads) if workloads is not None else suite_names()
    rows = []
    slowdowns = []
    for workload in chosen:
        results = compare_ideal_vs_sudoku(
            workload, accesses_per_core=accesses_per_core, seed=seed,
            warmup_accesses_per_core=warmup_accesses_per_core,
        )
        slowdown = normalized_slowdown(results)
        slowdowns.append(slowdown)
        rows.append(
            [
                workload,
                results["ideal"].execution_time_s * 1e3,
                results["sudoku"].execution_time_s * 1e3,
                slowdown * 100.0,
                results["sudoku"].miss_rate,
            ]
        )
    rows.append(
        ["MEAN", None, None, float(np.mean(slowdowns)) * 100.0, None]
    )
    return {
        "title": "Fig. 8: execution time normalised to ideal (slowdown %)",
        "headers": ["workload", "ideal (ms)", "sudoku (ms)", "slowdown %", "miss rate"],
        "rows": rows,
        "notes": f"Paper reports ~{PAPER.mean_slowdown_fraction * 100:.2f}% average slowdown.",
    }


def fig9_edp(
    workloads: Optional[Sequence[str]] = None,
    accesses_per_core: int = 20_000,
    seed: int = 1,
) -> Dict[str, object]:
    """Fig. 9: system EDP of SuDoku-Z normalised to the ideal cache."""
    from repro.perf.energy import EnergyModel, edp_increase
    from repro.perf.system import compare_ideal_vs_sudoku
    from repro.perf.workloads import suite_names

    chosen = list(workloads) if workloads is not None else suite_names()
    model = EnergyModel()
    rows = []
    increases = []
    for workload in chosen:
        results = compare_ideal_vs_sudoku(
            workload, accesses_per_core=accesses_per_core, seed=seed
        )
        increase = edp_increase(results["ideal"], results["sudoku"], model)
        increases.append(increase)
        rows.append([workload, increase * 100.0])
    rows.append(["MEAN", float(np.mean(increases)) * 100.0])
    return {
        "title": "Fig. 9: normalised system EDP increase (%)",
        "headers": ["workload", "EDP increase %"],
        "rows": rows,
        "notes": f"Paper reports at most ~{PAPER.max_edp_increase_fraction * 100:.1f}% EDP increase.",
    }


def tornado_summary() -> Dict[str, object]:
    """Extension: ranked FIT sensitivity around the nominal design point."""
    from repro.reliability.sensitivity import tornado

    rows = [
        [
            entry.parameter,
            f"{entry.low_label} .. {entry.high_label}",
            entry.fit_low,
            entry.fit_high,
            entry.swing_orders,
        ]
        for entry in tornado()
    ]
    return {
        "title": "Sensitivity tornado: SuDoku-Z FIT around the nominal point",
        "headers": ["parameter", "range", "FIT(low)", "FIT(high)", "swing (orders)"],
        "rows": rows,
        "notes": "Device physics dominates; scrub interval is the strongest "
                 "runtime actuator.",
    }


def all_experiments() -> List[Dict[str, object]]:
    """Every analytic exhibit (performance figures excluded for runtime)."""
    return [
        table1_ber(),
        table2_ecc_fit(),
        table3_sdc(),
        fig3_sdr_cases(trials=50_000),
        fig7_reliability(),
        table4_sram(),
        table8_scrub_interval(),
        table9_cache_size(),
        table10_delta(),
        table11_baselines(),
        table12_hiecc(),
        latency_summary(),
        storage_summary(),
        tornado_summary(),
    ]
