"""Reliability evaluation: the mathematics behind every table in the paper.

* :mod:`repro.reliability.binomial` -- log-domain binomial tails (the
  probabilities here span ~30 orders of magnitude).
* :mod:`repro.reliability.fit` -- FIT / MTTF / per-interval conversions.
* :mod:`repro.reliability.eccmodel` -- uniform per-line ECC-k caches
  (Table II and the ECC columns of Tables VIII and X).
* :mod:`repro.reliability.sudokumodel` -- analytical failure models of
  SuDoku-X / -Y / -Z (sections III-F, IV-D/E, V-C, Fig 7, Tables VIII-X).
* :mod:`repro.reliability.baselinemodel` -- CPPC, RAID-6, 2DP, Hi-ECC
  (Tables XI and XII).
* :mod:`repro.reliability.sram` -- the low-voltage SRAM study (Table IV).
* :mod:`repro.reliability.montecarlo` -- fault-injection campaigns over
  the *functional* engines, used to validate the analytical models.
"""

from repro.reliability.binomial import (
    binomial_pmf,
    binomial_tail,
    log_binomial_pmf,
    poisson_tail,
)
from repro.reliability.fit import (
    HOURS_PER_BILLION,
    fit_from_interval_probability,
    fit_to_mttf_hours,
    interval_probability_from_fit,
    mttf_seconds_from_interval_probability,
)
from repro.reliability.eccmodel import ECCCacheModel, table2_rows
from repro.reliability.sudokumodel import SuDokuReliabilityModel
from repro.reliability.baselinemodel import (
    cppc_model,
    hiecc_model,
    raid6_model,
    twodp_model,
)
from repro.reliability.sram import sram_vmin_table
from repro.reliability.montecarlo import (
    CampaignResult,
    run_engine_campaign,
    run_group_campaign,
)
from repro.reliability.raresim import ConditionalGroupSimulator
from repro.reliability.scenario import (
    SCHEMES,
    BurstSpec,
    FaultScenario,
    StuckSpec,
    build_scheme,
    run_scenario_campaign,
)
from repro.reliability.designspace import (
    DesignPoint,
    cheapest_meeting_target,
    enumerate_design_space,
    pareto_front,
)

__all__ = [
    "binomial_pmf",
    "binomial_tail",
    "log_binomial_pmf",
    "poisson_tail",
    "HOURS_PER_BILLION",
    "fit_from_interval_probability",
    "fit_to_mttf_hours",
    "interval_probability_from_fit",
    "mttf_seconds_from_interval_probability",
    "ECCCacheModel",
    "table2_rows",
    "SuDokuReliabilityModel",
    "cppc_model",
    "hiecc_model",
    "raid6_model",
    "twodp_model",
    "sram_vmin_table",
    "CampaignResult",
    "run_engine_campaign",
    "run_group_campaign",
    "ConditionalGroupSimulator",
    "SCHEMES",
    "BurstSpec",
    "StuckSpec",
    "FaultScenario",
    "build_scheme",
    "run_scenario_campaign",
    "DesignPoint",
    "cheapest_meeting_target",
    "enumerate_design_space",
    "pareto_front",
]
