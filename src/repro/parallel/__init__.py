"""repro.parallel -- sharded execution of Monte-Carlo campaigns.

The reliability campaigns dominate the wall-clock cost of the whole
evaluation and are embarrassingly parallel (independent intervals).
This package splits a campaign into K deterministic shards run across a
process pool and merges the aggregates:

* :func:`run_spec` -- run one normalized campaign spec (the
  ``(kind, params)`` of :func:`repro.serve.specs.parse_spec`, which the
  CLI and serve both build) serially or across ``shards`` processes;
  every kind draws unit ``i`` from seed-tree child ``(seed, i)``, so the
  merged result is bit-identical to the serial run at the same seed;
* :func:`run_sharded_campaign`, :func:`run_sharded_raresim`,
  :func:`run_sharded_scenario` -- library fronts that build the spec
  for one kind from positional arguments and call :func:`run_spec`;
* :mod:`repro.parallel.sharding` -- the deterministic shard arithmetic
  (unit splits and slices, the per-unit seed tree);
* :mod:`repro.parallel.merge` -- per-shard aggregate merging.

See ``docs/parallelism.md`` for the seeding model, the one-file
checkpoint that resumes at any shard count, and merge semantics.
"""

from repro.parallel.merge import (
    merge_campaign_results,
    merge_conditional_results,
)
from repro.parallel.runner import (
    ShardError,
    run_sharded_campaign,
    run_sharded_raresim,
    run_sharded_scenario,
    run_spec,
)
from repro.parallel.sharding import (
    interval_generator,
    interval_python_seed,
    interval_seed_sequence,
    split_units,
)

__all__ = [
    "ShardError",
    "run_spec",
    "run_sharded_campaign",
    "run_sharded_raresim",
    "run_sharded_scenario",
    "merge_campaign_results",
    "merge_conditional_results",
    "split_units",
    "interval_seed_sequence",
    "interval_generator",
    "interval_python_seed",
]
