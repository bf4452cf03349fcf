"""repro.parallel -- sharded execution of Monte-Carlo campaigns.

The reliability campaigns dominate the wall-clock cost of the whole
evaluation and are embarrassingly parallel (independent intervals).
This package splits a campaign into K deterministic shards run across a
process pool and merges the aggregates:

* :func:`run_sharded_campaign` -- sharded Monte-Carlo fault injection
  (``--shards`` on the ``campaign`` and ``chaos`` CLI subcommands),
  whose merged result is bit-identical to the serial run at the same
  seed;
* :func:`run_sharded_raresim` -- sharded conditional rare-event FIT
  estimation (``--shards`` on ``raresim``), whose merged result is
  bit-identical to the serial run at the same seed;
* :func:`run_sharded_scenario` -- sharded mixed transient/burst/stuck-at
  scenario campaigns (``--shards`` on ``scenario``), whose merged result
  is bit-identical to the serial run at the same seed;
* :mod:`repro.parallel.sharding` -- the deterministic shard arithmetic
  (unit splits, the per-unit seed tree, checkpoint paths);
* :mod:`repro.parallel.merge` -- per-shard aggregate merging.

See ``docs/parallelism.md`` for the seeding model, per-shard checkpoint
layout, and merge semantics.
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
)
from repro.parallel.sharding import (
    interval_generator,
    interval_python_seed,
    interval_seed_sequence,
    shard_checkpoint_path,
    split_units,
)

__all__ = [
    "ShardError",
    "run_sharded_campaign",
    "run_sharded_raresim",
    "run_sharded_scenario",
    "merge_campaign_results",
    "merge_conditional_results",
    "split_units",
    "shard_checkpoint_path",
    "interval_seed_sequence",
    "interval_generator",
    "interval_python_seed",
]
