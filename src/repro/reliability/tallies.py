"""The one publisher of the counter families that restate a tally.

A run keeps each count in one place: the engine's ``CorrectionStats``,
the returned ``CampaignResult`` or ``ConditionalResult``, and the
``Checkpointer``'s ``writes``.  :func:`publish_tallies` restates them
once, when a campaign or shard ends, so an export cannot disagree with
the result it describes, and a resumed run's counters include its
restored units.  Sharded registries merge by adding counters
(:func:`repro.obs.merge_registry`), so K shards export what the serial
run does.  Only the per-unit wall-clock and load histograms are observed
as a run goes: no tally holds them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.stats import CorrectionStats
from repro.resilience.checkpoint import Checkpointer

#: ``CorrectionStats`` fields no counter family exports: the
#: ``sudoku_engine_stat`` gauges.
ENGINE_STAT_GAUGES = (
    "sdr_trials", "group_scans", "lines_scanned", "writes", "reads",
    "parity_rebuilds", "metadata_quarantines",
)


def _counter(metrics, name: str, help_text: str,
             samples: Dict[Tuple[str, ...], int], labels: Sequence[str] = ()) -> None:
    """One counter family, one sample per ``{label values: count}`` entry."""
    family = metrics.counter(name, help_text, labels=labels)
    for values, count in samples.items():
        family.labels(**dict(zip(labels, values))).inc(count)


def publish_tallies(metrics, result, *, level: str,
                    checkpointer: Optional[Checkpointer] = None,
                    stats: Optional[CorrectionStats] = None) -> None:
    """Write every family that restates ``result``'s tallies into ``metrics``.

    ``result`` is a ``CampaignResult`` (Monte-Carlo and scenario
    intervals) or a ``ConditionalResult`` (rare-event trials); ``stats``
    is the campaign engine's, when it has one.  The engine families get
    one sample per event kind that occurred.  A no-op on the null
    registry.
    """
    from repro.reliability.raresim import ConditionalResult

    if not metrics.enabled:
        return
    writes = {(): checkpointer.writes if checkpointer is not None else 0}
    if isinstance(result, ConditionalResult):
        _counter(metrics, "raresim_trials_total",
                 "Conditioned rare-event trials completed.",
                 {(level,): result.trials}, ("level",))
        _counter(metrics, "raresim_conditional_failures_total",
                 "Conditioned trials ending in a group DUE.",
                 {(level,): result.conditional_failures}, ("level",))
        _counter(metrics, "raresim_checkpoint_writes_total",
                 "Rare-event campaign checkpoints flushed.", writes)
        return
    _counter(metrics, "campaign_intervals_total", "Campaign intervals completed.",
             {(): result.intervals})
    _counter(metrics, "campaign_interval_failures_total",
             "Intervals with at least one DUE or SDC.", {(): result.interval_failures})
    _counter(metrics, "campaign_outcomes_total",
             "Line outcomes accumulated across campaign intervals.",
             {(label,): n for label, n in result.outcomes.items()}, ("outcome",))
    _counter(metrics, "chaos_events_total",
             "Metadata chaos events applied to the engine.",
             {(event,): n for event, n in result.metadata.items()}, ("event",))
    _counter(metrics, "campaign_checkpoint_writes_total",
             "Campaign checkpoints flushed.", writes)
    if stats is None:
        return
    corrections = {
        "ecc1": stats.ecc1_repairs, "raid4": stats.raid4_invocations,
        "sdr": stats.sdr_invocations, "hash2": stats.hash2_invocations,
    }
    _counter(metrics, "sudoku_corrections_total",
             "Correction-mechanism invocations by engine level.",
             {(level, kind): n for kind, n in corrections.items() if n},
             ("level", "mechanism"))
    events = {**stats.metadata_faults, "rebuild": stats.metadata_rebuilds}
    _counter(metrics, "sudoku_metadata_events_total",
             "Parity-metadata integrity events by engine level and kind.",
             {(level, kind): n for kind, n in events.items() if n},
             ("level", "event"))
    gauge = metrics.gauge(
        "sudoku_engine_stat",
        "CorrectionStats fields no counter family exports, by engine level.",
        labels=("level", "stat"),
    )
    for stat in ENGINE_STAT_GAUGES:
        gauge.labels(level=level, stat=stat).set(getattr(stats, stat))
