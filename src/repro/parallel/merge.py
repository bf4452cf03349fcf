"""Merging per-shard campaign aggregates into one result.

Both campaign result types are sums of per-interval (per-trial)
observations, so merging shards is pure counter addition -- commutative
and associative.  The runner still merges in shard-index order so the
merged object (including dict insertion order in ``as_dict``) is
byte-stable across runs of the same ``(seed, shards)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.reliability.montecarlo import CampaignResult
from repro.reliability.raresim import ConditionalResult


def _merged_stop_reason(results: Sequence) -> str:
    """Strongest truncation cause wins; empty when nothing truncated.

    'interrupted' (operator action) dominates 'cancelled' (job-level
    cancellation), which dominates 'deadline' (budget expiry).
    """
    reasons = {result.stop_reason for result in results if result.truncated}
    for reason in ("interrupted", "cancelled", "deadline"):
        if reason in reasons:
            return reason
    return ""


def _require_same(results: Sequence, attribute: str) -> object:
    values = {getattr(result, attribute) for result in results}
    if len(values) != 1:
        raise ValueError(
            f"cannot merge shards with differing {attribute}: {sorted(values)}"
        )
    return values.pop()


def merge_campaign_results(results: Sequence[CampaignResult]) -> CampaignResult:
    """Combine per-shard Monte-Carlo aggregates into one campaign result.

    Shards must share ``ber``/``interval_s``/``lines`` (they are slices
    of one campaign); intervals, outcome counters, failure counts, and
    chaos metadata add up.  A merged result is truncated when any shard
    was.
    """
    if not results:
        raise ValueError("no shard results to merge")
    merged = CampaignResult(
        intervals=sum(result.intervals for result in results),
        ber=float(_require_same(results, "ber")),
        interval_s=float(_require_same(results, "interval_s")),
        lines=int(_require_same(results, "lines")),
    )
    for result in results:
        merged.outcomes.update(result.outcomes)
        merged.metadata.update(result.metadata)
        merged.interval_failures += result.interval_failures
    merged.truncated = any(result.truncated for result in results)
    merged.stop_reason = _merged_stop_reason(results)
    return merged


def merge_conditional_results(
    results: Sequence[ConditionalResult],
) -> ConditionalResult:
    """Combine per-shard rare-event aggregates into one result.

    Trials and conditional failures add; the conditioning probability
    and geometry are properties of the campaign configuration and must
    agree across shards.
    """
    if not results:
        raise ValueError("no shard results to merge")
    return ConditionalResult(
        trials=sum(result.trials for result in results),
        conditional_failures=sum(
            result.conditional_failures for result in results
        ),
        conditioning_probability=float(
            _require_same(results, "conditioning_probability")
        ),
        ber=float(_require_same(results, "ber")),
        group_size=int(_require_same(results, "group_size")),
        num_groups=int(_require_same(results, "num_groups")),
        interval_s=float(_require_same(results, "interval_s")),
        truncated=any(result.truncated for result in results),
        stop_reason=_merged_stop_reason(results),
    )
