"""Sharded campaign executor: K independent shards, one merged result.

The Monte-Carlo and rare-event campaigns are embarrassingly parallel --
every interval/trial is independent by construction (that is also what
makes them checkpointable).  The executor exploits this by splitting a
campaign into K shards, each a *complete* campaign over its slice of the
work with its own deterministically spawned RNG stream, running the
shards across worker processes, and merging the per-shard aggregates:

* ``shards=1`` bypasses every parallel code path and calls the serial
  runner with the exact RNG construction the CLI has always used, so it
  is bit-identical to the pre-sharding behaviour.
* ``shards=K`` is itself deterministic: the same ``(seed, shards)``
  always reproduces the same merged result, because shard streams come
  from ``SeedSequence.spawn`` and merging is order-fixed counter
  addition (:mod:`repro.parallel.merge`).
* Checkpoints compose per shard: shard *i* snapshots to
  ``<base>.shard<i>of<K><ext>`` through the same atomic-write
  checkpointer as serial runs, so a killed-and-resumed sharded campaign
  equals an uninterrupted same-seed/same-K run bit for bit.
* Telemetry composes by merge: each worker records into its own
  registry and tracer, shipped back with the shard result and folded
  into the caller's bundle (:func:`repro.obs.merge_registry` for
  counters, :func:`repro.obs.merge_traces` for spans -- worker phase
  spans land under the parent's ``sharded_*`` span, tagged with
  their shard index, in fixed shard order so the merged trace structure
  is reproducible); one aggregated
  :class:`~repro.obs.ProgressReporter` in the parent is fed from a shard
  progress queue.

The three public entry points (``run_sharded_campaign``,
``run_sharded_raresim``, ``run_sharded_scenario``) are thin fronts over
one body, and the serial run and every shard worker dispatch through
one function (``_run_campaign``).  Underneath, all three campaign kinds
run one boundary loop (:class:`repro.resilience.checkpoint.BoundaryLoop`)
for resume, snapshots, checkpoint flushes, deadline/cancel stops,
interrupt rollback and progress.

Workers communicate over a single message queue: ``("resumed", i, n)``
when a shard restores n completed units from its checkpoint,
``("progress", i, n)`` for batched progress, and ``("result", ...)`` /
``("error", ...)`` exactly once per shard.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import traceback
from dataclasses import dataclass, replace
from queue import Empty
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - cycle: scenario imports this package
    from repro.reliability.scenario import FaultScenario

import numpy as np

from repro.core.rng import resolve_pyrandom
from repro.kernels import BACKEND_NAMES
from repro.obs import (
    NULL_PROGRESS,
    Telemetry,
    export_spans,
    merge_registry,
    merge_traces,
    resolve_telemetry,
)
from repro.parallel.merge import (
    merge_campaign_results,
    merge_conditional_results,
)
from repro.parallel.sharding import (
    shard_checkpoint_path,
    shard_python_seeds,
    spawn_seed_sequences,
    split_units,
)
from repro.reliability.montecarlo import (
    CampaignResult,
    require_scrub_mode,
    run_group_campaign,
)
from repro.reliability.raresim import (
    ConditionalGroupSimulator,
    ConditionalResult,
)
from repro.resilience.chaos import ChaosInjector, ChaosPolicy
from repro.resilience.checkpoint import (
    CancelWatch,
    Checkpointer,
    CheckpointError,
    Deadline,
    load_checkpoint,
)

#: Seconds between liveness checks while waiting on shard messages.
_POLL_S = 0.2

#: Prefer fork where the platform offers it (no re-import, ~ms startup);
#: everything shipped to workers is picklable, so spawn works too.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class ShardError(RuntimeError):
    """One or more campaign shards died; carries their tracebacks."""

    def __init__(self, failures: Dict[int, str]) -> None:
        self.failures = dict(failures)
        details = "\n".join(
            f"--- shard {index} ---\n{text}"
            for index, text in sorted(failures.items())
        )
        super().__init__(
            f"{len(failures)} campaign shard(s) failed:\n{details}"
        )


@dataclass(frozen=True)
class _ShardSpec:
    """Everything a worker needs to run one shard (must stay picklable)."""

    kind: str  # "montecarlo" | "raresim" | "scenario"
    index: int
    shards: int
    units: int
    # The campaign seed; a spawned SeedSequence for Monte-Carlo shards.
    seed: Union[int, np.random.SeedSequence]
    level: str  # campaign level, or the scheme name for scenario shards
    ber: float
    group_size: int
    interval_s: float
    num_groups: int = 0
    chaos_policy: Optional[ChaosPolicy] = None
    chaos_seed: int = 0
    checkpoint_path: str = ""
    checkpoint_every: int = 0
    resume_path: str = ""
    telemetry: bool = False
    deadline_s: Optional[float] = None
    progress_batch: int = 1
    scrub_mode: str = "sparse"
    scenario: Optional["FaultScenario"] = None
    interval_start: int = 0
    backend: str = "reference"


class _ShardProgress:
    """Worker-side progress adapter: batches updates onto the queue.

    Batching by count (not wall clock) keeps the adapter deterministic
    and cheap even for microsecond-scale validation intervals.
    """

    enabled = True

    def __init__(self, queue, index: int, batch: int) -> None:
        self._queue = queue
        self._index = index
        self._batch = max(1, batch)
        self._pending = 0

    def update(self, done: Optional[int] = None, advance: int = 1) -> None:
        self._pending += advance
        if self._pending >= self._batch:
            self._queue.put(("progress", self._index, self._pending))
            self._pending = 0

    def finish(self) -> None:
        if self._pending:
            self._queue.put(("progress", self._index, self._pending))
            self._pending = 0

    def note_resumed(self, units: int) -> None:
        self._queue.put(("resumed", self._index, units))


def _checkpointer(spec: _ShardSpec, progress) -> Optional[Checkpointer]:
    """The run's checkpointer; a restored offset goes to ``progress``.

    The serial run refuses a missing ``--resume`` file.  A shard whose
    file is missing starts fresh: that is the correct replay for a
    shard killed before its first flush (the parent has already
    verified that *some* shard file exists, so a wholesale wrong path
    still fails fast).
    """
    if not spec.checkpoint_path:
        return None
    payload = None
    serial = spec.shards == 1
    if spec.resume_path and (serial or os.path.exists(spec.resume_path)):
        payload = load_checkpoint(spec.resume_path, spec.kind)
        progress.note_resumed(int(payload["completed"]))
    return Checkpointer(
        path=spec.checkpoint_path, every=spec.checkpoint_every, resume=payload
    )


def _watch(deadline_s: Optional[float],
           cancel: Optional[Callable[[], bool]] = None):
    """The watchdog a campaign loop polls.

    A plain :class:`Deadline` when only a budget is set; a
    :class:`CancelWatch` (composing any budget) when a job-level
    cancellation callback is attached; ``None`` when neither is.
    """
    deadline = Deadline(deadline_s) if deadline_s else None
    if cancel is None:
        return deadline
    return CancelWatch(cancel, deadline=deadline)


def _run_campaign(spec: _ShardSpec, telemetry, progress,
                  cancel: Optional[Callable[[], bool]] = None):
    """Run the campaign ``spec`` describes: the serial run or one shard.

    ``spec`` carries the run's own seeds (see :func:`_shard_spec`), so
    the serial run and every shard construct their streams alike.
    """
    checkpointer = _checkpointer(spec, progress)
    deadline = _watch(spec.deadline_s, cancel)
    if spec.kind == "montecarlo":
        return run_group_campaign(
            spec.level, spec.ber, trials=spec.units,
            group_size=spec.group_size, interval_s=spec.interval_s,
            # The serial seed is the historical CLI stream, which
            # predates the SeedSequence tree (shards pass a spawned one).
            rng=np.random.default_rng(spec.seed),  # repro-lint: disable=RPR006
            telemetry=telemetry, progress=progress,
            chaos=(
                ChaosInjector(spec.chaos_policy, seed=spec.chaos_seed)
                if spec.chaos_policy is not None
                else None
            ),
            checkpointer=checkpointer, deadline=deadline,
            scrub_mode=spec.scrub_mode, backend=spec.backend,
        )
    if spec.kind == "raresim":
        simulator = ConditionalGroupSimulator(
            ber=spec.ber, group_size=spec.group_size,
            num_groups=spec.num_groups, interval_s=spec.interval_s,
            # Bit-identical to the historical stdlib stream
            # (resolve_pyrandom(seed=s) is exactly random.Random(s)).
            rng=resolve_pyrandom(seed=spec.seed, owner="run_sharded_raresim"),
            sparse=spec.scrub_mode == "sparse",
            scenario=spec.scenario,
            backend=spec.backend,
        )
        return simulator.run(
            spec.level, spec.units, telemetry=telemetry, progress=progress,
            checkpointer=checkpointer, deadline=deadline,
        )
    if spec.kind == "scenario":
        # Resolved at call time, not at import: wrappers installed on
        # the scenario module (profilers, benchmark harnesses) must see
        # the serial run and every shard.
        from repro.reliability.scenario import run_scenario_campaign

        assert spec.scenario is not None
        return run_scenario_campaign(
            spec.level, spec.scenario, spec.units,
            group_size=spec.group_size, interval_s=spec.interval_s,
            seed=spec.seed, interval_start=spec.interval_start,
            telemetry=telemetry, progress=progress,
            chaos_policy=spec.chaos_policy, chaos_seed=spec.chaos_seed,
            checkpointer=checkpointer, deadline=deadline,
            scrub_mode=spec.scrub_mode, backend=spec.backend,
        )
    raise ValueError(  # pragma: no cover - specs are built here only
        f"unknown campaign kind {spec.kind!r}"
    )


def _run_shard(
    spec: _ShardSpec, queue
) -> Tuple[object, Optional[object], Optional[List[Dict]]]:
    """Execute one shard; returns (result, metrics or None, spans or None)."""
    telemetry = Telemetry.create() if spec.telemetry else None
    progress = _ShardProgress(queue, spec.index, spec.progress_batch)
    result = _run_campaign(spec, telemetry, progress)
    if telemetry is None:
        return result, None, None
    # Spans ship as plain dicts (the export_spans wire form): Span
    # objects hold a tracer reference and must not cross the pickle
    # boundary.
    return result, telemetry.metrics, export_spans(telemetry.tracer)


def _shard_worker(spec: _ShardSpec, queue) -> None:
    """Process entry point: run the shard, ship the outcome back."""
    try:
        result, metrics, spans = _run_shard(spec, queue)
        queue.put(("result", spec.index, result, metrics, spans))
    except BaseException:
        queue.put(("error", spec.index, traceback.format_exc()))


def _check_resume_files(specs: List[_ShardSpec]) -> None:
    """Fail fast when a resume finds no shard checkpoints at all."""
    if not any(spec.resume_path for spec in specs):
        return
    if not any(os.path.exists(spec.resume_path) for spec in specs):
        base = specs[0].resume_path
        raise CheckpointError(
            f"no shard checkpoint files found (looked for {base!r} and "
            f"siblings); was the interrupted run sharded with "
            f"--shards {specs[0].shards}?"
        )


def _signal_cancel(processes) -> None:
    """SIGINT live workers so their campaign loops stop at a boundary.

    Workers treat the signal exactly like an operator Ctrl-C: the
    campaign loop catches :class:`KeyboardInterrupt`, flushes its
    checkpoint, and ships a truncated result -- nothing is lost, and the
    parent keeps draining the queue as usual.
    """
    for process in processes:
        if process.is_alive() and process.pid is not None:
            try:
                os.kill(process.pid, signal.SIGINT)
            except (OSError, ProcessLookupError):  # pragma: no cover - race
                pass


def _execute_shards(specs: List[_ShardSpec], telemetry, progress,
                    cancel: Optional[Callable[[], bool]] = None):
    """Run shard specs across processes; returns results in shard order."""
    _check_resume_files(specs)
    context = multiprocessing.get_context(_START_METHOD)
    queue = context.Queue()
    processes = [
        context.Process(target=_shard_worker, args=(spec, queue), daemon=True)
        for spec in specs
    ]
    for process in processes:
        process.start()
    outcomes: Dict[int, Tuple[object, Optional[object], Optional[List[Dict]]]] = {}
    errors: Dict[int, str] = {}
    pending = {spec.index for spec in specs}
    cancelled = False
    try:
        while pending:
            if cancel is not None and not cancelled and cancel():
                cancelled = True
                _signal_cancel(processes)
            try:
                message = queue.get(timeout=_POLL_S)
            except KeyboardInterrupt:
                # The workers received the same SIGINT; their campaign
                # loops catch it, flush checkpoints, and ship truncated
                # results -- keep draining so nothing is lost.
                continue
            except Empty:
                if any(process.is_alive() for process in processes):
                    continue
                # All workers exited; drain stragglers then stop waiting.
                try:
                    message = queue.get(timeout=_POLL_S)
                except Empty:
                    break
            kind = message[0]
            if kind == "progress":
                progress.update(advance=message[2])
            elif kind == "resumed":
                progress.note_resumed(message[2])
            elif kind == "result":
                outcomes[message[1]] = (message[2], message[3], message[4])
                pending.discard(message[1])
            elif kind == "error":
                errors[message[1]] = message[2]
                pending.discard(message[1])
    finally:
        # Bounded joins: a worker blocked mid-send (parent bailed out on
        # an exception) must not hang the shutdown forever.
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        queue.close()
    for index in pending:
        errors.setdefault(
            index, "shard process died without reporting a result"
        )
    if errors:
        raise ShardError(errors)
    if telemetry is not None:
        # Fixed (sorted-index) merge order: the merged trace structure
        # and counter totals are reproducible for a given (seed, shards).
        for index in sorted(outcomes):
            _, metrics, spans = outcomes[index]
            if metrics is not None:
                merge_registry(telemetry.metrics, metrics)
            if spans:
                merge_traces(telemetry.tracer, spans, shard=index)
    return [outcomes[index][0] for index in sorted(outcomes)]


def _validate(shards: int, units: int, checkpoint_path: str,
              checkpoint_every: int, scrub_mode: str = "sparse",
              backend: str = "reference") -> None:
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if units < 0:
        raise ValueError(f"work units must be non-negative, got {units}")
    if checkpoint_every and not checkpoint_path:
        raise CheckpointError(
            "periodic checkpointing requires a checkpoint path"
        )
    # Fail fast in the parent: a bad mode inside a worker would only
    # surface as a ShardError traceback.
    require_scrub_mode(scrub_mode)
    if backend not in BACKEND_NAMES:
        raise ValueError(
            f"backend must be one of {BACKEND_NAMES}, got {backend!r}"
        )


def _progress_batch(units: int) -> int:
    """Batch size keeping each shard to ~50 progress messages."""
    return max(1, units // 50)


def _shard_spec(base: _ShardSpec, index: int, units: List[int]) -> _ShardSpec:
    """Shard ``index``'s slice of the campaign ``base`` describes.

    Monte-Carlo and rare-event shards draw from their own streams,
    spawned from the campaign seeds; a scenario shard keeps the seed
    and starts at its slice's global interval index, so it re-derives
    exactly the serial run's streams.  Checkpoint files are per shard.
    """
    shards = base.shards
    seeds: Dict[str, object] = {}
    if base.kind == "montecarlo":
        seeds["seed"] = spawn_seed_sequences(base.seed, shards)[index]
        seeds["chaos_seed"] = shard_python_seeds(base.chaos_seed, shards)[index]
    elif base.kind == "raresim":
        seeds["seed"] = shard_python_seeds(base.seed, shards)[index]
    return replace(
        base, index=index, units=units[index],
        interval_start=sum(units[:index]),
        checkpoint_path=(
            shard_checkpoint_path(base.checkpoint_path, index, shards)
            if base.checkpoint_path else ""
        ),
        resume_path=(
            shard_checkpoint_path(base.resume_path, index, shards)
            if base.resume_path else ""
        ),
        progress_batch=_progress_batch(base.units),
        **seeds,
    )


def _run_sharded(
    base: _ShardSpec,
    telemetry: Optional[Telemetry],
    progress,
    cancel: Optional[Callable[[], bool]],
):
    """The one body behind the three ``run_sharded_*`` fronts.

    ``base`` describes the whole campaign (``units`` is the total, the
    checkpoint fields are the caller's paths).  ``shards == 1`` runs it
    in-process; otherwise it is split into per-shard specs, run across
    processes under one ``sharded_*`` span, and merged.
    """
    checkpoint_path = base.checkpoint_path or base.resume_path
    _validate(base.shards, base.units, checkpoint_path, base.checkpoint_every,
              base.scrub_mode, base.backend)
    chaos_policy = base.chaos_policy
    if chaos_policy is not None and not chaos_policy.enabled:
        chaos_policy = None
    base = replace(
        base, checkpoint_path=checkpoint_path, chaos_policy=chaos_policy
    )
    if base.shards == 1:
        return _run_campaign(base, telemetry, progress, cancel)
    units = split_units(base.units, base.shards)
    specs = [_shard_spec(base, index, units) for index in range(base.shards)]
    if base.kind == "scenario":
        name = "sharded_scenario"
        attributes = {"scheme": base.level, "intervals": base.units}
    elif base.kind == "raresim":
        name = "sharded_raresim"
        attributes = {"level": base.level, "ber": base.ber, "trials": base.units}
    else:
        name = "sharded_campaign"
        attributes = {
            "level": base.level, "ber": base.ber, "intervals": base.units,
        }
    tracer = resolve_telemetry(telemetry).tracer
    with tracer.span(name, **attributes, shards=base.shards):
        results = _execute_shards(specs, telemetry, progress, cancel=cancel)
    progress.finish()
    if base.kind == "raresim":
        return merge_conditional_results(results)
    return merge_campaign_results(results)


def run_sharded_campaign(
    level: str,
    ber: float,
    intervals: int,
    group_size: int = 64,
    *,
    shards: int = 1,
    seed: int = 0,
    interval_s: float = 0.020,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    chaos_policy: Optional[ChaosPolicy] = None,
    chaos_seed: int = 0,
    checkpoint_path: str = "",
    checkpoint_every: int = 0,
    resume_from: str = "",
    deadline_s: Optional[float] = None,
    cancel: Optional[Callable[[], bool]] = None,
    scrub_mode: str = "sparse",
    backend: str = "reference",
) -> CampaignResult:
    """Sharded Monte-Carlo campaign (see :func:`run_group_campaign`).

    With ``shards=1`` this delegates to the serial runner with
    ``np.random.default_rng(seed)`` -- bit-identical to the historical
    CLI path.  With ``shards=K`` the intervals are split K ways, each
    shard runs in its own process on its own spawned RNG stream, and the
    merged :class:`CampaignResult` is returned.  ``chaos_policy`` (when
    enabled) gets an independent per-shard chaos stream derived from
    ``chaos_seed`` the same way.  ``scrub_mode`` ("sparse"/"dense")
    reaches every shard; per-seed results are bit-identical either way,
    as is the kernel ``backend`` ("reference"/"numpy").

    ``cancel`` is the job-level cancellation hook (polled between
    intervals): once truthy, the campaign stops at the next boundary
    with checkpoints flushed and returns a truncated result
    (``stop_reason="cancelled"`` serially; sharded workers are SIGINTed
    and report ``"interrupted"``).
    """
    return _run_sharded(
        _ShardSpec(
            kind="montecarlo", index=0, shards=shards, units=intervals,
            seed=seed, level=level, ber=ber, group_size=group_size,
            interval_s=interval_s, chaos_policy=chaos_policy,
            chaos_seed=chaos_seed, checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, resume_path=resume_from,
            telemetry=telemetry is not None, deadline_s=deadline_s,
            scrub_mode=scrub_mode, backend=backend,
        ),
        telemetry, progress, cancel,
    )


def run_sharded_raresim(
    level: str,
    ber: float,
    trials: int,
    group_size: int = 64,
    num_groups: int = 2048,
    *,
    shards: int = 1,
    seed: int = 0,
    interval_s: float = 0.020,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    checkpoint_path: str = "",
    checkpoint_every: int = 0,
    resume_from: str = "",
    deadline_s: Optional[float] = None,
    cancel: Optional[Callable[[], bool]] = None,
    scrub_mode: str = "sparse",
    scenario: Optional["FaultScenario"] = None,
    backend: str = "reference",
) -> ConditionalResult:
    """Sharded conditional rare-event campaign (see ``estimate_fit``).

    ``shards=1`` matches :func:`repro.reliability.raresim.estimate_fit`
    with ``random.Random(seed)`` bit for bit; ``shards=K`` splits the
    trials across processes with per-shard stdlib RNG streams derived
    from the same seed tree, then merges the conditional aggregates.
    ``scrub_mode`` controls the simulator's trusted-clean scan fast path
    ("sparse", the default) vs full decodes ("dense"); trial outcomes
    are bit-identical in both modes.  ``scenario`` overlays per-group
    stuck-at maps and per-trial bursts on the conditioned transients.
    ``backend`` selects the kernel backend in every shard; outcomes are
    bit-identical across backends.  ``cancel`` behaves as in
    :func:`run_sharded_campaign`.
    """
    return _run_sharded(
        _ShardSpec(
            kind="raresim", index=0, shards=shards, units=trials,
            seed=seed, level=level, ber=ber, group_size=group_size,
            interval_s=interval_s, num_groups=num_groups,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, resume_path=resume_from,
            telemetry=telemetry is not None, deadline_s=deadline_s,
            scrub_mode=scrub_mode, scenario=scenario, backend=backend,
        ),
        telemetry, progress, cancel,
    )


def run_sharded_scenario(
    scheme: str,
    scenario: "FaultScenario",
    intervals: int,
    group_size: int = 8,
    *,
    shards: int = 1,
    seed: int = 0,
    interval_s: float = 0.020,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    chaos_policy: Optional[ChaosPolicy] = None,
    chaos_seed: int = 0,
    checkpoint_path: str = "",
    checkpoint_every: int = 0,
    resume_from: str = "",
    deadline_s: Optional[float] = None,
    cancel: Optional[Callable[[], bool]] = None,
    scrub_mode: str = "sparse",
    backend: str = "reference",
) -> CampaignResult:
    """Sharded mixed-fault scenario campaign (see
    :func:`repro.reliability.scenario.run_scenario_campaign`).

    Scenario campaigns derive every random draw from the *global*
    interval index, so sharding is pure interval partitioning: shard
    ``i`` owns the contiguous slice starting at ``sum(units[:i])`` and
    re-derives exactly the streams the serial run uses for those
    intervals.  The merged result is therefore bit-identical to
    ``shards=1`` at the same seed -- a stronger property than the
    Monte-Carlo runner (whose K-shard result is deterministic but a
    *different* quantity than serial), and the one the acceptance tests
    pin.  ``shards=1`` runs in-process with no worker machinery.
    """
    return _run_sharded(
        _ShardSpec(
            kind="scenario", index=0, shards=shards, units=intervals,
            seed=seed, level=scheme, ber=scenario.transient_ber,
            group_size=group_size, interval_s=interval_s,
            chaos_policy=chaos_policy, chaos_seed=chaos_seed,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, resume_path=resume_from,
            telemetry=telemetry is not None, deadline_s=deadline_s,
            scrub_mode=scrub_mode, scenario=scenario, backend=backend,
        ),
        telemetry, progress, cancel,
    )
