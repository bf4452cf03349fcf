"""Sharded campaign executor: K independent shards, one merged result.

The Monte-Carlo, scenario and rare-event campaigns are embarrassingly
parallel -- every interval/trial is independent by construction (that
is also what makes them checkpointable).  The executor exploits this by
splitting a campaign into K shards, each a *complete* campaign over its
slice of the work, running the shards across worker processes, and
merging the per-shard aggregates.

Determinism model
-----------------

* ``shards=1`` bypasses every parallel code path and calls the serial
  runner in-process.
* Every campaign kind derives unit ``i``'s randomness from the
  campaign seed and the *global* index ``i`` (Monte-Carlo and scenario
  intervals: :mod:`repro.reliability.montecarlo`; rare-event trials:
  :mod:`repro.reliability.raresim`), so a shard is the same seed plus
  the start of its slice, and the merged K-shard result is
  bit-identical to the serial run.
* Merging is order-fixed counter addition (:mod:`repro.parallel.merge`).

Checkpoints and telemetry compose across shards:

* Checkpoints: a run writes one file, whatever its shard count
  (:mod:`repro.resilience.checkpoint`: the completed global unit
  ranges and their aggregates).  :func:`run_spec` loads a resume file
  once and splits the units it has not done across the K it is given
  (:func:`repro.parallel.sharding.shard_slices`); shard 0 carries the
  resumed aggregates.  Shards send their boundary snapshots up the
  message queue, and the parent alone writes the file: on each
  periodic snapshot, and once after every shard has reported.  So a
  run stopped at one shard count resumes at any other, and equals an
  uninterrupted same-seed run bit for bit.
* Telemetry, by merge: each worker records into its own
  registry and tracer, shipped back with the shard result and folded
  into the caller's bundle (:func:`repro.obs.merge_registry` for
  counters, :func:`repro.obs.merge_traces` for spans -- worker phase
  spans land under the parent's ``sharded_*`` span, tagged with
  their shard index, in fixed shard order so the merged trace structure
  is reproducible); one aggregated
  :class:`~repro.obs.ProgressReporter` in the parent is fed from a shard
  progress queue.

Every entry point runs :func:`run_spec` on one normalized
``(kind, params)`` spec: the CLI and serve build it with
:func:`repro.serve.specs.parse_spec`, and the three library fronts
(``run_sharded_campaign``, ``run_sharded_raresim``,
``run_sharded_scenario``) build it from their arguments.  The serial
run and every shard worker dispatch through one function
(``_run_campaign``), the one place params meet a kind's runner.
Underneath, all three campaign kinds
run one boundary loop (:class:`repro.resilience.checkpoint.BoundaryLoop`)
for resume, snapshots, checkpoint flushes, deadline/cancel stops,
interrupt rollback and progress.

Workers communicate over a single message queue: ``("progress", i, n)``
for batched progress, ``("snapshot", i, (payload, final))`` for each
checkpoint snapshot (``final`` for the one a shard takes as its run
ends), and ``("result", ...)`` / ``("error", ...)`` exactly once per
shard.  Job-level cancellation
travels the other way on one shared event, which each shard's boundary
loop polls like a deadline.

Every run takes the numpy kernels and the sparse scrub.  ``backend``
can still name the reference kernels, which give bit-identical results
and serve as the oracle the kernel tests hold numpy to.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, replace
from queue import Empty
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - cycle: scenario imports this package
    from repro.reliability.scenario import FaultScenario

from repro.kernels import BACKEND_NAMES, warm_line_tables
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
from repro.parallel.sharding import shard_slices
from repro.reliability.montecarlo import CampaignResult, run_group_campaign
from repro.reliability.raresim import (
    ConditionalGroupSimulator,
    ConditionalResult,
)
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.checkpoint import (
    CancelWatch,
    Checkpointer,
    CheckpointError,
    Deadline,
    done_ranges,
    load_checkpoint,
    merge_payloads,
    payload_slice,
)

#: The campaign kinds a spec names (:mod:`repro.serve.specs` validates
#: them); raresim counts trials, the other two intervals.
KINDS: Tuple[str, ...] = ("campaign", "raresim", "scenario")

#: The kind each spec kind's checkpoints record.
SNAPSHOT_KINDS = dict(campaign="montecarlo", raresim="raresim", scenario="scenario")

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
    """Everything a worker needs to run one shard (must stay picklable).

    ``kind`` and ``params`` are the campaign as
    :func:`repro.serve.specs.parse_spec` normalizes it; the other fields
    say how to run it (this shard's slice, checkpoints, telemetry).
    ``resume`` is the shard's part of a resumed checkpoint: the done
    ranges inside its slice, and (shard 0 only) the resumed aggregates.
    """

    kind: str  # "campaign" | "raresim" | "scenario"
    params: Dict[str, object]
    index: int
    units: int
    chaos_policy: Optional[ChaosPolicy] = None
    chaos_seed: int = 0
    checkpoint_path: str = ""
    checkpoint_every: int = 0
    resume: Optional[Dict[str, object]] = None
    telemetry: bool = False
    deadline_s: Optional[float] = None
    progress_batch: int = 1
    interval_start: int = 0  # global index of the first interval or trial
    backend: str = "numpy"


class BatchingProgress:
    """Worker-side progress adapter: batches updates onto a channel.

    ``send(kind, units)`` ships ``("progress", n)`` batches and, for a
    resumed serve job, one ``("resumed", n)`` note; a shard tags them
    with its index onto the runner's queue, a serve job writes them to
    its pipe.  Batching by count (not wall clock) keeps the adapter
    deterministic and cheap even for microsecond-scale validation
    intervals.
    """

    enabled = True

    def __init__(self, send: Callable[[str, int], None], batch: int) -> None:
        self._send = send
        self._batch = max(1, batch)
        self._pending = 0

    def update(self, done: Optional[int] = None, advance: int = 1) -> None:
        self._pending += advance
        if self._pending >= self._batch:
            self._send("progress", self._pending)
            self._pending = 0

    def finish(self) -> None:
        if self._pending:
            self._send("progress", self._pending)
            self._pending = 0

    def note_resumed(self, units: int) -> None:
        self._send("resumed", units)


def spec_units(kind: str, params: Dict[str, object]) -> int:
    """Work units (intervals, or trials for raresim) a spec describes."""
    return int(params["trials" if kind == "raresim" else "intervals"])


@dataclass
class _SnapshotRelay(Checkpointer):
    """A shard's checkpointer: it writes no file.

    ``send`` ships each snapshot to the parent, with whether the
    shard's run has ended; ``path`` is the run's one checkpoint file,
    which the parent writes.
    """

    send: Optional[Callable[[str, object], None]] = None

    def save(self, payload: Dict[str, object], final: bool = False) -> None:
        self.send("snapshot", (payload, final))
        self.writes += 1

    def finish(self, payload: Dict[str, object]) -> None:
        self.save(payload, final=True)


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


def _scenario(params: Dict[str, object]) -> Optional["FaultScenario"]:
    """The spec's scenario object, or None when it has none."""
    from repro.reliability.scenario import FaultScenario

    raw = params.get("scenario")
    return FaultScenario.from_dict(raw) if raw else None


def _run_campaign(spec: _ShardSpec, telemetry, progress,
                  checkpointer: Optional[Checkpointer],
                  cancel: Optional[Callable[[], bool]] = None):
    """Run the campaign ``spec`` describes: the serial run or one shard.

    The one place a spec's ``params`` meet a kind's runner.  ``spec``
    carries the campaign seed and the run's first unit (see
    :func:`_shard_spec`), so the serial run and every shard construct
    their streams alike.
    """
    params = spec.params
    deadline = _watch(spec.deadline_s, cancel)
    run = dict(
        telemetry=telemetry, progress=progress,
        checkpointer=checkpointer, deadline=deadline,
    )
    if spec.kind == "campaign":
        return run_group_campaign(
            params["level"], params["ber"], trials=spec.units,
            group_size=params["group_size"], interval_s=params["interval_s"],
            seed=params["seed"], interval_start=spec.interval_start,
            chaos_policy=spec.chaos_policy, chaos_seed=spec.chaos_seed,
            backend=spec.backend, **run,
        )
    if spec.kind == "raresim":
        simulator = ConditionalGroupSimulator(
            ber=params["ber"], group_size=params["group_size"],
            num_groups=params["num_groups"], interval_s=params["interval_s"],
            seed=params["seed"], trial_start=spec.interval_start,
            scenario=_scenario(params), backend=spec.backend,
        )
        return simulator.run(params["level"], spec.units, **run)
    if spec.kind == "scenario":
        # Resolved at call time, not at import: wrappers installed on
        # the scenario module (profilers, benchmark harnesses) must see
        # the serial run and every shard.
        from repro.reliability.scenario import run_scenario_campaign

        return run_scenario_campaign(
            params["scheme"], _scenario(params), spec.units,
            group_size=params["group_size"], interval_s=params["interval_s"],
            seed=params["seed"], interval_start=spec.interval_start,
            chaos_policy=spec.chaos_policy, chaos_seed=spec.chaos_seed,
            backend=spec.backend, **run,
        )
    raise ValueError(  # pragma: no cover - run_spec checks the kind
        f"unknown campaign kind {spec.kind!r}"
    )


def _run_shard(
    spec: _ShardSpec, queue, cancel: Optional[Callable[[], bool]]
) -> Tuple[object, Optional[object], Optional[List[Dict]]]:
    """Execute one shard; returns (result, metrics or None, spans or None)."""
    telemetry = Telemetry.create() if spec.telemetry else None

    def send(kind: str, value: object) -> None:
        queue.put((kind, spec.index, value))

    progress = BatchingProgress(send, spec.progress_batch)
    relay = _SnapshotRelay(
        spec.checkpoint_path, spec.checkpoint_every, spec.resume, send=send
    ) if spec.checkpoint_path else None
    result = _run_campaign(spec, telemetry, progress, relay, cancel)
    if telemetry is None:
        return result, None, None
    # Spans ship as plain dicts (the export_spans wire form): Span
    # objects hold a tracer reference and must not cross the pickle
    # boundary.
    return result, telemetry.metrics, export_spans(telemetry.tracer)


def _shard_worker(spec: _ShardSpec, queue, cancel_event) -> None:
    """Process entry point: run the shard, ship the outcome back.

    ``cancel_event``, when given, is the run's shared cancellation
    event: the shard's boundary loop polls it and stops with
    ``stop_reason="cancelled"`` once the parent sets it.
    """
    cancel = cancel_event.is_set if cancel_event is not None else None
    try:
        queue.put(("result", spec.index, *_run_shard(spec, queue, cancel)))
    except BaseException:
        queue.put(("error", spec.index, traceback.format_exc()))


def _execute_shards(specs: List[_ShardSpec], telemetry, progress,
                    checkpointer: Optional[Checkpointer],
                    cancel: Optional[Callable[[], bool]] = None):
    """Run shard specs across processes; returns results in shard order.

    ``checkpointer`` writes the run's one file: the merge of every
    shard's latest snapshot (its resumed part until it sends one), on
    each periodic snapshot and once after the shards have reported.
    """
    snapshots = [spec.resume for spec in specs]
    # Forked shards inherit the line tables instead of each deriving
    # them in its first interval.
    warm_line_tables()
    context = multiprocessing.get_context(_START_METHOD)
    queue = context.Queue()
    # Workers poll the event only when there is a hook to forward.
    cancel_event = context.Event() if cancel is not None else None
    processes = [
        context.Process(
            target=_shard_worker, args=(spec, queue, cancel_event),
            daemon=True,
        )
        for spec in specs
    ]
    for process in processes:
        process.start()
    outcomes: Dict[int, Tuple[object, Optional[object], Optional[List[Dict]]]] = {}
    errors: Dict[int, str] = {}
    pending = {spec.index for spec in specs}
    try:
        while pending:
            if (
                cancel_event is not None
                and not cancel_event.is_set()
                and cancel()
            ):
                cancel_event.set()
            try:
                message = queue.get(timeout=_POLL_S)
            except KeyboardInterrupt:
                # An operator's Ctrl-C reaches the workers too; their
                # campaign loops catch it, flush checkpoints, and ship
                # truncated results -- keep draining so nothing is lost.
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
            elif kind == "snapshot":
                snapshots[message[1]], final = message[2]
                if not final:
                    checkpointer.save(merge_payloads(snapshots))
            elif kind == "result":
                outcomes[message[1]] = message[2:]
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
    if any(snapshots):
        # Also after a failure: the other shards' work is kept.
        checkpointer.save(merge_payloads(snapshots))
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
              checkpoint_every: int, backend: str) -> None:
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if units < 0:
        raise ValueError(f"work units must be non-negative, got {units}")
    if checkpoint_every and not checkpoint_path:
        raise CheckpointError(
            "periodic checkpointing requires a checkpoint path"
        )
    # Fail fast in the parent: a bad backend inside a worker would only
    # surface as a ShardError traceback.
    if backend not in BACKEND_NAMES:
        raise ValueError(
            f"backend must be one of {BACKEND_NAMES}, got {backend!r}"
        )


def _progress_batch(units: int) -> int:
    """Batch size keeping each shard to ~50 progress messages."""
    return max(1, units // 50)


def _shard_spec(base: _ShardSpec, index: int,
                slices: List[Tuple[int, int]]) -> _ShardSpec:
    """Shard ``index``'s slice of the campaign ``base`` describes.

    A shard of any kind keeps the seed and starts at its slice's global
    unit index, so it re-derives exactly the serial run's streams.  Of
    a resumed checkpoint it gets the done ranges inside its slice, and
    shard 0 alone the aggregates, so the shards' snapshots add up to
    the run's.
    """
    start, end = slices[index]
    resume = base.resume and payload_slice(base.resume, start, end, index == 0)
    return replace(
        base, index=index, units=end - start, interval_start=start,
        resume=resume, progress_batch=_progress_batch(base.units),
    )


def run_spec(
    kind: str,
    params: Dict[str, object],
    *,
    shards: int = 1,
    telemetry: Optional[Telemetry] = None,
    progress=NULL_PROGRESS,
    checkpoint_path: str = "",
    checkpoint_every: int = 0,
    resume_from: str = "",
    deadline_s: Optional[float] = None,
    cancel: Optional[Callable[[], bool]] = None,
    chaos_policy: Optional[ChaosPolicy] = None,
    chaos_seed: int = 0,
    backend: str = "numpy",
):
    """Run one campaign spec; the one path from every entry point.

    ``(kind, params)`` is the normalized spec of
    :func:`repro.serve.specs.parse_spec`, which the CLI and serve both
    build and validate; this function trusts it.  ``shards == 1`` runs
    the campaign in-process; otherwise the units are split into
    contiguous slices, run across processes under one ``sharded_<kind>``
    span, and merged.  Every kind draws unit ``i`` from seed-tree child
    ``(seed, i)``, so the merged result equals the serial one bit for
    bit.

    ``resume_from`` names a checkpoint written at any shard count; its
    done units are skipped and the rest split across ``shards``.
    ``checkpoint_path`` (default: ``resume_from``) is the run's one
    checkpoint file.  ``chaos_policy``/``chaos_seed`` inject metadata
    faults (campaign and scenario kinds).  ``cancel`` is the job-level
    cancellation hook, polled between units: once truthy, the campaign
    -- every shard of it -- stops at the next boundary with checkpoints
    flushed and returns a truncated result with
    ``stop_reason="cancelled"``.
    ``backend`` names the kernels ("numpy", or the "reference" oracle);
    results are bit-identical either way.

    Returns a :class:`CampaignResult`, or a :class:`ConditionalResult`
    for ``kind="raresim"``.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    units = spec_units(kind, params)
    checkpoint_path = checkpoint_path or resume_from
    _validate(shards, units, checkpoint_path, checkpoint_every, backend)
    if chaos_policy is not None and not chaos_policy.enabled:
        chaos_policy = None
    resume = load_checkpoint(resume_from, SNAPSHOT_KINDS[kind]) if resume_from else None
    done = done_ranges(resume, units) if resume is not None else []
    if done:
        progress.note_resumed(sum(end - start for start, end in done))
    checkpointer = (
        Checkpointer(checkpoint_path, checkpoint_every, resume)
        if checkpoint_path else None
    )
    base = _ShardSpec(
        kind=kind, params=dict(params), index=0, units=units,
        chaos_policy=chaos_policy, chaos_seed=chaos_seed,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        resume=resume, telemetry=telemetry is not None,
        deadline_s=deadline_s, backend=backend,
    )
    if shards == 1:
        return _run_campaign(base, telemetry, progress, checkpointer, cancel)
    slices = shard_slices(units, shards, done)
    specs = [_shard_spec(base, index, slices) for index in range(shards)]
    attributes = {
        key: value for key, value in params.items() if key != "scenario"
    }
    tracer = resolve_telemetry(telemetry).tracer
    with tracer.span(f"sharded_{kind}", **attributes, shards=shards):
        results = _execute_shards(specs, telemetry, progress, checkpointer, cancel)
    progress.finish()
    if kind == "raresim":
        return merge_conditional_results(results)
    # Looked up by name at call time: profilers wrap it on this module.
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
    backend: str = "numpy",
) -> CampaignResult:
    """Sharded Monte-Carlo campaign (see :func:`run_group_campaign`);
    :func:`run_spec` with ``kind="campaign"``."""
    return run_spec(
        "campaign",
        {"level": level, "ber": ber, "intervals": intervals,
         "group_size": group_size, "seed": seed, "interval_s": interval_s},
        shards=shards, telemetry=telemetry, progress=progress,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        resume_from=resume_from, deadline_s=deadline_s, cancel=cancel,
        chaos_policy=chaos_policy, chaos_seed=chaos_seed, backend=backend,
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
    scenario: Optional["FaultScenario"] = None,
    backend: str = "numpy",
) -> ConditionalResult:
    """Sharded conditional rare-event campaign (see
    :class:`repro.reliability.raresim.ConditionalGroupSimulator`);
    :func:`run_spec` with ``kind="raresim"``.  ``scenario`` overlays
    per-group stuck-at maps and per-trial bursts on the conditioned
    transients; ``ber`` is used as given."""
    return run_spec(
        "raresim",
        {"level": level, "ber": ber, "trials": trials,
         "group_size": group_size, "num_groups": num_groups,
         "scenario": scenario.as_dict() if scenario is not None else None,
         "seed": seed, "interval_s": interval_s},
        shards=shards, telemetry=telemetry, progress=progress,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        resume_from=resume_from, deadline_s=deadline_s, cancel=cancel,
        backend=backend,
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
    backend: str = "numpy",
) -> CampaignResult:
    """Sharded mixed-fault scenario campaign (see
    :func:`repro.reliability.scenario.run_scenario_campaign`);
    :func:`run_spec` with ``kind="scenario"``."""
    return run_spec(
        "scenario",
        {"scheme": scheme, "scenario": scenario.as_dict(),
         "intervals": intervals, "group_size": group_size, "seed": seed,
         "interval_s": interval_s},
        shards=shards, telemetry=telemetry, progress=progress,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        resume_from=resume_from, deadline_s=deadline_s, cancel=cancel,
        chaos_policy=chaos_policy, chaos_seed=chaos_seed, backend=backend,
    )
