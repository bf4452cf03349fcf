"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it wraps public functions of each
layer with timing shims (:class:`Patch`) and restores them afterwards.
Every wrapped call is a span.  Spans are aggregated per name as call
count, total time and *self* time -- a span's duration minus the time of
the wrapped calls nested inside it -- plus one layer-specific work count
(words decoded, frames scrubbed, bytes checkpointed, ...).  Coarse spans
(the entry point itself, checkpoints, heals) are also kept individually;
per-line functions are only aggregated.  Everything stays in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Aggregate:
    """Running totals for one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Layer-specific work units (words, frames, lines, trials, bytes).
    work: float = 0.0
    #: Useful outcomes among ``work`` (SDR resurrections, clean words).
    useful: float = 0.0


class _Frame:
    __slots__ = ("name", "start", "child_s", "keep")

    def __init__(self, name: str, start: float, keep: bool) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.keep = keep


class Tracer:
    """Nested span timer with per-name aggregation.

    ``clock`` is injectable so tests can drive the self-time arithmetic
    with synthetic timestamps.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.aggregates: Dict[str, Aggregate] = {}
        #: Individually kept spans: name, start, end, self_s, parent.
        self.spans: List[Dict[str, object]] = []
        self._stack: List[_Frame] = []

    def enter(self, name: str, keep: bool = False) -> _Frame:
        frame = _Frame(name, self.clock(), keep)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> Aggregate:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        self_s = duration - frame.child_s
        aggregate = self.aggregates.get(frame.name)
        if aggregate is None:
            aggregate = self.aggregates[frame.name] = Aggregate()
        aggregate.calls += 1
        aggregate.total_s += duration
        aggregate.self_s += self_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        if frame.keep:
            self.spans.append({
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "self_s": self_s,
                "parent": parent.name if parent is not None else None,
            })
        return aggregate

    @contextlib.contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[_Frame]:
        """Context-manager form, for coarse spans and tests."""
        frame = self.enter(name, keep)
        try:
            yield frame
        finally:
            self.exit(frame)

    def wrap(
        self,
        name: str,
        function: Callable,
        work: Optional[Callable] = None,
        keep: bool = False,
    ) -> Callable:
        """``function`` timed as span ``name``.

        ``work(args, kwargs, result)`` returns ``(work, useful)`` to add
        to the aggregate; it runs after the clock stopped.
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = self.enter(name, keep)
            try:
                result = function(*args, **kwargs)
            finally:
                aggregate = self.exit(frame)
            if work is not None:
                done, useful = work(args, kwargs, result)
                aggregate.work += done
                aggregate.useful += useful
            return result

        return wrapper

    def get(self, name: str) -> Aggregate:
        return self.aggregates.get(name, Aggregate())


# -- work counters ---------------------------------------------------------------


def _sized(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _arg(args: Sequence, kwargs: Dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _result_len(args, kwargs, result) -> Tuple[float, float]:
    """Lines decoded, masks folded or faulty lines injected."""
    return len(result), 0


def _fold_words(args, kwargs, result) -> Tuple[float, float]:
    return _sized(_arg(args, kwargs, 1, "words")), 0


def _scatter_words(args, kwargs, result) -> Tuple[float, float]:
    return _sized(_arg(args, kwargs, 1, "flat")), 0


def _frames(args, kwargs, result) -> Tuple[float, float]:
    return _sized(_arg(args, kwargs, 1, "frames")), 0


def _scan_lines(args, kwargs, result) -> Tuple[float, float]:
    return len(result.frames), 0


def _sdr_trials(args, kwargs, result) -> Tuple[float, float]:
    return result.trials, len(result.resurrected_frames)


def _checkpoint_bytes(args, kwargs, result) -> Tuple[float, float]:
    return os.path.getsize(args[0].path), 0


@dataclass(frozen=True)
class Hook:
    """One wrapped layer boundary: a span name and where to patch it.

    A function imported by name into another module is patched in every
    namespace that calls it (``targets``), so the engine's and
    raresim's references both see the wrapper.
    """

    span: str
    targets: Tuple[str, ...]
    work: Optional[Callable] = None
    keep: bool = False


_KERNEL_CLASSES = (
    "repro.kernels.reference:ReferenceBackend",
    "repro.kernels.numpy_backend:NumpyBackend",
)


def _kernel_targets(method: str) -> Tuple[str, ...]:
    return tuple(f"{owner}.{method}" for owner in _KERNEL_CLASSES)


HOOKS: Tuple[Hook, ...] = (
    Hook("coding.encode", ("repro.core.linecodec:LineCodec.encode",)),
    Hook("coding.decode", ("repro.core.linecodec:LineCodec.decode",)),
    Hook(
        "coding.flip_check",
        ("repro.core.linecodec:LineCodec.try_flip_and_repair",),
    ),
    Hook("kernels.decode", _kernel_targets("batch_decode"), _result_len),
    Hook(
        "kernels.decode_clean", _kernel_targets("batch_decode_clean"), _result_len
    ),
    Hook("kernels.scatter", _kernel_targets("scatter_fault_vectors"), _scatter_words),
    Hook("kernels.fold", _kernel_targets("fold_line_masks"), _result_len),
    Hook("kernels.xor_fold", _kernel_targets("xor_fold"), _fold_words),
    Hook(
        "sttram.inject",
        (
            "repro.sttram.faults:TransientFaultInjector.inject_frames",
            "repro.sttram.faults:BurstFaultInjector.inject_frames",
        ),
        _result_len,
    ),
    Hook("core.scrub", ("repro.core.engine:SuDokuEngine.scrub_frames",), _frames),
    Hook(
        "core.scan",
        ("repro.core.engine:scan_group", "repro.reliability.raresim:scan_group"),
        _scan_lines,
    ),
    Hook(
        "core.sdr",
        ("repro.core.engine:resurrect", "repro.reliability.raresim:resurrect"),
        _sdr_trials,
    ),
    Hook(
        "core.raid4",
        (
            "repro.core.engine:reconstruct_line",
            "repro.reliability.raresim:reconstruct_line",
        ),
    ),
    Hook(
        "sttram.heal",
        ("repro.reliability.montecarlo:heal", "repro.reliability.scenario:heal"),
        keep=True,
    ),
    Hook(
        "core.parity_init",
        ("repro.core.engine:SuDokuEngine.initialize_parities",),
        keep=True,
    ),
    Hook(
        "resilience.checkpoint",
        ("repro.resilience.checkpoint:Checkpointer.save",),
        _checkpoint_bytes,
        keep=True,
    ),
    Hook(
        "parallel.merge",
        ("repro.parallel.runner:merge_campaign_results",),
        keep=True,
    ),
)

KERNEL_SPANS = tuple(
    hook.span for hook in HOOKS if hook.span.startswith("kernels.")
)


def _resolve(target: str):
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Patch:
    """Context manager: every hook (or only ``spans``) patched in to
    record into ``tracer``, originals restored on exit.

    Every wrapped module is imported on construction, so a caller can
    time an untraced pass in the same interpreter state (imports, heap)
    as the traced pass that follows it.
    """

    def __init__(
        self, tracer: Tracer, spans: Optional[Sequence[str]] = None
    ) -> None:
        self._tracer = tracer
        self._targets = [
            (hook, *_resolve(target))
            for hook in HOOKS
            if spans is None or hook.span in spans
            for target in hook.targets
        ]
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for hook, owner, attribute in self._targets:
                # Read the class dict, not getattr, so a method is
                # saved and restored as the plain function it is.
                original = vars(owner)[attribute]
                self._saved.append((owner, attribute, original))
                setattr(
                    owner, attribute,
                    self._tracer.wrap(hook.span, original, hook.work, hook.keep),
                )
        except BaseException:
            self._restore()
            raise
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """The wrapper-derived per-layer metrics (see BENCHMARK.json)."""
    get = tracer.get
    values: Dict[str, float] = {}
    for layer in ("coding.encode", "coding.decode", "coding.flip_check"):
        values[f"{layer}.calls"] = get(layer).calls
        values[f"{layer}.self_s"] = get(layer).self_s
    kernels = [get(name) for name in KERNEL_SPANS]
    values["kernels.calls"] = sum(agg.calls for agg in kernels)
    values["kernels.words"] = sum(agg.work for agg in kernels)
    values["kernels.self_s"] = sum(agg.self_s for agg in kernels)
    decoded = get("kernels.decode").work + get("kernels.decode_clean").work
    values["kernels.clean_frac"] = (
        get("kernels.decode_clean").work / decoded if decoded else 0.0
    )
    inject = get("sttram.inject")
    values["sttram.inject.calls"] = inject.calls
    values["sttram.inject.self_s"] = inject.self_s
    values["sttram.faulty_lines"] = inject.work
    scrub = get("core.scrub")
    values["core.scrub.calls"] = scrub.calls
    values["core.scrub.frames"] = scrub.work
    values["core.scrub.self_s"] = scrub.self_s
    scan = get("core.scan")
    values["core.scan.calls"] = scan.calls
    values["core.scan.lines"] = scan.work
    values["core.scan.self_s"] = scan.self_s
    sdr = get("core.sdr")
    values["core.sdr.calls"] = sdr.calls
    values["core.sdr.trials"] = sdr.work
    values["core.sdr.yield"] = sdr.useful / sdr.work if sdr.work else 0.0
    values["core.sdr.self_s"] = sdr.self_s
    for layer in ("core.raid4", "sttram.heal", "core.parity_init"):
        values[f"{layer}.calls"] = get(layer).calls
        values[f"{layer}.self_s"] = get(layer).self_s
    checkpoint = get("resilience.checkpoint")
    values["resilience.checkpoint.calls"] = checkpoint.calls
    values["resilience.checkpoint.bytes"] = checkpoint.work
    values["resilience.checkpoint.self_s"] = checkpoint.self_s
    values["reliability.loop.self_s"] = get("reliability.loop").self_s
    return values
