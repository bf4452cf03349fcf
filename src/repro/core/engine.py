"""The SuDoku controllers: SuDoku-X, SuDoku-Y, SuDoku-Z.

The three designs form a strict hierarchy (each keeps everything below):

========== ===============================================================
SuDoku-X   per-line ECC-1 + CRC-31, region RAID-4 via one Parity Line
           Table (Hash-1).  Repairs any number of 1-bit-fault lines and
           at most one multi-bit-fault line per group.
SuDoku-Y   adds Sequential Data Resurrection: parity-mismatch-guided
           flip-and-check repairs multiple 2-bit-fault lines per group,
           with a final RAID-4 pass for the last survivor.
SuDoku-Z   adds a second, skewed hash with its own PLT.  Lines a Hash-1
           group cannot repair retry in their Hash-2 groups (whose other
           members are different lines by construction); fixes feed back
           into the Hash-1 group until a fixed point.
========== ===============================================================

The engines operate on an :class:`repro.sttram.array.STTRAMArray` of
*physical frames* and satisfy the :class:`repro.sttram.scrub.LineScrubber`
protocol.  Because this is a simulator, every resolved line is audited
against the array's golden copy: an engine that *believes* it
succeeded but produced wrong bits records silent data corruption (SDC),
the quantity Table III tracks.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.coding.bitvec import popcount
from repro.core.config import SuDokuConfig
from repro.core.grouping import GroupMapper, SkewedGroupMapper
from repro.core.linecodec import DecodeStatus, LineCodec, LineDecode
from repro.core.layout import LineLayout
from repro.core.outcomes import Outcome
from repro.core.plt_ import ParityLineTable
from repro.core.raid4 import GroupScan, reconstruct_line, scan_group
from repro.core.sdr import resurrect
from repro.core.stats import CorrectionStats, LatencyModel
from repro.kernels import (
    CHECK_CLEAN,
    KernelBackend,
    decode_from_check,
    resolve_backend,
)
from repro.obs import Telemetry, resolve_telemetry
from repro.sttram.array import STTRAMArray


class _Replay:
    """A peeling retry's accounting, gathered while it is simulated and
    applied again each time it is replayed.

    The stat deltas, the latency addends in their original order (so
    ``correction_time_s`` gets the same float additions), and the
    repair spans the retry opened, as (mechanism, span attributes)
    pairs in order.
    """

    __slots__ = (
        "group_scans", "lines_scanned", "raid4_invocations",
        "sdr_invocations", "sdr_trials", "addends", "corrections",
    )

    def __init__(self) -> None:
        self.group_scans = 0
        self.lines_scanned = 0
        self.raid4_invocations = 0
        self.sdr_invocations = 0
        self.sdr_trials = 0
        self.addends: List[float] = []
        self.corrections: List[Tuple[str, Dict[str, int]]] = []


class _Retry(NamedTuple):
    """A Hash-2 peeling retry that left its group exactly as it found it.

    ``state`` is the group's state before and after the retry (see
    ``SuDokuZ._group_state``), and ``stamp`` the array's and table's
    epochs when that state was last confirmed.  ``replay`` is the
    retry's accounting and the last two fields its scan's results.
    """

    state: tuple
    stamp: Tuple[int, int]
    replay: _Replay
    line_outcomes: Dict[int, Outcome]
    uncorrectable: List[int]


class SuDokuEngine:
    """Base controller implementing the SuDoku-X design.

    :param array: the physical frame array this engine protects.  Its
        ``line_bits`` must equal the codec's stored width.
    :param group_size: RAID-Group size in lines (512 default, section III-D).
    :param audit: when True (the default -- this is a simulator), every
        outcome is cross-checked against the array's golden copy and
        downgraded to :data:`Outcome.SDC` if the engine silently produced
        wrong data.
    """

    level = "X"

    def __init__(
        self,
        array: STTRAMArray,
        group_size: int = 512,
        codec: Optional[LineCodec] = None,
        latency: Optional[LatencyModel] = None,
        audit: bool = True,
        format_array: bool = True,
        telemetry: Optional[Telemetry] = None,
        backend: Optional[Union[str, KernelBackend]] = None,
    ) -> None:
        self.codec = codec if codec is not None else LineCodec()
        if array.line_bits != self.codec.stored_bits:
            raise ValueError(
                f"array holds {array.line_bits}-bit lines but the codec "
                f"stores {self.codec.stored_bits}-bit words"
            )
        self.array = array
        self.group_size = group_size
        self.backend = resolve_backend(backend)
        self.mapper = GroupMapper(array.num_lines, group_size)
        self.plt = ParityLineTable(
            self.mapper.num_groups, array.line_bits, backend=self.backend
        )
        self.latency = latency if latency is not None else LatencyModel()
        self.audit = audit
        self.stats = CorrectionStats()
        self.correction_time_s = 0.0
        self._pending: Dict[int, Outcome] = {}
        #: Per-pass decode memo: frame -> (stored word, its LineDecode or
        #: its ``batch_check`` code).  Filled by the scrub's
        #: classification; entries are only trusted while the frame's
        #: stored word still matches (repairs invalidate).
        self._decode_cache: Dict[int, Tuple[int, Union[LineDecode, int]]] = {}
        #: Per-pass memo of no-op peeling retries: (table, group) -> the
        #: retry to replay while the group's state still matches.
        self._retry_memo: Dict[Tuple[ParityLineTable, int], _Retry] = {}
        #: Accounting of the retry being simulated, else None.
        self._retry_log: Optional[_Replay] = None
        #: Optional structured event recorder (see repro.core.eventlog);
        #: attach one to capture per-line correction events.
        self.event_log = None
        self.attach_telemetry(resolve_telemetry(telemetry))
        self._init_extra_tables()
        if format_array:
            self.format()

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Record this engine's repair spans on ``telemetry``'s tracer.

        The engine counts its events in :attr:`stats` alone; a campaign
        publishes those tallies when it ends.  The default (null)
        tracer makes every span a no-op; results are bit-identical with
        telemetry attached or not.
        """
        self.tracer = telemetry.tracer

    def _init_extra_tables(self) -> None:
        """Hook for subclasses that maintain additional parity tables."""

    # -- kernel backend -----------------------------------------------------------

    def set_backend(self, backend: Union[str, KernelBackend]) -> None:
        """Swap the kernel backend on this engine and all its tables.

        Backends are pure compute under a bit-identity contract, so this
        never changes results -- only how the bulk work is executed.
        """
        self.backend = resolve_backend(backend)
        for plt, _ in self._tables():
            plt.backend = self.backend
        self._decode_cache.clear()
        self._retry_memo.clear()

    def _cached_decode(self, frame: int, stored: int) -> LineDecode:
        """The frame's memoised decode, iff still valid for ``stored``.

        Repairs rewrite lines mid-pass (and chaos scans can revisit a
        frame), so a memoised decode is only trusted while the stored
        word it was computed from is unchanged; otherwise decode fresh.
        """
        entry = self._decode_cache.get(frame)
        if entry is None or entry[0] != stored:
            return self.codec.decode(stored)
        decode = entry[1]
        if isinstance(decode, int):
            # A classification code: build the decode on first use.
            decode = decode_from_check(self.codec, stored, decode)
            self._decode_cache[frame] = (stored, decode)
        return decode

    def _classify(self, frames: List[int]) -> Optional[Tuple[tuple, List[int]]]:
        """Snapshot ``frames`` and memo each one's ``batch_check`` code.

        Returns the stored words and the codes, in frame order, or None
        when the backend does not classify this codec's words.  Only
        dirty frames are checked.  A frame whose stored word still
        matches golden holds a valid codeword (everything written goes
        through the codec -- the invariant group scans trust outright
        through scan_group's trusted_clean path), so its code is known
        CLEAN.  The raw dirty flag is required here, not is_clean(): a
        line whose only divergence is stuck-bit residue is *not* a
        valid codeword.
        """
        words, dirty = self.array.snapshot(frames)
        codes = self.backend.batch_check(
            self.codec, [word for word, flag in zip(words, dirty) if flag]
        )
        if codes is None:
            return None
        if len(codes) != len(frames):
            checked = iter(codes)
            codes = [next(checked) if flag else CHECK_CLEAN for flag in dirty]
        cache = self._decode_cache
        for frame, word, code in zip(frames, words, codes):
            cache[frame] = (word, code)
        return words, codes

    def format(self) -> None:
        """Initialise every frame to the encoded zero line and zero parity.

        Hardware would do this at power-on; without it, raw (all-zero)
        frames are not valid codewords and the very first writes would
        trip the correction machinery.
        """
        self.array.fill_word(self.codec.encode(0))
        # Every group XORs an even number (group sizes are powers of two)
        # of identical words, so all parities are zero -- the tables'
        # initial state already; no rebuild needed.

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_config(
        cls, config: SuDokuConfig, audit: bool = True
    ) -> "SuDokuEngine":
        """Build an engine plus backing array from a :class:`SuDokuConfig`."""
        layout = LineLayout(data_bits=config.data_bits, crc_bits=config.crc_bits)
        codec = LineCodec(layout)
        array = STTRAMArray(config.geometry.num_lines, codec.stored_bits)
        latency = LatencyModel(
            read_s=config.sttram_read_s, write_s=config.sttram_write_s
        )
        return cls(
            array,
            group_size=config.group_size,
            codec=codec,
            latency=latency,
            audit=audit,
        )

    def initialize_parities(self) -> None:
        """Rebuild every PLT entry from the current array contents.

        Call once after writing content around the engine (e.g.
        ``array.write_many`` of codec-encoded words) or to
        re-canonicalize after out-of-band repairs; incremental
        write-path updates keep parity consistent thereafter.  Members
        contribute their ECC-corrected word when one exists (CLEAN or
        CORRECTED decode), raw stored bits otherwise -- so a line whose
        only divergence is a single stuck bit does not poison the group
        parity for every later RAID repair of its groupmates.

        Only groups holding a written or dirty member are read and
        decoded.  Every other group holds ``group_size`` copies of the
        fill word, and group sizes are powers of two, so its parity is
        zero: such an entry is stored directly, exactly as the full
        rebuild would leave it (CRC written, quarantine lifted).
        """
        touched_frames = self.array.written_frames() + self.array.dirty_frames()
        for plt, mapper in self._tables():
            touched = {mapper.group_of(frame) for frame in touched_frames}
            for group in range(mapper.num_groups):
                if group not in touched:
                    plt.store(group, 0)
                    continue
                stored_words = [
                    self.array.read(frame) for frame in mapper.members(group)
                ]
                decodes = self.backend.batch_decode(self.codec, stored_words)
                members = [
                    stored
                    if decode.status is DecodeStatus.UNCORRECTABLE
                    else decode.word
                    for stored, decode in zip(stored_words, decodes)
                ]
                plt.rebuild(group, members)

    def _tables(self) -> List[Tuple[ParityLineTable, GroupMapper]]:
        """(PLT, mapper) pairs maintained by this engine."""
        return [(self.plt, self.mapper)]

    # -- functional write/read path -------------------------------------------------

    def write_data(self, frame: int, data: int) -> None:
        """Encode and store a data word, updating every parity table.

        Mirrors section III-B: the write is a read-modify-write, and the
        value read out is first put through the normal correction path so
        a fault in the *old* line cannot leak into the parity.  If the
        old line is *unrecoverable* (a write-path DUE: its data is
        already lost), the incremental update would poison the parity
        forever; instead the affected groups are rebuilt from their
        current stored words -- what a real controller's scrub pass does
        after signalling the poison.
        """
        old_word = self._corrected_old_word(frame)
        new_word = self.codec.encode(data)
        old_trusted = self.codec.verify(old_word)
        self.array.write(frame, new_word)
        if old_trusted:
            for plt, mapper in self._tables():
                group = mapper.group_of(frame)
                if plt.is_quarantined(group) or not plt.verify(group):
                    # Folding a delta into a corrupt entry would launder
                    # the corruption behind a freshly-valid CRC; rebuild
                    # from the stored members instead.
                    self.stats.parity_rebuilds += 1
                    plt.rebuild(
                        group,
                        [self.array.read(f) for f in mapper.members(group)],
                    )
                else:
                    plt.update(group, old_word, new_word)
        else:
            self.stats.parity_rebuilds += 1
            for plt, mapper in self._tables():
                group = mapper.group_of(frame)
                plt.rebuild(
                    group, [self.array.read(f) for f in mapper.members(group)]
                )
        self.stats.writes += 1

    def read_data(self, frame: int) -> Tuple[int, Outcome]:
        """Demand read: returns ``(data, outcome)``, repairing as needed."""
        self.stats.reads += 1
        self.correction_time_s += self.latency.syndrome_check()
        outcome = self._resolve_line(frame)
        data = self.codec.extract_data(self.array.read(frame))
        return data, outcome

    def _corrected_old_word(self, frame: int) -> int:
        """Old stored word with faults scrubbed out, for parity updates."""
        stored = self.array.read(frame)
        decode = self.codec.decode(stored)
        if decode.status is DecodeStatus.CLEAN:
            return stored
        if decode.status is DecodeStatus.CORRECTED:
            self.array.restore(frame, decode.word)
            return decode.word
        # Multi-bit fault on the write path: run the full repair first.
        self._repair_group_of(frame)
        return self.array.read(frame)

    # -- scrub protocol ----------------------------------------------------------------

    def begin_scrub_pass(self) -> None:
        """Reset per-pass caches; call before each scrub walk."""
        self._pending.clear()
        self._decode_cache.clear()
        self._retry_memo.clear()

    def scrub_line(self, frame: int) -> str:
        """Resolve one line (LineScrubber protocol); returns outcome label."""
        return self._scrub_line(frame).value

    def _scrub_line(self, frame: int) -> Outcome:
        """:meth:`scrub_line`, returning the :class:`Outcome` itself."""
        fault_bits = (
            popcount(self.array.error_vector(frame))
            if self.event_log is not None
            else 0
        )
        outcome = self._pending.pop(frame, None)
        if outcome is None:
            outcome = self._resolve_line(frame)
        outcome = self._audit(frame, outcome)
        self.stats.record(outcome)
        if self.event_log is not None:
            self.event_log.record(
                frame,
                outcome,
                fault_bits=fault_bits,
                group=self.mapper.group_of(frame),
                latency_s=self._latency_for(outcome),
            )
        return outcome

    def _latency_for(self, outcome: Outcome) -> float:
        """Modelled hardware latency of resolving a line this way."""
        if outcome is Outcome.CLEAN:
            return self.latency.syndrome_check()
        if outcome is Outcome.CORRECTED_ECC1:
            return self.latency.ecc1_repair()
        if outcome in (
            Outcome.CORRECTED_RAID4,
            Outcome.DUE,
            Outcome.METADATA_DUE,
            Outcome.SDC,
        ):
            return self.latency.raid4_repair(self.group_size)
        if outcome is Outcome.CORRECTED_SDR:
            # The flip-and-check search is bounded by the mismatch-width
            # cap, not a fixed constant (SuDoku-Y/Z expose the knob).
            return self.latency.sdr_repair(
                self.group_size, trials=getattr(self, "sdr_max_mismatches", 6)
            )
        return self.latency.hash2_repair(self.group_size, groups_read=2)

    def scrub_all(self) -> Dict[str, int]:
        """Convenience: scrub every frame, returning the outcome counts."""
        return self.scrub_frames(range(self.array.num_lines))

    def scrub_sparse(self) -> Dict[str, int]:
        """Fault-indexed scrub: decode only dirty frames, bulk-count clean.

        Frames outside the array's dirty set hold valid codewords (every
        write goes through the codec; injections and miscorrections mark
        the frame dirty), so decoding them is a no-op that returns
        ``clean`` -- this entry point skips those decodes and accounts the
        population in one addition.  Outcome counters are bit-identical
        to :meth:`scrub_all`; group scans, ``audit_metadata``, and the
        golden-copy audit fire exactly as in a dense pass for every frame
        actually decoded.
        """
        counts = Counter(self.scrub_frames(self.array.dirty_frames()))
        counts[Outcome.CLEAN.value] += self.account_bulk_clean(
            self.array.num_lines - sum(counts.values())
        )
        return dict(counts)

    def account_bulk_clean(self, count: int) -> int:
        """Record ``count`` known-clean lines without decoding them.

        Keeps ``stats`` consistent with a dense pass.
        """
        if count < 0:
            raise ValueError("bulk clean count cannot be negative")
        self.stats.outcomes[Outcome.CLEAN.value] += count
        return count

    @property
    def resolves_single_flips(self) -> bool:
        """Whether :meth:`scrub_frames` resolves ECC-1-only frames unstored.

        True where a scrub pass classifies its frames: a batched backend
        that classifies this codec's words, and no event log.
        """
        return (
            self.backend.batched
            and self.event_log is None
            and self.backend.batch_check(self.codec, ()) is not None
        )

    def scrub_frames(
        self, frames, ecc1_only: Optional[Dict[int, int]] = None
    ) -> Dict[str, int]:
        """Scrub a subset of frames (plus whatever group repairs touch).

        The Monte-Carlo harness uses this to visit only the frames it
        injected faults into -- behaviourally identical to a full pass
        (clean lines contribute nothing but read time) at a fraction of
        the cost.  Outcomes of frames resolved collaterally by group
        repairs are drained and counted as well.

        On a batched backend that classifies the codec's words, the
        frames are classified once, up front, and each maximal run of
        frames that ECC-1 alone repairs is resolved in bulk
        (:meth:`_scrub_ecc1_run`); every other frame, and every frame
        while an event log is attached, is resolved line by line from
        the same classification.

        ``ecc1_only`` maps *ECC-1-only frames* to the one bit flipped in
        each; they appear in ``frames`` but not in the array.  Such a
        flip is on a line that is otherwise clean and has no stuck
        cells, and the caller guarantees that no group it belongs to
        under any hash holds a frame that can be uncorrectable (a
        multi-bit, dirty or stuck line).  Group scans start only from
        uncorrectable frames and their groups, so no scan of this pass
        can read such a frame: ECC-1 repairs it exactly when it is
        visited, and nothing else can see it.  Each therefore joins its
        ECC-1 run with its outcome known, and is counted without being
        stored, read or restored.  Only an engine whose
        :attr:`resolves_single_flips` holds accepts them.
        """
        self.begin_scrub_pass()
        frames = list(frames)
        ecc1_only = ecc1_only or {}
        if ecc1_only and not self.resolves_single_flips:
            raise ValueError(
                "ECC-1-only frames need a scrub that classifies its frames "
                "(resolves_single_flips); store these flips instead"
            )
        tally: Counter = Counter()
        stored = (
            [frame for frame in frames if frame not in ecc1_only]
            if ecc1_only
            else frames
        )
        classified = self._classify(stored) if self.backend.batched else None
        if classified is not None and self.event_log is None:
            self._scrub_classified(frames, *classified, ecc1_only, tally)
        else:
            for frame in frames:
                tally[self._scrub_line(frame).value] += 1
        if self._pending:
            # A frame this pass already visited can re-enter _pending
            # when a later group repair touches it again (a stuck-at
            # line stays dirty after its repair); it was counted once.
            visited = set(frames)
            for frame, outcome in list(self._pending.items()):
                if frame in visited:
                    continue
                audited = self._audit(frame, outcome)
                self.stats.record(audited)
                tally[audited.value] += 1
        self._pending.clear()
        self._decode_cache.clear()
        self._retry_memo.clear()
        return dict(tally)

    def _scrub_classified(
        self,
        frames: List[int],
        words: Sequence[int],
        codes: List[int],
        ecc1_only: Dict[int, int],
        tally: Counter,
    ) -> None:
        """Walk ``frames`` in order, resolving ECC-1 runs in bulk.

        ``words`` and ``codes`` classify the frames outside
        ``ecc1_only``, in order.  Such a frame joins the current run
        when its code says ECC-1 repairs it, no group repair earlier in
        the pass has resolved it (it is not in ``_pending``), it is not
        already in the run (a duplicated visit), and its stored word is
        still the one classified.  An ECC-1-only frame joins on its
        first visit, with nothing to read; a repeat visit finds it
        clean, as it finds a restored frame.  Any other frame first
        flushes the run, then takes ``_scrub_line``.  Only
        ``_scrub_line`` and run flushes write the array, so a frame's
        eligibility cannot change between joining and flushing.

        A run is flushed in pieces, one wherever it switches between
        stored and ECC-1-only frames.  Every piece accounts its frames
        one by one, in walk order, so the pieces add up to the whole
        run exactly; outcomes are tallied per piece, not per line.
        """
        pending, read = self._pending, self.array.read
        checked = zip(words, codes)
        run: List[int] = []
        fixed: List[int] = []
        in_run: set = set()
        unstored = 0
        resolved: set = set()

        def flush() -> None:
            nonlocal run, fixed, in_run, unstored
            if run:
                outcomes = self._scrub_ecc1_run(run, fixed)
                run, fixed, in_run = [], [], set()
            elif unstored:
                outcomes = self._resolve_unstored(unstored)
                unstored = 0
            else:
                return
            if Outcome.SDC in outcomes:
                for outcome in outcomes:
                    tally[outcome.value] += 1
            else:
                tally[Outcome.CORRECTED_ECC1.value] += len(outcomes)

        for frame in frames:
            if frame in ecc1_only:
                if frame not in resolved:
                    resolved.add(frame)
                    if run:
                        flush()
                    unstored += 1
                    continue
            else:
                word, code = next(checked)
                if (
                    code >= 0
                    and frame not in pending
                    and frame not in in_run
                    and read(frame) == word
                ):
                    if unstored:
                        flush()
                    run.append(frame)
                    fixed.append(word ^ (1 << code))
                    in_run.add(frame)
                    continue
            flush()
            tally[self._scrub_line(frame).value] += 1
        flush()

    def _scrub_ecc1_run(self, run: List[int], fixed: List[int]) -> List[Outcome]:
        """Resolve distinct ECC-1 frames to their repaired words at once.

        Bit-identical to ``_scrub_line`` on each frame in turn: a frame's
        restore and audit touch only that frame, the latency addends are
        added one per line in order, every repair is counted, and
        outcomes are recorded in order -- ECC-1, or SDC where the golden
        audit flags the repair.
        """
        clean = self.array.restore_many(run, fixed)
        self._account_ecc1(len(run))
        if self.audit and not all(clean):
            outcomes = [
                Outcome.CORRECTED_ECC1 if ok else Outcome.SDC for ok in clean
            ]
            for outcome in outcomes:
                self.stats.record(outcome)
            return outcomes
        self.stats.outcomes[Outcome.CORRECTED_ECC1.value] += len(run)
        return [Outcome.CORRECTED_ECC1] * len(run)

    def _resolve_unstored(self, repairs: int) -> List[Outcome]:
        """Account ``repairs`` ECC-1-only frames as ``_scrub_line`` would.

        Each was a single flip on a clean line: ECC-1 restores golden,
        so the audit passes and the outcome is ECC-1.
        """
        self._account_ecc1(repairs)
        self.stats.outcomes[Outcome.CORRECTED_ECC1.value] += repairs
        return [Outcome.CORRECTED_ECC1] * repairs

    def _account_ecc1(self, repairs: int) -> None:
        """One ECC-1 latency addend per repair, in order, and the count."""
        step = self.latency.ecc1_repair()
        for _ in range(repairs):
            self.correction_time_s += step
        self.stats.ecc1_repairs += repairs

    # -- line resolution --------------------------------------------------------------

    def _resolve_line(self, frame: int) -> Outcome:
        stored = self.array.read(frame)
        decode = self._cached_decode(frame, stored)
        if decode.status is DecodeStatus.CLEAN:
            return Outcome.CLEAN
        if decode.status is DecodeStatus.CORRECTED:
            self.array.restore(frame, decode.word)
            self._account_ecc1(1)
            return Outcome.CORRECTED_ECC1
        outcomes = self._repair_group_of(frame)
        outcome = outcomes.pop(frame, Outcome.DUE)
        # Group repair may have resolved other frames; remember their
        # outcomes so each line is reported exactly once per pass.
        for other_frame, other_outcome in outcomes.items():
            self._pending.setdefault(other_frame, other_outcome)
        return outcome

    def _repair_group_of(self, frame: int) -> Dict[int, Outcome]:
        """Run this design's group-level machinery; template method."""
        group = self.mapper.group_of(frame)
        return self._repair_hash1_group(group)

    def _repair_hash1_group(self, group: int) -> Dict[int, Outcome]:
        """SuDoku-X group repair: scan, then RAID-4 for a single survivor.

        Before any parity-consuming machinery runs, the group's PLT entry
        is verified; if it cannot be trusted (and cannot be rebuilt from
        clean members) the group-level repair is refused and surviving
        lines resolve to :data:`Outcome.METADATA_DUE` -- a detected
        failure, never a silent one.  Per-line ECC-1 fixes from the scan
        stand regardless: they never touch the parity store.
        """
        scan = self._scan(self.mapper, group)
        if self._verify_group_metadata(scan, self.plt):
            self._group_level_repair(scan, self.plt)
            fallback = Outcome.DUE
        else:
            fallback = Outcome.METADATA_DUE
        outcomes = dict(scan.line_outcomes)
        for frame in scan.uncorrectable:
            outcomes[frame] = fallback
        return outcomes

    def _verify_group_metadata(
        self, scan: GroupScan, plt: ParityLineTable
    ) -> bool:
        """Is this group's parity entry safe to use for repairs?

        Two detectors: the location-keyed per-entry CRC (catches raw SRAM
        bit flips that bypassed the checksum logic *and* another group's
        entry served by a perturbed mapping) and, when every member line
        decoded clean, a recompute-and-compare (defence in depth against
        wrong-but-consistent entries, e.g. a stale parity).  A
        detected-corrupt entry quarantines the group; when all members
        are verifiably clean the entry is immediately re-derived from
        them (the CRC-verified group rebuild) and trust restored.
        """
        group = scan.group
        known_bad = plt.is_quarantined(group)
        event = None
        if not known_bad:
            if not plt.verify(group):
                event = "crc_fault"
            elif not scan.uncorrectable and plt.mismatch(
                group, scan.parity_terms()
            ):
                event = "recompute_mismatch"
            if event is None:
                return True
            self.stats.metadata_faults[event] += 1
            self.stats.metadata_quarantines += 1
            plt.quarantine(group)
        if scan.uncorrectable:
            # A member is still corrupt: the parity cannot be re-derived
            # trustworthily, so the group stays quarantined.
            return False
        plt.rebuild(group, scan.parity_terms())
        self.stats.metadata_rebuilds += 1
        return True

    def _group_level_repair(self, scan: GroupScan, plt: ParityLineTable) -> None:
        """Design-specific multi-line repair; X does RAID-4 only."""
        self._finish_with_raid4(scan, plt)

    def _finish_with_raid4(self, scan: GroupScan, plt: ParityLineTable) -> None:
        """If exactly one uncorrectable line remains, rebuild it."""
        if len(scan.uncorrectable) != 1:
            return
        self._account_raid4(
            scan.group, len(scan.frames), scan.uncorrectable[0],
            lambda: reconstruct_line(
                self.array, self.codec, plt, scan, scan.uncorrectable[0]
            ),
        )

    # -- correction accounting ---------------------------------------------------
    #
    # Every stat, latency addend and span of a group repair goes
    # through one of these helpers, which also record what they added
    # while a peeling retry is simulated; applying that record again
    # repeats a retry's accounting exactly (see SuDokuZ._retry_group).

    def _record(
        self,
        group_scans: int = 0,
        lines_scanned: int = 0,
        raid4_invocations: int = 0,
        sdr_invocations: int = 0,
        sdr_trials: int = 0,
        addend: Optional[float] = None,
        correction: Optional[Tuple[str, Dict[str, int]]] = None,
    ) -> None:
        """Add one helper's contribution to the retry being simulated."""
        log = self._retry_log
        if log is None:
            return
        log.group_scans += group_scans
        log.lines_scanned += lines_scanned
        log.raid4_invocations += raid4_invocations
        log.sdr_invocations += sdr_invocations
        log.sdr_trials += sdr_trials
        if addend is not None:
            log.addends.append(addend)
        if correction is not None:
            log.corrections.append(correction)

    def _account_scan(self, size: int) -> None:
        self.stats.group_scans += 1
        self.stats.lines_scanned += size
        self._record(group_scans=1, lines_scanned=size)

    def _account_raid4(
        self, group: int, size: int, frame: int, repair: Callable[[], object]
    ) -> None:
        """Count one RAID-4 reconstruction of ``frame``, run by ``repair``."""
        self.stats.raid4_invocations += 1
        addend = self.latency.raid4_repair(size)
        self.correction_time_s += addend
        attributes = {"group": group, "frame": frame}
        with self._correction("raid4", **attributes):
            repair()
        self._record(
            raid4_invocations=1, addend=addend, correction=("raid4", attributes)
        )

    def _account_sdr(
        self, group: int, size: int, survivors: int, repair: Callable[[], int]
    ) -> None:
        """Count one SDR search, run by ``repair``, which returns its trials."""
        self.stats.sdr_invocations += 1
        with self._correction("sdr", group=group, survivors=survivors) as span:
            trials = repair()
            span.set_attribute("trials", trials)
        self.stats.sdr_trials += trials
        addend = self.latency.sdr_repair(size, trials)
        self.correction_time_s += addend
        attributes = {"group": group, "survivors": survivors, "trials": trials}
        self._record(
            sdr_invocations=1, sdr_trials=trials, addend=addend,
            correction=("sdr", attributes),
        )

    def _correction(self, mechanism: str, **attributes):
        """The repair span of one ``mechanism`` invocation."""
        return self.tracer.span(
            f"{mechanism}_repair", level=self.level, **attributes
        )

    def _scan(self, mapper, group: int) -> GroupScan:
        """Scan one group, reading only the members the dirty index flags.

        A member whose stored word matches golden holds a codec-written
        codeword, so its decode is known ``CLEAN`` and contributes its
        stored word unchanged; the scan trusts the index instead of
        reading and decoding it, and takes the clean members' XOR from
        the array in one split.  Results are identical to a dense scan
        on every backend.
        """
        self._account_scan(mapper.group_size)
        members = mapper.members(group)
        split = self.array.split_clean(members)
        return scan_group(
            self.array, self.codec, group, members,
            trusted_clean=True, decoder=self._cached_decode, split=split,
        )

    # -- audit ------------------------------------------------------------------------

    def _audit(self, frame: int, outcome: Outcome) -> Outcome:
        if not self.audit or outcome.is_due:
            return outcome
        if self.array.is_clean(frame):
            return outcome
        # The engine believes this line is fine, but it differs from what
        # was written: silent data corruption.
        return Outcome.SDC

    # -- metadata scrub ---------------------------------------------------------------

    def audit_metadata(self, repair: bool = True) -> Dict[str, int]:
        """Background metadata scrub: verify every PLT entry of every table.

        For each group the entry CRC is checked and -- when every member
        line decodes clean under ECC-1 -- the parity is recomputed from
        the members and compared.  With ``repair`` True (the default),
        detected-corrupt entries whose groups are otherwise healthy are
        rebuilt in place (lifting any quarantine); groups that cannot be
        re-derived yet are quarantined for the demand path to handle.

        Returns counts: ``groups`` inspected, ``crc_faults`` and
        ``recompute_faults`` newly detected, ``rebuilt``, and
        ``quarantined`` (still-untrusted entries left behind).
        """
        report = {
            "groups": 0,
            "crc_faults": 0,
            "recompute_faults": 0,
            "rebuilt": 0,
            "quarantined": 0,
        }
        for plt, mapper in self._tables():
            for group in range(mapper.num_groups):
                report["groups"] += 1
                members: List[int] = []
                members_clean = True
                for frame in mapper.members(group):
                    decode = self.codec.decode(self.array.read(frame))
                    if decode.status is DecodeStatus.UNCORRECTABLE:
                        members_clean = False
                        break
                    members.append(decode.word)
                event = None
                if not plt.verify(group):
                    event = "crc_fault"
                elif members_clean and plt.mismatch(group, members):
                    event = "recompute_mismatch"
                if event is None and not plt.is_quarantined(group):
                    continue
                if event is not None and not plt.is_quarantined(group):
                    report[
                        "crc_faults" if event == "crc_fault"
                        else "recompute_faults"
                    ] += 1
                    self.stats.metadata_faults[event] += 1
                if repair and members_clean:
                    plt.rebuild(group, members)
                    report["rebuilt"] += 1
                    self.stats.metadata_rebuilds += 1
                else:
                    if not plt.is_quarantined(group):
                        self.stats.metadata_quarantines += 1
                    plt.quarantine(group)
                    report["quarantined"] += 1
        return report

    # -- reporting -----------------------------------------------------------------------

    @property
    def data_bits(self) -> int:
        """Payload bits per line (the campaign harness fill width)."""
        return self.codec.layout.data_bits

    @property
    def storage_overhead_bits_per_line(self) -> float:
        """Metadata bits per line: CRC + ECC + amortised parity storage."""
        parity_bits = sum(
            plt.num_groups * plt.line_bits for plt, _ in self._tables()
        )
        return (
            self.codec.layout.overhead_bits + parity_bits / self.array.num_lines
        )

    def describe(self) -> str:
        """One-line description for logs."""
        return (
            f"SuDoku-{self.level}: {self.array.num_lines} frames, "
            f"{self.group_size}-line groups, "
            f"{self.storage_overhead_bits_per_line:.1f} overhead bits/line"
        )


class SuDokuX(SuDokuEngine):
    """The base design: ECC-1 + CRC-31 + single-hash RAID-4."""

    level = "X"


class SuDokuY(SuDokuEngine):
    """SuDoku-X plus Sequential Data Resurrection."""

    level = "Y"

    def __init__(self, *args, sdr_max_mismatches: int = 6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sdr_max_mismatches = sdr_max_mismatches

    def _group_level_repair(self, scan: GroupScan, plt: ParityLineTable) -> None:
        if len(scan.uncorrectable) > 1:
            self._account_sdr(
                scan.group, len(scan.frames), len(scan.uncorrectable),
                lambda: resurrect(
                    self.array, self.codec, plt, scan,
                    max_mismatches=self.sdr_max_mismatches,
                ).trials,
            )
        self._finish_with_raid4(scan, plt)


class SuDokuZ(SuDokuY):
    """SuDoku-Y plus the skewed second hash (section V).

    Group repair escalates into a *peeling* fixed point: lines the Hash-1
    group cannot repair retry in their Hash-2 groups (different partner
    lines, by the skewing guarantee).  When a Hash-2 group is itself
    blocked by other faulty partners, those partners join the work list
    and are attacked through *their* other group -- the paper's "we can
    use the corrected value of that line to repair the other line"
    (section V-B), iterated to exhaustion.  Every fix simplifies some
    group, so the process peels the fault pattern like an erasure decoder
    and fails only on genuinely doubly-blocked cores of faulty lines.
    """

    level = "Z"

    #: Safety bound on peeling rounds (each round sweeps the work list).
    MAX_ROUNDS = 8

    def _init_extra_tables(self) -> None:
        self.mapper2 = SkewedGroupMapper(self.array.num_lines, self.group_size)
        self.plt2 = ParityLineTable(
            self.mapper2.num_groups, self.array.line_bits, backend=self.backend
        )

    def _tables(self) -> List[Tuple[ParityLineTable, GroupMapper]]:
        return [(self.plt, self.mapper), (self.plt2, self.mapper2)]

    def _repair_group_of(self, frame: int) -> Dict[int, Outcome]:
        outcomes = self._repair_hash1_group(self.mapper.group_of(frame))
        # METADATA_DUE lines are prime Hash-2 candidates: their Hash-1
        # parity is quarantined, but the Hash-2 table is independent.
        unresolved = {f for f, o in outcomes.items() if o.is_due}
        if not unresolved:
            return outcomes

        self.stats.hash2_invocations += 1
        with self._correction(
            "hash2", group=self.mapper.group_of(frame), survivors=len(unresolved),
        ):
            outcomes = self._peel_hash2(outcomes, unresolved)
        return outcomes

    def _peel_hash2(
        self, outcomes: Dict[int, Outcome], unresolved: set
    ) -> Dict[int, Outcome]:
        """The Hash-2 peeling fixed point (split out for span scoping)."""
        seen = set(unresolved)
        for _ in range(self.MAX_ROUNDS):
            progressed = False
            for survivor in sorted(unresolved):
                if survivor not in unresolved:
                    continue
                for mapper, plt in (
                    (self.mapper2, self.plt2),
                    (self.mapper, self.plt),
                ):
                    line_outcomes, uncorrectable = self._retry_group(
                        mapper, plt, mapper.group_of(survivor)
                    )
                    for fixed_frame, fixed_outcome in line_outcomes.items():
                        if fixed_frame in unresolved:
                            unresolved.discard(fixed_frame)
                            outcomes[fixed_frame] = Outcome.CORRECTED_HASH2
                            progressed = True
                        elif fixed_frame not in outcomes:
                            outcomes[fixed_frame] = fixed_outcome
                    # Faulty partners blocking this group join the work
                    # list; their *other* group may peel them next round.
                    for blocked in uncorrectable:
                        if blocked not in seen:
                            seen.add(blocked)
                            unresolved.add(blocked)
                            progressed = True
                    if survivor not in unresolved:
                        break
            if not unresolved or not progressed:
                break
        for survivor in unresolved:
            # Preserve the metadata attribution when that is why the
            # line could not be repaired anywhere.
            if outcomes.get(survivor) is not Outcome.METADATA_DUE:
                outcomes[survivor] = Outcome.DUE
        return outcomes

    def _retry_group(
        self, mapper, plt: ParityLineTable, group: int
    ) -> Tuple[Dict[int, Outcome], List[int]]:
        """One peeling retry of a group: its scan's line outcomes and the
        members still uncorrectable.

        Simulate a retry once, account it every time.  Most retries find
        their group as the previous retry left it, and a retry's result
        is a function of that state alone (the dirty members' stored
        words, parity word, CRC validity, quarantine), so a retry that
        changed none of it is remembered for the rest of the pass.  A
        later retry of the same state replays its accounting instead of
        rescanning.  While neither the array nor the table has mutated
        since the state was last confirmed (the entry's epoch stamp),
        the state is not even read; a moved stamp falls back to
        comparing it, and re-stamps the entry when it still matches.
        """
        key = (plt, group)
        stamp = (self.array.epoch, plt.epoch)
        retry = self._retry_memo.get(key)
        if retry is not None and retry.stamp == stamp:
            return self._replay(retry)
        members = mapper.members(group)
        state = self._group_state(members, plt, group)
        if retry is not None and retry.state == state:
            self._retry_memo[key] = retry._replace(stamp=stamp)
            return self._replay(retry)
        replay = _Replay()
        self._retry_log = replay
        try:
            scan = self._scan(mapper, group)
            self._account_retry_read(len(scan.frames))
            if self._verify_group_metadata(scan, plt):
                self._group_level_repair(scan, plt)
        finally:
            self._retry_log = None
        # A retry that raised a metadata event changed its group's
        # parity, CRC validity or quarantine, so it is never remembered;
        # the record holds every other accounting step.  A retry that
        # stored nothing left the state as it was, unread.
        after = (self.array.epoch, plt.epoch)
        if after == stamp or self._group_state(members, plt, group) == state:
            self._retry_memo[key] = _Retry(
                state, after, replay, scan.line_outcomes, scan.uncorrectable
            )
        return scan.line_outcomes, scan.uncorrectable

    def _replay(self, retry: _Retry) -> Tuple[Dict[int, Outcome], List[int]]:
        """Account a remembered retry again; return its scan's results.

        Apply its record: the stat deltas, then each latency addend in
        order, then its repair spans when a tracer records them.
        """
        replay = retry.replay
        stats = self.stats
        stats.group_scans += replay.group_scans
        stats.lines_scanned += replay.lines_scanned
        stats.raid4_invocations += replay.raid4_invocations
        stats.sdr_invocations += replay.sdr_invocations
        stats.sdr_trials += replay.sdr_trials
        total = self.correction_time_s
        for addend in replay.addends:
            total += addend
        self.correction_time_s = total
        if self.tracer.enabled:
            # Replays are the hot path of failing intervals: skip even
            # the null spans when nothing records them.
            for mechanism, attributes in replay.corrections:
                with self._correction(mechanism, **attributes):
                    pass
        return retry.line_outcomes, retry.uncorrectable

    def _account_retry_read(self, size: int) -> None:
        """The modelled latency of reading a group for a peeling retry."""
        addend = self.latency.raid4_repair(size)
        self.correction_time_s += addend
        self._record(addend=addend)

    def _group_state(
        self, members: List[int], plt: ParityLineTable, group: int
    ) -> tuple:
        """Everything a peeling retry of ``group`` reads.

        Members are keyed by their dirty ``(frame, stored word)`` pairs
        alone: a clean member stores its golden word, and golden changes
        only through ``write``, which no scrub pass calls (a demand
        write also moves the group's parity by the word's change).
        """
        return (
            self.array.dirty_items(members),
            plt.parity(group),
            plt.verify(group),
            plt.is_quarantined(group),
        )


def build_engine(
    level: str,
    array: STTRAMArray,
    group_size: int = 512,
    audit: bool = True,
    **kwargs,
) -> SuDokuEngine:
    """Factory: build a SuDoku engine by level name ('X', 'Y', or 'Z')."""
    classes = {"X": SuDokuX, "Y": SuDokuY, "Z": SuDokuZ}
    try:
        cls = classes[level.upper()]
    except KeyError:
        raise ValueError(f"unknown SuDoku level {level!r}; expected X, Y, or Z")
    return cls(array, group_size=group_size, audit=audit, **kwargs)
